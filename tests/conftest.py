"""Shared test oracles, kept independent of the library code paths."""

from fractions import Fraction
from math import comb

import pytest

from ordstat import Exponential, Uniform, Weibull


def exact_binom_tail(n: int, lo: int, p) -> Fraction:
    """Upper binomial tail by direct summation in exact rationals.

    With p = a/d the terms C(n, i) a^i (d - a)^(n-i) / d^n are integers over
    one denominator and sum to exactly 1, so the tail is summed over
    whichever side has fewer terms.
    """
    p = Fraction(p)
    a, d = p.numerator, p.denominator

    def term(i):
        return comb(n, i) * a**i * (d - a) ** (n - i)

    if 2 * lo > n:
        upper = sum(term(i) for i in range(lo, n + 1))
    else:
        upper = d**n - sum(term(i) for i in range(lo))
    return Fraction(upper, d**n)


def model_triplet():
    """One representative of each absolutely continuous model family."""
    return [Exponential(1.0), Weibull(2.0, 1.0), Uniform(0.0, 3.0)]


@pytest.fixture
def models():
    return model_triplet()
