from fractions import Fraction
from math import comb

import pytest
from scipy import special as sp

from conftest import exact_binom_tail
from ordstat import DomainError, binom_tail, reg_inc_beta
from ordstat.special import _tails


def test_full_tail_is_exactly_one():
    assert binom_tail(5, 0, 0.3) == 1.0


def test_empty_tail_is_exactly_zero():
    assert binom_tail(5, 6, 0.3) == 0.0


def test_single_top_term():
    assert binom_tail(5, 5, 0.5) == pytest.approx(0.03125, abs=1e-15)


def test_tail_matches_exact_rational_summation():
    oracle = exact_binom_tail(11, 4, Fraction(1, 2))
    assert oracle == Fraction(1816, 2048)
    assert binom_tail(11, 4, 0.5) == pytest.approx(float(oracle), abs=1e-14)


@pytest.mark.parametrize(
    "n,lo,p",
    [
        (7, 3, 0.3), (20, 11, 0.62), (1, 1, 0.125), (9, 2, 0.993),
        # deep tails and sizes where a term-by-term float sum under- or overflows
        (800, 200, 0.01), (2000, 1000, 0.5), (1500, 20, 0.002),
    ],
)
def test_tail_against_rational_oracle(n, lo, p):
    oracle = float(exact_binom_tail(n, lo, Fraction(p)))
    assert binom_tail(n, lo, p) == pytest.approx(oracle, abs=1e-13)
    assert binom_tail(n, lo, p) == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_beta_identity_at_unit_shapes():
    assert reg_inc_beta(1, 1, 0.37) == pytest.approx(0.37, abs=1e-15)


def test_beta_matches_exact_rational_summation():
    oracle = exact_binom_tail(4, 3, Fraction(1, 2))
    assert oracle == Fraction(5, 16)
    assert reg_inc_beta(3, 2, 0.5) == pytest.approx(float(oracle), abs=1e-14)


def test_beta_equals_binomial_tail_on_a_grid():
    # the r = 5, n = 12 shapes of the main worked example
    for p in [i / 20 for i in range(21)]:
        assert reg_inc_beta(4, 8, p) == pytest.approx(binom_tail(11, 4, p), abs=1e-12)


def test_beta_boundaries():
    assert reg_inc_beta(3, 4, 0.0) == 0.0
    assert reg_inc_beta(3, 4, 1.0) == 1.0


def test_beta_matches_scipy():
    for a, b in [(1, 1), (2, 3), (4, 8), (7, 2), (10, 10)]:
        for p in [0.0, 0.01, 0.2, 0.5, 0.77, 0.99, 1.0]:
            assert reg_inc_beta(a, b, p) == pytest.approx(float(sp.betainc(a, b, p)), abs=1e-12)


def test_tail_shift_identity_sweep():
    # I_p(r-1, n-r+1) = I_p(r, n-r) + C(n-1, r-1) p^(r-1) (1-p)^(n-r)
    ps = [i / 100 for i in range(1, 100)]
    for n in range(3, 31):
        for r in range(2, n):
            for p in ps:
                lhs = reg_inc_beta(r - 1, n - r + 1, p)
                rhs = reg_inc_beta(r, n - r, p) + comb(n - 1, r - 1) * p ** (r - 1) * (
                    1.0 - p
                ) ** (n - r)
                assert abs(lhs - rhs) <= 1e-12, (n, r, p)


def test_beta_monotone_in_p():
    ps = [i / 50 for i in range(51)]
    for a, b in [(1, 5), (4, 8), (9, 2)]:
        values = [reg_inc_beta(a, b, p) for p in ps]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


@pytest.mark.parametrize(
    "args",
    [(5, -1, 0.5), (5, 7, 0.5), (-1, 0, 0.5), (5, 2, -0.1), (5, 2, 1.5), (5, 2, float("nan"))],
)
def test_tail_rejects_bad_arguments(args):
    with pytest.raises(DomainError):
        binom_tail(*args)


@pytest.mark.parametrize("a,b,p", [(0, 2, 0.5), (2, 0, 0.5), (2, 2, -0.5), (2, 2, 2.0)])
def test_beta_params_reject_bad_arguments(a, b, p):
    with pytest.raises(DomainError):
        reg_inc_beta(a, b, p)


def test_batched_tails_have_the_bits_of_binom_tail():
    # p = 0 and p = 1 are where betainc breaks the conventions of lo = 0 and
    # lo = n_trials + 1; 5e-324 is the least float above 0, 1 - 2**-53 the
    # largest below 1
    ps = (0.0, 5e-324, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53, 1.0)
    args = [(n, lo, p) for n in range(41) for lo in range(n + 2) for p in ps]
    tails = _tails(*zip(*args))
    assert len(tails) == len(args)
    for (n, lo, p), tail in zip(args, tails):
        # hex tells -0.0 from 0.0, which == does not
        assert type(tail) is float and tail.hex() == binom_tail(n, lo, p).hex(), (n, lo, p)
