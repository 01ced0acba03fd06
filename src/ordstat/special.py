"""Binomial tail sums and the regularized incomplete beta function.

Every distribution formula in this package reduces to upper tails of a
binomial law, and for integer shapes the regularized incomplete beta
function is exactly such a tail:

    I_p(a, b) = P{Bin(a + b - 1, p) >= a}
              = sum_{j=a}^{a+b-1} C(a+b-1, j) p^j (1-p)^(a+b-1-j)

The tail is I_p(lo, n - lo + 1) from ``scipy.special.betainc`` (Boost's
``ibeta``), which keeps full relative precision deep in the tails and for
any n, where a term-by-term sum overflows for n above about 1030 and
underflows tails as small as 1e-209 to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

from scipy.special import betainc

from .errors import DomainError

__all__ = ["BetaParams", "binom_tail", "reg_inc_beta"]


@dataclass(frozen=True)
class BetaParams:
    """Integer shapes (a, b) and evaluation point p of I_p(a, b)."""

    a: int
    b: int
    p: float

    def __post_init__(self):
        if int(self.a) != self.a or self.a < 1:
            raise DomainError(f"shape a must be an integer >= 1, got {self.a!r}")
        if int(self.b) != self.b or self.b < 1:
            raise DomainError(f"shape b must be an integer >= 1, got {self.b!r}")
        if isnan(self.p) or not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.p!r}")


def binom_tail(n_trials: int, lo: int, p: float) -> float:
    """Upper binomial tail P{Bin(n_trials, p) >= lo}.

    ``lo`` runs from 0 (full tail, exactly 1) up to ``n_trials + 1`` (empty
    tail, exactly 0); both boundary values are forced by the empty and full
    sum conventions.
    """
    if int(n_trials) != n_trials or n_trials < 0:
        raise DomainError(f"n_trials must be a nonnegative integer, got {n_trials!r}")
    if int(lo) != lo or not 0 <= lo <= n_trials + 1:
        raise DomainError(
            f"lo must satisfy 0 <= lo <= n_trials + 1, got lo={lo!r} with n_trials={n_trials}"
        )
    if isnan(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p!r}")
    if lo == 0:
        return 1.0
    if lo == n_trials + 1:
        return 0.0
    return float(betainc(int(lo), int(n_trials) - int(lo) + 1, p))


def reg_inc_beta(a: int, b: int, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b) for integer shapes.

    Evaluated through the identity I_p(a, b) = binom_tail(a + b - 1, a, p).
    I_0 = 0, I_1 = 1, and the value is nondecreasing in p.
    """
    params = BetaParams(a, b, p)
    return binom_tail(params.a + params.b - 1, params.a, params.p)
