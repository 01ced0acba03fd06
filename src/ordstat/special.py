"""Binomial tail sums and the regularized incomplete beta function.

Every distribution formula in this package reduces to upper tails of a
binomial law, and for integer shapes the regularized incomplete beta
function is exactly such a tail:

    I_p(a, b) = P{Bin(a + b - 1, p) >= a}
              = sum_{j=a}^{a+b-1} C(a+b-1, j) p^j (1-p)^(a+b-1-j)

The tail is I_p(lo, n - lo + 1) from ``scipy.special.betainc`` (Boost's
``ibeta``), which works for any n.  At n <= 300 it is within 7e-14 relative of
exact sums down to tails of about 1e-280, but not below: binom_tail(105, 72,
3.961504368954634e-05) is 1.5e-4 relative off its exact 2.25774e-290, and
binom_tail(244, 219, 0.03056652865190136) is 0.0 against 7.49e-299.
"""

from __future__ import annotations

from math import inf

from scipy.special import betainc

from .errors import _integer, _real

__all__ = ["binom_tail", "reg_inc_beta"]


def binom_tail(n_trials: int, lo: int, p: float) -> float:
    """Upper binomial tail P{Bin(n_trials, p) >= lo}.

    ``lo`` runs from 0 (full tail, exactly 1) up to ``n_trials + 1`` (empty
    tail, exactly 0); both boundary values are forced by the empty and full
    sum conventions.
    """
    n_trials = _integer(n_trials, 0, inf, "n_trials must be a nonnegative integer")
    lo = _integer(lo, 0, n_trials + 1, "lo must satisfy 0 <= lo <= n_trials + 1")
    p = _real(p, 0.0, 1.0, "p must lie in [0, 1]")
    if lo == 0:
        return 1.0
    if lo == n_trials + 1:
        return 0.0
    return float(betainc(lo, n_trials - lo + 1, p))


def reg_inc_beta(a: int, b: int, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b) for integer shapes.

    Evaluated through the identity I_p(a, b) = binom_tail(a + b - 1, a, p).
    I_0 = 0, I_1 = 1, and the value is nondecreasing in p.
    """
    a = _integer(a, 1, inf, "shape a must be an integer >= 1")
    b = _integer(b, 1, inf, "shape b must be an integer >= 1")
    return binom_tail(a + b - 1, a, p)
