"""Binomial tail sums and the regularized incomplete beta function.

Every distribution formula in this package reduces to upper tails of a
binomial law, and for integer shapes the regularized incomplete beta
function is exactly such a tail:

    I_p(a, b) = P{Bin(a + b - 1, p) >= a}
              = sum_{j=a}^{a+b-1} C(a+b-1, j) p^j (1-p)^(a+b-1-j)

The tail P{Bin(n, p) >= lo} runs from lo = 0 up to lo = n + 1, and its two
ends are conventions of the empty and full sums: lo = 0 gives exactly 1 and
lo = n + 1 gives exactly 0, for every p in [0, 1].  Between them the tail is
I_p(lo, n - lo + 1) from ``scipy.special.betainc`` (Boost's ``ibeta``), which
works for any n.  betainc breaks both conventions at the ends of [0, 1]:
betainc(0, b, 0.0) is 0 and betainc(a, 0, 1.0) is 1, so they are set apart
from it.  At n <= 300 betainc is within 7e-14 relative of exact sums down to
tails of about 1e-280, but not below: binom_tail(105, 72, 3.961504368954634e-05)
is 1.5e-4 relative off its exact 2.25774e-290, and binom_tail(244, 219,
0.03056652865190136) is 0.0 against 7.49e-299.

``binom_tail`` checks its arguments and returns one tail.  ``_tails`` returns
several, elementwise over sequences of arguments, from one betainc call, for a
caller that needs them at once and has checked its arguments itself.  Each of
its values has the bits of binom_tail's, the conventions included, and so the
same precision limit.
"""

from __future__ import annotations

from math import inf

from scipy.special import betainc

from .errors import _integer, _real

__all__ = ["binom_tail", "reg_inc_beta"]


def binom_tail(n_trials: int, lo: int, p: float) -> float:
    """Upper binomial tail P{Bin(n_trials, p) >= lo}.

    ``lo`` runs from 0 (full tail, exactly 1) up to ``n_trials + 1`` (empty
    tail, exactly 0), the conventions of the module docstring.
    """
    n_trials = _integer(n_trials, 0, inf, "n_trials must be a nonnegative integer")
    lo = _integer(lo, 0, n_trials + 1, "lo must satisfy 0 <= lo <= n_trials + 1")
    p = _real(p, 0.0, 1.0, "p must lie in [0, 1]")
    if lo == 0:
        return 1.0
    if lo == n_trials + 1:
        return 0.0
    return float(betainc(lo, n_trials - lo + 1, p))


def _tails(n_trials, lo, p) -> list[float]:
    """[binom_tail(n, k, q) for n, k, q in zip(n_trials, lo, p)] from one betainc call.

    Unchecked: the caller passes equal-length flat sequences of valid
    arguments (betainc converts nested lists at about twice the cost).
    """
    shape_b = [n - k + 1 for n, k in zip(n_trials, lo)]
    tails = betainc(lo, shape_b, p).tolist()
    if 0 in lo or 0 in shape_b:  # a full or an empty tail, whose convention betainc breaks
        tails = [1.0 if not k else 0.0 if not b else t for k, b, t in zip(lo, shape_b, tails)]
    return tails


def reg_inc_beta(a: int, b: int, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b) for integer shapes.

    Evaluated through the identity I_p(a, b) = binom_tail(a + b - 1, a, p).
    I_0 = 0, I_1 = 1, and the value is nondecreasing in p.
    """
    a = _integer(a, 1, inf, "shape a must be an integer >= 1")
    b = _integer(b, 1, inf, "shape b must be an integer >= 1")
    return binom_tail(a + b - 1, a, p)
