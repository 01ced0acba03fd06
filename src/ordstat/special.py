"""Binomial tail sums and the regularized incomplete beta function.

Every distribution formula in this package reduces to upper tails of a
binomial law, and for integer shapes the regularized incomplete beta
function is exactly such a tail:

    I_p(a, b) = P{Bin(a + b - 1, p) >= a}
              = sum_{j=a}^{a+b-1} C(a+b-1, j) p^j (1-p)^(a+b-1-j)

The tail P{Bin(n, p) >= lo} is defined for every integer lo: lo <= 0 gives
exactly 1 (the full sum) and lo > n exactly 0 (the empty one), for every p
in [0, 1].  Between them the tail is I_p(lo, n - lo + 1) from
``scipy.special.betainc`` (Boost's ``ibeta``), which works for any n.
betainc breaks both conventions at the ends of [0, 1]: betainc(0, b, 0.0) is
0 and betainc(a, 0, 1.0) is 1, and it gives NaN beyond them, so they are set
apart from it.  At n <= 300 betainc is within 7e-14 relative of exact sums
down to tails of about 1e-280, but not below: binom_tail(105, 72,
3.961504368954634e-05) is 1.5e-4 relative off its exact 2.25774e-290, and
binom_tail(244, 219, 0.03056652865190136) is 0.0 against 7.49e-299.

``_tails`` is the one place that computes tails: it returns several,
elementwise over sequences of arguments, from one betainc call, with the
conventions applied.  It checks nothing, for callers that have checked their
arguments themselves.  ``binom_tail`` checks its arguments, 0 <= lo <= n + 1
among them, and returns one tail from ``_tails``.

scipy is imported at the first tail or gamma call, not with the package:
``_sp`` is the one accessor through which this module, ``joint`` and
``lifetimes`` reach ``scipy.special``.  The first read of any name from it
imports ``scipy.special`` and copies its names onto ``_sp``, so every later
read is a plain attribute load with no import statement on the call path.
The exact inspection laws and the Monte-Carlo and enumeration oracles never
load scipy.
"""

from __future__ import annotations

from importlib import import_module
from math import inf
from types import ModuleType

from .errors import _integer, _real

__all__ = ["binom_tail", "reg_inc_beta"]


def _import_on_first_read(name):
    """The PEP 562 hook of ``_sp``: copy the names of ``scipy.special`` into it, then retire."""
    names = vars(import_module("scipy.special"))
    vars(_sp).update((key, value) for key, value in names.items() if not key.startswith("__"))
    # the interpreter does not specialize attribute loads from a module with
    # this hook (or from an object whose class has __getattr__), which costs
    # about 40 ns per load
    vars(_sp).pop("__getattr__", None)
    return getattr(_sp, name)


_sp = ModuleType(f"{__name__}._sp", "scipy.special, imported at the first read of one of its names")
_sp.__getattr__ = _import_on_first_read


def binom_tail(n_trials: int, lo: int, p: float) -> float:
    """Upper binomial tail P{Bin(n_trials, p) >= lo}, for 0 <= lo <= n_trials + 1.

    The ends, lo = 0 and lo = n_trials + 1, follow the conventions of the
    module docstring.
    """
    n_trials = _integer(n_trials, 0, inf, "n_trials must be a nonnegative integer")
    lo = _integer(lo, 0, n_trials + 1, "lo must satisfy 0 <= lo <= n_trials + 1")
    p = _real(p, 0.0, 1.0, "p must lie in [0, 1]")
    return _tails((n_trials,), (lo,), (p,))[0]


def _tails(n_trials, lo, p) -> list[float]:
    """[P{Bin(n, q) >= k} for n, k, q in zip(n_trials, lo, p)] from one betainc call.

    Unchecked: the caller passes equal-length flat sequences of n >= 0, any integer
    k and q in [0, 1] (betainc converts nested lists at about twice the cost).
    """
    # a float shape b spares betainc the cast of an int array
    shape_b = [n - k + 1.0 for n, k in zip(n_trials, lo)]
    tails = _sp.betainc(lo, shape_b, p).tolist()
    if min(lo) <= 0 or min(shape_b) <= 0:  # a full or an empty tail, whose convention betainc breaks
        tails = [1.0 if k <= 0 else 0.0 if b <= 0 else t for k, b, t in zip(lo, shape_b, tails)]
    return tails


def reg_inc_beta(a: int, b: int, p: float) -> float:
    """Regularized incomplete beta function I_p(a, b) for integer shapes.

    Evaluated through the identity I_p(a, b) = binom_tail(a + b - 1, a, p).
    I_0 = 0, I_1 = 1, and the value is nondecreasing in p.
    """
    a = _integer(a, 1, inf, "shape a must be an integer >= 1")
    b = _integer(b, 1, inf, "shape b must be an integer >= 1")
    return binom_tail(a + b - 1, a, p)
