"""Independent references for every request the benchmark sends.

Nothing here imports ``ordstat``.  The laws are computed from their standard
closed forms: the order-statistic CDF as a binomial tail (an incomplete beta,
David & Nagaraja, *Order Statistics*), the inspection count as a negative
hypergeometric (Johnson, Kemp & Kotz, *Univariate Discrete Distributions*),
and partial moments of the lifetime models through incomplete gamma
functions, so that no quadrature is involved.  Grids use scipy's ``betainc``
on the accurate tail side; scalar probabilities, rare windows and mean
residual lives use mpmath at 60 digits.

Models are plain tuples: ``("exp", rate)``, ``("weibull", shape, scale)``
and ``("uniform", lo, hi)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
from scipy import special

mp = mpmath.mp
mp.dps = 60


# --- lifetime models ---------------------------------------------------------


def model_spec(model) -> str:
    """The model in the command-line syntax, with exact float text."""
    kind, *params = model
    return f"{kind}:" + ",".join(repr(float(v)) for v in params)


def survival(model, x):
    """1 - F(x) for float or numpy input, computed without cancellation."""
    x = np.asarray(x, dtype=float)
    kind = model[0]
    if kind == "exp":
        return np.exp(-model[1] * np.maximum(x, 0.0))
    if kind == "weibull":
        shape, scale = model[1], model[2]
        return np.exp(-((np.maximum(x, 0.0) / scale) ** shape))
    lo, hi = model[1], model[2]
    return np.clip((hi - x) / (hi - lo), 0.0, 1.0)


def cdf(model, x):
    """F(x), computed without cancellation."""
    x = np.asarray(x, dtype=float)
    kind = model[0]
    if kind == "exp":
        return -np.expm1(-model[1] * np.maximum(x, 0.0))
    if kind == "weibull":
        shape, scale = model[1], model[2]
        return -np.expm1(-((np.maximum(x, 0.0) / scale) ** shape))
    lo, hi = model[1], model[2]
    return np.clip((x - lo) / (hi - lo), 0.0, 1.0)


def quantile_from_survival(model, s: float) -> float:
    """The x with 1 - F(x) = s, for 0 < s < 1."""
    kind = model[0]
    if kind == "exp":
        return -math.log(s) / model[1]
    if kind == "weibull":
        return model[2] * (-math.log(s)) ** (1.0 / model[1])
    lo, hi = model[1], model[2]
    return hi - s * (hi - lo)


def mp_cdf_sf(model, x: float):
    """(F(x), 1 - F(x)) in mpmath for a float x."""
    x = mpmath.mpf(x)
    kind = model[0]
    if kind in ("exp", "weibull"):
        if x <= 0:
            return mpmath.mpf(0), mpmath.mpf(1)
        z = x * model[1] if kind == "exp" else (x / model[2]) ** model[1]
        sf = mpmath.exp(-z)
        return -mpmath.expm1(-z), sf
    lo, hi = mpmath.mpf(model[1]), mpmath.mpf(model[2])
    p = min(max((x - lo) / (hi - lo), mpmath.mpf(0)), mpmath.mpf(1))
    return p, 1 - p


def mp_partial_moment(model, j: int, a: float, b) -> mpmath.mpf:
    """Integral of x**j f(x) over [a, b]; ``b`` may be ``math.inf``."""
    kind = model[0]
    if kind in ("exp", "weibull"):
        shape, scale = (1.0, 1.0 / model[1]) if kind == "exp" else (model[1], model[2])
        shape, scale = mpmath.mpf(shape), mpmath.mpf(scale)
        ya = (mpmath.mpf(a) / scale) ** shape
        yb = mpmath.inf if b == math.inf else (mpmath.mpf(b) / scale) ** shape
        return scale**j * mpmath.gammainc(1 + j / shape, ya, yb)
    lo, hi = mpmath.mpf(model[1]), mpmath.mpf(model[2])
    a = max(mpmath.mpf(a), lo)
    b = hi if b == math.inf else min(mpmath.mpf(b), hi)
    if b <= a:
        return mpmath.mpf(0)
    return (b ** (j + 1) - a ** (j + 1)) / ((j + 1) * (hi - lo))


# --- binomial tails ----------------------------------------------------------


def upper_tail(n: int, lo: int, p, q):
    """P{Bin(n, p) >= lo} on numpy arrays, taken from the smaller tail."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if lo <= 0:
        return np.ones_like(p)
    if lo > n:
        return np.zeros_like(p)
    upper = special.betainc(lo, n - lo + 1, p)
    lower = special.betainc(n - lo + 1, lo, q)
    return np.where(upper <= 0.5, upper, 1.0 - lower)


def mp_upper_tail(n: int, lo: int, p, q) -> mpmath.mpf:
    """P{Bin(n, p) >= lo} in mpmath, summed term by term (all terms positive)."""
    if lo <= 0:
        return mpmath.mpf(1)
    if lo > n:
        return mpmath.mpf(0)
    return mpmath.fsum(comb(n, i) * p**i * q ** (n - i) for i in range(lo, n + 1))


def mp_lower_tail(n: int, lo: int, p, q) -> mpmath.mpf:
    """P{Bin(n, p) < lo} in mpmath."""
    if lo <= 0:
        return mpmath.mpf(0)
    return mpmath.fsum(comb(n, i) * p**i * q ** (n - i) for i in range(0, min(lo, n + 1)))


# --- order-statistic laws ----------------------------------------------------


def order_stat_cdf(n, r, model, t) -> float:
    """P{X_(r:n) <= t}."""
    p, q = mp_cdf_sf(model, t)
    return float(mp_upper_tail(n, r, p, q))


def window_prob(n, r, model, t1, t2) -> float:
    """P{t1 <= X_(r:n) <= t2}, as a difference of the non-cancelling tails."""
    p1, q1 = mp_cdf_sf(model, t1)
    p2, q2 = mp_cdf_sf(model, t2)
    return float(mp_lower_tail(n, r, p1, q1) - mp_lower_tail(n, r, p2, q2))


def _joint(n, r, model, xs, t):
    """P{X_1 <= x, X_(r:n) <= t} on an array of x.

    Given X_1 = x <= t, the order statistic is <= t when at least r - 1 of the
    other n - 1 are; given X_1 > t, when at least r of them are.
    """
    fx = cdf(model, xs)
    ft, st = cdf(model, t), survival(model, t)
    below = upper_tail(n - 1, r - 1, ft, st)
    above = upper_tail(n - 1, r, ft, st)
    return np.where(xs <= t, fx * below, ft * below + (fx - ft) * above)


def law_grid(n, r, model, xs, law, t=None, window=None) -> np.ndarray:
    """One of the four x-laws over a grid of x values."""
    xs = np.asarray(xs, dtype=float)
    if law == "joint":
        return _joint(n, r, model, xs, t)
    if law == "given_leq":
        denom = upper_tail(n, r, cdf(model, t), survival(model, t))
        return _joint(n, r, model, xs, t) / denom
    if law == "given_eq":
        ft, st = cdf(model, t), survival(model, t)
        fx = cdf(model, xs)
        return np.where(
            xs < t, (r - 1) / n * fx / ft, r / n + (n - r) / n * (fx - ft) / st
        )
    if law == "between":
        # piecewise linear in F(x), with the slopes in mpmath: a difference of
        # joint CDFs in floats would cancel for a rare window
        t1, t2 = window
        _, (low, mid, high), (f1, f2) = window_coefficients(n, r, model, t1, t2)
        low, mid, high, f1, f2 = (float(v) for v in (low, mid, high, f1, f2))
        fx = cdf(model, xs)
        return np.where(xs < t1, low * fx,
                        np.where(xs <= t2, low * f1 + mid * (fx - f1),
                                 low * f1 + mid * (f2 - f1) + high * (fx - f2)))
    raise ValueError(f"unknown law {law!r}")


def pair_cond(n, model, x1, x2, t, conditioning) -> float:
    """P{X_1 <= x1, X_2 <= x2 | event on a sample extreme}."""
    f1, f2, ft = (float(cdf(model, v)) for v in (x1, x2, t))
    st = float(survival(model, t))
    e1, e2 = max(f1 - ft, 0.0), max(f2 - ft, 0.0)
    if conditioning == "max_leq":
        return min(f1, ft) * min(f2, ft) / ft**2
    if conditioning == "min_leq":
        return (f1 * f2 - e1 * e2 * st ** (n - 2)) / -math.expm1(n * math.log(st))
    return e1 * e2 / st**2


def window_coefficients(n, r, model, t1, t2):
    """(W, (low, mid, high), (F(t1), F(t2))) in mpmath.

    The density of X_1 given t1 <= X_(r:n) <= t2 is f(x) P{window | X_1 = x} / W,
    a constant multiple of f on each of x < t1, t1 <= x <= t2 and x > t2.
    Given X_1 = x < t1 the window holds when r - 1 of the other n - 1 fail by
    t2 but not by t1; given x inside, when r - 1 fail by t2 and fewer than r
    by t1; given x > t2, when r fail by t2 but not by t1.
    """
    p1, q1 = mp_cdf_sf(model, t1)
    p2, q2 = mp_cdf_sf(model, t2)
    w = mp_lower_tail(n, r, p1, q1) - mp_lower_tail(n, r, p2, q2)
    up1, up2 = mp_upper_tail(n - 1, r - 1, p1, q1), mp_upper_tail(n - 1, r - 1, p2, q2)
    mid1, mid2 = mp_upper_tail(n - 1, r, p1, q1), mp_upper_tail(n - 1, r, p2, q2)
    return w, ((up2 - up1) / w, (up2 - mid1) / w, (mid2 - mid1) / w), (p1, p2)


def window_moments(n, r, model, t1, t2):
    """(W, E[X_1 | window], Var[X_1 | window], coefficients, region parts) in mpmath."""
    w, coefs, _ = window_coefficients(n, r, model, t1, t2)
    regions = ((0.0, t1), (t1, t2), (t2, math.inf))
    m1 = [c * mp_partial_moment(model, 1, a, b) for c, (a, b) in zip(coefs, regions)]
    m2 = sum(c * mp_partial_moment(model, 2, a, b) for c, (a, b) in zip(coefs, regions))
    mean = sum(m1)
    return w, mean, m2 - mean**2, coefs, m1


# --- inspection counts -------------------------------------------------------


def inspection_pmf(n, r, k):
    """Negative hypergeometric law of the position of the k-th of r - 1 failed items."""
    total = comb(n, r - 1)
    support = tuple(range(k, n - r + k + 2))
    probs = tuple(
        Fraction(comb(m - 1, k - 1) * comb(n - m, r - 1 - k), total) for m in support
    )
    return support, probs


def expected_inspections(n, r, k) -> Fraction:
    return Fraction(k * (n + 1), r)
