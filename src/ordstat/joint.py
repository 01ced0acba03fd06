"""Joint and conditional distributions of sample observations and the r-th
order statistic of the same iid sample.

For an iid sample X_1, ..., X_n with continuous CDF F, the lifetime of an
(n - r + 1)-out-of-n system is the r-th order statistic X_{r:n}.  This
module evaluates:

* the joint CDF P{X_1 <= x, X_{r:n} <= t} and its multi-observation
  extension on the region where every observation argument is <= t,
* the conditional laws of X_1 given X_{r:n} <= t, given t1 <= X_{r:n} <= t2,
  and given X_{r:n} = t (the vanishing-window limit, which jumps by exactly
  1/n at x = t),
* pairwise conditional joint CDFs of (X_1, X_2) under conditioning on the
  sample extremes.

All closed forms are routed through upper binomial tails, which keeps a
single code path valid for every 1 <= r <= n including r = 1 and r = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma
from typing import Iterable, Sequence

import numpy as np
from scipy.special import xlog1py, xlogy

from .errors import DomainError, NullConditioningError
from .lifetimes import LifetimeModel
from .special import binom_tail
from .system import SystemConfig, Window

__all__ = [
    "EvalGrid",
    "LAWS",
    "order_stat_cdf",
    "window_prob",
    "joint_cdf_single",
    "cond_cdf_given_leq",
    "cond_cdf_between",
    "cond_cdf_given_eq",
    "joint_cdf_multi",
    "joint_pdf_multi",
    "pair_cond_joint_cdf",
    "eval_grid",
]

# conditioning events with probability below this are treated as null
NULL_EVENT_FLOOR = 1e-300

LAWS = ("joint", "given_leq", "between", "given_eq")


def _check_time(value, name: str = "time") -> float:
    v = float(value)
    if math.isnan(v) or v < 0.0:
        raise DomainError(f"{name} must be a nonnegative time, got {value!r}")
    return v


def _check_times(values, name: str = "x") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    bad = np.isnan(arr) | (arr < 0.0)
    if np.any(bad):
        raise DomainError(f"{name} must be a nonnegative time, got {float(arr[bad].flat[0])!r}")
    return arr


def _check_event(prob: float, description: str) -> None:
    if prob < NULL_EVENT_FLOOR:
        raise NullConditioningError(
            f"conditioning event {description} has probability {prob!r}, treated as null"
        )


def _clip01(value):
    """value clipped to [0, 1]: a float for a scalar, else an array."""
    out = np.clip(value, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EvalGrid:
    """An increasing grid of times with the law's values at each point."""

    points: tuple
    values: tuple

    def __post_init__(self):
        if len(self.points) != len(self.values) or not self.points:
            raise DomainError("grid needs matching, nonempty points and values")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise DomainError("grid points must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise DomainError("grid values must lie in [0, 1]")
        if any(b - a < -1e-9 for a, b in zip(self.values, self.values[1:])):
            raise DomainError("CDF grid values must be nondecreasing")


def order_stat_cdf(cfg: SystemConfig, model: LifetimeModel, t) -> float:
    """P{X_{r:n} <= t}, the upper tail of Bin(n, F(t)) at r."""
    t = _check_time(t, "t")
    return binom_tail(cfg.n, cfg.r, model.cdf(t))


def window_prob(cfg: SystemConfig, model: LifetimeModel, window: Window) -> float:
    """P{t1 <= X_{r:n} <= t2}."""
    hi = binom_tail(cfg.n, cfg.r, model.cdf(window.t2))
    lo = binom_tail(cfg.n, cfg.r, model.cdf(window.t1))
    return max(0.0, hi - lo)


def window_slopes(cfg: SystemConfig, model: LifetimeModel, window: Window):
    """Slopes (low, mid, high) of P{X_1 <= x | t1 <= X_{r:n} <= t2} in F(x).

    Given the window event, the law of X_1 is piecewise linear in F(x): its
    slope is the probability of the window given X_1 = x, divided by the
    window probability, and that is constant on each of x < t1,
    t1 <= x <= t2 and x > t2.  Given X_1 below the window, r - 1 of the
    other n - 1 must fail by t2 but not by t1; inside it, r - 1 by t2 and
    fewer than r by t1; above it, r by t2 but not by t1.
    """
    n, r = cfg.n, cfg.r
    prob = window_prob(cfg, model, window)
    _check_event(prob, f"{{{window.t1} <= X_({r}:{n}) <= {window.t2}}}")
    p1 = model.cdf(window.t1)
    p2 = model.cdf(window.t2)
    up1 = binom_tail(n - 1, r - 1, p1)
    up2 = binom_tail(n - 1, r - 1, p2)
    mid1 = binom_tail(n - 1, r, p1)
    mid2 = binom_tail(n - 1, r, p2)
    return (up2 - up1) / prob, (up2 - mid1) / prob, (mid2 - mid1) / prob


def joint_cdf_single(cfg: SystemConfig, model: LifetimeModel, x, t):
    """Joint CDF P{X_1 <= x, X_{r:n} <= t}, elementwise over an array x.

    With below = P{Bin(n-1, F(t)) >= r-1} and above = P{Bin(n-1, F(t)) >= r}:
    for x <= t this is F(x) below, since X_1 <= t leaves r - 1 of the other
    n - 1 observations to fail by t.  For x > t it is

        F(t) below + (F(x) - F(t)) above,

    splitting on X_1 <= t and t < X_1 <= x; in the second case the other
    observations must supply all r failures by t.  The two branches agree
    at x = t, and the result is a CDF in each argument separately.
    """
    x = _check_times(x, "x")
    t = _check_time(t, "t")
    n, r = cfg.n, cfg.r
    fx = model.cdf(x)
    ft = model.cdf(t)
    below = binom_tail(n - 1, r - 1, ft)
    above = binom_tail(n - 1, r, ft)
    return _clip01(np.where(x > t, ft * below + (fx - ft) * above, fx * below))


def cond_cdf_given_leq(cfg: SystemConfig, model: LifetimeModel, x, t):
    """Conditional CDF P{X_1 <= x | X_{r:n} <= t}, elementwise over an array x.

    The threshold t must give the conditioning event positive probability;
    for r = n this reduces to F(min(x, t)) / F(t), and for r = 1 to the law
    of an observation given that some observation is <= t.
    """
    denom = order_stat_cdf(cfg, model, t)
    _check_event(denom, f"{{X_({cfg.r}:{cfg.n}) <= {t}}}")
    return _clip01(joint_cdf_single(cfg, model, x, t) / denom)


def cond_cdf_between(cfg: SystemConfig, model: LifetimeModel, x, window: Window):
    """Conditional CDF P{X_1 <= x | t1 <= X_{r:n} <= t2}, elementwise over an array x.

    With the slopes of window_slopes and p_i = F(t_i), the law is

        low F(min(x, t1)) + mid (F(clip(x, t1, t2)) - p1) + high (F(max(x, t2)) - p2),

    continuous at x = t1 and x = t2; for every x the value times the window
    probability equals joint_cdf_single(x, t2) - joint_cdf_single(x, t1).
    """
    x = _check_times(x, "x")
    low, mid, high = window_slopes(cfg, model, window)
    p1 = model.cdf(window.t1)
    p2 = model.cdf(window.t2)
    # F is nondecreasing, so clipping F(x) to [p1, p2] is F of the clipped x
    fx = model.cdf(x)
    value = (
        low * np.minimum(fx, p1)
        + mid * (np.clip(fx, p1, p2) - p1)
        + high * (np.maximum(fx, p2) - p2)
    )
    return _clip01(value)


def cond_cdf_given_eq(cfg: SystemConfig, model: LifetimeModel, x, t):
    """Conditional CDF P{X_1 <= x | X_{r:n} = t}, the vanishing-window limit.

        (r-1)/n * F(x)/F(t)                          x < t
        (n-r)(F(x) - F(t)) / (n (1 - F(t))) + r/n    x >= t

    Right-continuous, with a jump of exactly 1/n at x = t; requires
    0 < F(t) < 1 so that both branches are defined.  Elementwise over an
    array x.
    """
    x = _check_times(x, "x")
    t = _check_time(t, "t")
    ft = model.cdf(t)
    if not 0.0 < ft < 1.0:
        raise DomainError(f"need 0 < F(t) < 1 at the conditioning point, got F({t}) = {ft}")
    n, r = cfg.n, cfg.r
    fx = model.cdf(x)
    below = (r - 1) / n * fx / ft
    above = (n - r) * (fx - ft) / (n * (1.0 - ft)) + r / n
    return _clip01(np.where(x < t, below, above))


def _checked_observations(cfg: SystemConfig, xs: Sequence, t) -> tuple[list[float], float]:
    t = _check_time(t, "t")
    values = [_check_time(x, "x") for x in xs]
    if not 1 <= len(values) <= cfg.n:
        raise DomainError(f"need between 1 and n={cfg.n} observations, got {len(values)}")
    for x in values:
        if x > t:
            raise DomainError(f"every observation argument must be <= t, got x={x} > t={t}")
    return values, t


def joint_cdf_multi(cfg: SystemConfig, model: LifetimeModel, xs: Iterable, t) -> float:
    """Joint CDF P{X_1 <= x_1, ..., X_k <= x_k, X_{r:n} <= t} for all x_i <= t.

    For k < r this is prod F(x_i) times the Bin(n - k, F(t)) upper tail at
    r - k; for k >= r the order-statistic event is implied by the x_i and the
    product of marginals remains.  Arguments with any x_i > t are rejected:
    the law is only evaluated on the region where it takes this product form.
    """
    values, t = _checked_observations(cfg, list(xs), t)
    k = len(values)
    prod = math.prod(model.cdf(x) for x in values)
    if k >= cfg.r:
        return _clip01(prod)
    return _clip01(prod * binom_tail(cfg.n - k, cfg.r - k, model.cdf(t)))


def joint_pdf_multi(cfg: SystemConfig, model: LifetimeModel, xs: Iterable, t) -> float:
    """Joint density of (X_1, ..., X_k, X_{r:n}) on the region all x_i <= t.

    For k < r:

        (n-k)! / ((r-k-1)! (n-r)!) * F(t)^(r-k-1) (1-F(t))^(n-r) f(t) prod f(x_i)

    For k >= r the order-statistic coordinate is redundant on this region
    and the density reduces to prod f(x_i).
    """
    values, t = _checked_observations(cfg, list(xs), t)
    k = len(values)
    n, r = cfg.n, cfg.r
    prod = math.prod(model.pdf(x) for x in values)
    if k >= r:
        return prod
    ft = model.cdf(t)
    # in logs, so that the coefficient cannot overflow; xlogy and xlog1py
    # give 0 * log(0) = 0, keeping F(t) = 0 and F(t) = 1 defined
    log_coef = lgamma(n - k + 1) - lgamma(r - k) - lgamma(n - r + 1)
    log_powers = xlogy(r - k - 1, ft) + xlog1py(n - r, -ft)
    return math.exp(log_coef + log_powers) * model.pdf(t) * prod


def pair_cond_joint_cdf(
    cfg: SystemConfig, model: LifetimeModel, x1, x2, t, conditioning: str
) -> float:
    """Joint conditional CDF P{X_1 <= x1, X_2 <= x2 | event on a sample extreme}.

    conditioning selects the event:

    * ``"max_leq"``: X_{n:n} <= t.  The pair factorizes into iid truncated
      marginals F(min(x_i, t)) / F(t).
    * ``"min_leq"``: X_{1:n} <= t.  The pair is dependent:
      [F(x1)F(x2) - (F(x1)-F(t))+ (F(x2)-F(t))+ (1-F(t))^(n-2)] / (1-(1-F(t))^n).
    * ``"min_gt"``: X_{1:n} > t.  The pair factorizes into iid left-truncated
      marginals (F(x_i) - F(t)) / (1 - F(t)), zero when either x_i <= t.
    """
    if cfg.n < 2:
        raise DomainError("pair laws need a system of at least two components")
    x1 = _check_time(x1, "x1")
    x2 = _check_time(x2, "x2")
    t = _check_time(t, "t")
    f1, f2, ft = model.cdf(x1), model.cdf(x2), model.cdf(t)
    n = cfg.n
    if conditioning == "max_leq":
        event = ft**n
        _check_event(event, f"{{X_({n}:{n}) <= {t}}}")
        return _clip01(min(f1, ft) * min(f2, ft) / ft**2)
    if conditioning == "min_leq":
        event = 1.0 - (1.0 - ft) ** n
        _check_event(event, f"{{X_(1:{n}) <= {t}}}")
        raw = f1 * f2 - max(f1 - ft, 0.0) * max(f2 - ft, 0.0) * (1.0 - ft) ** (n - 2)
        return _clip01(raw / event)
    if conditioning == "min_gt":
        event = (1.0 - ft) ** n
        _check_event(event, f"{{X_(1:{n}) > {t}}}")
        if x1 <= t or x2 <= t:
            return 0.0
        return _clip01((f1 - ft) * (f2 - ft) / (1.0 - ft) ** 2)
    raise DomainError(f"unknown conditioning {conditioning!r}; expected max_leq, min_leq or min_gt")


def eval_grid(
    cfg: SystemConfig,
    model: LifetimeModel,
    xs: Sequence,
    law: str,
    *,
    t=None,
    window: Window | None = None,
) -> EvalGrid:
    """Evaluate one of the x-laws over an increasing grid of x values.

    ``law`` is one of ``"joint"``, ``"given_leq"``, ``"given_eq"`` (all of
    which need ``t``) or ``"between"`` (which needs ``window``).
    """
    points = np.asarray(xs, dtype=float)
    if law in ("joint", "given_leq", "given_eq"):
        if t is None:
            raise DomainError(f"law {law!r} needs a threshold t")
        fns = {
            "joint": joint_cdf_single,
            "given_leq": cond_cdf_given_leq,
            "given_eq": cond_cdf_given_eq,
        }
        fn = fns[law]
        values = fn(cfg, model, points, t)
    elif law == "between":
        if window is None:
            raise DomainError("law 'between' needs a window")
        values = cond_cdf_between(cfg, model, points, window)
    else:
        raise DomainError(f"unknown law {law!r}; expected one of {LAWS}")
    return EvalGrid(tuple(points.tolist()), tuple(values.tolist()))
