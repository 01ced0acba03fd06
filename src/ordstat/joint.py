"""Joint and conditional distributions of sample observations and the r-th
order statistic of the same iid sample.

For an iid sample X_1, ..., X_n with continuous CDF F, the lifetime of an
(n - r + 1)-out-of-n system is the r-th order statistic X_{r:n}.  This
module evaluates:

* the joint CDF P{X_1 <= x_1, ..., X_m <= x_m, X_{r:n} <= t} of m sample
  elements and the order statistic, for any x_i and t, by ``_joint_prob``,
* the law of X_{r:n} itself, the m = 0 case of the same formula, and the
  probability of a window t1 <= X_{r:n} <= t2,
* the conditional laws of X_1 given X_{r:n} <= t, given t1 <= X_{r:n} <= t2,
  and given X_{r:n} = t (the vanishing-window limit, which jumps by exactly
  1/n at x = t); the last needs a positive density of X_{r:n} at t:
  0 < F(t) < 1, or F(t) = 0 at r = 1, or F(t) = 1 at r = n, with f(t) > 0
  at either end,
* pairwise conditional joint CDFs of (X_1, X_2) given a sample extreme:
  the same formula at m = 2 and r = 1 or n, over its value at m = 0.
  Given X_{1:n} > t, every lifetime lies in (t, inf), so that law is the
  max_leq law (r = n) of the masses above t: F(x_i) - F(t), clipped at 0,
  out of 1 - F(t).

All closed forms are routed through upper binomial tails, which keeps a
single code path valid for every 1 <= r <= n including r = 1 and r = n.

Each public law computes F once per time it is given, F(x), F(t), F(t1)
and F(t2), and hands those values to one of two private helpers, which take
F values rather than times.  Each makes the one ``special._tails`` call of
the law and returns its conditioning event's probability with it:
``_joint_prob`` takes m + 2 tails, the m + 1 of the joint law and last the
event X_{r:n} <= t; ``_window`` takes six, the two of the window
probability and the four of its slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma
from typing import Callable, Sequence

from .errors import (
    DensityUnsupportedError, DomainError, NullConditioningError, _floats, _reals, _time, _times,
    np)
from .lifetimes import LifetimeModel, _clip, _finish
from .special import _sp, _tails
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


def _check_event(prob: float, description: Callable[[], str]) -> None:
    # description() names the event; it is formatted only on failure, as in errors
    if prob < NULL_EVENT_FLOOR:
        raise NullConditioningError(
            f"conditioning event {description()} has probability {prob!r}, treated as null"
        )


def _clip01(value):
    """value clipped to [0, 1], under the scalar/array rule of lifetimes._finish."""
    return _finish(_clip(value, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """An increasing grid of times with the law's values at each point.

    ``points`` and ``values`` are read-only float64 arrays that the grid owns:
    the constructor copies what it is given.  Arrays have no single truth
    value, so grids compare by identity.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.array(_floats(self.points, "grid points must be numbers"))
        values = np.array(_reals(self.values, 0.0, 1.0, "grid values must lie in [0, 1]"))
        if points.ndim != 1 or points.shape != values.shape or not points.size:
            raise DomainError("grid needs matching, nonempty points and values")
        # one reduction per check, each written so that a NaN fails it
        if not (points[1:] > points[:-1]).all():
            raise DomainError("grid points must be strictly increasing")
        if ((values[1:] - values[:-1]) < -1e-9).any():
            raise DomainError("CDF grid values must be nondecreasing")
        for name, arr in (("points", points), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def order_stat_cdf(cfg: SystemConfig, model: LifetimeModel, t) -> float:
    """P{X_{r:n} <= t}, the upper tail of Bin(n, F(t)) at r: the m = 0 case of _joint_prob."""
    return _joint_prob(cfg, [], model.cdf(_time(t, "t")))[1]


def _window(cfg: SystemConfig, p1: float, p2: float):
    """(P{t1 <= X_{r:n} <= t2}, up1, up2, mid1, mid2) from p1 = F(t1) and p2 = F(t2).

    up_i = P{Bin(n - 1, p_i) >= r - 1} and mid_i = P{Bin(n - 1, p_i) >= r},
    the tails of window_slopes.
    """
    n, r = cfg.n, cfg.r
    lo, hi, *tails = _tails(
        (n, n, n - 1, n - 1, n - 1, n - 1), (r, r, r - 1, r - 1, r, r), (p1, p2) * 3)
    return max(0.0, hi - lo), *tails


def window_prob(cfg: SystemConfig, model: LifetimeModel, window: Window) -> float:
    """P{t1 <= X_{r:n} <= t2}."""
    return _window(cfg, model.cdf(window.t1), model.cdf(window.t2))[0]


def _window_slopes(cfg: SystemConfig, window: Window, p1: float, p2: float):
    """window_slopes from p1 = F(t1) and p2 = F(t2)."""
    prob, up1, up2, mid1, mid2 = _window(cfg, p1, p2)
    _check_event(prob, lambda: f"{{{window.t1} <= X_({cfg.r}:{cfg.n}) <= {window.t2}}}")
    return (up2 - up1) / prob, (up2 - mid1) / prob, (mid2 - mid1) / prob


def window_slopes(cfg: SystemConfig, model: LifetimeModel, window: Window):
    """Slopes (low, mid, high) of P{X_1 <= x | t1 <= X_{r:n} <= t2} in F(x).

    Given the window event, the law of X_1 is piecewise linear in F(x): its
    slope is the probability of the window given X_1 = x, divided by the
    window probability, and that is constant on each of x < t1,
    t1 <= x <= t2 and x > t2.  Given X_1 below the window, r - 1 of the
    other n - 1 must fail by t2 but not by t1; inside it, r - 1 by t2 and
    fewer than r by t1; above it, r by t2 but not by t1.
    """
    return _window_slopes(cfg, window, model.cdf(window.t1), model.cdf(window.t2))


def _joint_prob(cfg: SystemConfig, fxs: Sequence, ft: float):
    """(joint, event) from fxs = [F(x_1), ..., F(x_m)] and ft = F(t).

    joint is P{X_i <= x_i for i <= m, X_{r:n} <= t} and event P{X_{r:n} <= t}.
    Element i fails by t with probability a_i = F(min(x_i, t)) and in (t, x_i]
    with b_i = (F(x_i) - F(t))+, so e_j, the coefficient of z^j in
    prod_i (b_i + a_i z), is the chance that j of them fail by t, and the law
    is sum_j e_j P{Bin(n - m, F(t)) >= r - j}.  Each F(x_i) may be an array.
    The event is the last tail of the same _tails call, the law's own m = 0
    case.  The pair law given X_{1:n} > t is this law at r = n, with the
    masses above t in place of F.
    """
    n, r, m = cfg.n, cfg.r, len(fxs)
    e = [1.0]
    for fx in fxs:
        # the builtins cost a fifth of numpy's on scalars
        least, most = (min, max) if isinstance(fx, float) else (np.minimum, np.maximum)
        a, b = least(fx, ft), most(fx - ft, 0.0)
        # the first factor is [b, a] itself, with no products by 1.0 or 0.0
        e = [b, a] if len(e) == 1 else [
            e[0] * b, *[e[j] * b + e[j - 1] * a for j in range(1, len(e))], e[-1] * a]
    *tails, event = _tails([n - m] * (m + 1) + [n], [*range(r, r - m - 1, -1), r], [ft] * (m + 2))
    total = e[0] * tails[0]
    for j in range(1, m + 1):
        total += e[j] * tails[j]
    return total, event


def joint_cdf_single(cfg: SystemConfig, model: LifetimeModel, x, t):
    """Joint CDF P{X_1 <= x, X_{r:n} <= t}, elementwise over an array x.

    With below = P{Bin(n-1, F(t)) >= r-1} and above = P{Bin(n-1, F(t)) >= r}
    it is F(x) below for x <= t and F(t) below + (F(x) - F(t)) above for x > t.
    """
    x = _times(x, "x")
    t = _time(t, "t")
    # no clamp: for x > t the value is fl(b above + a below), with
    # a = F(t), b = fl(F(x) - F(t)) and both tails in [0, 1], so it lies in
    # [0, fl(a + b)], and fl(a + b) <= 1
    return _joint_prob(cfg, [model.cdf(x)], model.cdf(t))[0]


def cond_cdf_given_leq(cfg: SystemConfig, model: LifetimeModel, x, t):
    """Conditional CDF P{X_1 <= x | X_{r:n} <= t}, elementwise over an array x.

    The threshold t must give the conditioning event positive probability;
    for r = n this reduces to F(min(x, t)) / F(t), and for r = 1 to the law
    of an observation given that some observation is <= t.
    """
    # t, then x, then the event, which comes from the law's own tail call
    t = _time(t, "t")
    x = _times(x, "x")
    joint, event = _joint_prob(cfg, [model.cdf(x)], model.cdf(t))
    _check_event(event, lambda: f"{{X_({cfg.r}:{cfg.n}) <= {t}}}")
    return _clip01(joint / event)


def cond_cdf_between(cfg: SystemConfig, model: LifetimeModel, x, window: Window):
    """Conditional CDF P{X_1 <= x | t1 <= X_{r:n} <= t2}, elementwise over an array x.

    With the slopes of window_slopes and p_i = F(t_i), the law is

        low F(min(x, t1)) + mid (F(clip(x, t1, t2)) - p1) + high (F(max(x, t2)) - p2),

    continuous at x = t1 and x = t2; for every x the value times the window
    probability equals joint_cdf_single(x, t2) - joint_cdf_single(x, t1).
    """
    x = _times(x, "x")
    p1 = model.cdf(window.t1)
    p2 = model.cdf(window.t2)
    low, mid, high = _window_slopes(cfg, window, p1, p2)
    # F is nondecreasing, so clipping F(x) to [p1, p2] is F of the clipped x
    fx = model.cdf(x)
    value = (
        low * np.minimum(fx, p1)
        + mid * (_clip(fx, p1, p2) - p1)
        + high * (np.maximum(fx, p2) - p2)
    )
    return _clip01(value)


def cond_cdf_given_eq(cfg: SystemConfig, model: LifetimeModel, x, t):
    """Conditional CDF P{X_1 <= x | X_{r:n} = t}, the vanishing-window limit.

        (r-1)/n * F(x)/F(t)                          x < t
        (n-r)(F(x) - F(t)) / (n (1 - F(t))) + r/n    x >= t

    Right-continuous, with a jump of exactly 1/n at x = t.  It requires a
    positive density of X_{r:n} at t: 0 < F(t) < 1, so that both branches
    are defined, or F(t) = 0 at r = 1, or F(t) = 1 at r = n, with f(t) > 0
    at either end.  At r = 1 the x < t branch is 0, and at r = n the x >= t
    branch is exactly 1.  Elementwise over an array x.
    """
    x = _times(x, "x")
    t = _time(t, "t")
    ft = model.cdf(t)
    n, r = cfg.n, cfg.r
    at_an_end = ft == 0.0 and r == 1 or ft == 1.0 and r == n
    if not (0.0 < ft < 1.0 or at_an_end and _has_density_at(model, t)):
        raise DomainError(f"need 0 < F(t) < 1 at the conditioning point, got F({t}) = {ft}")
    fx = model.cdf(x)
    # the x < t branch is 0 at r = 1, where (r-1)/n * F(x)/F(t) may be 0/0,
    # and the x >= t branch is 1 at r = n, where its first term may be 0/0
    below = (r - 1) / n * fx / ft if r > 1 else 0.0
    above = (n - r) * (fx - ft) / (n * (1.0 - ft)) + r / n if r < n else 1.0
    return _clip01(np.where(x < t, below, above))


def _has_density_at(model: LifetimeModel, t: float) -> bool:
    """Whether f(t) > 0; False for a model without a density."""
    try:
        return model.pdf(t) > 0.0
    except DensityUnsupportedError:
        return False


def _checked_observations(cfg: SystemConfig, xs: Sequence, t) -> tuple[list[float], float]:
    t = _time(t, "t")
    values = _times(xs, "x")
    if values.ndim != 1 or not 1 <= values.size <= cfg.n:
        raise DomainError(f"need a sequence of 1 to n={cfg.n} values, got shape {values.shape}")
    return values.tolist(), t


def joint_cdf_multi(cfg: SystemConfig, model: LifetimeModel, xs: Sequence, t) -> float:
    """Joint CDF P{X_1 <= x_1, ..., X_k <= x_k, X_{r:n} <= t} for any x_i and t.

    The law of _joint_prob; where every x_i <= t it is prod F(x_i) times
    P{Bin(n - k, F(t)) >= r - k}, which is 1 for k >= r.
    """
    values, t = _checked_observations(cfg, xs, t)
    return _clip01(_joint_prob(cfg, [model.cdf(x) for x in values], model.cdf(t))[0])


def joint_pdf_multi(cfg: SystemConfig, model: LifetimeModel, xs: Sequence, t) -> float:
    """Joint density of (X_1, ..., X_k, X_{r:n}) on the region all x_i <= t.

    For k < r:

        (n-k)! / ((r-k-1)! (n-r)!) * F(t)^(r-k-1) (1-F(t))^(n-r) f(t) prod f(x_i)

    For k >= r the order-statistic coordinate is redundant on this region
    and the density reduces to prod f(x_i).
    """
    values, t = _checked_observations(cfg, xs, t)
    _reals(values, 0.0, t, f"every observation argument must be <= t={t}")
    k = len(values)
    n, r = cfg.n, cfg.r
    prod = math.prod(model.pdf(x) for x in values)
    if k >= r:
        return prod
    ft = model.cdf(t)
    # in logs, so that the coefficient cannot overflow; xlogy and xlog1py
    # give 0 * log(0) = 0, keeping F(t) = 0 and F(t) = 1 defined
    log_coef = lgamma(n - k + 1) - lgamma(r - k) - lgamma(n - r + 1)
    log_powers = _sp.xlogy(r - k - 1, ft) + _sp.xlog1py(n - r, -ft)
    return math.exp(log_coef + log_powers) * model.pdf(t) * prod


# conditioning -> its event on a sample extreme, formatted with n and t on failure
_PAIR_EVENTS = {"max_leq": "{{X_({n}:{n}) <= {t}}}", "min_leq": "{{X_(1:{n}) <= {t}}}",
                "min_gt": "{{X_(1:{n}) > {t}}}"}


def pair_cond_joint_cdf(
    cfg: SystemConfig, model: LifetimeModel, x1, x2, t, conditioning: str
) -> float:
    """Joint conditional CDF P{X_1 <= x1, X_2 <= x2 | event on a sample extreme}.

    conditioning selects the event: ``"max_leq"`` is X_{n:n} <= t,
    ``"min_leq"`` is X_{1:n} <= t and ``"min_gt"`` is X_{1:n} > t.  The law
    is _joint_prob with two elements, divided by the event probability from
    the same call: at r = n for max_leq and r = 1 for min_leq.  X_{1:n} > t
    says that every lifetime lies in (t, inf), so min_gt is the max_leq law
    of the masses above t, (F(x_i) - F(t))+ out of 1 - F(t).  Given the
    maximum the pair is iid with marginals F(min(x_i, t)) / F(t), and given
    X_{1:n} > t iid with (F(x_i) - F(t))+ / (1 - F(t)); given X_{1:n} <= t
    it is dependent.
    """
    if cfg.n < 2:
        raise DomainError("pair laws need a system of at least two components")
    # a tuple, so that an unhashable argument fails the test, not the lookup
    if conditioning not in ("max_leq", "min_leq", "min_gt"):
        raise DomainError(f"unknown conditioning {conditioning!r}; expected max_leq, min_leq or min_gt")
    x1, x2, t = _time(x1, "x1"), _time(x2, "x2"), _time(t, "t")
    n, fxs, ft = cfg.n, [model.cdf(x1), model.cdf(x2)], model.cdf(t)
    if conditioning == "min_gt":
        # each rounded mass is at most the rounded 1 - F(t), so it is all "below t"
        fxs, ft = [max(fx - ft, 0.0) for fx in fxs], 1.0 - ft
    joint, event = _joint_prob(SystemConfig(n, 1 if conditioning == "min_leq" else n), fxs, ft)
    _check_event(event, lambda: _PAIR_EVENTS[conditioning].format(n=n, t=t))
    return _clip01(joint / event)


# law name -> the x-law that eval_grid evaluates
_GRID_LAWS = {
    "joint": joint_cdf_single,
    "given_leq": cond_cdf_given_leq,
    "between": cond_cdf_between,
    "given_eq": cond_cdf_given_eq,
}
LAWS = tuple(_GRID_LAWS)


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

    ``law`` is ``"joint"``, ``"given_leq"`` or ``"given_eq"``, which need ``t``
    and no window, or ``"between"``, which needs ``window`` and no ``t``.
    """
    if law not in LAWS:  # a tuple, so that an unhashable law fails the test
        raise DomainError(f"unknown law {law!r}; expected one of {LAWS}")
    between = law == "between"
    arg, extra = (window, t) if between else (t, window)
    if arg is None:
        raise DomainError(f"law {law!r} needs {'a window' if between else 'a threshold t'}")
    if extra is not None:
        raise DomainError(f"law {law!r} takes no {'t' if between else 'window'}")
    # converted once here; the law checks the range
    points = _floats(xs, "x must be a nonnegative time")
    return EvalGrid(points, _GRID_LAWS[law](cfg, model, points, arg))
