"""Mean residual life and mean past of a component given that the system
failed inside an inspection window.

Given that the r-th component failure landed in [t1, t2], the law of a
single component lifetime is piecewise linear in F(x), with the window
slopes low, mid and high of ``joint.window_slopes`` on the regions x < t1,
t1 <= x <= t2 and x > t2.  The signed mean residual life is

    phi(t1, t2) = E{X_1 - t2 | t1 <= X_{r:n} <= t2}

and the mean past is its mirror, psi = t2 - E{X_1 | ...}.  phi is reported
signed: the inspected component may well have failed before t2, in which
case phi is negative.

Each region's share of E{X_1 | ...} is the slope times a closed-form
partial moment of the lifetime model, the integral of x dF(x) over the
region:

    E{X_1 | ...} = low  * int_0^{t1}       x dF(x)
                 + mid  * int_{t1}^{t2}    x dF(x)
                 + high * int_{t2}^{inf}   x dF(x).

The three regions cover the whole support, so nothing is cut off and no
integral is approximated.  What is left is rounding: each partial moment is
a difference of two terms, and ``MrlSummary.truncation_bound`` bounds the
error that difference can carry, weighted by the slopes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import _times, np
from .joint import window_slopes
from .lifetimes import LifetimeModel, _finish
from .system import SystemConfig, Window

__all__ = [
    "MrlSummary",
    "cond_pdf_between",
    "mean_residual",
    "mean_past",
    "mrl_summary",
]


# Rounding error of a partial moment, in units of eps times the larger term
# it subtracts.  Against 60-digit mpmath values the worst case over 4,095
# region moments (exponential, uniform, Weibull shapes 0.02 to 10, cut at
# quantiles 1e-9 to 1 - 1e-6; moments that underflow below 1e-280 left out)
# was 173, at Weibull shape 0.05, where P(s, y) ~ y**s turns the rounding of
# y = (x/scale)**shape into s = 21 times as much.  Weibull shapes 0.5 and
# above, the exponential and the uniform stayed at or below 29.
ROUNDING_ULPS = 256


@dataclass(frozen=True)
class MrlSummary:
    """Window, signed mean residual life, mean past, and the error bound.

    ``truncation_bound`` bounds the rounding error that the three partial
    moments carry into phi and psi: ROUNDING_ULPS * eps * sum |slope_i| M_i,
    where M_i is the larger of the two terms whose difference is region i's
    moment.
    """

    t1: float
    t2: float
    phi: float
    psi: float
    truncation_bound: float


def cond_pdf_between(cfg: SystemConfig, model: LifetimeModel, x, window: Window):
    """Density of X_1 given t1 <= X_{r:n} <= t2, elementwise over an array x.

    The x-derivative of the corresponding conditional CDF: f(x) scaled by
    the slope low, mid or high on x < t1, t1 <= x <= t2 and x > t2.  The
    density is 0 where the slope is 0, also where f(x) is infinite.
    """
    x = _times(x, "x")
    low, mid, high = window_slopes(cfg, model, window)
    slope = np.select([x < window.t1, x <= window.t2], [low, mid], high)
    # multiplied only where the slope is nonzero, so no 0 * inf makes a NaN
    return _finish(np.multiply(slope, model.pdf(x), out=np.zeros_like(slope), where=slope != 0.0))


def mean_residual(cfg: SystemConfig, model: LifetimeModel, window: Window) -> float:
    """Signed expected residual E{X_1 - t2 | t1 <= X_{r:n} <= t2}.

    Negative whenever the inspected component is expected to have failed
    before the window's right edge.
    """
    return mrl_summary(cfg, model, window).phi


def mean_past(cfg: SystemConfig, model: LifetimeModel, window: Window) -> float:
    """Expected distance into the past, E{t2 - X_1 | t1 <= X_{r:n} <= t2}."""
    return mrl_summary(cfg, model, window).psi


def mrl_summary(cfg: SystemConfig, model: LifetimeModel, window: Window) -> MrlSummary:
    """Mean residual life and mean past in one pass, with the error bound."""
    regions = ((0.0, window.t1), (window.t1, window.t2), (window.t2, math.inf))
    m0, m1, m2 = (model.partial_moment(a, b) for a, b in regions)
    # LifetimeModel.partial_moment(a, b) subtracts two terms no larger than
    # the smaller of the moments over [0, b] and [a, inf)
    sizes = (m0, min(m0 + m1, m1 + m2), m2)
    slopes = window_slopes(cfg, model, window)
    total = sum(c * m for c, m in zip(slopes, (m0, m1, m2)))  # E{X_1 | window event}
    bound = ROUNDING_ULPS * sys.float_info.epsilon * sum(abs(c) * m for c, m in zip(slopes, sizes))
    return MrlSummary(window.t1, window.t2, total - window.t2, window.t2 - total, bound)
