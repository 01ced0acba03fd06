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

Substituting s = 1 - F(x) turns each region's partial expectation into an
integral of the inverse survival function isf over a finite interval:

    E{X_1 | ...} = low  * int_{S(t1)}^{1}     isf(s) ds
                 + mid  * int_{S(t2)}^{S(t1)} isf(s) ds
                 + high * int_{0}^{S(t2)}     isf(s) ds,     S = 1 - F.

The three intervals cover the whole support, so nothing is cut off, and a
density jump (as at the lower end of a uniform law) does not reach the
integrand.  Each integral is taken by adaptive quadrature; the sum of their
error estimates, weighted by the slopes, is reported with the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DensityUnsupportedError, DomainError, QuadratureError
from .joint import window_slopes
from .lifetimes import LifetimeModel
from .system import SystemConfig, Window

__all__ = [
    "QuadratureSpec",
    "MrlSummary",
    "cond_pdf_between",
    "mean_residual",
    "mean_past",
    "mrl_summary",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive quadrature behind the windowed expectations."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 65536

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class MrlSummary:
    """Window, signed mean residual life, mean past, and the error bound.

    ``truncation_bound`` is the sum of quad's error estimates for the three
    region integrals, weighted by the window slopes: a bound on the error
    of phi and of psi as far as those estimates hold.
    """

    t1: float
    t2: float
    phi: float
    psi: float
    truncation_bound: float


def cond_pdf_between(cfg: SystemConfig, model: LifetimeModel, x, window: Window) -> float:
    """Density of X_1 given t1 <= X_{r:n} <= t2.

    The x-derivative of the corresponding conditional CDF: f(x) scaled by a
    constant on each of the regions x < t1, t1 <= x <= t2, x > t2.
    """
    if not model.has_density:
        raise DensityUnsupportedError(f"{type(model).__name__} does not expose a density")
    x = float(x)
    if np.isnan(x) or x < 0.0:
        raise DomainError(f"x must be a nonnegative time, got {x!r}")
    low, mid, high = window_slopes(cfg, model, window)
    if x < window.t1:
        return low * model.pdf(x)
    if x <= window.t2:
        return mid * model.pdf(x)
    return high * model.pdf(x)


def _quad(fn, a: float, b: float, quad: QuadratureSpec) -> tuple[float, float]:
    if b <= a:
        return 0.0, 0.0
    result = integrate.quad(
        fn, a, b, epsabs=quad.abs_tol, epsrel=quad.rel_tol, limit=quad.max_subdivisions,
        full_output=1,
    )
    if len(result) > 3:
        message = " ".join(result[3].split())
        raise QuadratureError(f"integral on [{a}, {b}] did not converge: {message}")
    return result[0], result[1]


def _partial_expectation(cfg, model, window, quad):
    """E{X_1 | window event} and its slope-weighted quadrature error estimate."""
    if not model.has_density:
        raise DensityUnsupportedError(f"{type(model).__name__} does not expose a density")
    slopes = window_slopes(cfg, model, window)
    s1 = 1.0 - model.cdf(window.t1)
    s2 = 1.0 - model.cdf(window.t2)
    parts = [_quad(model.isf, a, b, quad) for a, b in ((s1, 1.0), (s2, s1), (0.0, s2))]
    total = sum(c * value for c, (value, _) in zip(slopes, parts))
    error = sum(c * err for c, (_, err) in zip(slopes, parts))
    return total, error


def mean_residual(
    cfg: SystemConfig,
    model: LifetimeModel,
    window: Window,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Signed expected residual E{X_1 - t2 | t1 <= X_{r:n} <= t2}.

    Negative whenever the inspected component is expected to have failed
    before the window's right edge.
    """
    total, _ = _partial_expectation(cfg, model, window, quad)
    return total - window.t2


def mean_past(
    cfg: SystemConfig,
    model: LifetimeModel,
    window: Window,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Expected distance into the past, E{t2 - X_1 | t1 <= X_{r:n} <= t2}."""
    total, _ = _partial_expectation(cfg, model, window, quad)
    return window.t2 - total


def mrl_summary(
    cfg: SystemConfig,
    model: LifetimeModel,
    window: Window,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MrlSummary:
    """Mean residual life and mean past in one pass, with the error bound."""
    total, bound = _partial_expectation(cfg, model, window, quad)
    return MrlSummary(window.t1, window.t2, total - window.t2, window.t2 - total, bound)
