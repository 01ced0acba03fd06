"""Lifetime models supported on [0, inf).

The parametric models (exponential, Weibull, uniform) are absolutely
continuous with closed-form quantiles and partial moments.  The empirical
model wraps a fixed sample as a right-continuous step CDF; it is valid
wherever only the CDF or sampling is needed and refuses density evaluations
and partial moments.

``cdf``, ``pdf`` and ``quantile`` accept floats or numpy arrays and
broadcast elementwise; scalar input yields a plain float.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from scipy.special import gamma, gammainc, gammaincc

from .errors import DensityUnsupportedError, DomainError

__all__ = [
    "LifetimeModel",
    "Exponential",
    "Weibull",
    "Uniform",
    "Empirical",
    "parse_model",
]


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return float(arr) if scalar else arr


def _check_interval(a, b):
    a, b = float(a), float(b)
    if not 0.0 <= a <= b:  # also false for a NaN end
        raise DomainError(f"need 0 <= a <= b, got [{a!r}, {b!r}]")
    return a, b


def _weibull_partial_moment(shape, scale, a, b):
    """The integral of x dF(x) over [a, b] for Weibull(shape, scale).

    With s = 1 + 1/shape, y = (x/scale)**shape and the regularized incomplete
    gamma functions P and Q = 1 - P, it is scale Gamma(s) [P(s, y_b) - P(s, y_a)]
    = scale Gamma(s) [Q(s, y_a) - Q(s, y_b)].  The difference is taken on the
    side whose larger term is smaller, so its rounding error is a few eps
    times the smaller of the moments over [0, b] and [a, inf).
    """
    a, b = _check_interval(a, b)
    s = 1.0 + 1.0 / shape
    mean = scale * float(gamma(s))
    if not math.isfinite(mean):
        raise DomainError(f"the mean scale*Gamma(1 + 1/shape) overflows at shape {shape!r}")
    # a y beyond the largest float is inf, where P = 1 and Q = 0
    with np.errstate(over="ignore"):
        ya, yb = np.float64(a / scale) ** shape, np.float64(b / scale) ** shape
    lower_b, upper_a = gammainc(s, yb), gammaincc(s, ya)
    if upper_a < lower_b:
        return mean * float(upper_a - gammaincc(s, yb))
    return mean * float(lower_b - gammainc(s, ya))


class LifetimeModel(ABC):
    """A nonnegative lifetime law described by its CDF."""

    has_density: bool = True

    @abstractmethod
    def cdf(self, x):
        """P{X <= x}."""

    @abstractmethod
    def quantile(self, u):
        """Smallest x with F(x) >= u, for u strictly inside (0, 1)."""

    def pdf(self, x):
        """Density F'(x); models without one raise DensityUnsupportedError."""
        raise DensityUnsupportedError(f"{type(self).__name__} does not expose a density")

    def sample(self, rng: np.random.Generator, size):
        """Draw lifetimes by inverse-CDF transformation of uniforms from ``rng``."""
        u = rng.random(size)
        # rng.random can return exactly 0.0, which the quantile rejects
        zero = u == 0.0
        if np.any(zero):
            u[zero] = np.nextafter(0.0, 1.0)
        return self.quantile(u)

    def partial_moment(self, a: float, b: float) -> float:
        """The integral of x dF(x) over [a, b], for 0 <= a <= b <= inf.

        Closed forms compute it as a difference of two terms no larger than
        the smaller of the moments over [0, b] and [a, inf), which bounds
        its rounding error.  Models without a density raise
        DensityUnsupportedError.
        """
        raise DensityUnsupportedError(f"{type(self).__name__} does not expose a density")

    def support_upper(self, mass: float) -> float:
        """A finite cutoff U with 1 - F(U) <= mass."""
        return float(self.quantile(1.0 - mass))

    def _check_u(self, u):
        arr, scalar = _prepare(u)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise DomainError("probability argument must lie strictly inside (0, 1)")
        return arr, scalar


class Exponential(LifetimeModel):
    """Exponential(rate): F(x) = 1 - exp(-rate * x)."""

    def __init__(self, rate: float):
        rate = float(rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise DomainError(f"rate must be a positive finite number, got {rate!r}")
        self.rate = rate

    def cdf(self, x):
        arr, scalar = _prepare(x)
        out = np.where(arr < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(arr, 0.0)))
        return _finish(out, scalar)

    def pdf(self, x):
        arr, scalar = _prepare(x)
        out = np.where(arr < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(arr, 0.0)))
        return _finish(out, scalar)

    def quantile(self, u):
        arr, scalar = self._check_u(u)
        return _finish(-np.log1p(-arr) / self.rate, scalar)

    def partial_moment(self, a: float, b: float) -> float:
        return _weibull_partial_moment(1.0, 1.0 / self.rate, a, b)

    def __repr__(self):
        return f"Exponential(rate={self.rate!r})"


class Weibull(LifetimeModel):
    """Weibull(shape, scale): F(x) = 1 - exp(-(x / scale)**shape)."""

    def __init__(self, shape: float, scale: float):
        shape, scale = float(shape), float(scale)
        if not math.isfinite(shape) or shape <= 0.0:
            raise DomainError(f"shape must be a positive finite number, got {shape!r}")
        if not math.isfinite(scale) or scale <= 0.0:
            raise DomainError(f"scale must be a positive finite number, got {scale!r}")
        self.shape = shape
        self.scale = scale

    def cdf(self, x):
        arr, scalar = _prepare(x)
        z = np.maximum(arr, 0.0) / self.scale
        out = np.where(arr < 0.0, 0.0, -np.expm1(-(z**self.shape)))
        return _finish(out, scalar)

    def pdf(self, x):
        arr, scalar = _prepare(x)
        z = np.maximum(arr, 0.0) / self.scale
        # z**(shape-1) is legitimately +inf at 0 when shape < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (self.shape / self.scale) * z ** (self.shape - 1.0) * np.exp(-(z**self.shape))
        out = np.where((arr < 0.0) | np.isinf(arr), 0.0, body)
        return _finish(out, scalar)

    def quantile(self, u):
        arr, scalar = self._check_u(u)
        return _finish(self.scale * (-np.log1p(-arr)) ** (1.0 / self.shape), scalar)

    def partial_moment(self, a: float, b: float) -> float:
        return _weibull_partial_moment(self.shape, self.scale, a, b)

    def __repr__(self):
        return f"Weibull(shape={self.shape!r}, scale={self.scale!r})"


class Uniform(LifetimeModel):
    """Uniform(lo, hi) on [lo, hi] with 0 <= lo < hi."""

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"bounds must be finite, got ({lo!r}, {hi!r})")
        if not 0.0 <= lo < hi:
            raise DomainError(f"bounds must satisfy 0 <= lo < hi, got ({lo!r}, {hi!r})")
        self.lo = lo
        self.hi = hi

    def cdf(self, x):
        arr, scalar = _prepare(x)
        return _finish(np.clip((arr - self.lo) / (self.hi - self.lo), 0.0, 1.0), scalar)

    def pdf(self, x):
        arr, scalar = _prepare(x)
        inside = (arr >= self.lo) & (arr <= self.hi)
        return _finish(np.where(inside, 1.0 / (self.hi - self.lo), 0.0), scalar)

    def quantile(self, u):
        arr, scalar = self._check_u(u)
        return _finish(self.lo + arr * (self.hi - self.lo), scalar)

    def partial_moment(self, a: float, b: float) -> float:
        a, b = _check_interval(a, b)
        a, b = max(a, self.lo), min(b, self.hi)
        return (b - a) * (b + a) / (2.0 * (self.hi - self.lo)) if a < b else 0.0

    def __repr__(self):
        return f"Uniform(lo={self.lo!r}, hi={self.hi!r})"


class Empirical(LifetimeModel):
    """Right-continuous empirical step CDF over a fixed nonnegative sample.

    The quantile is the usual order-statistic lookup, so the model is exact
    for CDF-only formulas and for sampling; density evaluations raise.
    """

    has_density = False

    def __init__(self, sample):
        arr = np.sort(np.asarray(sample, dtype=float).ravel())
        if arr.size == 0:
            raise DomainError("empirical sample must be nonempty")
        if not np.all(np.isfinite(arr)) or arr[0] < 0.0:
            raise DomainError("empirical sample values must be finite and >= 0")
        self.sample = arr

    def cdf(self, x):
        arr, scalar = _prepare(x)
        out = np.searchsorted(self.sample, arr, side="right") / self.sample.size
        return _finish(np.asarray(out, dtype=float), scalar)

    def quantile(self, u):
        arr, scalar = self._check_u(u)
        m = self.sample.size
        idx = np.clip(np.ceil(arr * m).astype(int) - 1, 0, m - 1)
        return _finish(self.sample[idx], scalar)

    def __repr__(self):
        return f"Empirical(size={self.sample.size})"


def parse_model(text: str) -> LifetimeModel:
    """Parse a lifetime model specification string.

    Grammar: ``exp:RATE``, ``weibull:SHAPE,SCALE``, ``uniform:LO,HI``, or
    ``empirical:@FILE`` where FILE holds one nonnegative value per line.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"model spec {text!r} must look like kind:parameters")
    kind = kind.strip()
    if kind == "exp":
        (rate,) = _parse_floats(text, rest, 1)
        return Exponential(rate)
    if kind == "weibull":
        shape, scale = _parse_floats(text, rest, 2)
        return Weibull(shape, scale)
    if kind == "uniform":
        lo, hi = _parse_floats(text, rest, 2)
        return Uniform(lo, hi)
    if kind == "empirical":
        if not rest.startswith("@"):
            raise DomainError(
                f"empirical spec must reference a file, e.g. empirical:@values.csv; got {text!r}"
            )
        return Empirical(_read_sample(rest[1:]))
    raise DomainError(f"unknown model kind {kind!r}; expected exp, weibull, uniform or empirical")


def _parse_floats(full, rest, count):
    parts = [s.strip() for s in rest.split(",")]
    if len(parts) != count:
        raise DomainError(f"model spec {full!r} needs exactly {count} numeric parameter(s)")
    try:
        return [float(s) for s in parts]
    except ValueError:
        raise DomainError(f"model spec {full!r} has a non-numeric parameter") from None


def _read_sample(path):
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DomainError(f"{path}:{line_no}: not a number: {line!r}") from None
    return values
