"""Lifetime models supported on [0, inf).

The parametric models (exponential, Weibull, uniform) are absolutely
continuous with closed-form quantiles and partial moments.  The empirical
model wraps a fixed sample as a right-continuous step CDF; it is valid
wherever only the CDF or sampling is needed and refuses density evaluations
and partial moments.

Each model writes only its formulas over float64 arrays, ``_cdf(x)``,
``_pdf(x)`` (the base one raises DensityUnsupportedError) and
``_from_uniform(u)``; ``LifetimeModel`` owns the conversion of arguments,
the scalar/array rule and the repr.  ``cdf``, ``pdf`` and ``quantile``
accept floats or numpy arrays and work elementwise.  ``cdf`` and ``pdf``
only convert their argument, with ``errors._floats``, and check no range:
what numpy cannot convert to floats raises DomainError, and None, like NaN,
gives NaN.  Every elementwise result in the package follows one rule,
``_finish``: a 0-d result is returned as a plain float and anything else as
the array, so a scalar in gives a float out.

``_from_uniform(u)`` is the quantile formula: ``u`` is a float64 array in
(0, 1) that the caller owns, and the method overwrites it with the
quantiles and returns it.  ``quantile`` hands it a checked copy of its
argument, and ``sample`` the uniforms it has just drawn, so a batch of
lifetimes costs one allocation, or none when ``sample`` is given an ``out``
buffer, and a scalar gets the same bits as an array element.  A quantile
beyond the largest float comes out as inf, its correctly rounded value.

Weibull shapes must be at least 0.01; below that the quantile overflows to
inf for ordinary probabilities.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from .errors import (
    _ABOVE_ZERO, _BELOW_ONE, _FINITE, DensityUnsupportedError, DomainError, _floats, _real, _reals,
    np)
from .special import _sp

__all__ = [
    "LifetimeModel",
    "Exponential",
    "Weibull",
    "Uniform",
    "Empirical",
    "parse_model",
]


def _finish(value):
    """The scalar/array rule: a float for a 0-d result, else the array."""
    # the attribute, not np.ndim(value), which costs a call on every scalar
    return float(value) if value.ndim == 0 else value


# an exponent y >= _SATURATION gives exp(-y) == 0 and -expm1(-y) == 1 in
# float64, so clipping x where rate*x or (x/scale)**shape reaches it changes
# no value of F or f and keeps those exponents finite
_SATURATION = 1000.0

# smallest Weibull shape; _SATURATION ** (1 / _MIN_SHAPE) = 1e300 is finite
_MIN_SHAPE = 0.01
_SHAPE_RULE = f"shape must be a finite number >= {_MIN_SHAPE}"

# the rule of the argument of cdf and pdf, which is converted but not range-checked
_X_RULE = "x must be a number or an array of numbers"


def _clip(value, lo, hi):
    """np.clip(value, lo, hi), with its bits, signed zeros and NaN included."""
    # np.clip costs 3-4 us more per call, in Python wrappers; with the bound
    # first, a tie keeps value, as np.clip does
    return np.minimum(hi, np.maximum(lo, value))


def _clip_time(arr, x_max):
    return np.minimum(np.maximum(arr, 0.0), x_max)


def _interval(a, b):
    a = _real(a, 0.0, math.inf, "the start a must be >= 0")
    return a, _real(b, a, math.inf, "the end b must be >= the start a")


def _weibull_partial_moment(shape, scale, a, b):
    """The integral of x dF(x) over [a, b] for Weibull(shape, scale).

    With s = 1 + 1/shape, y = (x/scale)**shape and the regularized incomplete
    gamma functions P and Q = 1 - P, it is scale Gamma(s) [P(s, y_b) - P(s, y_a)]
    = scale Gamma(s) [Q(s, y_a) - Q(s, y_b)].  The difference is taken on the
    side whose larger term is smaller, so its rounding error is a few eps
    times the smaller of the moments over [0, b] and [a, inf).
    """
    a, b = _interval(a, b)
    s = 1.0 + 1.0 / shape
    mean = scale * float(_sp.gamma(s))
    if not math.isfinite(mean):
        raise DomainError(f"the mean scale*Gamma(1 + 1/shape) overflows at shape {shape!r}")
    # a y beyond the largest float is inf, where P = 1 and Q = 0
    with np.errstate(over="ignore"):
        ya, yb = np.float64(a / scale) ** shape, np.float64(b / scale) ** shape
    lower_b, upper_a = _sp.gammainc(s, yb), _sp.gammaincc(s, ya)
    if upper_a < lower_b:
        return mean * float(upper_a - _sp.gammaincc(s, yb))
    return mean * float(lower_b - _sp.gammainc(s, ya))


class LifetimeModel(ABC):
    """A nonnegative lifetime law described by its CDF."""

    def cdf(self, x):
        """P{X <= x}."""
        return _finish(self._cdf(_floats(x, _X_RULE)))

    def pdf(self, x):
        """Density F'(x); models without one raise DensityUnsupportedError."""
        return _finish(self._pdf(_floats(x, _X_RULE)))

    @abstractmethod
    def _cdf(self, x):
        """F over ``x``, a float64 array."""

    def _pdf(self, x):
        """f over ``x``, a float64 array."""
        raise DensityUnsupportedError(f"{type(self).__name__} does not expose a density")

    @abstractmethod
    def _from_uniform(self, u):
        """Overwrite ``u``, an owned float64 array in (0, 1), with its quantile."""

    def quantile(self, u):
        """Smallest x with F(x) >= u, for u strictly inside (0, 1)."""
        u = np.array(_reals(u, _ABOVE_ZERO, _BELOW_ONE, "u must lie strictly inside (0, 1)"))
        with np.errstate(over="ignore"):
            return _finish(self._from_uniform(u))

    def sample(self, rng: np.random.Generator, size, out=None):
        """Draw lifetimes by inverse-CDF transformation of uniforms from ``rng``.

        With ``out``, a float64 array of shape ``size``, the uniforms are
        drawn into it and overwritten with the lifetimes, and ``out`` is
        returned; the bits are those of a call without it.
        """
        u = np.asarray(rng.random(size, out=out))  # a float for size None
        # rng.random can return exactly 0.0, which the quantile rejects; one
        # reduction finds it, where u.all() casts every float to bool
        if np.minimum.reduce(u, None, initial=1.0) == 0.0:
            u[u == 0.0] = np.nextafter(0.0, 1.0)
        # u now lies strictly inside (0, 1), so quantile's check is not needed
        with np.errstate(over="ignore"):
            return _finish(self._from_uniform(u))

    def partial_moment(self, a: float, b: float) -> float:
        """The integral of x dF(x) over [a, b], for 0 <= a <= b <= inf.

        Closed forms compute it as a difference of two terms no larger than
        the smaller of the moments over [0, b] and [a, inf), which bounds
        its rounding error.  Models without a density raise
        DensityUnsupportedError.
        """
        raise DensityUnsupportedError(f"{type(self).__name__} does not expose a density")

    def __repr__(self):
        # the public attributes, in the order __init__ sets them
        params = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({params})"


class Exponential(LifetimeModel):
    """Exponential(rate): F(x) = 1 - exp(-rate * x)."""

    def __init__(self, rate: float):
        self.rate = _real(rate, _ABOVE_ZERO, _FINITE, "rate must be a positive finite number")
        self._x_max = _SATURATION / self.rate

    def _cdf(self, x):
        return -np.expm1(-self.rate * _clip_time(x, self._x_max))

    def _pdf(self, x):
        density = self.rate * np.exp(-self.rate * _clip_time(x, self._x_max))
        return np.where(x < 0.0, 0.0, density)

    def _from_uniform(self, u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= -self.rate
        return u

    def partial_moment(self, a: float, b: float) -> float:
        return _weibull_partial_moment(1.0, 1.0 / self.rate, a, b)


class Weibull(LifetimeModel):
    """Weibull(shape, scale): F(x) = 1 - exp(-(x / scale)**shape)."""

    def __init__(self, shape: float, scale: float):
        self.shape = _real(shape, _MIN_SHAPE, _FINITE, _SHAPE_RULE)
        self.scale = _real(scale, _ABOVE_ZERO, _FINITE, "scale must be a positive finite number")
        self._x_max = self.scale * _SATURATION ** (1.0 / self.shape)

    def _cdf(self, x):
        z = _clip_time(x, self._x_max) / self.scale
        return -np.expm1(-(z**self.shape))

    def _pdf(self, x):
        z = _clip_time(x, self._x_max) / self.scale
        # for shape < 1, z**(shape-1) is legitimately +inf at 0 and may
        # overflow to +inf just above it, where the density exceeds every float
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            body = (self.shape / self.scale) * z ** (self.shape - 1.0) * np.exp(-(z**self.shape))
        return np.where(x < 0.0, 0.0, body)

    def _from_uniform(self, u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        # the operator, not np.power(out=), keeps numpy's sqrt and square
        # paths for the exponents 0.5 and 2
        u **= 1.0 / self.shape
        u *= self.scale
        return u

    def partial_moment(self, a: float, b: float) -> float:
        return _weibull_partial_moment(self.shape, self.scale, a, b)


class Uniform(LifetimeModel):
    """Uniform(lo, hi) on [lo, hi] with 0 <= lo < hi."""

    def __init__(self, lo: float, hi: float):
        self.lo = _real(lo, 0.0, _FINITE, "lo must be finite and >= 0")
        self.hi = _real(hi, math.nextafter(self.lo, math.inf), _FINITE, "hi must be finite and > lo")

    def _cdf(self, x):
        return _clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _pdf(self, x):
        # NaN is not outside [lo, hi], and its density is NaN, as in the other models
        density = np.where(np.isnan(x), np.nan, 1.0 / (self.hi - self.lo))
        return np.where((x < self.lo) | (x > self.hi), 0.0, density)

    def _from_uniform(self, u):
        u *= self.hi - self.lo
        u += self.lo
        return u

    def partial_moment(self, a: float, b: float) -> float:
        a, b = _interval(a, b)
        a, b = max(a, self.lo), min(b, self.hi)
        return (b - a) * (b + a) / (2.0 * (self.hi - self.lo)) if a < b else 0.0


class Empirical(LifetimeModel):
    """Right-continuous empirical step CDF over a fixed nonnegative sample.

    The quantile is the usual order-statistic lookup, so the model is exact
    for CDF-only formulas and for sampling; density evaluations raise.
    """

    def __init__(self, sample):
        rule = "empirical sample values must be finite and >= 0"
        self.values = np.sort(_reals(sample, 0.0, _FINITE, rule).ravel())
        if self.values.size == 0:
            raise DomainError("empirical sample must be nonempty")

    def _cdf(self, x):
        # searchsorted puts NaN after every value; F(NaN) is NaN, as in the other models
        fraction = np.searchsorted(self.values, x, side="right") / self.values.size
        return np.where(np.isnan(x), np.nan, fraction)

    def _from_uniform(self, u):
        u *= self.values.size
        # the clip mode keeps every index in range
        return np.take(self.values, np.ceil(u, out=u).astype(int) - 1, mode="clip", out=u)

    def __repr__(self):
        return f"Empirical(size={self.values.size})"


def parse_model(text: str) -> LifetimeModel:
    """Parse a lifetime model specification string.

    Grammar: ``exp:RATE``, ``weibull:SHAPE,SCALE``, ``uniform:LO,HI``, or
    ``empirical:@FILE`` where FILE holds one nonnegative value per line.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"model spec {text!r} must look like kind:parameters")
    kind = kind.strip()
    # each model's own rule converts and checks its parameters
    if kind == "exp":
        return Exponential(*_parameters(text, rest, 1))
    if kind == "weibull":
        return Weibull(*_parameters(text, rest, 2))
    if kind == "uniform":
        return Uniform(*_parameters(text, rest, 2))
    if kind == "empirical":
        if not rest.startswith("@"):
            raise DomainError(
                f"empirical spec must reference a file, e.g. empirical:@values.csv; got {text!r}"
            )
        return Empirical(_read_sample(rest[1:]))
    raise DomainError(f"unknown model kind {kind!r}; expected exp, weibull, uniform or empirical")


def _parameters(full, rest, count):
    parts = rest.split(",")
    if len(parts) != count:
        raise DomainError(f"model spec {full!r} needs exactly {count} numeric parameter(s)")
    return parts


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
