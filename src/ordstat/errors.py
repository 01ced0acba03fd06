"""Exception hierarchy shared across the library, and its two argument rules:
``_integer``, the one integer check, and ``_real``.  Each returns the
converted value and formats its message only on failure."""

__all__ = [
    "OrdstatError",
    "DomainError",
    "NullConditioningError",
    "DensityUnsupportedError",
    "EnumerationSizeError",
]


class OrdstatError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OrdstatError, ValueError):
    """An argument violates a documented precondition or invariant."""


class NullConditioningError(OrdstatError):
    """The conditioning event has (numerically) zero probability."""


class DensityUnsupportedError(OrdstatError):
    """The lifetime model does not expose a density."""


class EnumerationSizeError(DomainError):
    """Exhaustive enumeration was requested for too large a sample."""


def _integer(value, lo, hi, rule: str) -> int:
    """int(value) for an integer in [lo, hi] (12, 12.0, numpy.int64(12)); else DomainError."""
    try:
        number = int(value)
        if number == value and lo <= number <= hi:
            return number
    except (TypeError, ValueError, OverflowError):  # None, NaN, an infinity, text
        pass
    raise DomainError(f"{rule}, got {value!r}")


def _real(value, rule: str) -> float:
    """float(value), or DomainError(f"{rule}, got {value!r}") where float() fails."""
    try:
        return float(value)
    except (TypeError, ValueError):  # None, text
        raise DomainError(f"{rule}, got {value!r}") from None
