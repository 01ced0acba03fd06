"""Exception hierarchy shared across the library."""

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
