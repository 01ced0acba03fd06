"""Exception hierarchy shared across the library, and its argument rules:
``_integer`` returns the int of an integer value in a closed range [lo, hi],
``_real`` the float of a number in [lo, hi] and ``_reals`` a float64 array of
them (``_time`` and ``_times`` for the times, [0, inf]); anything else, NaN
included, raises DomainError(f"{rule}, got ...").  Open bounds are closed
float bounds: ``_ABOVE_ZERO`` for > 0, ``_FINITE`` for finite and
``_BELOW_ONE`` for < 1.  A message is formatted only on failure.

numpy and scipy are imported on first use, not with the package, through
one helper, ``_on_first_read``: ``np`` here is numpy for every module of the
package, ``oracle`` reads ``numpy.random`` and ``special`` reads
``scipy.special`` through such an object.  So ``import ordstat`` and the
exact inspection laws load only the standard library."""

from __future__ import annotations

import math
import reprlib
import sys
from importlib import import_module
from types import ModuleType

__all__ = [
    "OrdstatError",
    "DomainError",
    "NullConditioningError",
    "DensityUnsupportedError",
    "EnumerationSizeError",
]


def _on_first_read(name: str) -> ModuleType:
    """A module object that imports module ``name`` at the first read of one of its names.

    Its PEP 562 ``__getattr__`` imports ``name``, copies that module's
    non-dunder names onto the object and removes itself, so every later read
    is a plain attribute load with no import statement on the call path: the
    interpreter does not specialize attribute loads from a module with this
    hook (or from an object whose class has ``__getattr__``), which costs
    about 40 ns per load.
    """
    stand_in = ModuleType(name, f"{name}, imported at the first read of one of its names")

    def import_on_first_read(attr):
        names = vars(import_module(name)).items()
        vars(stand_in).update((key, value) for key, value in names if not key.startswith("__"))
        vars(stand_in).pop("__getattr__", None)  # gone already if another thread got here first
        return getattr(stand_in, attr)

    stand_in.__getattr__ = import_on_first_read
    return stand_in


np = _on_first_read("numpy")


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


_ABOVE_ZERO = math.ulp(0.0)  # the least float > 0
_FINITE = sys.float_info.max  # the largest finite float
_BELOW_ONE = 1.0 - 2.0**-53  # the largest float < 1


def _real(value, lo, hi, rule: str) -> float:
    """float(value) for a number in [lo, hi] ("2", numpy.float64(2)); else DomainError."""
    try:
        value = float(value)
    except (TypeError, ValueError):  # None, text
        pass
    else:
        if lo <= value <= hi:  # false for NaN
            return value
    raise DomainError(f"{rule}, got {value!r}")


def _floats(values, rule: str) -> np.ndarray:
    """values as a float64 array, range unchecked; DomainError where numpy cannot convert them."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # text, a ragged list
        raise DomainError(f"{rule}, got {reprlib.repr(values)}") from None


def _reals(values, lo, hi, rule: str) -> np.ndarray:
    """values as a float64 array of numbers in [lo, hi]; else DomainError naming a bad one."""
    arr = _floats(values, rule)
    # one reduction for lo and one for a finite hi: a NaN propagates and fails
    # it, and the initial bound lets an empty array through; the mask only
    # names the value.  The ufuncs' reduce costs half of what ndarray.min and
    # .max do over all axes
    if not (np.minimum.reduce(arr, None, initial=lo) >= lo
            and (hi == math.inf or np.maximum.reduce(arr, None, initial=hi) <= hi)):
        bad = ~((arr >= lo) & (arr <= hi))
        raise DomainError(f"{rule}, got {float(arr[bad].flat[0])!r}")
    return arr


def _time(value, name: str) -> float:
    """_real over the times [0, inf]: "{name} must be a nonnegative time"."""
    return _real(value, 0.0, math.inf, f"{name} must be a nonnegative time")


def _times(values, name: str) -> np.ndarray:
    """_reals over the times [0, inf], with the rule of _time."""
    return _reals(values, 0.0, math.inf, f"{name} must be a nonnegative time")
