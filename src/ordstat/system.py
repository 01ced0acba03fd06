"""Shared configuration types: the system layout (n, r and a detection target
k, each checked and converted to int by ``errors._integer``) and inspection
windows (whose ends ``errors._real`` checks and converts to float)."""

from __future__ import annotations

from math import inf, nextafter
from dataclasses import dataclass

from .errors import _FINITE, _integer, _real

__all__ = ["SystemConfig", "Window"]


@dataclass(frozen=True)
class SystemConfig:
    """A system of ``n`` components that fails at the ``r``-th component failure.

    Equivalently an (n - r + 1)-out-of-n structure: it functions while at
    least n - r + 1 components function, and its lifetime is the r-th
    smallest component lifetime.
    """

    n: int
    r: int

    def __post_init__(self):
        n = _integer(self.n, 1, inf, "n must be an integer >= 1")
        r = _integer(self.r, 1, n, "r must satisfy 1 <= r <= n")
        self.__dict__.update(n=n, r=r)  # past the frozen __setattr__, as in Window

    def validate_k(self, k: int) -> int:
        """A detection target k as an int, checked 1 <= k < r."""
        return _integer(k, 1, self.r - 1, "k must satisfy 1 <= k < r")

    def detection_support(self, k: int) -> range:
        """Possible inspection counts for finding k failures: k .. n - r + k + 1."""
        k = self.validate_k(k)
        return range(k, self.n - self.r + k + 2)


@dataclass(frozen=True, init=False)
class Window:
    """An inspection window 0 <= t1 < t2 of finite times, stored as floats."""

    t1: float
    t2: float

    def __init__(self, t1, t2):
        # t1 < t2 as the closed bound t2 >= the next float after t1
        t1 = _real(t1, 0.0, _FINITE, "t1 must be a finite time >= 0")
        t2 = _real(t2, nextafter(t1, inf), _FINITE, "t2 must be a finite time > t1")
        self.__dict__.update(t1=t1, t2=t2)  # past the frozen __setattr__
