"""Shared configuration types: the system layout (n, r and a detection target
k, each checked and converted to int by ``errors._integer``) and inspection windows."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _integer

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
        n = _integer(self.n, 1, math.inf, "n must be an integer >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", _integer(self.r, 1, n, "r must satisfy 1 <= r <= n"))

    def validate_k(self, k: int) -> int:
        """A detection target k as an int, checked 1 <= k < r."""
        return _integer(k, 1, self.r - 1, "k must satisfy 1 <= k < r")

    def detection_support(self, k: int) -> range:
        """Possible inspection counts for finding k failures: k .. n - r + k + 1."""
        k = self.validate_k(k)
        return range(k, self.n - self.r + k + 2)


@dataclass(frozen=True)
class Window:
    """An inspection window 0 <= t1 < t2 (strict; degenerate windows rejected)."""

    t1: float
    t2: float

    def __post_init__(self):
        try:
            finite = math.isfinite(self.t1) and math.isfinite(self.t2)
        except TypeError:  # None, text
            finite = False
        if not finite:
            raise DomainError(f"window endpoints must be finite, got ({self.t1!r}, {self.t2!r})")
        if not 0.0 <= self.t1 < self.t2:
            raise DomainError(f"window must satisfy 0 <= t1 < t2, got ({self.t1!r}, {self.t2!r})")
