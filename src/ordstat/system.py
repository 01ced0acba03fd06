"""Shared configuration types: the system layout and inspection windows."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

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
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")
        if int(self.r) != self.r or not 1 <= self.r <= self.n:
            raise DomainError(f"r must satisfy 1 <= r <= n, got r={self.r!r} with n={self.n}")

    def validate_k(self, k: int) -> None:
        """Check 1 <= k < r for a detection target k."""
        if int(k) != k or not 1 <= k <= self.r - 1:
            raise DomainError(f"k must satisfy 1 <= k < r, got k={k!r} with r={self.r}")

    def detection_support(self, k: int) -> range:
        """Possible inspection counts for finding k failures: k .. n - r + k + 1."""
        self.validate_k(k)
        return range(k, self.n - self.r + k + 2)


@dataclass(frozen=True)
class Window:
    """An inspection window 0 <= t1 < t2 (strict; degenerate windows rejected)."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise DomainError(f"window endpoints must be finite, got ({self.t1!r}, {self.t2!r})")
        if not 0.0 <= self.t1 < self.t2:
            raise DomainError(f"window must satisfy 0 <= t1 < t2, got ({self.t1!r}, {self.t2!r})")
