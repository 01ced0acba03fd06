"""Exact, distribution-free law of the number of inspections needed to find
k failed components in a system that fails at the r-th component failure.

Components are examined in a fixed index order.  Component i counts as
failed when its lifetime is strictly below the system lifetime X_{r:n}, so
exactly r - 1 components are detectable.  For continuous iid lifetimes
every assignment of ranks to components is equally likely, so the set of
failed positions is a uniformly random (r - 1)-subset of {1, ..., n}.  The
inspection count N is the k-th smallest element of that subset, which has
the negative hypergeometric law

    P{N = m} = C(m-1, k-1) C(n-m, r-1-k) / C(n, r-1),   m = k .. n - r + k + 1:

k - 1 failed positions lie before m, position m itself is failed, and the
other r - 1 - k lie after it (Johnson, Kemp & Kotz, *Univariate Discrete
Distributions*, 3rd ed.).  The law does not depend on the lifetime
distribution at all, so everything here is exact rational arithmetic;
floats appear only on explicit conversion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .errors import DomainError
from .system import SystemConfig

__all__ = [
    "Rational",
    "InspectionPmf",
    "lambda_coeff",
    "inspection_pmf",
    "expected_inspections",
]

# exact rational value type for all distribution-free probabilities
Rational = Fraction


def lambda_coeff(cfg: SystemConfig, j: int) -> Fraction:
    """Probability that j specified components all fail strictly before the system.

    Equal to prod_{i=0}^{j-1} (r-1-i)/(n-i) = P(r-1, j) / P(n, j) with P the
    falling factorial, for 1 <= j <= r - 1; distribution-free for continuous
    lifetimes.
    """
    if int(j) != j or not 1 <= j <= cfg.r - 1:
        raise DomainError(f"j must satisfy 1 <= j <= r - 1 = {cfg.r - 1}, got {j!r}")
    return Fraction(perm(cfg.r - 1, int(j)), perm(cfg.n, int(j)))


@dataclass(frozen=True)
class InspectionPmf:
    """Exact pmf of the inspection count N for detecting k failed components."""

    cfg: SystemConfig
    k: int
    support: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        self.cfg.validate_k(self.k)
        expected_support = tuple(self.cfg.detection_support(self.k))
        if self.support != expected_support:
            raise DomainError(
                f"support must be m = {expected_support[0]}..{expected_support[-1]}, got {self.support}"
            )
        if len(self.probs) != len(self.support):
            raise DomainError("one probability per support point required")
        if any(p < 0 for p in self.probs):
            raise DomainError("probabilities must be nonnegative")
        if sum(self.probs) != 1:
            raise DomainError("probabilities must sum to exactly 1")

    def prob(self, m: int) -> Fraction:
        """P{N = m}; zero off the support."""
        if m in self.support:
            return self.probs[m - self.support[0]]
        return Fraction(0)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.probs))

    def rows(self) -> list[tuple[int, int, int, str]]:
        """(m, numerator, denominator, six-place decimal) per support point."""
        return [
            (m, p.numerator, p.denominator, f"{float(p):.6f}")
            for m, p in zip(self.support, self.probs)
        ]

    def to_csv(self) -> str:
        lines = ["m,prob_numerator,prob_denominator,prob_decimal"]
        lines += [f"{m},{num},{den},{dec}" for m, num, den, dec in self.rows()]
        return "\n".join(lines) + "\n"

    def to_json_records(self) -> list[dict]:
        return [
            {"m": m, "prob_numerator": num, "prob_denominator": den, "prob_decimal": dec}
            for m, num, den, dec in self.rows()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_records(), sort_keys=True, indent=2) + "\n"


def inspection_pmf(cfg: SystemConfig, k: int) -> InspectionPmf:
    """Exact pmf of the inspection count over its support m = k .. n - r + k + 1."""
    cfg.validate_k(k)
    k = int(k)
    n, r = cfg.n, cfg.r
    support = tuple(cfg.detection_support(k))
    total = comb(n, r - 1)
    probs = tuple(Fraction(comb(m - 1, k - 1) * comb(n - m, r - 1 - k), total) for m in support)
    return InspectionPmf(cfg, k, support, probs)


def expected_inspections(pmf: InspectionPmf) -> Fraction:
    """Exact mean of the inspection count."""
    return sum((m * p for m, p in zip(pmf.support, pmf.probs)), start=Fraction(0))
