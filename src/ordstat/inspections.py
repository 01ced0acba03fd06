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

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, perm

from .errors import DomainError, _integer
from .system import SystemConfig

__all__ = [
    "InspectionPmf",
    "lambda_coeff",
    "inspection_pmf",
    "expected_inspections",
]


def _over_one_denominator(probs) -> tuple[list[int], int]:
    """Rational probabilities as integer numerators over their least common denominator.

    Sums over these numerators cost one lcm where adding Fractions costs a
    gcd per term, and give the same values.
    """
    den = lcm(*(p.denominator for p in probs))
    return [p.numerator * (den // p.denominator) for p in probs], den


def lambda_coeff(cfg: SystemConfig, j: int) -> Fraction:
    """Probability that j specified components all fail strictly before the system.

    Equal to prod_{i=0}^{j-1} (r-1-i)/(n-i) = P(r-1, j) / P(n, j) with P the
    falling factorial, for 1 <= j <= r - 1; distribution-free for continuous
    lifetimes.
    """
    j = _integer(j, 1, cfg.r - 1, "j must satisfy 1 <= j <= r - 1")
    return Fraction(perm(cfg.r - 1, j), perm(cfg.n, j))


@dataclass(frozen=True)
class InspectionPmf:
    """Exact pmf of the inspection count N for detecting k failed components."""

    cfg: SystemConfig
    k: int
    support: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", self.cfg.validate_k(self.k))
        expected_support = tuple(self.cfg.detection_support(self.k))
        if self.support != expected_support:
            raise DomainError(
                f"support must be m = {expected_support[0]}..{expected_support[-1]}, got {self.support}"
            )
        if len(self.probs) != len(self.support):
            raise DomainError("one probability per support point required")
        try:
            nums, den = _over_one_denominator(self.probs)
        except AttributeError:  # a float has no numerator
            raise DomainError("probabilities must be exact rationals") from None
        if any(num < 0 for num in nums):
            raise DomainError("probabilities must be nonnegative")
        if sum(nums) != den:
            raise DomainError("probabilities must sum to exactly 1")

    def prob(self, m: int) -> Fraction:
        """P{N = m}; zero off the support.  An integer value such as 3.0 is used as 3."""
        if m in self.support:
            return self.probs[self.support.index(m)]
        return Fraction(0)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.probs))


def inspection_pmf(cfg: SystemConfig, k: int) -> InspectionPmf:
    """Exact pmf of the inspection count over its support m = k .. n - r + k + 1."""
    k = cfg.validate_k(k)
    n, r = cfg.n, cfg.r
    support = tuple(cfg.detection_support(k))
    total = comb(n, r - 1)
    probs = tuple(Fraction(comb(m - 1, k - 1) * comb(n - m, r - 1 - k), total) for m in support)
    return InspectionPmf(cfg, k, support, probs)


def expected_inspections(pmf: InspectionPmf) -> Fraction:
    """Exact mean of the inspection count."""
    nums, den = _over_one_denominator(pmf.probs)
    return Fraction(sum(m * num for m, num in zip(pmf.support, nums)), den)
