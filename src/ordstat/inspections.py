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

An `InspectionPmf` is checked once and kept as integer weights over one
denominator: `inspection_pmf` and `oracle.exhaustive_inspection_pmf` hold
their counts over C(n, r-1) already, and the public constructor brings its
Fractions over their least common denominator.  The Fractions of `probs`
are built once, at the API, and `expected_inspections` is one integer sum
over the same denominator.  The mean is k(n + 1)/r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, lcm, perm

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
        k = self.cfg.validate_k(self.k)
        # stored as tuples, so a list argument neither fails the support check
        # nor leaves the frozen pmf mutable and unhashable
        try:
            support, probs = tuple(self.support), tuple(self.probs)
        except TypeError:  # not iterable
            raise DomainError("support and probabilities must be sequences") from None
        self.__dict__.update(k=k, support=support, probs=probs)  # past the frozen __setattr__
        self._check_support(len(probs))
        try:
            nums, den = _over_one_denominator(probs)
        except AttributeError:  # a float has no numerator
            raise DomainError("probabilities must be exact rationals") from None
        self._keep_weights(nums, den)

    @classmethod
    def _from_weights(cls, cfg: SystemConfig, k: int, support, nums, den: int) -> InspectionPmf:
        """The pmf P{N = support[i]} = nums[i] / den from integer weights.

        Runs the checks of the public constructor on the integers and builds
        each Fraction once, with no lcm and no rescaling.
        """
        pmf = object.__new__(cls)
        pmf.__dict__.update(cfg=cfg, k=cfg.validate_k(k), support=tuple(support))
        pmf._check_support(len(nums))
        pmf._keep_weights(nums, den)
        pmf.__dict__["probs"] = tuple(Fraction(num, den) for num in nums)
        return pmf

    def _check_support(self, n_probs: int) -> None:
        expected_support = tuple(self.cfg.detection_support(self.k))
        if self.support != expected_support:
            raise DomainError(
                f"support must be m = {expected_support[0]}..{expected_support[-1]}, got {self.support}"
            )
        if n_probs != len(self.support):
            raise DomainError("one probability per support point required")

    def _keep_weights(self, nums, den: int) -> None:
        """Check integer weights over one denominator and keep them for exact sums.

        They are not fields, so they take no part in ==, hash or repr.
        """
        if min(nums) < 0:
            raise DomainError("probabilities must be nonnegative")
        if sum(nums) != den:
            raise DomainError("probabilities must sum to exactly 1")
        self.__dict__.update(_nums=tuple(nums), _den=den)

    def prob(self, m: int) -> Fraction:
        """P{N = m}; zero at an integer m off the support.  A value such as 3.0 is used as 3."""
        m = _integer(m, -inf, inf, "m must be an integer")
        i = m - self.support[0]  # the support is a contiguous range
        if 0 <= i < len(self.support):
            return self.probs[i]
        return Fraction(0)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.probs))


def inspection_pmf(cfg: SystemConfig, k: int) -> InspectionPmf:
    """Exact pmf of the inspection count over its support m = k .. n - r + k + 1."""
    k = cfg.validate_k(k)
    n, r = cfg.n, cfg.r
    support = cfg.detection_support(k)
    nums = [comb(m - 1, k - 1) * comb(n - m, r - 1 - k) for m in support]
    return InspectionPmf._from_weights(cfg, k, support, nums, comb(n, r - 1))


def expected_inspections(pmf: InspectionPmf) -> Fraction:
    """Exact mean of the inspection count."""
    return Fraction(sum(m * num for m, num in zip(pmf.support, pmf._nums)), pmf._den)
