"""Independent verification engines: exhaustive enumeration of failed-position
sets (exact, small n) and seeded Monte-Carlo simulation (any n).

The Monte-Carlo engine draws lifetimes by inverse-CDF sampling of uniforms
from numpy's PCG64 generator (``numpy.random.default_rng``).  The generator
family is part of the reproducibility contract: identical seeds give
identical estimates, bit for bit, on a given platform.  Replications are
drawn as one sequential stream and processed in row blocks, the unit of
work: at most ``_BLOCK_ELEMENTS`` = 2**15 lifetimes, that is 2**15 // n
replications (at least one), so each (block, n) float64 array takes at
most 256 KiB and stays in cache whatever n and the replication count.
Batches of at most ``_BATCH_ELEMENTS`` = 2**21 lifetimes are only the
summation unit of ``mc_event_mean``: a block never straddles the end of a
batch, and the kept values of a batch are summed in one reduction, since a
float sum's rounding depends on how its terms are split.  Neither the block
size nor the batch size changes any bit of an estimate: the stream, the
row-wise sort and the per-row events do not see the blocks, counts are
integers, and the sums see whole batches.  Conditional quantities use
rejection sampling and report the fraction of raw replications that
satisfied the conditioning event; standard errors are computed from the
accepted count.

``mc_inspection_pmf`` marks a component failed when its lifetime is
strictly below the row's r-th order statistic and locates each row's k-th
failure without a running count: ``np.flatnonzero`` lists the failures of
the whole block in row-major order, so a row's k-th failure sits k - 1
places after the row's offset, the number of failures in the rows above it
(an exclusive cumulative sum of the per-row counts).  Its flat position
modulo n is the component index.

Exact floating-point ties between a lifetime and the r-th order statistic
resolve against "failed" (strict comparison).  For continuous models such
ties have probability zero and cannot move an estimate beyond machine
precision.  Under an empirical model they are common: a row may then hold
fewer than r - 1 failures, and its k-th failure may fall beyond the
support of the inspection count or not exist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, sqrt
from typing import Callable

import numpy as np

from .errors import DomainError, EnumerationSizeError, NullConditioningError, _integer, _time
from .inspections import InspectionPmf
from .lifetimes import LifetimeModel
from .system import SystemConfig, Window

__all__ = [
    "McEstimate",
    "mc_event_prob",
    "mc_event_mean",
    "mc_inspection_pmf",
    "exhaustive_inspection_pmf",
    "first_observation_leq",
    "observation_leq",
    "order_stat_leq",
    "order_stat_in_window",
]

# lifetimes per block, the unit of work: a (block, n) float64 array takes 256 KiB
_BLOCK_ELEMENTS = 1 << 15
# lifetimes per batch, the summation unit of mc_event_mean
_BATCH_ELEMENTS = 1 << 21

# predicate over (samples, row-wise order statistics), both (block, n)
# arrays; a row's result may depend only on that row
EventFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo point estimate with its error bar and acceptance rate."""

    estimate: float
    replications: int
    std_error: float
    conditioned_fraction: float = 1.0


def first_observation_leq(x) -> EventFn:
    """Event {X_1 <= x}."""
    return observation_leq(1, x)


def observation_leq(index: int, x) -> EventFn:
    """Event {X_index <= x} for a 1-based component index.

    The index must not exceed n, which is checked when the event is evaluated.
    """
    index = _integer(index, 1, inf, "component index must be a positive integer")
    x = _time(x, "x")

    def event(samples, ordered):
        n = samples.shape[1]
        if index > n:
            raise DomainError(f"component index {index} exceeds the sample width n={n}")
        return samples[:, index - 1] <= x

    return event


def order_stat_leq(cfg: SystemConfig, t) -> EventFn:
    """Event {X_{r:n} <= t}."""
    t = _time(t, "t")
    return lambda samples, ordered: ordered[:, cfg.r - 1] <= t


def order_stat_in_window(cfg: SystemConfig, window: Window) -> EventFn:
    """Event {t1 <= X_{r:n} <= t2}."""
    return lambda samples, ordered: (
        (ordered[:, cfg.r - 1] >= window.t1) & (ordered[:, cfg.r - 1] <= window.t2)
    )


def _rows(elements: int, n: int) -> int:
    """Replications in ``elements`` lifetimes, at least one."""
    return max(1, elements // n)


def _iter_batches(model: LifetimeModel, n: int, m_reps: int, seed: int):
    """(samples, ordered) row blocks of ``m_reps`` seeded replications.

    Each block holds at most ``_BLOCK_ELEMENTS`` lifetimes, or one row, and
    ends at or before the end of its batch of ``_BATCH_ELEMENTS``.
    """
    rng = np.random.default_rng(seed)
    batch, block = _rows(_BATCH_ELEMENTS, n), _rows(_BLOCK_ELEMENTS, n)
    for first in range(0, m_reps, batch):
        end = min(first + batch, m_reps)
        for start in range(first, end, block):
            samples = model.sample(rng, (min(block, end - start), n))
            yield samples, np.sort(samples, axis=1)


def _check_run(m_reps: int, seed: int) -> tuple[int, int]:
    """The replication count, a positive integer, and the seed, a nonnegative one."""
    return (_integer(m_reps, 1, inf, "replication count must be a positive integer"),
            _integer(seed, 0, inf, "seed must be a nonnegative integer"))


def mc_event_prob(
    cfg: SystemConfig,
    model: LifetimeModel,
    event: EventFn,
    m_reps: int,
    seed: int,
    *,
    given: EventFn | None = None,
) -> McEstimate:
    """Relative frequency of ``event`` over ``m_reps`` seeded replications.

    ``event`` and ``given`` receive a (block, n) matrix of lifetimes and
    the row-wise order statistics and must return boolean vectors.  With
    ``given`` the estimate is conditional (rejection sampling), and the
    standard error reflects the accepted count only.
    """
    m_reps, seed = _check_run(m_reps, seed)
    hits = 0
    kept = 0
    for samples, ordered in _iter_batches(model, cfg.n, m_reps, seed):
        ok = np.asarray(event(samples, ordered), dtype=bool)
        if given is None:
            hits += int(np.count_nonzero(ok))
            kept += samples.shape[0]
        else:
            keep = np.asarray(given(samples, ordered), dtype=bool)
            hits += int(np.count_nonzero(ok & keep))
            kept += int(np.count_nonzero(keep))
    if kept == 0:
        raise NullConditioningError("no replication satisfied the conditioning event")
    p_hat = hits / kept
    return McEstimate(p_hat, m_reps, sqrt(p_hat * (1.0 - p_hat) / kept), kept / m_reps)


def mc_event_mean(
    cfg: SystemConfig,
    model: LifetimeModel,
    statistic: EventFn,
    m_reps: int,
    seed: int,
    *,
    given: EventFn | None = None,
) -> McEstimate:
    """Mean of ``statistic`` over replications, optionally conditioned.

    ``statistic`` maps (samples, ordered) to a float vector; the standard
    error is the sample standard deviation over sqrt(accepted count).
    """
    m_reps, seed = _check_run(m_reps, seed)
    batch = _rows(_BATCH_ELEMENTS, cfg.n)
    # the kept values of the current batch, summed when its last block is in
    values = np.empty(min(batch, m_reps))
    total = 0.0
    total_sq = 0.0
    kept = filled = rows = 0
    for samples, ordered in _iter_batches(model, cfg.n, m_reps, seed):
        block = np.asarray(statistic(samples, ordered), dtype=float)
        if given is not None:
            block = block[np.asarray(given(samples, ordered), dtype=bool)]
        values[filled:filled + block.size] = block
        filled += block.size
        rows += samples.shape[0]
        if rows % batch == 0 or rows == m_reps:
            head = values[:filled]
            total += float(head.sum())
            total_sq += float(np.square(head, out=head).sum())
            kept += filled
            filled = 0
    if kept == 0:
        raise NullConditioningError("no replication satisfied the conditioning event")
    mean = total / kept
    var = max(0.0, (total_sq - kept * mean * mean) / max(kept - 1, 1))
    return McEstimate(mean, m_reps, sqrt(var / kept), kept / m_reps)


def mc_inspection_pmf(
    cfg: SystemConfig,
    model: LifetimeModel,
    k: int,
    m_reps: int,
    seed: int,
) -> dict[int, McEstimate]:
    """Empirical pmf of the inspection count from seeded simulation.

    Per replication: draw n lifetimes, mark component i failed when X_i is
    strictly below the r-th smallest lifetime, and record the index of the
    inspection (components scanned in index order) at which the k-th failed
    component turns up.

    The estimates sum to the share of replications whose k-th detection
    came at an inspection in the support k .. n - r + k + 1.  That share is
    1 for continuous models.  It falls below 1 only when lifetimes tie with
    the r-th smallest one, as they can under an empirical model: a row then
    holds fewer than r - 1 failures, so its k-th one may come later than
    n - r + k + 1 or not at all, and the shortfall is not reported.
    """
    k = cfg.validate_k(k)
    m_reps, seed = _check_run(m_reps, seed)
    n = cfg.n
    counts = np.zeros(n + 1, dtype=np.int64)
    for samples, ordered in _iter_batches(model, n, m_reps, seed):
        failed = samples < ordered[:, cfg.r - 1, None]
        per_row = np.count_nonzero(failed, axis=1)
        # failures in row-major order: a row's k-th one sits k - 1 places
        # after the failures of all rows above it
        kth = np.cumsum(per_row) - per_row + (k - 1)
        # a row with fewer than k failures (float ties only) counts nowhere
        hit = np.flatnonzero(failed)[kth[per_row >= k]] % n + 1
        counts += np.bincount(hit, minlength=n + 1)
    out = {}
    for m in cfg.detection_support(k):
        p_hat = counts[m] / m_reps
        out[m] = McEstimate(p_hat, m_reps, sqrt(p_hat * (1.0 - p_hat) / m_reps))
    return out


def exhaustive_inspection_pmf(cfg: SystemConfig, k: int) -> InspectionPmf:
    """Exact inspection-count pmf by enumerating all sets of failed positions.

    For continuous lifetimes the r - 1 components that fail before the
    system sit at one of C(n, r - 1) equally likely sets of positions, and
    the k-th failure turns up at the set's k-th smallest position.  Limited
    to n <= 20 (at most C(20, 10) = 184,756 sets); this is the brute-force
    check for the closed form.
    """
    if cfg.n > 20:
        raise EnumerationSizeError(f"exhaustive enumeration is limited to n <= 20, got n={cfg.n}")
    k = cfg.validate_k(k)
    counts = dict.fromkeys(cfg.detection_support(k), 0)
    for failed in itertools.combinations(range(1, cfg.n + 1), cfg.r - 1):
        counts[failed[k - 1]] += 1
    total = comb(cfg.n, cfg.r - 1)
    support = tuple(counts)
    probs = tuple(Fraction(counts[m], total) for m in support)
    return InspectionPmf(cfg, k, support, probs)
