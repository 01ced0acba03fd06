"""Independent verification engines: exhaustive enumeration of failed-position
sets (exact, small n) and seeded Monte-Carlo simulation (any n).

The Monte-Carlo engine draws lifetimes by inverse-CDF sampling of uniforms
from numpy's PCG64 generator (``numpy.random.default_rng``).  The generator
family is part of the reproducibility contract: identical seeds give
identical estimates, bit for bit, on a given platform.  Replications are
drawn as one sequential stream in row blocks, the only unit of work: at
most ``_BLOCK_ELEMENTS`` = 2**15 lifetimes, that is 2**15 // n replications
(at least one), so each (block, n) float64 array takes at most 256 KiB and
stays in cache whatever n and the replication count.  A block is drawn,
sorted and summed once, and its partial sums are added in stream order.
Conditional quantities use rejection sampling and report the fraction of
raw replications that satisfied the conditioning event; standard errors are
computed from the accepted count.

A call allocates its two block arrays once, ``draws`` and ``ordered``.
Every block is drawn into the first (``model.sample(..., out=)``), copied
into the second and sorted there in place, which is what ``np.sort`` does
in a fresh copy, so the bits are the same.  The ``samples`` and ``ordered``
an event receives are therefore views of the call's reused buffers, valid
only while the event runs: an event may return a view of them, since its
result is consumed before the next block is drawn, but must not keep one.

``mc_inspection_pmf`` marks a component failed when its lifetime is
strictly below the row's r-th order statistic and locates each row's k-th
failure without a running count: ``np.flatnonzero`` lists the flat
positions of the failures of the whole block in row-major order, so a row's
failures start at its offset, the number of failures in the rows above it,
which ``np.searchsorted`` finds as the place of the row's first flat
position in that sorted list.  A row's k-th failure sits k - 1 places after
its offset, if that is before the next row's offset, and its flat position
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
from math import comb, inf, sqrt
from typing import Callable

from .errors import (
    DomainError, EnumerationSizeError, NullConditioningError, _integer, _on_first_read, _time, np)
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

# numpy imports its submodule random only when numpy.random is first read, so
# ``np`` holds no copy of it
_random = _on_first_read("numpy.random")

# predicate over (samples, row-wise order statistics), both (block, n)
# views of the call's reused buffers; a row's result may depend only on that
# row, and the result may be a view of them but must not be kept past the call
EventFn = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]


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


def _iter_blocks(model: LifetimeModel, n: int, m_reps: int, seed: int):
    """(samples, ordered) row blocks of ``m_reps`` seeded replications.

    Each block holds at most ``_BLOCK_ELEMENTS`` lifetimes, or one row, and
    is a view of the same two buffers, overwritten by the next one.
    """
    rng = _random.default_rng(seed)
    block = max(1, _BLOCK_ELEMENTS // n)
    draws, ordered = np.empty((2, min(block, m_reps), n))
    for start in range(0, m_reps, block):
        rows = min(block, m_reps - start)
        samples = model.sample(rng, (rows, n), out=draws[:rows])
        # np.sort(samples, axis=1) without its fresh copy
        sorted_rows = ordered[:rows]
        sorted_rows[...] = samples
        sorted_rows.sort(axis=1)
        yield samples, sorted_rows


def _check_run(m_reps: int, seed: int) -> tuple[int, int]:
    """The replication count, a positive integer, and the seed, a nonnegative one."""
    return (_integer(m_reps, 1, inf, "replication count must be a positive integer"),
            _integer(seed, 0, inf, "seed must be a nonnegative integer"))


def _proportion(hits: int, kept: int, m_reps: int) -> McEstimate:
    """hits / kept, of ``kept`` accepted of ``m_reps`` replications, with its binomial error."""
    p_hat = hits / kept
    return McEstimate(p_hat, m_reps, sqrt(p_hat * (1.0 - p_hat) / kept), kept / m_reps)


def _sums(n: int, model: LifetimeModel, statistic: EventFn, m_reps: int, seed: int, given):
    """Sum and sum of squares of ``statistic`` over the replications ``given``
    keeps (all without it), and their count; NullConditioningError if none,
    DomainError unless both return one value per row."""
    total = total_sq = 0.0
    kept = 0
    for samples, ordered in _iter_blocks(model, n, m_reps, seed):
        shape = samples.shape[:1]
        values = np.asarray(statistic(samples, ordered), dtype=float)
        keep = values if given is None else np.asarray(given(samples, ordered), dtype=bool)
        if values.shape != shape or keep.shape != shape:
            raise DomainError(f"an event, statistic or given must return one value per row, shape "
                              f"{shape}, got {values.shape if values.shape != shape else keep.shape}")
        if given is not None:
            values = values[keep]
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        kept += values.size
    if kept == 0:
        raise NullConditioningError("no replication satisfied the conditioning event")
    return total, total_sq, kept


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

    The mean of the event's indicator over the replications ``given`` keeps,
    with the binomial standard error sqrt(p (1 - p) / kept).  ``event`` and
    ``given`` receive a (block, n) matrix of lifetimes and the row-wise
    order statistics and must return boolean vectors.  With ``given`` the
    estimate is conditional (rejection sampling), and the standard error
    reflects the accepted count only.
    """
    m_reps, seed = _check_run(m_reps, seed)
    hits, _, kept = _sums(cfg.n, model, lambda s, o: np.asarray(event(s, o), dtype=bool),
                          m_reps, seed, given)
    # each block's sum of 0s and 1s is an exact integer in float64
    return _proportion(int(hits), kept, m_reps)


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
    total, total_sq, kept = _sums(cfg.n, model, statistic, m_reps, seed, given)
    mean = total / kept
    var = (total_sq - kept * mean * mean) / max(kept - 1, 1)
    # only rounding below zero is clamped: a NaN variance stays NaN
    return McEstimate(mean, m_reps, sqrt((0.0 if var < 0.0 else var) / kept), kept / m_reps)


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
    for samples, ordered in _iter_blocks(model, n, m_reps, seed):
        failed = samples < ordered[:, cfg.r - 1, None]
        # flat positions of the failures in row-major order; row i's start at
        # its offset edges[i], the first at or after position i * n
        flat = np.flatnonzero(failed)
        edges = np.searchsorted(flat, np.arange(0, (failed.shape[0] + 1) * n, n))
        kth = edges[:-1] + (k - 1)
        # a row with fewer than k failures (float ties only) counts nowhere
        hit = flat[kth[kth < edges[1:]]] % n + 1
        counts += np.bincount(hit, minlength=n + 1)
    return {m: _proportion(int(counts[m]), m_reps, m_reps) for m in cfg.detection_support(k)}


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
    return InspectionPmf._from_weights(cfg, k, counts.keys(), counts.values(), comb(cfg.n, cfg.r - 1))
