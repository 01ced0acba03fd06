"""Independent verification engines: exhaustive enumeration of failed-position
sets (exact, small n) and seeded Monte-Carlo simulation (any n).

The Monte-Carlo engine draws lifetimes by inverse-CDF sampling of uniforms
from numpy's PCG64 generator (``numpy.random.default_rng``).  The generator
family is part of the reproducibility contract: identical seeds give
identical estimates, bit for bit, on a given platform.  Replications are
consumed as one sequential stream in fixed-size batches, so results do not
depend on batching.  Conditional quantities use rejection sampling and
report the fraction of raw replications that satisfied the conditioning
event; standard errors are computed from the accepted count.

Exact floating-point ties between a lifetime and the r-th order statistic
would resolve against "failed" (strict comparison).  For continuous models
such ties have probability zero and cannot move an estimate beyond machine
precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from typing import Callable

import numpy as np

from .errors import DomainError, EnumerationSizeError, NullConditioningError
from .inspections import InspectionPmf
from .joint import _check_time
from .lifetimes import LifetimeModel
from .system import SystemConfig, Window

__all__ = [
    "RngSeed",
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

RngSeed = int

# replications per batch; bounds peak memory at a few n-megabyte arrays
_BATCH = 1 << 17

# predicate over (samples, row-wise order statistics), both (batch, n) arrays
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
    """Event {X_index <= x} for a 1-based component index."""
    i, x = int(index) - 1, _check_time(x, "x")
    return lambda samples, ordered: samples[:, i] <= x


def order_stat_leq(cfg: SystemConfig, t) -> EventFn:
    """Event {X_{r:n} <= t}."""
    t = _check_time(t, "t")
    return lambda samples, ordered: ordered[:, cfg.r - 1] <= t


def order_stat_in_window(cfg: SystemConfig, window: Window) -> EventFn:
    """Event {t1 <= X_{r:n} <= t2}."""
    return lambda samples, ordered: (
        (ordered[:, cfg.r - 1] >= window.t1) & (ordered[:, cfg.r - 1] <= window.t2)
    )


def _iter_batches(model: LifetimeModel, n: int, m_reps: int, seed: int):
    rng = np.random.default_rng(seed)
    left = m_reps
    while left > 0:
        count = min(left, _BATCH)
        samples = model.sample(rng, (count, n))
        yield samples, np.sort(samples, axis=1)
        left -= count


def _check_reps(m_reps: int) -> int:
    if int(m_reps) != m_reps or m_reps < 1:
        raise DomainError(f"replication count must be a positive integer, got {m_reps!r}")
    return int(m_reps)


def mc_event_prob(
    cfg: SystemConfig,
    model: LifetimeModel,
    event: EventFn,
    m_reps: int,
    seed: RngSeed,
    *,
    given: EventFn | None = None,
) -> McEstimate:
    """Relative frequency of ``event`` over ``m_reps`` seeded replications.

    ``event`` and ``given`` receive the (batch, n) matrix of lifetimes and
    the row-wise order statistics and must return boolean vectors.  With
    ``given`` the estimate is conditional (rejection sampling), and the
    standard error reflects the accepted count only.
    """
    m_reps = _check_reps(m_reps)
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
    seed: RngSeed,
    *,
    given: EventFn | None = None,
) -> McEstimate:
    """Mean of ``statistic`` over replications, optionally conditioned.

    ``statistic`` maps (samples, ordered) to a float vector; the standard
    error is the sample standard deviation over sqrt(accepted count).
    """
    m_reps = _check_reps(m_reps)
    total = 0.0
    total_sq = 0.0
    kept = 0
    for samples, ordered in _iter_batches(model, cfg.n, m_reps, seed):
        values = np.asarray(statistic(samples, ordered), dtype=float)
        if given is not None:
            values = values[np.asarray(given(samples, ordered), dtype=bool)]
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        kept += values.size
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
    seed: RngSeed,
) -> dict[int, McEstimate]:
    """Empirical pmf of the inspection count from seeded simulation.

    Per replication: draw n lifetimes, mark component i failed when X_i is
    strictly below the r-th smallest lifetime, and record the index of the
    inspection (components scanned in index order) at which the k-th failed
    component turns up.
    """
    cfg.validate_k(k)
    m_reps = _check_reps(m_reps)
    k = int(k)
    counts = np.zeros(cfg.n + 2, dtype=np.int64)
    for samples, ordered in _iter_batches(model, cfg.n, m_reps, seed):
        threshold = ordered[:, cfg.r - 1]
        found = np.cumsum(samples < threshold[:, None], axis=1)
        hit = np.argmax(found == k, axis=1) + 1
        # rows that never reach k detections (possible only through exact
        # float ties) land in bucket 0 and stay off the support
        hit[found[:, -1] < k] = 0
        counts += np.bincount(hit, minlength=cfg.n + 2)
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
    to n <= 10; this is the brute-force check for the closed form.
    """
    if cfg.n > 10:
        raise EnumerationSizeError(f"exhaustive enumeration is limited to n <= 10, got n={cfg.n}")
    cfg.validate_k(k)
    k = int(k)
    counts = dict.fromkeys(cfg.detection_support(k), 0)
    for failed in itertools.combinations(range(1, cfg.n + 1), cfg.r - 1):
        counts[failed[k - 1]] += 1
    total = comb(cfg.n, cfg.r - 1)
    support = tuple(counts)
    probs = tuple(Fraction(counts[m], total) for m in support)
    return InspectionPmf(cfg, k, support, probs)
