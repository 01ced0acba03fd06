import math
import tracemalloc

import numpy as np
import pytest

from ordstat import (
    DomainError,
    Empirical,
    EnumerationSizeError,
    Exponential,
    NullConditioningError,
    SystemConfig,
    Weibull,
    Window,
    exhaustive_inspection_pmf,
    inspection_pmf,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
    oracle,
)
from ordstat.oracle import (
    first_observation_leq,
    observation_leq,
    order_stat_in_window,
    order_stat_leq,
)

EXP = Exponential(1.0)


def test_estimates_are_deterministic_given_seed():
    cfg = SystemConfig(8, 3)
    event = first_observation_leq(1.0)
    a = mc_event_prob(cfg, EXP, event, 50_000, seed=123)
    b = mc_event_prob(cfg, EXP, event, 50_000, seed=123)
    assert a == b
    c = mc_event_prob(cfg, EXP, event, 50_000, seed=124)
    assert a.estimate != c.estimate


@pytest.mark.parametrize(
    "budget,n", [(None, 3000), (None, 200), (1000, 1), (1000, 12), (1000, 3000)]
)
def test_blocks_hold_at_most_the_element_budget(monkeypatch, budget, n):
    if budget is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", budget)
    budget = oracle._BLOCK_ELEMENTS
    rows = [samples.shape[0] for samples, _ in oracle._iter_blocks(EXP, n, 2500, seed=1)]
    assert sum(rows) == 2500
    # a block is one replication when n alone passes its budget
    assert all(count * n <= budget or count == 1 for count in rows)
    # every block but the last is full
    assert set(rows[:-1]) <= {max(1, budget // n)}


def test_estimates_do_not_depend_on_blocks(monkeypatch):
    cfg = SystemConfig(12, 5)
    event, given = first_observation_leq(1.0), order_stat_in_window(cfg, Window(0.3, 0.8))

    def estimates():
        return (mc_inspection_pmf(cfg, EXP, 3, 30_000, seed=8),
                mc_event_prob(cfg, EXP, event, 30_000, seed=8, given=given))

    default = estimates()
    # blocks of 83 rows, since 12 does not divide 1000 lifetimes, then one block
    for block in (1000, 12 * 30_000):
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
        assert estimates() == default


# adding the block sums in stream order costs up to one rounding per block:
# the 362 blocks of 83 rows put the conditional mean 8 ulps from the exact one
@pytest.mark.parametrize(
    "block,ulps", [(None, 4), (12 * 7500, 4), (12 * 30_000, 4), (1000, 362)],
    ids=["11-blocks", "4-blocks", "one-block", "362-blocks"],
)
def test_event_mean_is_within_a_few_ulps_of_the_exact_mean(monkeypatch, block, ulps):
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
    cfg, reps = SystemConfig(12, 5), 30_000
    samples = EXP.sample(np.random.default_rng(8), (reps, cfg.n))
    ordered = np.sort(samples, axis=1)
    for given in (None, order_stat_in_window(cfg, Window(0.3, 0.8))):
        kept = samples[:, 0] if given is None else samples[given(samples, ordered), 0]
        exact = math.fsum(kept) / kept.size
        est = mc_event_mean(cfg, EXP, lambda s, o: s[:, 0], reps, seed=8, given=given)
        assert abs(est.estimate - exact) <= ulps * math.ulp(exact)
        assert est.conditioned_fraction == kept.size / reps


@pytest.mark.parametrize("block", [None, 1000], ids=["11-blocks", "362-blocks"])
def test_event_prob_is_the_mean_of_its_indicator(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)  # 83 rows at n = 12
    cfg, reps = SystemConfig(12, 5), 30_000
    event = first_observation_leq(1.0)
    for given in (None, order_stat_in_window(cfg, Window(0.3, 0.8))):
        prob = mc_event_prob(cfg, EXP, event, reps, seed=8, given=given)
        mean = mc_event_mean(cfg, EXP, lambda s, o: event(s, o).astype(float), reps, seed=8,
                             given=given)
        assert (prob.estimate, prob.conditioned_fraction) == (
            mean.estimate, mean.conditioned_fraction)
        # the binomial error divides by the kept count, the sample one by one less
        kept = round(prob.conditioned_fraction * reps)
        assert prob.std_error == pytest.approx(mean.std_error * math.sqrt((kept - 1) / kept))


@pytest.mark.parametrize(
    "statistic,given",
    [
        (lambda s, o: True, None),
        (lambda s, o: s[:5, 0] < 1.0, None),
        (lambda s, o: s[:, :2] < 1.0, None),
        (lambda s, o: s[:, 0] < 1.0, lambda s, o: True),
    ],
    ids=["scalar", "short", "two-dimensional", "scalar-given"],
)
@pytest.mark.parametrize("estimator", [mc_event_prob, mc_event_mean], ids=lambda f: f.__name__)
def test_events_must_return_one_value_per_row(estimator, statistic, given):
    with pytest.raises(DomainError, match=r"must return one value per row, shape \(2730,\), got"):
        estimator(SystemConfig(12, 5), EXP, statistic, 10_000, 1, given=given)


def test_non_finite_mean_has_no_zero_error():
    cfg = SystemConfig(5, 2)

    def first_row(value):
        return lambda s, o: np.where(np.arange(s.shape[0]) == 0, value, s[:, 0])

    est = mc_event_mean(cfg, EXP, first_row(math.inf), 1000, seed=1)
    assert est.estimate == math.inf and math.isnan(est.std_error)
    est = mc_event_mean(cfg, EXP, first_row(math.nan), 1000, seed=1)
    assert math.isnan(est.estimate) and math.isnan(est.std_error)
    # the mean is finite, but its sum of squares overflows
    with pytest.warns(RuntimeWarning, match="overflow"):
        est = mc_event_mean(cfg, EXP, lambda s, o: 1e200 * s[:, 0], 1000, seed=1)
    assert math.isfinite(est.estimate) and math.isnan(est.std_error)


@pytest.mark.parametrize("model", [EXP, Empirical([1.0, 2.0, 3.0, 5.0, 8.0])], ids=repr)
def test_blocks_reuse_two_buffers_and_keep_the_stream(monkeypatch, model):
    # blocks of 83 rows, the last one shorter
    monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 1000)
    n, reps = 12, 700
    reference = model.sample(np.random.default_rng(5), (reps, n))
    first = None
    start = 0
    for samples, ordered in oracle._iter_blocks(model, n, reps, seed=5):
        rows = samples.shape[0]
        assert np.array_equal(samples, reference[start:start + rows])
        assert np.array_equal(ordered, np.sort(reference[start:start + rows], axis=1))
        if first is None:
            first = samples, ordered
        else:
            assert np.shares_memory(samples, first[0]) and np.shares_memory(ordered, first[1])
        assert not np.shares_memory(samples, ordered)
        start += rows
    assert start == reps


@pytest.mark.parametrize("n,reps,limit", [(200, 2048, 4 << 20), (12, 200_000, 4 << 20),
                                          (12, 1_000_000, 1 << 20)])
def test_each_simulation_works_in_a_few_mebibytes(n, reps, limit):
    cfg = SystemConfig(n, n // 2)
    event, given = first_observation_leq(1.0), order_stat_in_window(cfg, Window(0.3, 1.2))
    calls = {
        "mc_inspection_pmf": lambda: mc_inspection_pmf(cfg, EXP, 2, reps, seed=1),
        "mc_event_prob": lambda: mc_event_prob(cfg, EXP, event, reps, seed=1, given=given),
        "mc_event_mean": lambda: mc_event_mean(cfg, EXP, lambda s, o: s[:, 0], reps, seed=1),
        "mc_event_mean given": lambda: mc_event_mean(
            cfg, EXP, lambda s, o: s[:, 0], reps, seed=1, given=given),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak)


def test_sure_event_has_zero_error():
    cfg = SystemConfig(5, 2)
    est = mc_event_prob(cfg, EXP, order_stat_leq(cfg, math.inf), 10_000, seed=1)
    assert est.estimate == 1.0
    assert est.std_error == 0.0
    assert est.conditioned_fraction == 1.0


def test_one_component_below_system_failure_rate():
    # the chance that a given component fails strictly before the system
    cfg = SystemConfig(12, 5)
    est = mc_event_prob(
        cfg, EXP, lambda s, o: s[:, 0] < o[:, cfg.r - 1], 1_000_000, seed=7
    )
    assert abs(est.estimate - 4.0 / 12.0) <= 3.0 * est.std_error


def test_failure_indicators_are_exchangeable():
    cfg = SystemConfig(9, 4)

    def one_low_two_high(s, o):
        threshold = o[:, cfg.r - 1]
        return (s[:, 0] < threshold) & ~(s[:, 1] < threshold)

    def one_high_two_low(s, o):
        threshold = o[:, cfg.r - 1]
        return ~(s[:, 0] < threshold) & (s[:, 1] < threshold)

    a = mc_event_prob(cfg, EXP, one_low_two_high, 1_000_000, seed=31)
    b = mc_event_prob(cfg, EXP, one_high_two_low, 1_000_000, seed=31)
    spread = math.hypot(a.std_error, b.std_error)
    assert abs(a.estimate - b.estimate) <= 4.0 * spread


def test_conditioned_fraction_reported():
    cfg = SystemConfig(10, 4)
    w = Window(1.0, 2.0)
    est = mc_event_prob(
        cfg, EXP, first_observation_leq(1.5), 200_000, seed=5,
        given=order_stat_in_window(cfg, w),
    )
    assert 0.0 < est.conditioned_fraction < 1.0
    assert est.replications == 200_000


def test_impossible_conditioning_raises():
    cfg = SystemConfig(4, 2)
    with pytest.raises(NullConditioningError):
        mc_event_prob(
            cfg, EXP, first_observation_leq(1.0), 10_000, seed=2,
            given=lambda s, o: np.zeros(s.shape[0], dtype=bool),
        )
    with pytest.raises(NullConditioningError, match="no replication satisfied"):
        mc_event_mean(
            cfg, EXP, lambda s, o: o[:, 1], 10_000, seed=2,
            given=lambda s, o: np.zeros(s.shape[0], dtype=bool),
        )


def test_every_estimate_is_a_float():
    cfg = SystemConfig(6, 3)
    estimates = [
        mc_event_prob(cfg, EXP, first_observation_leq(1.0), 1_000, seed=4),
        mc_event_mean(cfg, EXP, lambda s, o: o[:, 2], 1_000, seed=4),
        *mc_inspection_pmf(cfg, EXP, 2, 1_000, seed=4).values(),
    ]
    for est in estimates:
        assert type(est.estimate) is float and type(est.std_error) is float


def test_event_mean_recovers_model_mean():
    cfg = SystemConfig(6, 3)
    est = mc_event_mean(cfg, EXP, lambda s, o: s[:, 0], 400_000, seed=11)
    assert abs(est.estimate - 1.0) <= 3.0 * est.std_error
    assert est.std_error > 0.0


def test_observation_event_builder_uses_one_based_index():
    cfg = SystemConfig(3, 2)
    est1 = mc_event_prob(cfg, EXP, observation_leq(2, 1.0), 100_000, seed=3)
    assert abs(est1.estimate - EXP.cdf(1.0)) <= 4.0 * est1.std_error


@pytest.mark.parametrize("index", [0, -1, 1.5, math.nan, math.inf, None, "2"])
def test_observation_index_must_be_a_positive_integer(index):
    with pytest.raises(DomainError, match="component index must be a positive integer"):
        observation_leq(index, 1.0)


def test_observation_index_beyond_the_sample_width_raises():
    cfg = SystemConfig(3, 2)
    with pytest.raises(DomainError, match="component index 4 exceeds the sample width n=3"):
        mc_event_prob(cfg, EXP, observation_leq(4, 1.0), 100, seed=1)
    # the last component, also given as an integral float
    last = mc_event_prob(cfg, EXP, observation_leq(3, 1.0), 1000, seed=1)
    assert mc_event_prob(cfg, EXP, observation_leq(3.0, 1.0), 1000, seed=1) == last
    assert last == mc_event_prob(cfg, EXP, lambda s, o: s[:, 2] <= 1.0, 1000, seed=1)


@pytest.mark.parametrize(
    "n,r,k", [(5, 2, 1), (6, 4, 2), (7, 5, 3), (8, 3, 2), (20, 11, 5), (20, 10, 9)]
)
def test_exhaustive_matches_closed_form(n, r, k):
    cfg = SystemConfig(n, r)
    assert exhaustive_inspection_pmf(cfg, k).as_dict() == inspection_pmf(cfg, k).as_dict()


def test_exhaustive_matches_closed_form_for_every_small_system():
    for n in range(2, 11):
        for r in range(2, n + 1):
            cfg = SystemConfig(n, r)
            for k in range(1, r):
                assert exhaustive_inspection_pmf(cfg, k).as_dict() == inspection_pmf(cfg, k).as_dict()


def test_exhaustive_reference_value():
    assert exhaustive_inspection_pmf(SystemConfig(6, 4), 2).prob(2) == pytest.approx(0.2)


def test_exhaustive_rejects_large_samples():
    with pytest.raises(EnumerationSizeError):
        exhaustive_inspection_pmf(SystemConfig(21, 5), 3)


def test_simulated_pmf_matches_exact_for_both_models():
    cfg = SystemConfig(6, 4)
    exact = inspection_pmf(cfg, 2).as_dict()
    for model, seed in [(EXP, 17), (Weibull(2.0, 1.0), 18)]:
        estimates = mc_inspection_pmf(cfg, model, 2, 200_000, seed=seed)
        assert set(estimates) == set(exact)
        for m, est in estimates.items():
            assert abs(est.estimate - float(exact[m])) <= 4.0 * est.std_error


def test_simulated_pmf_matches_exact_for_an_empirical_model():
    cfg = SystemConfig(6, 4)
    exact = inspection_pmf(cfg, 2).as_dict()
    estimates = mc_inspection_pmf(cfg, Empirical(range(1, 1001)), 2, 200_000, seed=19)
    assert set(estimates) == set(exact)
    for m, est in estimates.items():
        assert abs(est.estimate - float(exact[m])) <= 4.0 * est.std_error


def test_simulated_pmf_point_mass_cases():
    # r = n and k = n - 1: the last inspection is needed unless the maximal
    # component happens to sit at the last index
    cfg = SystemConfig(4, 4)
    estimates = mc_inspection_pmf(cfg, EXP, 3, 100_000, seed=9)
    assert abs(estimates[3].estimate - 0.25) <= 4.0 * estimates[3].std_error
    assert abs(estimates[4].estimate - 0.75) <= 4.0 * estimates[4].std_error


@pytest.mark.parametrize(
    "build",
    [
        lambda v: first_observation_leq(v),
        lambda v: observation_leq(2, v),
        lambda v: order_stat_leq(SystemConfig(5, 2), v),
    ],
    ids=["first_observation_leq", "observation_leq", "order_stat_leq"],
)
@pytest.mark.parametrize("bad", [math.nan, -0.5])
def test_event_builders_reject_bad_thresholds(build, bad):
    with pytest.raises(DomainError):
        build(bad)


@pytest.mark.parametrize("reps", [math.nan, math.inf, -math.inf, 0, 2.5])
@pytest.mark.parametrize(
    "simulate",
    [
        lambda reps: mc_event_prob(SystemConfig(5, 2), EXP, first_observation_leq(1.0), reps, 1),
        lambda reps: mc_event_mean(SystemConfig(5, 2), EXP, lambda s, o: s[:, 0], reps, 1),
        lambda reps: mc_inspection_pmf(SystemConfig(5, 2), EXP, 1, reps, 1),
    ],
    ids=["mc_event_prob", "mc_event_mean", "mc_inspection_pmf"],
)
def test_bad_replication_counts_raise_domain_error(simulate, reps):
    with pytest.raises(DomainError):
        simulate(reps)


# five distinct values: a row often ties with its 4th smallest lifetime, so
# it holds fewer than r - 1 = 3 failures
TIED = Empirical([1, 2, 3, 5, 8])
TIED_CFG = SystemConfig(6, 4)
# per-k estimates at 1,000 replications, seed 1, recorded from the running-count
# implementation of the detection step; each sums to the share of rows that
# reached k detections
TIED_PINS = {
    1: {1: 0.416, 2: 0.253, 3: 0.156, 4: 0.089},
    2: {2: 0.128, 3: 0.211, 4: 0.232, 5: 0.194},
    3: {3: 0.021, 4: 0.086, 5: 0.168, 6: 0.266},
}


@pytest.mark.parametrize("k", sorted(TIED_PINS))
def test_tied_lifetimes_give_the_recorded_estimates(k):
    estimates = mc_inspection_pmf(TIED_CFG, TIED, k, 1000, seed=1)
    assert {m: est.estimate for m, est in estimates.items()} == TIED_PINS[k]
    assert sum(est.estimate for est in estimates.values()) < 1.0


@pytest.mark.parametrize("k", sorted(TIED_PINS))
def test_tied_estimates_sum_to_the_share_detected_within_the_support(k):
    n, r = TIED_CFG.n, TIED_CFG.r
    reached = within = 0
    for samples, ordered in oracle._iter_blocks(TIED, n, 1000, seed=1):
        found = np.cumsum(samples < ordered[:, [r - 1]], axis=1)
        reached += int(np.count_nonzero(found[:, -1] >= k))
        # the k-th detection by inspection n - r + k + 1, the last support point
        within += int(np.count_nonzero(found[:, n - r + k] >= k))
    estimates = mc_inspection_pmf(TIED_CFG, TIED, k, 1000, seed=1)
    assert math.fsum(est.estimate for est in estimates.values()) == pytest.approx(within / 1000)
    # with ties some rows find their k-th failure only beyond the support,
    # which ends at the last inspection n when k = r - 1
    assert (within < reached) == (k < r - 1)


def test_rows_without_failures_give_zero_estimates():
    # every lifetime equals the r-th smallest, so no component ever fails
    estimates = mc_inspection_pmf(TIED_CFG, Empirical([3.0, 3.0]), 2, 1000, seed=1)
    assert set(estimates) == set(TIED_CFG.detection_support(2))
    assert all(est.estimate == 0.0 and est.std_error == 0.0 for est in estimates.values())


def test_tied_estimates_do_not_depend_on_blocks(monkeypatch):
    one_block = mc_inspection_pmf(TIED_CFG, TIED, 2, 1000, seed=1)
    monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 60)  # 100 blocks of 10 rows
    assert mc_inspection_pmf(TIED_CFG, TIED, 2, 1000, seed=1) == one_block


@pytest.mark.parametrize("n,r", [(6, 4), (9, 9), (30, 12)])
def test_detection_step_equals_a_running_count(n, r):
    # heavy ties: lifetimes take eight values, so rows hold 0 .. r - 1 failures
    cfg, model, reps = SystemConfig(n, r), Empirical(range(8)), 5000
    for k in range(1, r):
        counts = np.zeros(n + 2, dtype=np.int64)
        for samples, ordered in oracle._iter_blocks(model, n, reps, seed=4):
            found = np.cumsum(samples < ordered[:, [r - 1]], axis=1)
            counts += np.bincount((found < k).sum(axis=1) + 1, minlength=n + 2)
        estimates = mc_inspection_pmf(cfg, model, k, reps, seed=4)
        assert {m: est.estimate for m, est in estimates.items()} == {
            m: counts[m] / reps for m in cfg.detection_support(k)
        }
