import math

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


@pytest.mark.parametrize("budget,n", [(None, 3000), (1000, 1), (1000, 12), (1000, 3000)])
def test_batches_hold_at_most_the_element_budget(monkeypatch, budget, n):
    if budget is not None:
        monkeypatch.setattr(oracle, "_BATCH_ELEMENTS", budget)
    budget = oracle._BATCH_ELEMENTS
    rows = [samples.shape[0] for samples, _ in oracle._iter_batches(EXP, n, 2500, seed=1)]
    assert sum(rows) == 2500
    # a batch is one replication when n alone passes the budget
    assert all(count * n <= budget or count == 1 for count in rows)


def test_estimates_do_not_depend_on_batching(monkeypatch):
    cfg = SystemConfig(12, 5)
    event, given = first_observation_leq(1.0), order_stat_in_window(cfg, Window(0.3, 0.8))

    def estimates():
        return (mc_inspection_pmf(cfg, EXP, 3, 30_000, seed=8),
                mc_event_prob(cfg, EXP, event, 30_000, seed=8, given=given))

    one_batch = estimates()
    monkeypatch.setattr(oracle, "_BATCH_ELEMENTS", 1000)
    assert estimates() == one_batch


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


def test_event_mean_recovers_model_mean():
    cfg = SystemConfig(6, 3)
    est = mc_event_mean(cfg, EXP, lambda s, o: s[:, 0], 400_000, seed=11)
    assert abs(est.estimate - 1.0) <= 3.0 * est.std_error
    assert est.std_error > 0.0


def test_observation_event_builder_uses_one_based_index():
    cfg = SystemConfig(3, 2)
    est1 = mc_event_prob(cfg, EXP, observation_leq(2, 1.0), 100_000, seed=3)
    assert abs(est1.estimate - EXP.cdf(1.0)) <= 4.0 * est1.std_error


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
