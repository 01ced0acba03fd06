import math
import random

import numpy as np
import pytest
from scipy import stats

from conftest import model_triplet
from ordstat import (
    DomainError,
    Empirical,
    EvalGrid,
    Exponential,
    NullConditioningError,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    cond_cdf_between,
    cond_cdf_given_eq,
    cond_cdf_given_leq,
    cond_pdf_between,
    eval_grid,
    joint_cdf_multi,
    joint_cdf_single,
    joint_pdf_multi,
    order_stat_cdf,
    pair_cond_joint_cdf,
    window_prob,
)
from ordstat.joint import window_slopes
from ordstat.oracle import mc_event_prob, order_stat_in_window, order_stat_leq

EXP = Exponential(1.0)


def grid_for(model, count=40):
    hi = model.quantile(1.0 - 1e-6)
    return [i * hi / count for i in range(count + 1)]


# --- joint CDF of one observation and the order statistic -------------------


def test_single_component_system_reduces_to_min():
    cfg = SystemConfig(1, 1)
    for x in [0.2, 1.0, 3.0]:
        for t in [0.5, 2.0]:
            assert joint_cdf_single(cfg, EXP, x, t) == pytest.approx(
                EXP.cdf(min(x, t)), abs=1e-15
            )


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
def test_top_order_statistic_closed_form(model):
    # r = n: F(x) F(t)^(n-1) below t, F(t)^n above
    n = 6
    cfg = SystemConfig(n, n)
    t = model.quantile(0.7)
    for x in grid_for(model):
        expected = (
            model.cdf(x) * model.cdf(t) ** (n - 1) if x <= t else model.cdf(t) ** n
        )
        assert joint_cdf_single(cfg, model, x, t) == pytest.approx(expected, abs=1e-13)


def test_joint_cdf_against_monte_carlo():
    cfg = SystemConfig(15, 7)
    x, t = 1.0, 2.0
    est = mc_event_prob(
        cfg,
        EXP,
        lambda s, o: (s[:, 0] <= x) & (o[:, cfg.r - 1] <= t),
        1_000_000,
        seed=20113,
    )
    exact = joint_cdf_single(cfg, EXP, x, t)
    assert abs(est.estimate - exact) <= 3.0 * est.std_error


def test_joint_cdf_monotone_in_each_argument():
    cfg = SystemConfig(9, 4)
    ts = grid_for(EXP)
    for t_lo, t_hi in zip(ts, ts[1:]):
        assert joint_cdf_single(cfg, EXP, 1.3, t_lo) <= joint_cdf_single(cfg, EXP, 1.3, t_hi) + 1e-15
    xs = grid_for(EXP)
    for x_lo, x_hi in zip(xs, xs[1:]):
        assert joint_cdf_single(cfg, EXP, x_lo, 1.3) <= joint_cdf_single(cfg, EXP, x_hi, 1.3) + 1e-15


def test_joint_cdf_continuous_across_diagonal():
    for n, r in [(5, 1), (5, 3), (5, 5), (12, 7)]:
        cfg = SystemConfig(n, r)
        t = 1.4
        eps = 1e-9
        below = joint_cdf_single(cfg, EXP, t - eps, t)
        at = joint_cdf_single(cfg, EXP, t, t)
        above = joint_cdf_single(cfg, EXP, t + eps, t)
        assert abs(at - below) < 1e-8
        assert abs(above - at) < 1e-8


def test_joint_cdf_is_a_cdf_at_large_n():
    # n = 2000 overflows float(comb(n - 1, r - 1)); the law must still be a CDF
    cfg = SystemConfig(2000, 1000)
    t = 0.7
    xs = np.linspace(0.0, 60.0, 601)
    values = joint_cdf_single(cfg, EXP, xs, t)
    assert np.all(np.isfinite(values))
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= 0.0)
    # far above t the first observation no longer constrains the event
    assert values[-1] == pytest.approx(order_stat_cdf(cfg, EXP, t), rel=1e-12, abs=0.0)


def test_joint_cdf_rejects_negative_times():
    cfg = SystemConfig(4, 2)
    with pytest.raises(DomainError):
        joint_cdf_single(cfg, EXP, -0.1, 1.0)
    with pytest.raises(DomainError):
        joint_cdf_single(cfg, EXP, 0.1, -1.0)


# --- conditioning on {X_{r:n} <= t} ------------------------------------------


def eq_top_direct(model, n, x, t):
    # direct special case for r = n, written from the extreme-value law
    if x <= t:
        return model.cdf(x) / model.cdf(t)
    return 1.0


def eq_bottom_direct(model, n, x, t):
    # direct special case for r = 1
    fx, ft = model.cdf(x), model.cdf(t)
    denom = 1.0 - (1.0 - ft) ** n
    if x <= t:
        return fx / denom
    return (fx - (fx - ft) * (1.0 - ft) ** (n - 1)) / denom


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("n", [2, 5, 11])
def test_special_cases_collapse(model, n):
    t = model.quantile(0.55)
    for x in grid_for(model):
        top = cond_cdf_given_leq(SystemConfig(n, n), model, x, t)
        assert top == pytest.approx(eq_top_direct(model, n, x, t), abs=1e-12)
        bottom = cond_cdf_given_leq(SystemConfig(n, 1), model, x, t)
        assert bottom == pytest.approx(eq_bottom_direct(model, n, x, t), abs=1e-12)


def test_conditional_tends_to_one():
    for n, r in [(3, 1), (8, 5), (8, 8)]:
        assert cond_cdf_given_leq(SystemConfig(n, r), EXP, math.inf, 1.0) == pytest.approx(
            1.0, abs=1e-12
        )


def test_conditional_null_event_raises():
    cfg = SystemConfig(4, 2)
    with pytest.raises(NullConditioningError):
        cond_cdf_given_leq(cfg, Uniform(1.0, 2.0), 1.5, 0.5)


def test_threshold_and_event_are_checked_before_x():
    # {X_(2:5) <= 0} is null, and the bad x is never looked at
    cfg = SystemConfig(5, 2)
    with pytest.raises(NullConditioningError):
        cond_cdf_given_leq(cfg, Exponential(1.0), [-1.0], 0.0)
    with pytest.raises(DomainError, match="^t must be"):
        cond_cdf_given_leq(cfg, Exponential(1.0), [-1.0], -1.0)


# --- conditioning on a window -------------------------------------------------


def test_window_from_zero_matches_threshold_conditioning():
    for r in [1, 3, 7]:
        cfg = SystemConfig(7, r)
        w = Window(0.0, 1.5)
        for x in grid_for(EXP):
            assert cond_cdf_between(cfg, EXP, x, w) == pytest.approx(
                cond_cdf_given_leq(cfg, EXP, x, 1.5), abs=1e-12
            )


def test_window_law_against_monte_carlo():
    cfg = SystemConfig(10, 4)
    w = Window(1.0, 2.0)
    est = mc_event_prob(
        cfg,
        EXP,
        lambda s, o: s[:, 0] <= 1.5,
        1_000_000,
        seed=47,
        given=order_stat_in_window(cfg, w),
    )
    assert est.conditioned_fraction * est.replications >= 10_000
    exact = cond_cdf_between(cfg, EXP, 1.5, w)
    assert abs(est.estimate - exact) <= 3.0 * est.std_error


def test_window_law_checks_x_before_the_window_event():
    # the window holds X_(2:5) with probability exactly 0 under Uniform(1, 2)
    cfg, model, null = SystemConfig(5, 2), Uniform(1.0, 2.0), Window(0.1, 0.5)
    with pytest.raises(NullConditioningError):
        cond_cdf_between(cfg, model, [1.5], null)
    with pytest.raises(DomainError, match="^x must be"):
        cond_cdf_between(cfg, model, [-1.0], null)


def test_window_law_low_branch_form():
    # below the window the law is F(x) times a ratio of tail differences
    from ordstat import reg_inc_beta

    cfg = SystemConfig(10, 4)
    n, r = cfg.n, cfg.r
    w = Window(1.0, 2.0)
    p1, p2 = EXP.cdf(w.t1), EXP.cdf(w.t2)
    denom = reg_inc_beta(r, n - r + 1, p2) - reg_inc_beta(r, n - r + 1, p1)
    numer = reg_inc_beta(r - 1, n - r + 1, p2) - reg_inc_beta(r - 1, n - r + 1, p1)
    for x in [0.1, 0.5, 0.9]:
        assert cond_cdf_between(cfg, EXP, x, w) == pytest.approx(
            EXP.cdf(x) * numer / denom, abs=1e-13
        )


def test_window_law_continuous_at_edges():
    for n, r in [(6, 1), (6, 3), (6, 6), (14, 9)]:
        cfg = SystemConfig(n, r)
        w = Window(0.8, 1.7)
        eps = 1e-10
        for edge in (w.t1, w.t2):
            lo = cond_cdf_between(cfg, EXP, edge - eps, w)
            mid = cond_cdf_between(cfg, EXP, edge, w)
            hi = cond_cdf_between(cfg, EXP, edge + eps, w)
            assert abs(mid - lo) < 1e-9
            assert abs(hi - mid) < 1e-9


def test_window_law_difference_identity_randomized():
    rng = random.Random(1234)
    models = model_triplet()
    for _ in range(20):
        n = rng.randint(2, 20)
        r = rng.randint(1, n)
        cfg = SystemConfig(n, r)
        model = rng.choice(models)
        u1 = rng.uniform(0.05, 0.6)
        u2 = rng.uniform(u1 + 0.05, 0.95)
        w = Window(model.quantile(u1), model.quantile(u2))
        wp = window_prob(cfg, model, w)
        hi = model.quantile(1.0 - 1e-6)
        for i in range(51):
            x = i * hi / 50
            lhs = cond_cdf_between(cfg, model, x, w) * wp
            rhs = joint_cdf_single(cfg, model, x, w.t2) - joint_cdf_single(cfg, model, x, w.t1)
            assert abs(lhs - rhs) <= 1e-12, (n, r, type(model).__name__, x)


def test_window_law_tends_to_one():
    cfg = SystemConfig(9, 5)
    assert cond_cdf_between(cfg, EXP, math.inf, Window(0.5, 2.0)) == pytest.approx(1.0, abs=1e-12)


# (n, r, window) -> window_slopes under Uniform(0.5, 3.0), where F(t1) = 0 or
# F(t2) = 1, so the tails at r - 1 = 0 and r = n are the full and empty ones
# at p = 0 and p = 1; the values are those of six separate binom_tail calls
EDGE_SLOPES = {
    (5, 1, (0.2, 3.5)): (0.0, 1.0, 1.0),
    (5, 1, (0.2, 1.0)): (0.0, 1.487386958591147, 0.8781532603522132),
    (5, 1, (1.0, 3.5)): (0.0, 1.25, 1.25),
    (5, 5, (0.2, 3.5)): (1.0, 1.0, 0.0),
    (5, 5, (0.2, 1.0)): (5.0, 5.0, 0.0),
    (5, 5, (1.0, 3.5)): (0.998719590268886, 1.0003201024327786, 0.0),
    (12, 1, (0.2, 3.5)): (0.0, 1.0, 1.0),
    (12, 1, (0.2, 1.0)): (0.0, 1.0737903080965856, 0.9815524229758535),
    (12, 1, (1.0, 3.5)): (0.0, 1.2500000000000009, 1.2500000000000009),
    (12, 12, (0.2, 3.5)): (1.0, 1.0, 0.0),
    (12, 12, (0.2, 1.0)): (5.0, 5.0, 0.0),
    (12, 12, (1.0, 3.5)): (0.9999999836159998, 1.000000004096, 0.0),
}


@pytest.mark.parametrize("n,r,window", list(EDGE_SLOPES), ids=str)
def test_window_slopes_at_the_edges_of_the_support(n, r, window):
    slopes = window_slopes(SystemConfig(n, r), Uniform(0.5, 3.0), Window(*window))
    assert slopes == EDGE_SLOPES[n, r, window]


# --- conditioning on {X_{r:n} = t} --------------------------------------------


def test_exact_time_law_jump_is_one_over_n():
    for n in [2, 5, 10, 50]:
        for r in sorted({1, (n + 1) // 2, n}):
            cfg = SystemConfig(n, r)
            for model, t in [(EXP, 1.3), (Uniform(0.0, 3.0), 1.2)]:
                at = cond_cdf_given_eq(cfg, model, t, t)
                left_limit = (r - 1) / n  # F(x)/F(t) -> 1 as x -> t
                assert abs((at - left_limit) - 1.0 / n) <= 1e-12


def test_exact_time_law_zero_below_for_first_failure():
    cfg = SystemConfig(8, 1)
    assert cond_cdf_given_eq(cfg, EXP, 0.5, 2.0) == 0.0


def test_exact_time_law_is_window_limit():
    # shrinking the window onto t reproduces the law at continuity points
    cfg = SystemConfig(10, 4)
    t, h = 2.0, 1e-4
    w = Window(t, t + h)
    for x in [0.4, 1.0, 1.9, 2.1, 3.5, 5.0]:
        assert cond_cdf_between(cfg, EXP, x, w) == pytest.approx(
            cond_cdf_given_eq(cfg, EXP, x, t), abs=1e-3
        )


def test_exact_time_law_tends_to_one():
    cfg = SystemConfig(10, 4)
    assert cond_cdf_given_eq(cfg, EXP, math.inf, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_time_law_needs_interior_threshold():
    cfg = SystemConfig(5, 2)
    uniform = Uniform(1.0, 2.0)
    with pytest.raises(DomainError):
        cond_cdf_given_eq(cfg, uniform, 1.5, 0.5)  # F(t) = 0
    with pytest.raises(DomainError):
        cond_cdf_given_eq(cfg, uniform, 1.5, 2.5)  # F(t) = 1


def test_first_failure_law_at_a_time_where_f_is_zero():
    # X_{1:5} has density 5 f(0) = 5 at 0, and the law is 1/n + (n-1)/n F(x)
    cfg = SystemConfig(5, 1)
    assert cond_cdf_given_eq(cfg, EXP, 0.5, 0.0) == 0.5147754722298933
    assert cond_cdf_given_eq(cfg, EXP, 1.0, 0.0) == 0.7056964470628462
    assert cond_cdf_given_eq(cfg, EXP, [0.0, 0.5], 0.0).tolist() == [0.2, 0.5147754722298933]
    for x in (0.5, 1.0):  # the vanishing-window limit
        assert cond_cdf_given_eq(cfg, EXP, x, 0.0) == pytest.approx(
            cond_cdf_between(cfg, EXP, x, Window(0.0, 1e-9)), abs=1e-8
        )
    # no density at t: Uniform(1, 2) has f = 0 below 1, Empirical has none,
    # and at r > 1 X_{r:n} has density 0 at a t with F(t) = 0
    for model, t in [(Uniform(1.0, 2.0), 0.5), (Empirical([1.0, 2.0, 3.0]), 0.5)]:
        with pytest.raises(DomainError):
            cond_cdf_given_eq(cfg, model, 1.5, t)
    with pytest.raises(DomainError):
        cond_cdf_given_eq(SystemConfig(5, 2), EXP, 0.5, 0.0)


# --- several observations and the order statistic ----------------------------


def test_multi_cdf_reduces_to_product_when_k_reaches_r():
    cfg = SystemConfig(6, 3)
    xs = [0.4, 0.8, 1.0]
    t = 1.2
    expected = math.prod(EXP.cdf(x) for x in xs)
    assert joint_cdf_multi(cfg, EXP, xs, t) == pytest.approx(expected, abs=1e-15)


def test_multi_cdf_consistent_with_single():
    for n, r in [(5, 3), (9, 6)]:
        cfg = SystemConfig(n, r)
        for x in [0.2, 0.7, 1.1]:
            assert joint_cdf_multi(cfg, EXP, [x], 1.2) == pytest.approx(
                joint_cdf_single(cfg, EXP, x, 1.2), abs=1e-14
            )


def test_multi_cdf_against_monte_carlo():
    cfg = SystemConfig(6, 4)
    est = mc_event_prob(
        cfg,
        EXP,
        lambda s, o: (s[:, 0] <= 0.5) & (s[:, 1] <= 0.5) & (o[:, cfg.r - 1] <= 1.0),
        1_000_000,
        seed=99,
    )
    exact = joint_cdf_multi(cfg, EXP, [0.5, 0.5], 1.0)
    assert abs(est.estimate - exact) <= 3.0 * est.std_error


def test_multi_laws_reject_bad_observation_arguments():
    cfg = SystemConfig(6, 4)
    with pytest.raises(DomainError):
        joint_cdf_multi(cfg, EXP, [], 1.0)
    with pytest.raises(DomainError):
        joint_cdf_multi(cfg, EXP, [0.1] * 7, 1.0)
    # xs is a sequence, not None or a scalar
    for law in (joint_cdf_multi, joint_pdf_multi):
        for xs in (None, 0.5, [[0.5]]):
            with pytest.raises(DomainError):
                law(cfg, EXP, xs, 1.0)
    # the density is only defined where every x_i <= t
    with pytest.raises(DomainError):
        joint_pdf_multi(cfg, EXP, [0.5, 1.5], 1.0)


def test_multi_cdf_with_observations_above_threshold_against_monte_carlo():
    # two of the three observation arguments lie above t
    cfg = SystemConfig(8, 3)
    xs, t = (0.3, 1.5, 2.5), 0.9
    est = mc_event_prob(
        cfg,
        EXP,
        lambda s, o: (s[:, 0] <= xs[0]) & (s[:, 1] <= xs[1]) & (s[:, 2] <= xs[2])
        & order_stat_leq(cfg, t)(s, o),
        400_000,
        seed=5,
    )
    exact = joint_cdf_multi(cfg, EXP, xs, t)
    assert exact == pytest.approx(0.182533, abs=1e-6)
    assert abs(est.estimate - exact) <= 3.0 * est.std_error


def test_multi_pdf_reduces_to_product_when_k_reaches_r():
    cfg = SystemConfig(6, 3)
    xs = [0.4, 0.8, 1.0]
    expected = math.prod(EXP.pdf(x) for x in xs)
    assert joint_pdf_multi(cfg, EXP, xs, 1.2) == pytest.approx(expected, abs=1e-15)


def test_multi_pdf_matches_beta_density_at_large_n():
    # the coefficient alone is about 1e600 here; with F(t) = U the density is
    # the Beta(r - k, n - r + 1) density of U times f(t) prod f(x_i)
    cfg = SystemConfig(2000, 1000)
    xs = [0.3, 0.5]
    t = math.log(2.0)
    k = len(xs)
    expected = (
        stats.beta.pdf(EXP.cdf(t), cfg.r - k, cfg.n - cfg.r + 1)
        * EXP.pdf(t) * math.prod(EXP.pdf(x) for x in xs)
    )
    assert joint_pdf_multi(cfg, EXP, xs, t) == pytest.approx(expected, rel=1e-10)
    # F(t) = 0: the power F(t)^(r-k-1) is 0, or 1 when r - k - 1 = 0
    assert joint_pdf_multi(cfg, EXP, [0.0, 0.0], 0.0) == 0.0
    assert joint_pdf_multi(SystemConfig(5, 3), EXP, [0.0, 0.0], 0.0) == pytest.approx(3.0)


def test_multi_pdf_matches_mixed_derivative_of_single_cdf():
    # d^2/dx dt of the joint CDF, central differences
    cfg = SystemConfig(7, 4)
    h = 1e-4
    for x, t in [(0.5, 1.1), (0.9, 1.6)]:
        mixed = (
            joint_cdf_single(cfg, EXP, x + h, t + h)
            - joint_cdf_single(cfg, EXP, x + h, t - h)
            - joint_cdf_single(cfg, EXP, x - h, t + h)
            + joint_cdf_single(cfg, EXP, x - h, t - h)
        ) / (4.0 * h * h)
        assert mixed == pytest.approx(joint_pdf_multi(cfg, EXP, [x], t), rel=1e-4)


# --- pairwise conditional laws -------------------------------------------------


def test_pair_given_max_factorizes():
    n = 7
    cfg = SystemConfig(n, n)
    t = 1.5
    for x1 in [0.3, 1.0, 2.2]:
        for x2 in [0.6, 1.5, 3.0]:
            joint = pair_cond_joint_cdf(cfg, EXP, x1, x2, t, "max_leq")
            product = cond_cdf_given_leq(cfg, EXP, x1, t) * cond_cdf_given_leq(cfg, EXP, x2, t)
            assert joint == pytest.approx(product, abs=1e-12)


def test_pair_given_min_exceeds_matches_truncated_product():
    cfg = SystemConfig(5, 1)
    t = 0.8
    assert pair_cond_joint_cdf(cfg, EXP, 0.5, 2.0, t, "min_gt") == 0.0
    assert pair_cond_joint_cdf(cfg, EXP, 2.0, 0.5, t, "min_gt") == 0.0
    ft = EXP.cdf(t)
    for x1, x2 in [(1.0, 1.5), (2.5, 0.9)]:
        expected = (
            max(EXP.cdf(x1) - ft, 0.0) * max(EXP.cdf(x2) - ft, 0.0) / (1.0 - ft) ** 2
            if x1 > t and x2 > t
            else 0.0
        )
        assert pair_cond_joint_cdf(cfg, EXP, x1, x2, t, "min_gt") == pytest.approx(
            expected, abs=1e-13
        )


def pair_given_min_direct(model, n, x1, x2, t):
    # written straight from the inclusion-exclusion on {all above t}
    f1, f2, ft = model.cdf(x1), model.cdf(x2), model.cdf(t)
    raw = f1 * f2
    if x1 > t and x2 > t:
        raw -= (f1 - ft) * (f2 - ft) * (1.0 - ft) ** (n - 2)
    return raw / (1.0 - (1.0 - ft) ** n)


def test_pair_given_min_leq_matches_direct_form():
    cfg = SystemConfig(4, 1)
    t = 1.0
    for x1, x2 in [(0.5, 0.7), (0.5, 2.0), (2.0, 1.5), (3.0, 3.0)]:
        assert pair_cond_joint_cdf(cfg, EXP, x1, x2, t, "min_leq") == pytest.approx(
            pair_given_min_direct(EXP, 4, x1, x2, t), abs=1e-13
        )


def test_pair_given_min_leq_does_not_factorize():
    # closed-form witness of dependence
    for n in [2, 4, 9]:
        cfg = SystemConfig(n, 1)
        t, x = 1.0, 2.0
        joint = pair_cond_joint_cdf(cfg, EXP, x, x, t, "min_leq")
        marginal = cond_cdf_given_leq(cfg, EXP, x, t)
        assert abs(joint - marginal * marginal) > 1e-6


def test_pair_given_min_leq_keeps_relative_precision_near_zero():
    cfg = SystemConfig(5, 1)
    # P{X_1, X_2 <= t/2} / P{X_(1:5) <= t} = (1 - e^(-t/2))^2 / (1 - e^(-5t))
    t = 1e-10
    value = pair_cond_joint_cdf(cfg, EXP, t / 2, t / 2, t, "min_leq")
    assert value == pytest.approx(5.000000001e-12, rel=1e-15)
    # F(t) = 1e-17 is lost in 1 - F(t), but not in the binomial tails
    t = 1e-17
    assert pair_cond_joint_cdf(cfg, EXP, t / 2, t / 2, t, "min_leq") == pytest.approx(
        5e-19, rel=1e-15
    )


def test_pair_rejects_unknown_conditioning_and_small_systems():
    with pytest.raises(DomainError):
        pair_cond_joint_cdf(SystemConfig(4, 2), EXP, 1.0, 1.0, 1.0, "median_leq")
    with pytest.raises(DomainError):
        pair_cond_joint_cdf(SystemConfig(1, 1), EXP, 1.0, 1.0, 1.0, "max_leq")


def test_pair_null_events_raise():
    with pytest.raises(NullConditioningError):
        pair_cond_joint_cdf(SystemConfig(3, 3), Uniform(1.0, 2.0), 1.5, 1.5, 0.5, "max_leq")
    with pytest.raises(NullConditioningError):
        pair_cond_joint_cdf(SystemConfig(3, 3), Uniform(1.0, 2.0), 1.5, 1.5, 2.5, "min_gt")


# --- CDF axioms and the grid front door ---------------------------------------


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("n", [2, 7, 20])
def test_cdf_axioms_for_conditional_laws(model, n):
    xs = grid_for(model, 60)
    t = model.quantile(0.45)
    w = Window(model.quantile(0.3), model.quantile(0.8))
    for r in sorted({1, (n + 1) // 2, n}):
        cfg = SystemConfig(n, r)
        laws = [
            lambda x: cond_cdf_given_leq(cfg, model, x, t),
            lambda x: cond_cdf_between(cfg, model, x, w),
            lambda x: cond_cdf_given_eq(cfg, model, x, t),
        ]
        for law in laws:
            values = [law(x) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
            assert law(model.quantile(1.0 - 1e-14)) == pytest.approx(1.0, abs=1e-9)


def test_order_stat_cdf_extremes():
    cfg = SystemConfig(6, 2)
    assert order_stat_cdf(cfg, EXP, 0.0) == 0.0
    assert order_stat_cdf(cfg, EXP, math.inf) == 1.0


def test_eval_grid_dispatch_and_validation():
    cfg = SystemConfig(6, 3)
    xs = [0.0, 0.5, 1.0, 2.0]
    grid = eval_grid(cfg, EXP, xs, "given_leq", t=1.0)
    assert grid.points.tolist() == xs
    assert grid.values.tolist() == [cond_cdf_given_leq(cfg, EXP, x, 1.0) for x in xs]
    window = Window(0.5, 1.5)
    grid = eval_grid(cfg, EXP, np.array(xs), "between", window=window)
    assert len(grid.values) == 4
    for arr, want in [(grid.points, xs), (grid.values, cond_cdf_between(cfg, EXP, xs, window))]:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        np.testing.assert_array_equal(arr, want)
        with pytest.raises(ValueError):
            arr[0] = 0.25  # the grid owns read-only arrays
    with pytest.raises(DomainError):
        eval_grid(cfg, EXP, xs, "given_leq")  # missing t
    with pytest.raises(DomainError):
        eval_grid(cfg, EXP, xs, "between")  # missing window
    with pytest.raises(DomainError):
        eval_grid(cfg, EXP, xs, "nonsense", t=1.0)
    with pytest.raises(DomainError, match="law 'joint' takes no window"):
        eval_grid(cfg, EXP, xs, "joint", t=1.0, window=window)
    with pytest.raises(DomainError, match="law 'between' takes no t"):
        eval_grid(cfg, EXP, xs, "between", t=1.0, window=window)
    with pytest.raises(DomainError):
        EvalGrid((0.0, 0.0, 1.0), (0.1, 0.2, 0.3))  # not strictly increasing
    with pytest.raises(DomainError):
        EvalGrid((0.0, 1.0), (0.5, 0.2))  # decreasing values
    with pytest.raises(DomainError):
        EvalGrid((0.0, 1.0), (0.5, 0.5 - 2e-9))  # decreasing beyond the 1e-9 rounding slack
    EvalGrid((0.0, 1.0), (0.5, 0.5 - 5e-10))  # within it
    with pytest.raises(DomainError):
        EvalGrid((0.0, 1.0), (0.5, 1.2))  # outside [0, 1]
    with pytest.raises(DomainError):
        EvalGrid((0.0, 1.0), (0.5, math.nan))  # NaN is not in [0, 1]
    with pytest.raises(DomainError, match="strictly increasing"):
        EvalGrid((0.0, math.nan, 1.0), (0.0, 0.5, 1.0))  # a NaN point is not increasing
    for points in (("a", 1.0), ((0.0, 1.0), (2.0,))):  # numpy cannot convert them
        with pytest.raises(DomainError, match="^grid points must be numbers, got "):
            EvalGrid(points, (0.5, 0.6))
    grid = EvalGrid((2.0,), (0.5,))  # one point: nothing to compare, still a grid
    assert grid.points.tolist() == [2.0] and grid.values.tolist() == [0.5]
    for points, values in (((), ()), ((0.0, 1.0), (0.5,)), (((0.0, 1.0),), ((0.5, 0.6),))):
        with pytest.raises(DomainError, match="matching, nonempty points and values"):
            EvalGrid(points, values)


# --- array evaluation of the x-laws ------------------------------------------

X_LAWS = [
    ("joint", lambda cfg, m, x: joint_cdf_single(cfg, m, x, m.quantile(0.45))),
    ("given_leq", lambda cfg, m, x: cond_cdf_given_leq(cfg, m, x, m.quantile(0.45))),
    ("between", lambda cfg, m, x: cond_cdf_between(
        cfg, m, x, Window(m.quantile(0.3), m.quantile(0.8)))),
    ("given_eq", lambda cfg, m, x: cond_cdf_given_eq(cfg, m, x, m.quantile(0.45))),
    ("pdf_between", lambda cfg, m, x: cond_pdf_between(
        cfg, m, x, Window(m.quantile(0.3), m.quantile(0.8)))),
]


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("name,law", X_LAWS, ids=[name for name, _ in X_LAWS])
def test_array_call_matches_scalar_calls(model, name, law):
    cfg = SystemConfig(9, 4)
    xs = np.array(grid_for(model, 50) + [model.quantile(0.45), model.quantile(0.3), math.inf])
    values = law(cfg, model, xs)
    assert isinstance(values, np.ndarray) and values.shape == xs.shape
    scalars = [law(cfg, model, float(x)) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert np.max(np.abs(values - scalars)) <= 1e-15


@pytest.mark.parametrize("name,law", X_LAWS, ids=[name for name, _ in X_LAWS])
@pytest.mark.parametrize("bad", [math.nan, -0.5])
def test_array_call_rejects_bad_entries(name, law, bad):
    with pytest.raises(DomainError):
        law(SystemConfig(9, 4), EXP, np.array([0.1, bad, 2.0]))
