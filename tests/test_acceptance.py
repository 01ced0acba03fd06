"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see all lines.
"""

import math
import random
import time
from fractions import Fraction

from scipy import integrate

from conftest import model_triplet
from ordstat import (
    Exponential,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    cond_cdf_between,
    cond_cdf_given_eq,
    cond_cdf_given_leq,
    cond_pdf_between,
    exhaustive_inspection_pmf,
    expected_inspections,
    inspection_pmf,
    joint_cdf_single,
    joint_pdf_multi,
    lambda_coeff,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
    mean_past,
    mean_residual,
    pair_cond_joint_cdf,
    window_prob,
)
from ordstat.oracle import first_observation_leq, order_stat_in_window, order_stat_leq

EXP = Exponential(1.0)
WEIBULL = Weibull(2.0, 1.0)

TABLE_LEFT = [
    Fraction(1, 55), Fraction(8, 165), Fraction(14, 165), Fraction(4, 33),
    Fraction(5, 33), Fraction(28, 165), Fraction(28, 165), Fraction(8, 55), Fraction(1, 11),
]
TABLE_RIGHT = [
    Fraction(5, 22), Fraction(3, 11), Fraction(5, 22), Fraction(5, 33),
    Fraction(25, 308), Fraction(5, 154), Fraction(1, 132),
]


def check(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_c01_reference_table_exact():
    start = time.perf_counter()
    left = inspection_pmf(SystemConfig(12, 5), 3)
    right = inspection_pmf(SystemConfig(12, 7), 2)
    elapsed = time.perf_counter() - start
    ok = (
        left.support == tuple(range(3, 12))
        and list(left.probs) == TABLE_LEFT
        and right.support == tuple(range(2, 9))
        and list(right.probs) == TABLE_RIGHT
        and elapsed < 1.0
    )
    check(1, f"reference pmf tables reproduced exactly in {elapsed:.3f}s", ok)


def test_c02_reference_expected_values():
    left = expected_inspections(inspection_pmf(SystemConfig(12, 5), 3))
    right = expected_inspections(inspection_pmf(SystemConfig(12, 7), 2))
    ok = (
        left == Fraction(39, 5)
        and right == Fraction(26, 7)
        and abs(float(right) - 3.7143) < 5e-5
    )
    check(2, f"expected counts {left} and {right} (decimal {float(right):.6f})", ok)


def test_c03_permutation_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    cases = 0
    for n in range(2, 9):
        for r in range(2, n + 1):
            cfg = SystemConfig(n, r)
            for k in range(1, r):
                cases += 1
                if exhaustive_inspection_pmf(cfg, k).probs != inspection_pmf(cfg, k).probs:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    check(3, f"{cases} (n,r,k) cases match the C(n, r-1) enumeration exactly in {elapsed:.1f}s", ok)


def test_c04_distribution_freeness():
    start = time.perf_counter()
    reps = 1_000_000
    worst = 0.0
    for n, r, k in [(12, 5, 3), (12, 7, 2)]:
        cfg = SystemConfig(n, r)
        exact = inspection_pmf(cfg, k).as_dict()
        for model, seed in [(EXP, 2024), (WEIBULL, 2025)]:
            estimates = mc_inspection_pmf(cfg, model, k, reps, seed=seed)
            for m, est in estimates.items():
                z = abs(est.estimate - float(exact[m])) / est.std_error
                worst = max(worst, z)
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 30.0
    check(4, f"simulated pmfs match exact law, worst z = {worst:.2f} in {elapsed:.1f}s", ok)


def test_c05_jump_law():
    worst = 0.0
    for n in [2, 5, 10, 50]:
        for r in sorted({1, (n + 1) // 2, n}):
            cfg = SystemConfig(n, r)
            for model, t in [(EXP, 1.3), (Uniform(0.0, 3.0), 1.2)]:
                at = cond_cdf_given_eq(cfg, model, t, t)
                jump = at - (r - 1) / n  # left limit is (r-1)/n
                worst = max(worst, abs(jump - 1.0 / n))
    ok = worst <= 1e-12
    check(5, f"exact-failure-time law jumps by 1/n, worst deviation {worst:.2e}", ok)


def test_c06_difference_identity():
    rng = random.Random(20240809)
    models = model_triplet()
    worst = 0.0
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
        for i in range(50):
            x = i * hi / 49
            lhs = cond_cdf_between(cfg, model, x, w) * wp
            rhs = joint_cdf_single(cfg, model, x, w.t2) - joint_cdf_single(cfg, model, x, w.t1)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    check(6, f"window law times window probability equals joint difference, worst {worst:.2e}", ok)


def test_c07_vanishing_window_limit():
    cfg = SystemConfig(10, 4)
    t, h = 2.0, 1e-4
    w = Window(t, t + h)
    # grid of continuity points; inside [t, t+h] the finite window is still
    # mid-transition across the limit law's jump, so that sliver is excluded
    xs = [i * 0.05 for i in range(1, 121) if not (t <= i * 0.05 <= t + h)]
    worst = max(
        abs(cond_cdf_between(cfg, EXP, x, w) - cond_cdf_given_eq(cfg, EXP, x, t)) for x in xs
    )
    ok = worst <= 1e-3
    check(7, f"window (t, t+1e-4) law matches exact-time law, sup {worst:.2e}", ok)


def test_c08_special_case_collapse():
    worst = 0.0
    for model in model_triplet():
        t = model.quantile(0.55)
        hi = model.quantile(1.0 - 1e-6)
        xs = [i * hi / 40 for i in range(41)]
        for n in [2, 5, 11]:
            for x in xs:
                fx, ft = model.cdf(x), model.cdf(t)
                direct_top = fx / ft if x <= t else 1.0
                got_top = cond_cdf_given_leq(SystemConfig(n, n), model, x, t)
                worst = max(worst, abs(got_top - direct_top))
                denom = 1.0 - (1.0 - ft) ** n
                if x <= t:
                    direct_bottom = fx / denom
                else:
                    direct_bottom = (fx - (fx - ft) * (1.0 - ft) ** (n - 1)) / denom
                got_bottom = cond_cdf_given_leq(SystemConfig(n, 1), model, x, t)
                worst = max(worst, abs(got_bottom - direct_bottom))
    ok = worst <= 1e-12
    check(8, f"r=n and r=1 collapse to the extreme-value laws, worst {worst:.2e}", ok)


def test_c09_joint_density_mass_matches_exact_rational():
    cfg = SystemConfig(6, 4)
    exact = lambda_coeff(cfg, 2)
    value, _ = integrate.tplquad(
        lambda x2, x1, t: joint_pdf_multi(cfg, EXP, [x1, x2], t),
        0.0, 20.0,
        lambda t: 0.0, lambda t: t,
        lambda t, x1: 0.0, lambda t, x1: t,
        epsabs=1e-6, epsrel=1e-6,
    )
    ok = exact == Fraction(1, 5) and abs(value - 0.2) <= 1e-3
    check(9, f"triple quadrature of the joint density gives {value:.6f} vs exact 1/5", ok)


def test_c10_dependence_and_independence():
    # factorization under the maximum
    cfg_max = SystemConfig(7, 7)
    t = 1.5
    worst = 0.0
    for x1 in [0.3, 1.0, 2.2]:
        for x2 in [0.6, 1.5, 3.0]:
            joint = pair_cond_joint_cdf(cfg_max, EXP, x1, x2, t, "max_leq")
            product = cond_cdf_given_leq(cfg_max, EXP, x1, t) * cond_cdf_given_leq(
                cfg_max, EXP, x2, t
            )
            worst = max(worst, abs(joint - product))
    factorizes = worst <= 1e-12

    # dependence given the minimum landed below t
    reps = 1_000_000
    cfg_min = SystemConfig(2, 1)
    x, t_min = 2.0, 1.0
    est_min = mc_event_prob(
        cfg_min, EXP, lambda s, o: (s[:, 0] <= x) & (s[:, 1] <= x), reps, seed=404,
        given=order_stat_leq(cfg_min, t_min),
    )
    marg_min = cond_cdf_given_leq(cfg_min, EXP, x, t_min)
    z_min = abs(est_min.estimate - marg_min**2) / est_min.std_error

    # dependence given an interior order statistic landed below t
    cfg_mid = SystemConfig(5, 2)
    x_mid, t_mid = 1.0, 0.5
    est_mid = mc_event_prob(
        cfg_mid, EXP, lambda s, o: (s[:, 0] <= x_mid) & (s[:, 1] <= x_mid), reps, seed=405,
        given=order_stat_leq(cfg_mid, t_mid),
    )
    marg_mid = cond_cdf_given_leq(cfg_mid, EXP, x_mid, t_mid)
    z_mid = abs(est_mid.estimate - marg_mid**2) / est_mid.std_error

    ok = factorizes and z_min >= 5.0 and z_mid >= 5.0
    check(
        10,
        f"max conditioning factorizes (worst {worst:.2e}); "
        f"min/interior conditioning separate at {z_min:.1f} and {z_mid:.1f} sigma",
        ok,
    )


def test_c11_mean_residual_and_past():
    cfg = SystemConfig(10, 4)
    w = Window(1.0, 2.0)
    sign_gap = abs(mean_residual(cfg, EXP, w) + mean_past(cfg, EXP, w))

    n = 5
    closed = (math.e - 2.0) / (math.e - 1.0)
    truncated_gap = abs(
        mean_residual(SystemConfig(n, n), EXP, Window(0.0, 1.0)) + 1.0 - closed
    )

    est = mc_event_mean(
        cfg, EXP, lambda s, o: s[:, 0] - w.t2, 1_000_000, seed=606,
        given=order_stat_in_window(cfg, w),
    )
    effective = est.conditioned_fraction * est.replications
    mc_gap = abs(est.estimate - mean_residual(cfg, EXP, w))
    ok = (
        sign_gap <= 1e-10
        and truncated_gap <= 1e-8
        and effective >= 10_000
        and mc_gap <= 3.0 * est.std_error
    )
    check(
        11,
        f"residual+past = {sign_gap:.1e}; truncated-exponential gap {truncated_gap:.1e}; "
        f"Monte-Carlo gap {mc_gap:.2e} vs 3se {3 * est.std_error:.2e}",
        ok,
    )


def test_c12_density_normalization_randomized():
    rng = random.Random(31415)
    models = model_triplet()
    worst = 0.0
    cases = 0
    while cases < 10:
        n = rng.randint(2, 20)
        r = rng.randint(1, n)
        cfg = SystemConfig(n, r)
        model = rng.choice(models)
        u1 = rng.uniform(0.1, 0.7)
        u2 = rng.uniform(u1 + 0.1, 0.9)
        w = Window(model.quantile(u1), model.quantile(u2))
        if window_prob(cfg, model, w) < 1e-6:
            continue
        cases += 1
        upper = model.quantile(1.0 - 1e-13)
        total = 0.0
        for lo, hi in [(0.0, w.t1), (w.t1, w.t2), (w.t2, upper)]:
            value, _ = integrate.quad(
                lambda s: cond_pdf_between(cfg, model, s, w), lo, hi, limit=400
            )
            total += value
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-8
    check(12, f"conditional density normalizes over 10 random configs, worst {worst:.2e}", ok)
