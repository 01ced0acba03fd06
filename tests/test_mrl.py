import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from conftest import exact_binom_tail
from ordstat import (
    DensityUnsupportedError,
    DomainError,
    Empirical,
    Exponential,
    NullConditioningError,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    cond_cdf_between,
    cond_pdf_between,
    mean_past,
    mean_residual,
    mrl_summary,
)

EXP = Exponential(1.0)
CFG = SystemConfig(10, 4)
WINDOW = Window(1.0, 2.0)


def integrate_density(cfg, model, window, lo, hi):
    value, _ = integrate.quad(
        lambda x: cond_pdf_between(cfg, model, x, window), lo, hi, limit=400
    )
    return value


@pytest.mark.parametrize(
    "cfg,model,window",
    [
        (CFG, EXP, WINDOW),
        (SystemConfig(6, 6), Weibull(2.0, 1.0), Window(0.4, 1.1)),
        (SystemConfig(5, 2), Uniform(0.0, 3.0), Window(0.5, 2.0)),
    ],
)
def test_density_normalizes(cfg, model, window):
    upper = model.support_upper(1e-13)
    total = (
        integrate_density(cfg, model, window, 0.0, window.t1)
        + integrate_density(cfg, model, window, window.t1, window.t2)
        + integrate_density(cfg, model, window, window.t2, upper)
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_density_region_masses_match_cdf():
    below = integrate_density(CFG, EXP, WINDOW, 0.0, WINDOW.t1)
    assert below == pytest.approx(cond_cdf_between(CFG, EXP, WINDOW.t1, WINDOW), abs=1e-10)
    inside = integrate_density(CFG, EXP, WINDOW, WINDOW.t1, WINDOW.t2)
    expected = cond_cdf_between(CFG, EXP, WINDOW.t2, WINDOW) - cond_cdf_between(
        CFG, EXP, WINDOW.t1, WINDOW
    )
    assert inside == pytest.approx(expected, abs=1e-10)


def test_density_matches_cdf_slope():
    h = 1e-6
    for x in [0.5, 1.5, 2.5]:
        slope = (
            cond_cdf_between(CFG, EXP, x + h, WINDOW) - cond_cdf_between(CFG, EXP, x - h, WINDOW)
        ) / (2.0 * h)
        assert slope == pytest.approx(cond_pdf_between(CFG, EXP, x, WINDOW), abs=1e-4)


def test_density_nonnegative_everywhere():
    for x in [0.0, 0.7, 1.0, 1.4, 2.0, 2.8, 6.0]:
        assert cond_pdf_between(CFG, EXP, x, WINDOW) >= 0.0


@pytest.mark.parametrize(
    "cfg,model,window",
    [
        (CFG, EXP, WINDOW),
        (SystemConfig(7, 3), Weibull(2.0, 1.0), Window(0.5, 0.9)),
        (SystemConfig(4, 4), Uniform(0.0, 1.0), Window(0.2, 0.8)),
    ],
)
def test_residual_and_past_are_exact_negatives(cfg, model, window):
    phi = mean_residual(cfg, model, window)
    psi = mean_past(cfg, model, window)
    assert abs(phi + psi) <= 1e-10


def test_truncated_exponential_closed_form():
    # conditioning on the maximum landing below t2 makes the component an
    # independent truncated exponential: E{X | X <= 1} = (e - 2) / (e - 1)
    n = 5
    cfg = SystemConfig(n, n)
    window = Window(0.0, 1.0)
    expected = (math.e - 2.0) / (math.e - 1.0)
    phi = mean_residual(cfg, EXP, window)
    assert phi + window.t2 == pytest.approx(expected, abs=1e-8)


def test_mean_past_bounded_on_bounded_support():
    model = Uniform(0.0, 1.0)
    cfg = SystemConfig(6, 3)
    window = Window(0.3, 0.7)
    psi = mean_past(cfg, model, window)
    assert window.t2 - 1.0 < psi < window.t2


def test_partial_expectation_decomposition():
    # the weighted region integrals must reproduce direct quadrature of
    # x times the conditional density
    upper = EXP.support_upper(1e-13)
    direct = 0.0
    for lo, hi in [(0.0, WINDOW.t1), (WINDOW.t1, WINDOW.t2), (WINDOW.t2, upper)]:
        value, _ = integrate.quad(
            lambda x: x * cond_pdf_between(CFG, EXP, x, WINDOW), lo, hi, limit=400
        )
        direct += value
    assert mean_residual(CFG, EXP, WINDOW) + WINDOW.t2 == pytest.approx(direct, abs=1e-8)


def test_summary_bundles_both_signs_and_tail():
    summary = mrl_summary(CFG, EXP, WINDOW)
    assert summary.phi == pytest.approx(mean_residual(CFG, EXP, WINDOW), abs=1e-14)
    assert summary.psi == pytest.approx(mean_past(CFG, EXP, WINDOW), abs=1e-14)
    assert summary.phi + summary.psi == pytest.approx(0.0, abs=1e-14)
    assert 0.0 <= summary.truncation_bound < 1e-9
    assert (summary.t1, summary.t2) == (WINDOW.t1, WINDOW.t2)


def closed_form_window_mean(cfg, model, window):
    """E{X_1 | window} from exact rational slopes and partial moments of the model."""
    n, r = cfg.n, cfg.r
    p1, p2 = model.cdf(window.t1), model.cdf(window.t2)
    prob = exact_binom_tail(n, r, p2) - exact_binom_tail(n, r, p1)
    up1, up2 = exact_binom_tail(n - 1, r - 1, p1), exact_binom_tail(n - 1, r - 1, p2)
    mid1, mid2 = exact_binom_tail(n - 1, r, p1), exact_binom_tail(n - 1, r, p2)
    slopes = [float((up2 - up1) / prob), float((up2 - mid1) / prob), float((mid2 - mid1) / prob)]

    def moment(a, b):
        # integral of x f(x) over [a, b]
        if isinstance(model, Uniform):
            a, b = max(a, model.lo), min(b, model.hi)
            return (b * b - a * a) / (2.0 * (model.hi - model.lo)) if b > a else 0.0
        k, scale = model.shape, model.scale
        upper = lambda y: special.gammaincc(1.0 + 1.0 / k, (y / scale) ** k)
        return scale * special.gamma(1.0 + 1.0 / k) * (upper(a) - upper(b))

    regions = [(0.0, window.t1), (window.t1, window.t2), (window.t2, math.inf)]
    return sum(c * moment(a, b) for c, (a, b) in zip(slopes, regions))


WEIBULL_TENTH = Weibull(0.1, 1.0)


@pytest.mark.parametrize(
    "cfg,model,window",
    [
        # the density jumps at lo > 0, inside the region below the window
        (SystemConfig(10, 7), Uniform(0.7454, 1.9043),
         Window(1.4938869555430405, 1.53035990654469)),
        # a heavy tail beyond the window
        (SystemConfig(10, 4), Weibull(0.5, 1.0), Window(1.0, 2.0)),
        # a mean of 10! = 3.6e6 carried almost entirely by the far tail
        (SystemConfig(10, 4), WEIBULL_TENTH,
         Window(WEIBULL_TENTH.quantile(0.3), WEIBULL_TENTH.quantile(0.5))),
        # a mean of 20! = 2.4e18, with the window in the lower half
        (SystemConfig(10, 4), Weibull(0.05, 1.0), Window(1e-9, 0.0006)),
    ],
    ids=["uniform-lo", "weibull-0.5", "weibull-0.1", "weibull-0.05"],
)
def test_mrl_matches_partial_moment_closed_form(cfg, model, window):
    mean = closed_form_window_mean(cfg, model, window)
    summary = mrl_summary(cfg, model, window)
    error = abs(summary.phi - (mean - window.t2))
    assert error <= summary.truncation_bound + 1e-12
    assert error <= 1e-10 * mean


@st.composite
def windowed_systems(draw):
    n = draw(st.integers(1, 30))
    r = draw(st.integers(1, n))
    model = draw(st.one_of(
        st.builds(Exponential, st.floats(0.2, 5.0)),
        st.builds(Weibull, st.floats(0.5, 5.0), st.floats(0.5, 3.0)),
        st.builds(Uniform, st.floats(0.0, 1.0), st.floats(1.5, 4.0)),
    ))
    u1 = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9]))
    u2 = u1 + draw(st.floats(0.02, 0.5)) * (1.0 - u1)
    t1 = model.quantile(u1) if u1 > 0.0 else 0.0
    return SystemConfig(n, r), model, Window(t1, model.quantile(u2))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(windowed_systems())
def test_mrl_matches_quadrature_of_the_conditional_density(case):
    cfg, model, window = case
    # quad misses the density jump of a uniform law at lo unless told
    lo = getattr(model, "lo", 0.0)
    upper = getattr(model, "hi", math.inf)
    direct = 0.0
    for a, b in [(0.0, window.t1), (window.t1, window.t2), (window.t2, upper)]:
        if a < b:
            value, _ = integrate.quad(
                lambda x: x * cond_pdf_between(cfg, model, x, window), a, b,
                points=[lo] if a < lo < b else None, limit=200,
            )
            direct += value
    summary = mrl_summary(cfg, model, window)
    assert summary.phi + window.t2 == pytest.approx(direct, rel=1e-8)
    assert summary.phi + summary.psi == 0.0


def test_density_requires_a_density_model():
    model = Empirical([0.5, 1.5, 2.5])
    with pytest.raises(DensityUnsupportedError):
        cond_pdf_between(CFG, model, 1.0, WINDOW)
    with pytest.raises(DensityUnsupportedError):
        mean_residual(CFG, model, WINDOW)


def test_null_window_raises():
    model = Uniform(0.0, 1.0)
    with pytest.raises(NullConditioningError):
        mean_residual(SystemConfig(3, 2), model, Window(2.0, 3.0))


def test_window_validation():
    with pytest.raises(DomainError):
        Window(2.0, 1.0)
    with pytest.raises(DomainError):
        Window(-1.0, 1.0)
    with pytest.raises(DomainError):
        Window(1.0, 1.0)
    with pytest.raises(DomainError):
        Window(0.0, math.inf)
