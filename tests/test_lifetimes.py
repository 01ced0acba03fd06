import math

import numpy as np
import pytest
from scipy import integrate

from conftest import model_triplet
from ordstat import (
    DensityUnsupportedError,
    DomainError,
    Empirical,
    Exponential,
    Uniform,
    Weibull,
    parse_model,
)


def test_exponential_cdf_boundaries():
    m = Exponential(1.0)
    assert m.cdf(0.0) == 0.0
    assert m.cdf(-1.0) == 0.0
    assert m.cdf(math.inf) == 1.0


def test_exponential_pdf_at_origin():
    assert Exponential(1.0).pdf(0.0) == 1.0


def test_uniform_trivials():
    m = Uniform(0.0, 2.0)
    assert m.pdf(1.0) == 0.5
    assert m.quantile(0.25) == 0.5
    assert m.cdf(3.0) == 1.0 and m.cdf(-0.5) == 0.0


def test_weibull_closed_forms():
    # reference values written out independently of the model code
    m = Weibull(2.0, 1.0)
    assert m.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert m.pdf(1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
    assert m.quantile(0.5) == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-15)


def test_exponential_quantile_inverts_cdf_value():
    m = Exponential(1.0)
    assert m.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
def test_quantile_round_trip(model):
    for u in [1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6]:
        assert model.cdf(model.quantile(u)) == pytest.approx(u, abs=1e-10)


@pytest.mark.parametrize(
    "model,mean",
    [
        (Exponential(2.0), 0.5),
        (Weibull(2.0, 1.0), math.sqrt(math.pi) / 2.0),
        (Weibull(0.5, 3.0), 6.0),
        (Uniform(0.7, 1.9), 1.3),
    ],
    ids=["exp", "weibull-2", "weibull-0.5", "uniform-lo"],
)
def test_partial_moment_integrates_x_dF(model, mean):
    quantiles = [model.quantile(u) for u in (1e-8, 0.1, 0.5, 0.9, 1.0 - 1e-10)]
    cuts = [0.0, *quantiles, math.inf]
    for a, b in zip(cuts, cuts[1:]):
        # quad misses the density jump of a uniform law at lo unless told,
        # and its support ends at hi
        lo, hi = getattr(model, "lo", a), getattr(model, "hi", b)
        direct, _ = integrate.quad(
            lambda x: x * model.pdf(x), a, min(b, hi),
            points=[lo] if a < lo < b else None, epsabs=0.0, epsrel=1e-12,
        )
        assert model.partial_moment(a, b) == pytest.approx(direct, rel=1e-10, abs=0.0)
    assert model.partial_moment(cuts[2], cuts[2]) == 0.0
    assert model.partial_moment(0.0, math.inf) == pytest.approx(mean, rel=1e-14)
    regions = zip(cuts, cuts[1:])
    assert sum(model.partial_moment(a, b) for a, b in regions) == pytest.approx(mean, rel=1e-14)
    with pytest.raises(DomainError):
        model.partial_moment(1.0, 0.5)
    with pytest.raises(DomainError):
        model.partial_moment(math.nan, 1.0)


def test_partial_moment_rejects_an_overflowing_mean():
    # the mean Gamma(1 + 1/shape) exceeds the largest float below shape 1/170.6
    with pytest.raises(DomainError):
        Weibull(0.005, 1.0).partial_moment(0.0, 1.0)


def test_empirical_has_no_partial_moment():
    with pytest.raises(DensityUnsupportedError):
        Empirical([0.5, 1.5]).partial_moment(0.0, 1.0)


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
def test_pdf_matches_cdf_slope(model):
    h = 1e-5
    for u in [0.1, 0.3, 0.5, 0.7, 0.9]:
        x = model.quantile(u)
        slope = (model.cdf(x + h) - model.cdf(x - h)) / (2.0 * h)
        assert slope == pytest.approx(model.pdf(x), rel=1e-5)


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
def test_pdf_integrates_to_one(model):
    upper = model.support_upper(1e-12)
    total, _ = integrate.quad(model.pdf, 0.0, upper, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_vectorized_evaluation_matches_scalars():
    m = Weibull(1.5, 2.0)
    xs = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    assert np.allclose(m.cdf(xs), [m.cdf(float(x)) for x in xs])
    assert np.allclose(m.pdf(xs), [m.pdf(float(x)) for x in xs])
    us = np.array([0.1, 0.4, 0.9])
    assert np.allclose(m.quantile(us), [m.quantile(float(u)) for u in us])


def test_sampling_is_deterministic_and_shaped():
    m = Exponential(2.0)
    a = m.sample(np.random.default_rng(5), (4, 3))
    b = m.sample(np.random.default_rng(5), (4, 3))
    assert a.shape == (4, 3)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)


def test_empirical_step_cdf_and_quantile():
    m = Empirical([2.0, 1.0, 4.0, 1.0])
    assert m.cdf(0.5) == 0.0
    assert m.cdf(1.0) == 0.5
    assert m.cdf(1.5) == 0.5
    assert m.cdf(2.0) == 0.75
    assert m.cdf(10.0) == 1.0
    assert m.quantile(0.25) == 1.0
    assert m.quantile(0.51) == 2.0
    assert m.quantile(0.99) == 4.0


def test_empirical_has_no_density():
    m = Empirical([1.0, 2.0])
    assert not m.has_density
    with pytest.raises(DensityUnsupportedError):
        m.pdf(1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Weibull(0.0, 1.0),
        lambda: Weibull(1.0, -2.0),
        lambda: Uniform(-0.5, 1.0),
        lambda: Uniform(1.0, 1.0),
        lambda: Empirical([]),
        lambda: Empirical([-1.0, 2.0]),
    ],
)
def test_constructors_reject_bad_parameters(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("model", model_triplet(), ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3])
def test_quantile_rejects_bad_probability(model, u):
    with pytest.raises(DomainError):
        model.quantile(u)


def test_parse_model_grammar(tmp_path):
    assert isinstance(parse_model("exp:2"), Exponential)
    w = parse_model("weibull:2,1.5")
    assert isinstance(w, Weibull) and w.shape == 2.0 and w.scale == 1.5
    u = parse_model("uniform:0,3")
    assert isinstance(u, Uniform) and (u.lo, u.hi) == (0.0, 3.0)
    path = tmp_path / "values.csv"
    path.write_text("1.0\n\n0.5\n2.5\n")
    e = parse_model(f"empirical:@{path}")
    assert isinstance(e, Empirical) and e.sample.tolist() == [0.5, 1.0, 2.5]


@pytest.mark.parametrize(
    "spec",
    ["exp", "gauss:1", "exp:a", "weibull:2", "uniform:1", "empirical:values.csv", "exp:1,2"],
)
def test_parse_model_rejects_bad_specs(spec):
    with pytest.raises(DomainError):
        parse_model(spec)
