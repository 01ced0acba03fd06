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
from ordstat.lifetimes import _clip


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


@pytest.mark.parametrize(
    "model,x",
    [(Weibull(3.0, 1.0), 1e200), (Weibull(0.5, 1e-300), 1e10), (Exponential(1e300), 1e10)],
    ids=["weibull-power", "weibull-ratio", "exponential"],
)
def test_overflowing_exponent_saturates_without_warning(model, x):
    # (x/scale)**shape or rate*x passes the largest float; warnings are errors here
    assert model.cdf(x) == 1.0
    assert model.pdf(x) == 0.0
    assert model.cdf(np.array([x, math.inf])).tolist() == [1.0, 1.0]
    assert model.pdf(np.array([x, math.inf])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_smallest_weibull_shape_evaluates_without_warning(scale):
    # warnings are errors here
    m = Weibull(0.01, scale)
    xs = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308, math.inf])
    cdf = m.cdf(xs)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= 0.0)
    assert np.all(m.pdf(xs) >= 0.0)
    assert [m.cdf(x) for x in xs.tolist()] == cdf.tolist()


def test_weibull_density_overflows_to_inf_without_warning():
    # the density of Weibull(0.01, 1) at 5e-324 is about 1e318
    assert Weibull(0.01, 1.0).pdf(5e-324) == math.inf


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
    # the mean scale * Gamma(1 + 1/shape) exceeds the largest float; at the
    # smallest shape, 0.01, that takes a scale above about 1.9e150
    with pytest.raises(DomainError):
        Weibull(0.01, 1e200).partial_moment(0.0, 1.0)


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
    upper = model.quantile(1.0 - 1e-12)
    total, _ = integrate.quad(model.pdf, 0.0, upper, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_vectorized_evaluation_matches_scalars():
    m = Weibull(1.5, 2.0)
    xs = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    assert np.allclose(m.cdf(xs), [m.cdf(float(x)) for x in xs])
    assert np.allclose(m.pdf(xs), [m.pdf(float(x)) for x in xs])
    us = np.array([0.1, 0.4, 0.9])
    assert np.allclose(m.quantile(us), [m.quantile(float(u)) for u in us])


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (0.3, 0.3)])
def test_clip_has_the_bits_of_np_clip(lo, hi):
    # the ufunc pair with the bound first keeps np.clip's choice on a tie,
    # which shows in the sign of a zero
    values = [-0.0, 0.0, math.nan, -1.0, 2.0, 1.0, 0.3, -math.inf, math.inf, 5e-324]
    for x in [*values, np.array(values), np.array(values * 9)]:
        expected = np.clip(x, lo, hi)
        got = _clip(x, lo, hi)
        assert type(got) is type(expected) and got.tobytes() == expected.tobytes(), x


@pytest.mark.parametrize(
    "model", [*model_triplet(), Weibull(1.5, 2.0), Empirical([2.0, 1.0, 4.0])], ids=repr,
)
def test_scalar_quantile_is_the_array_quantile(model):
    us = np.random.default_rng(6).random(2000)
    assert [model.quantile(u) for u in us.tolist()] == model.quantile(us).tolist()


@pytest.mark.parametrize("model", [Weibull(0.02, 1e300), Exponential(1e-308)], ids=repr)
def test_quantile_beyond_the_largest_float_is_inf(model):
    # warnings are errors here
    assert model.quantile(0.999) == math.inf
    assert model.quantile(np.array([0.5, 0.999])).tolist()[1] == math.inf


def test_sampling_is_deterministic_and_shaped():
    m = Exponential(2.0)
    a = m.sample(np.random.default_rng(5), (4, 3))
    b = m.sample(np.random.default_rng(5), (4, 3))
    assert a.shape == (4, 3)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)
    assert m.sample(np.random.default_rng(5), None) == a[0, 0]


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
    with pytest.raises(DensityUnsupportedError):
        m.pdf(1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Weibull(0.0, 1.0),
        lambda: Weibull(0.005, 1.0),
        lambda: Weibull(0.001, 1.0),
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
@pytest.mark.parametrize("u", [0.0, -0.0, 1.0, -0.2, 1.3, math.nan])
def test_quantile_rejects_bad_probability(model, u):
    with pytest.raises(DomainError):
        model.quantile(u)


ALL_MODELS = [*model_triplet(), Weibull(0.5, 2.0), Empirical([2.0, 1.0, 4.0])]


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_cdf_of_nan_is_nan(model):
    # searchsorted would place NaN above every sample value, giving 1.0
    assert math.isnan(model.cdf(math.nan))
    values = model.cdf(np.array([math.nan, 1.5]))
    assert math.isnan(values[0]) and values[1] == model.cdf(1.5)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_cdf_of_none_is_nan(model):
    assert math.isnan(model.cdf(None))


DENSITY_MODELS = [m for m in ALL_MODELS if not isinstance(m, Empirical)]


@pytest.mark.parametrize("bad", ["a", [1.0, "a"], [[1.0, 2.0], [3.0]]], ids=repr)
@pytest.mark.parametrize(
    "model,method",
    [(m, "cdf") for m in ALL_MODELS] + [(m, "pdf") for m in DENSITY_MODELS],
    ids=repr,
)
def test_cdf_and_pdf_reject_what_is_not_numbers(model, method, bad):
    # conversion only: a DomainError, not numpy's bare ValueError
    with pytest.raises(DomainError, match="x must be a number or an array of numbers"):
        getattr(model, method)(bad)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_quantile_of_an_empty_array_is_empty(model):
    out = model.quantile(np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, 1.0])
@pytest.mark.parametrize("where", [0, 2500, 4999])
def test_quantile_rejects_one_bad_element_anywhere(bad, where):
    u = np.random.default_rng(8).random(5000)
    u[where] = bad
    with pytest.raises(DomainError):
        Exponential(1.0).quantile(u)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_quantile_of_a_zero_dim_array_is_a_float(model):
    out = model.quantile(np.array(0.3))
    assert type(out) is float
    assert out == model.quantile(np.array([0.3]))[0]


def test_parse_model_grammar(tmp_path):
    assert isinstance(parse_model("exp:2"), Exponential)
    w = parse_model("weibull:2,1.5")
    assert isinstance(w, Weibull) and w.shape == 2.0 and w.scale == 1.5
    u = parse_model("uniform:0,3")
    assert isinstance(u, Uniform) and (u.lo, u.hi) == (0.0, 3.0)
    path = tmp_path / "values.csv"
    path.write_text("1.0\n\n0.5\n2.5\n")
    e = parse_model(f"empirical:@{path}")
    assert isinstance(e, Empirical) and e.values.tolist() == [0.5, 1.0, 2.5]


@pytest.mark.parametrize(
    "spec",
    ["exp", "gauss:1", "exp:a", "weibull:2", "uniform:1", "empirical:values.csv", "exp:1,2"],
)
def test_parse_model_rejects_bad_specs(spec):
    with pytest.raises(DomainError):
        parse_model(spec)
