"""The argument rules shared by every module.

An integer parameter accepts any integer value, 12, 12.0 or numpy.int64(12),
and is used as the int; anything else raises DomainError.  A real-valued
parameter accepts a number in its range, 2, 2.0, numpy.float64(2) or "2",
and is used as the float; NaN, a value out of range and what float() refuses
raise DomainError.
"""

import math

import numpy as np
import pytest

from ordstat import (
    DomainError,
    Empirical,
    Exponential,
    InspectionPmf,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    binom_tail,
    cond_cdf_between,
    cond_cdf_given_eq,
    cond_cdf_given_leq,
    cond_pdf_between,
    eval_grid,
    exhaustive_inspection_pmf,
    first_observation_leq,
    inspection_pmf,
    joint_cdf_multi,
    joint_cdf_single,
    joint_pdf_multi,
    lambda_coeff,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
    observation_leq,
    order_stat_cdf,
    order_stat_leq,
    pair_cond_joint_cdf,
    reg_inc_beta,
)
from ordstat.errors import _reals, _time, _times

EXP = Exponential(1.0)
CFG = SystemConfig(12, 5)
PMF = inspection_pmf(CFG, 3)
EVENT = first_observation_leq(1.0)


def _first(s, o):
    return s[:, 0]


# parameter -> (a valid integer value, the call with the parameter set to v)
INTEGER_PARAMETERS = {
    "SystemConfig.n": (12, lambda v: SystemConfig(v, 5)),
    "SystemConfig.r": (5, lambda v: SystemConfig(12, v)),
    "inspection_pmf.k": (3, lambda v: inspection_pmf(CFG, v)),
    "exhaustive_inspection_pmf.k": (3, lambda v: exhaustive_inspection_pmf(CFG, v)),
    "mc_inspection_pmf.k": (3, lambda v: mc_inspection_pmf(CFG, EXP, v, 200, 1)),
    "InspectionPmf.k": (3, lambda v: InspectionPmf(CFG, v, PMF.support, PMF.probs)),
    "InspectionPmf.prob.m": (3, lambda v: PMF.prob(v)),
    "lambda_coeff.j": (2, lambda v: lambda_coeff(CFG, v)),
    "binom_tail.n_trials": (12, lambda v: binom_tail(v, 4, 0.3)),
    "binom_tail.lo": (4, lambda v: binom_tail(12, v, 0.3)),
    "reg_inc_beta.a": (4, lambda v: reg_inc_beta(v, 3, 0.3)),
    "reg_inc_beta.b": (3, lambda v: reg_inc_beta(4, v, 0.3)),
    "observation_leq.index": (
        3, lambda v: mc_event_prob(CFG, EXP, observation_leq(v, 1.0), 200, 1)),
    "mc_event_prob.m_reps": (200, lambda v: mc_event_prob(CFG, EXP, EVENT, v, 1)),
    "mc_event_prob.seed": (2, lambda v: mc_event_prob(CFG, EXP, EVENT, 200, v)),
    "mc_event_mean.m_reps": (200, lambda v: mc_event_mean(CFG, EXP, _first, v, 1)),
    "mc_event_mean.seed": (2, lambda v: mc_event_mean(CFG, EXP, _first, 200, v)),
    "mc_inspection_pmf.m_reps": (200, lambda v: mc_inspection_pmf(CFG, EXP, 3, v, 1)),
    "mc_inspection_pmf.seed": (2, lambda v: mc_inspection_pmf(CFG, EXP, 3, 200, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, 2.5, "3"])
@pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
def test_integer_parameter_rejects_non_integers(parameter, value):
    _, call = INTEGER_PARAMETERS[parameter]
    with pytest.raises(DomainError, match=r", got "):
        call(value)


@pytest.mark.parametrize("cast", [float, np.int64], ids=["float", "int64"])
@pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
def test_integer_parameter_accepts_any_integer_value_as_the_int(parameter, cast):
    valid, call = INTEGER_PARAMETERS[parameter]
    # the repr shows the types of stored values and every bit of a float
    assert repr(call(cast(valid))) == repr(call(valid))


def test_integer_values_are_stored_as_ints():
    cfg = SystemConfig(12.0, 5.0)
    assert (type(cfg.n), type(cfg.r)) == (int, int) and (cfg.n, cfg.r) == (12, 5)
    assert type(inspection_pmf(cfg, 3.0).k) is int
    assert type(InspectionPmf(CFG, np.int64(3), PMF.support, PMF.probs).k) is int


def test_seed_must_be_a_nonnegative_integer():
    for seed in (-1, None):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            mc_event_prob(CFG, EXP, EVENT, 200, seed)


WIN = Window(1.0, 2.0)
UNI = Uniform(0.5, 3.0)

# out-of-range values, by range; a nonnegative time may be +inf
TIME = (-0.5, -math.inf)
NONNEGATIVE = (-0.5, math.inf, -math.inf)  # finite and >= 0
POSITIVE = (0.0, -1.0, math.inf, -math.inf)  # finite and > 0
PROBABILITY = (-0.1, 1.5, math.inf, -math.inf)  # in [0, 1]
OPEN_PROBABILITY = (0.0, 1.0, math.inf, -math.inf)  # in (0, 1)

# parameter -> (a valid value, its out-of-range values, the call with the
# parameter set to v); an array parameter takes v as one element
REAL_PARAMETERS = {
    "order_stat_cdf.t": (1.0, TIME, lambda v: order_stat_cdf(CFG, EXP, v)),
    "joint_cdf_single.t": (1.0, TIME, lambda v: joint_cdf_single(CFG, EXP, 0.5, v)),
    "cond_cdf_given_leq.t": (1.0, TIME, lambda v: cond_cdf_given_leq(CFG, EXP, 0.5, v)),
    "cond_cdf_given_eq.t": (1.0, TIME, lambda v: cond_cdf_given_eq(CFG, EXP, 0.5, v)),
    "joint_cdf_multi.t": (1.0, TIME, lambda v: joint_cdf_multi(CFG, EXP, [0.5], v)),
    "joint_pdf_multi.t": (1.0, TIME, lambda v: joint_pdf_multi(CFG, EXP, [0.5], v)),
    "pair_cond_joint_cdf.t": (
        1.0, TIME, lambda v: pair_cond_joint_cdf(CFG, EXP, 0.5, 0.8, v, "max_leq")),
    "order_stat_leq.t": (
        1.0, TIME, lambda v: mc_event_prob(CFG, EXP, EVENT, 200, 1, given=order_stat_leq(CFG, v))),
    "joint_cdf_single.x": (0.8, TIME, lambda v: joint_cdf_single(CFG, EXP, v, 1.0)),
    "cond_cdf_given_leq.x": (0.8, TIME, lambda v: cond_cdf_given_leq(CFG, EXP, v, 1.0)),
    "cond_cdf_between.x": (0.8, TIME, lambda v: cond_cdf_between(CFG, EXP, v, WIN)),
    "cond_cdf_given_eq.x": (0.8, TIME, lambda v: cond_cdf_given_eq(CFG, EXP, v, 1.0)),
    "cond_pdf_between.x": (0.8, TIME, lambda v: cond_pdf_between(CFG, EXP, v, WIN)),
    "observation_leq.x": (
        0.8, TIME, lambda v: mc_event_prob(CFG, EXP, observation_leq(2, v), 200, 1)),
    "joint_cdf_single.x[]": (0.8, TIME, lambda v: joint_cdf_single(CFG, EXP, [0.5, v], 1.0)),
    "cond_cdf_given_leq.x[]": (0.8, TIME, lambda v: cond_cdf_given_leq(CFG, EXP, [0.5, v], 1.0)),
    "cond_cdf_between.x[]": (0.8, TIME, lambda v: cond_cdf_between(CFG, EXP, [0.5, v], WIN)),
    "cond_cdf_given_eq.x[]": (0.8, TIME, lambda v: cond_cdf_given_eq(CFG, EXP, [0.5, v], 1.0)),
    "cond_pdf_between.x[]": (0.8, TIME, lambda v: cond_pdf_between(CFG, EXP, [0.5, v], WIN)),
    "eval_grid.xs[]": (0.8, TIME, lambda v: eval_grid(CFG, EXP, [0.5, v], "joint", t=1.0)),
    "joint_cdf_multi.xs[]": (0.8, TIME, lambda v: joint_cdf_multi(CFG, EXP, [0.5, v], 1.0)),
    "joint_pdf_multi.xs[]": (0.8, TIME, lambda v: joint_pdf_multi(CFG, EXP, [0.5, v], 1.0)),
    "pair_cond_joint_cdf.x1": (
        0.5, TIME, lambda v: pair_cond_joint_cdf(CFG, EXP, v, 0.8, 1.0, "min_leq")),
    "pair_cond_joint_cdf.x2": (
        0.8, TIME, lambda v: pair_cond_joint_cdf(CFG, EXP, 0.5, v, 1.0, "min_gt")),
    "Window.t1": (1.0, NONNEGATIVE, lambda v: Window(v, 2.0)),
    "Window.t2": (2.0, (1.0, 0.5, *NONNEGATIVE), lambda v: Window(1.0, v)),
    "Exponential.rate": (2.0, POSITIVE, lambda v: Exponential(v)),
    "Weibull.shape": (2.0, (0.005, *POSITIVE), lambda v: Weibull(v, 1.0)),
    "Weibull.scale": (2.0, POSITIVE, lambda v: Weibull(2.0, v)),
    "Uniform.lo": (0.5, NONNEGATIVE, lambda v: Uniform(v, 3.0)),
    "Uniform.hi": (3.0, (0.5, 0.25, *NONNEGATIVE), lambda v: Uniform(0.5, v)),
    "Empirical.values[]": (2.0, NONNEGATIVE, lambda v: Empirical([1.0, v])),
    "quantile.u": (0.3, OPEN_PROBABILITY, lambda v: EXP.quantile(v)),
    "quantile.u[]": (0.3, OPEN_PROBABILITY, lambda v: EXP.quantile([0.5, v])),
    "binom_tail.p": (0.3, PROBABILITY, lambda v: binom_tail(5, 1, v)),
    "Exponential.partial_moment.a": (0.5, TIME, lambda v: EXP.partial_moment(v, 2.0)),
    "Exponential.partial_moment.b": (2.0, (0.25, *TIME), lambda v: EXP.partial_moment(0.5, v)),
    "Uniform.partial_moment.a": (0.5, TIME, lambda v: UNI.partial_moment(v, 2.0)),
    "Uniform.partial_moment.b": (2.0, (0.25, *TIME), lambda v: UNI.partial_moment(0.5, v)),
}

NOT_NUMBERS = {"None": None, "text": "x", "ragged": [[1.0, 2.0], [3.0]]}

# these take a number or an array of them, elementwise; every other parameter
# refuses a flat list, which as one element of an array makes the array ragged
ELEMENTWISE = {"joint_cdf_single.x", "cond_cdf_given_leq.x", "cond_cdf_between.x",
               "cond_cdf_given_eq.x", "cond_pdf_between.x", "quantile.u"}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_real_parameter_that_float_refuses_raises_domain_error(parameter, value):
    _, _, call = REAL_PARAMETERS[parameter]
    with pytest.raises(DomainError, match=r", got "):
        call(value)


@pytest.mark.parametrize("parameter", [p for p in REAL_PARAMETERS if p not in ELEMENTWISE])
def test_scalar_real_parameter_rejects_a_list(parameter):
    _, _, call = REAL_PARAMETERS[parameter]
    with pytest.raises(DomainError, match=r", got "):
        call([0.5, 1.0])


@pytest.mark.parametrize("parameter,value", [
    (parameter, value)
    for parameter, (_, out_of_range, _) in REAL_PARAMETERS.items()
    for value in (math.nan, *out_of_range)
])
def test_real_parameter_rejects_nan_and_values_out_of_range(parameter, value):
    _, _, call = REAL_PARAMETERS[parameter]
    with pytest.raises(DomainError, match=r", got "):
        call(value)


@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_real_parameter_accepts_any_number_in_range_as_the_float(parameter):
    valid, _, call = REAL_PARAMETERS[parameter]
    # the repr shows the types of stored values and every bit of a float
    assert repr(call(np.float64(valid))) == repr(call(valid))
    assert repr(call(str(valid))) == repr(call(valid))


def test_real_values_are_stored_as_floats():
    window = Window(1, 2)
    assert (type(window.t1), type(window.t2)) == (float, float) and window == Window(1.0, 2.0)
    assert Window("1", 2) == window
    assert type(Exponential(np.float64(2.0)).rate) is float


@pytest.mark.parametrize("hi,bad", [(math.inf, math.nan), (math.inf, -0.5),
                                    (10.0, math.nan), (10.0, -0.5), (10.0, 12.0)])
@pytest.mark.parametrize("position", [0, 2500, 4999])
def test_reals_names_the_first_bad_value(hi, bad, position):
    values = np.linspace(0.0, 10.0, 5000)
    values[position:] = -3.0  # bad too, but after the first
    values[position] = bad
    with pytest.raises(DomainError) as excinfo:
        _reals(values, 0.0, hi, "x must be a time")
    assert str(excinfo.value) == f"x must be a time, got {bad!r}"


@pytest.mark.parametrize("shape", [(2, 3), (3, 1, 2)])
def test_reals_names_the_first_bad_value_of_a_multidimensional_array(shape):
    values = np.full(shape, 0.5)
    values.flat[3:] = [-1.0, -2.0, -3.0]
    with pytest.raises(DomainError, match=r"^x must be a time, got -1\.0$"):
        _reals(values, 0.0, 1.0, "x must be a time")


@pytest.mark.parametrize("values", [np.array([]), np.array(2.5), -0.0, math.inf,
                                    [0.0, -0.0, 1.0, math.inf], [[0.5, 1.0], [2.0, 3.0]]],
                         ids=repr)
def test_reals_accepts_empty_zero_d_signed_zero_inf_and_two_d(values):
    want = np.asarray(values, dtype=float)
    got = _reals(values, 0.0, math.inf, "x must be a time")
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_time_rule_names_the_argument():
    with pytest.raises(DomainError, match=r"^t must be a nonnegative time, got -1\.0$"):
        _time("-1", "t")
    with pytest.raises(DomainError, match=r"^x must be a nonnegative time, got -0\.5$"):
        _times([1.0, -0.5, -2.0], "x")
