"""The argument rules shared by every module.

An integer parameter accepts any integer value, 12, 12.0 or numpy.int64(12),
and is used as the int; anything else raises DomainError.  A real-valued
parameter accepts what float() accepts, and a value float() refuses raises
DomainError too.
"""

import math

import numpy as np
import pytest

from ordstat import (
    DomainError,
    Exponential,
    InspectionPmf,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    binom_tail,
    exhaustive_inspection_pmf,
    first_observation_leq,
    inspection_pmf,
    lambda_coeff,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
    observation_leq,
    order_stat_cdf,
    reg_inc_beta,
)

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


@pytest.mark.parametrize(
    "call",
    [
        lambda v: order_stat_cdf(CFG, EXP, v),
        lambda v: Window(v, 1.0),
        lambda v: Window(0.5, v),
        lambda v: Exponential(v),
        lambda v: Weibull(v, 1.0),
        lambda v: Weibull(2.0, v),
        lambda v: Uniform(v, 1.0),
        lambda v: binom_tail(5, 1, v),
        lambda v: EXP.partial_moment(v, 1.0),
    ],
    ids=["order_stat_cdf.t", "Window.t1", "Window.t2", "Exponential.rate", "Weibull.shape",
         "Weibull.scale", "Uniform.lo", "binom_tail.p", "partial_moment.a"],
)
@pytest.mark.parametrize("value", [None, "x", [0.5, 1.0]], ids=["None", "text", "list"])
def test_real_parameter_that_float_refuses_raises_domain_error(call, value):
    with pytest.raises(DomainError, match=r", got "):
        call(value)


def test_real_parameter_accepts_what_float_accepts():
    assert order_stat_cdf(CFG, EXP, "2") == order_stat_cdf(CFG, EXP, 2.0)
    assert Exponential("2").rate == 2.0
    assert binom_tail(5, 1, np.float64(0.25)) == binom_tail(5, 1, 0.25)
