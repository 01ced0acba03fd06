"""Bit-for-bit pins of the sampling path, of the laws and of the README simulations.

The Monte-Carlo values below were recorded from the plain-expression
implementation of the quantiles and of the detection count; each in-place
rewrite of those paths must reproduce them exactly, not just closely.  The
law values were recorded from the implementation that evaluated F afresh
in every helper, before each public law computed F once per time.  The
digests of the README ``simulate`` output were recorded from the
implementation that drew each batch of up to 2**21 lifetimes as one array,
before the simulation worked in cache-sized blocks.
"""

import hashlib

import numpy as np
import pytest

from ordstat import (
    Empirical,
    Exponential,
    McEstimate,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    cond_cdf_between,
    cond_cdf_given_leq,
    cond_pdf_between,
    joint_cdf_single,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
    mrl_summary,
)
from ordstat.cli import main
from ordstat.joint import window_slopes
from ordstat.oracle import first_observation_leq, order_stat_in_window, order_stat_leq

U_EDGES = [5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]
EMPIRICAL_VALUES = [1.0, 1.0, 2.0, 4.0]

# (model, the quantile as one numpy expression over an array u in (0, 1))
QUANTILES = [
    (Exponential(1.3), lambda u: -np.log1p(-u) / 1.3),
    (Weibull(0.5, 2.0), lambda u: 2.0 * (-np.log1p(-u)) ** (1.0 / 0.5)),
    (Weibull(2.0, 1.0), lambda u: 1.0 * (-np.log1p(-u)) ** (1.0 / 2.0)),
    (Weibull(1.5, 2.0), lambda u: 2.0 * (-np.log1p(-u)) ** (1.0 / 1.5)),
    (Uniform(0.5, 3.0), lambda u: 0.5 + u * (3.0 - 0.5)),
    (Empirical(EMPIRICAL_VALUES), lambda u: np.array(EMPIRICAL_VALUES)[
        np.clip(np.ceil(u * 4).astype(int) - 1, 0, 3)]),
]


@pytest.mark.parametrize("model,expression", QUANTILES, ids=[repr(m) for m, _ in QUANTILES])
def test_quantile_and_sample_match_the_plain_expression(model, expression):
    u = np.concatenate([U_EDGES, np.random.default_rng(3).random(10_000)])
    kept = u.copy()
    assert np.array_equal(model.quantile(u), expression(u))
    assert np.array_equal(u, kept)  # quantile leaves its argument alone
    drawn = np.random.default_rng(4).random((50, 40))
    drawn[drawn == 0.0] = np.nextafter(0.0, 1.0)
    assert np.array_equal(model.sample(np.random.default_rng(4), (50, 40)), expression(drawn))


# cfg (40, 35) at 60,000 replications spans two batches of at most 2**21 lifetimes
CFG = SystemConfig(40, 35)
REPS = 60_000
# counts of inspections 30..36 to find k = 30 failed components; the same
# under every continuous model, since the quantile is increasing
PMF_COUNTS = [1, 69, 479, 2704, 9633, 21792, 25322]

# model, (x, t1, t2), McEstimate of P{X_1 <= x | t1 <= X_(35:40) <= t2},
# McEstimate of E{X_1 | X_(35:40) <= t1}
EVENT_PINS = [
    (Exponential(1.3), (0.533, 1.41, 1.771),
     McEstimate(0.4871481991733911, REPS, 0.003135933853614541, 0.42341666666666666),
     McEstimate(0.678130428255589, REPS, 0.004499544674377121, 0.3656)),
    (Weibull(0.5, 2.0), (0.961, 6.717, 10.604),
     McEstimate(0.48714521581885367, REPS, 0.0031338986332164684, 0.42396666666666666),
     McEstimate(3.0548393255141475, REPS, 0.04811421540993852, 0.3653166666666667)),
    (Weibull(2.0, 1.0), (0.833, 1.354, 1.517),
     McEstimate(0.48762483716891014, REPS, 0.0031404626472366815, 0.4222166666666667),
     McEstimate(0.83697837299416, REPS, 0.002870965037135148, 0.36601666666666666)),
    (Uniform(0.5, 3.0), (1.75, 2.6, 2.75),
     McEstimate(0.4871663849691443, REPS, 0.0031337172637626435, 0.42401666666666665),
     McEstimate(1.6856711418761403, REPS, 0.0046656919278623265, 0.36528333333333335)),
]


@pytest.mark.parametrize("model,thresholds,prob,mean", EVENT_PINS,
                         ids=[repr(pin[0]) for pin in EVENT_PINS])
def test_monte_carlo_estimates_are_pinned(model, thresholds, prob, mean):
    x, t1, t2 = thresholds
    pmf = mc_inspection_pmf(CFG, model, 30, REPS, seed=11)
    assert list(pmf) == list(range(30, 37))
    assert [est.estimate for est in pmf.values()] == [c / REPS for c in PMF_COUNTS]
    assert pmf[33] == McEstimate(0.045066666666666665, REPS, 0.0008469126501812551)
    got = mc_event_prob(CFG, model, first_observation_leq(x), REPS, seed=12,
                        given=order_stat_in_window(CFG, Window(t1, t2)))
    assert got == prob
    got = mc_event_mean(CFG, model, lambda s, o: s[:, 0], REPS, seed=13,
                        given=order_stat_leq(CFG, t1))
    assert got == mean


def test_tied_lifetimes_leave_every_row_off_the_support():
    # with one value every lifetime ties the threshold, so no component
    # counts as failed and no row finds k of them
    cfg = SystemConfig(6, 4)
    estimates = mc_inspection_pmf(cfg, Empirical([1.0]), 2, 1000, seed=1)
    assert list(estimates) == list(cfg.detection_support(2))
    assert all(est.estimate == 0.0 for est in estimates.values())


LAW_CFG = SystemConfig(12, 5)
# per model and law: (the first 16 hex digits of the sha256 of the float64
# bytes of the 201-point grid, the value at the scalar x = grid[40]); then
# the window slopes and (phi, psi, truncation_bound) of mrl_summary
LAW_PINS = {
    Exponential(1.3): {
        "joint": ("f581b9a4e441eb49", 0.5441363129575483),
        "given_leq": ("7b713ab5795d3451", 0.7822906085313162),
        "between": ("fbe5a5d0790e2db8", 0.7262281083699502),
        "pdf_between": ("191bc09f85ec674c", 0.3565255793488012),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.4109213221433159, 0.4109213221433159, 4.941828395646741e-14),
    },
    Weibull(0.5, 2.0): {
        "joint": ("36c8eda99dd08e56", 0.6681158735064388),
        "given_leq": ("00ac39621e32e04c", 0.9605327944646108),
        "between": ("d8f569ba2e57d916", 0.9503917704432663),
        "pdf_between": ("c3a771308a1d0274", 0.004014595518090503),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.8278771932288649, 0.8278771932288649, 2.4886279103605874e-13),
    },
    Weibull(2.0, 1.0): {
        "joint": ("afd28d9778be9593", 0.19528111607453566),
        "given_leq": ("8441e8600e8cfce5", 0.28075057571197504),
        "between": ("6da1dac752c85d67", 0.1900888322314889),
        "pdf_between": ("207f62515b5e412f", 0.6279245425217589),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.3368640570723461, 0.3368640570723461, 6.011200399942163e-14),
    },
    Uniform(0.5, 3.0): {
        "joint": ("1f47df6730ead5df", 0.03219331601323302),
        "given_leq": ("65a6dfbae07d3af3", 0.04628349215979974),
        "between": ("6b246b01a86e2917", 0.031337335476303844),
        "pdf_between": ("37e6cac9498ca909", 0.3149480952392345),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.6705629355510785, 0.6705629355510785, 1.2028279857199007e-13),
    },
}


def _grid_digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("model", LAW_PINS, ids=repr)
def test_laws_are_pinned(model):
    pins = LAW_PINS[model]
    t = model.quantile(0.45)
    window = Window(model.quantile(0.3), model.quantile(0.8))
    xs = np.linspace(0.0, model.quantile(0.999), 201)
    laws = {
        "joint": lambda x: joint_cdf_single(LAW_CFG, model, x, t),
        "given_leq": lambda x: cond_cdf_given_leq(LAW_CFG, model, x, t),
        "between": lambda x: cond_cdf_between(LAW_CFG, model, x, window),
        "pdf_between": lambda x: cond_pdf_between(LAW_CFG, model, x, window),
    }
    for name, law in laws.items():
        digest, value = pins[name]
        assert _grid_digest(law(xs)) == digest, name
        assert law(float(xs[40])) == value, name
    assert window_slopes(LAW_CFG, model, window) == pins["slopes"]
    summary = mrl_summary(LAW_CFG, model, window)
    assert (summary.phi, summary.psi, summary.truncation_bound) == pins["mrl"]


# the two README simulate commands: sha256 of their stdout as CSV, then as JSON
README_SIMULATE_PINS = [
    ("simulate --target inspections --n 12 --r 5 --k 3 --model exp:1 --reps 1000000 --seed 1",
     "32223c9a930ce62c1e46aed43dff600cad93ebc1cd2369721068d60a329771b7",
     "bf656d63950375ebca6c8258e6999b6e8d4ad06790e66778c5f5e26ca6bcb1ee"),
    ("simulate --target event --n 10 --r 4 --model exp:1 --x 1.5 --t1 1 --t2 2 --reps 500000",
     "3a36be1b246c94b472fdee8599dfc663569539146cbba126cc835465fb5c4520",
     "a326adb87e4d2b08334ad40347461680849f54054e6d899bfbf5d9c38519a3b2"),
]


@pytest.mark.parametrize("command,csv_digest,json_digest", README_SIMULATE_PINS,
                         ids=["inspections", "event"])
def test_readme_simulate_output_is_pinned(capsys, monkeypatch, command, csv_digest, json_digest):
    monkeypatch.delenv("ORDSTAT_SEED", raising=False)  # the event command takes seed 0
    for extra, digest in (([], csv_digest), (["--format", "json"], json_digest)):
        assert main(command.split() + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
