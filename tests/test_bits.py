"""Bit-for-bit pins of the sampling path, of the laws and of the README simulations.

The Monte-Carlo values below were recorded from the plain-expression
implementation of the quantiles and of the detection count; each in-place
rewrite of those paths must reproduce them exactly, not just closely.  The
law values were recorded from the implementation that evaluated F afresh
in every helper, before each public law computed F once per time; those of
``order_stat_cdf``, ``window_prob``, ``joint_cdf_multi`` and the pair laws
from the implementation in which ``binom_tail`` made its own betainc call
and ``_joint_prob`` clamped its tail indices, before every tail came from
``special._tails``.  The
digests of the README ``simulate`` output were recorded from the
implementation that drew each batch of up to 2**21 lifetimes as one array,
before the simulation worked in cache-sized blocks; those of the other README
commands from the implementation that checked real arguments by hand, before
``errors._real`` and ``_reals``.  The digest of the exact inspection laws was
recorded from the implementation that brought each pmf over the lcm of its
denominators, once to check it and again for its mean, before the pmf kept
integer weights.  The digest of the threshold law and the three pair laws
was recorded from the implementation in which ``_joint_prob`` took the
event X_{1:n} > t from lower binomial tails in 1 - F(t), behind a mode of
its own, before the pair law given the minimum became the law given the
maximum of the masses above t.  The digest of ``mc_event_prob`` and
``mc_event_mean`` was recorded from the implementation in which each ran
its own loop over the blocks, before the probability became the mean of
its event's indicator.
"""

import hashlib
import pickle
from pathlib import Path

import numpy as np
import pytest

from ordstat import (
    Empirical,
    Exponential,
    McEstimate,
    OrdstatError,
    SystemConfig,
    Uniform,
    Weibull,
    Window,
    cond_cdf_between,
    cond_cdf_given_leq,
    cond_pdf_between,
    expected_inspections,
    inspection_pmf,
    joint_cdf_multi,
    joint_cdf_single,
    mc_event_mean,
    mc_event_prob,
    mc_inspection_pmf,
    mrl_summary,
    oracle,
    order_stat_cdf,
    pair_cond_joint_cdf,
    window_prob,
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


# a light-tailed, a heavy-tailed and a bounded model, and one with tied values
MC_MODELS = [Exponential(1.0), Weibull(0.5, 2.0), Uniform(0.5, 3.0), Empirical(EMPIRICAL_VALUES)]


def _estimate_or_error(call):
    try:
        est = call()
    except OrdstatError as exc:
        return type(exc).__name__, str(exc)
    return est.estimate, est.replications, est.std_error, est.conditioned_fraction


def test_event_estimators_are_pinned(monkeypatch):
    # with batches of 600 lifetimes, 3,000 replications span 5 batches at
    # n = 1 and 1,000 at n = 200; a window of one replication may keep none
    estimates = []
    for batch, reps in ((None, 1), (None, 2048), (600, 3000)):
        if batch is not None:
            monkeypatch.setattr(oracle, "_BATCH_ELEMENTS", batch)
        for n in (1, 2, 12, 200):
            cfg = SystemConfig(n, (n + 2) // 3)
            q = cfg.r / (n + 1)
            for model in MC_MODELS:
                lo, hi = (float(model.quantile(min(max(q + d, 0.0), 1.0))) for d in (-0.05, 0.05))
                window = Window(lo, max(hi, lo + 0.5))  # tied quantiles may coincide
                event = first_observation_leq(float(model.quantile(0.5)))
                for given in (None, order_stat_in_window(cfg, window)):
                    seed = len(estimates)
                    estimates.append(_estimate_or_error(
                        lambda: mc_event_prob(cfg, model, event, reps, seed, given=given)))
                    estimates.append(_estimate_or_error(lambda: mc_event_mean(
                        cfg, model, lambda s, o: s[:, 0], reps, seed, given=given)))
    digest = hashlib.sha256(pickle.dumps(estimates, protocol=4)).hexdigest()
    assert (len(estimates), digest[:16]) == (192, "ecc508a9f45120ce")


LAW_CFG = SystemConfig(12, 5)
# per model and law: (the first 16 hex digits of the sha256 of the float64
# bytes of the 201-point grid, the value at the scalar x = grid[40]); then
# the window slopes and (phi, psi, truncation_bound) of mrl_summary; then
# order_stat_cdf (the digest over the grid, one scalar call per point, and
# the value at t), window_prob, joint_cdf_multi at three x_i, one of them
# above t, and pair_cond_joint_cdf for max_leq, min_leq and min_gt
LAW_PINS = {
    Exponential(1.3): {
        "joint": ("f581b9a4e441eb49", 0.5441363129575483),
        "given_leq": ("7b713ab5795d3451", 0.7822906085313162),
        "between": ("fbe5a5d0790e2db8", 0.7262281083699502),
        "pdf_between": ("191bc09f85ec674c", 0.3565255793488012),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.4109213221433159, 0.4109213221433159, 4.941828395646741e-14),
        "order_stat_cdf": ("ee527cdb118a4d86", 0.6955679986739426),
        "window_prob": 0.7230742266500001,
        "multi": 0.051623303188218755,
        "pairs": (0.4444444444444445, 0.1401073527567576, 0.3719008264462807),
    },
    Weibull(0.5, 2.0): {
        "joint": ("36c8eda99dd08e56", 0.6681158735064388),
        "given_leq": ("00ac39621e32e04c", 0.9605327944646108),
        "between": ("d8f569ba2e57d916", 0.9503917704432663),
        "pdf_between": ("c3a771308a1d0274", 0.004014595518090503),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.8278771932288649, 0.8278771932288649, 2.4886279103605874e-13),
        "order_stat_cdf": ("0c912e0133399a43", 0.6955679986739426),
        "window_prob": 0.7230742266500001,
        "multi": 0.051623303188218755,
        "pairs": (0.4444444444444445, 0.1401073527567576, 0.3719008264462807),
    },
    Weibull(2.0, 1.0): {
        "joint": ("afd28d9778be9593", 0.19528111607453566),
        "given_leq": ("8441e8600e8cfce5", 0.28075057571197504),
        "between": ("6da1dac752c85d67", 0.1900888322314889),
        "pdf_between": ("207f62515b5e412f", 0.6279245425217589),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.3368640570723461, 0.3368640570723461, 6.011200399942163e-14),
        "order_stat_cdf": ("0c7470513487524d", 0.6955679986739426),
        "window_prob": 0.7230742266500001,
        "multi": 0.051623303188218755,
        "pairs": (0.4444444444444445, 0.1401073527567576, 0.3719008264462807),
    },
    Uniform(0.5, 3.0): {
        "joint": ("1f47df6730ead5df", 0.03219331601323302),
        "given_leq": ("65a6dfbae07d3af3", 0.04628349215979974),
        "between": ("6b246b01a86e2917", 0.031337335476303844),
        "pdf_between": ("37e6cac9498ca909", 0.3149480952392345),
        "slopes": (0.7873702380980863, 1.0918106894192119, 1.089417919304841),
        "mrl": (-0.6705629355510785, 0.6705629355510785, 1.2028279857199007e-13),
        "order_stat_cdf": ("d9a21d558325e330", 0.6955679986739426),
        "window_prob": 0.7230742266500001,
        "multi": 0.051623303188218755,
        "pairs": (0.4444444444444445, 0.1401073527567576, 0.3719008264462807),
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
    cdfs = [order_stat_cdf(LAW_CFG, model, x) for x in xs.tolist()]
    assert (_grid_digest(cdfs), order_stat_cdf(LAW_CFG, model, t)) == pins["order_stat_cdf"]
    assert window_prob(LAW_CFG, model, window) == pins["window_prob"]
    lo, mid, hi, top = (model.quantile(q) for q in (0.2, 0.4, 0.7, 0.9))
    assert joint_cdf_multi(LAW_CFG, model, [lo, mid, hi], t) == pins["multi"]
    pairs = (pair_cond_joint_cdf(LAW_CFG, model, lo, hi, t, "max_leq"),
             pair_cond_joint_cdf(LAW_CFG, model, lo, hi, t, "min_leq"),
             pair_cond_joint_cdf(LAW_CFG, model, hi, top, t, "min_gt"))
    assert pairs == pins["pairs"]


# the four pinned models and an empirical one; n = 2 puts the event given the
# minimum at the full-tail convention, with n - 2 = 0 other components
SWEEP_MODELS = [*LAW_PINS, Empirical([0.3, 0.7, 0.7, 1.1, 1.2, 1.6, 2.0, 2.6, 2.6, 3.1, 4.0, 5.5])]


def test_threshold_and_pair_laws_are_pinned():
    rng = np.random.default_rng(24)
    laws = []
    for model in SWEEP_MODELS:
        for n in range(2, 61):
            for q in (0.05, 0.3, 0.6, 0.9):
                t = float(model.quantile(q))
                below, above = t * rng.uniform(0.0, 1.0), t * rng.uniform(1.0, 3.0)
                xs = [below, t, above, np.inf]
                cfg = SystemConfig(n, int(rng.integers(1, n + 1)))
                laws.append(cond_cdf_given_leq(cfg, model, np.array(xs), t).tolist())
                laws.append(cond_cdf_given_leq(cfg, model, above, t))
                for conditioning in ("max_leq", "min_leq", "min_gt"):
                    for x1, x2 in ((below, above), (t, above), (above, above), (above, np.inf)):
                        laws.append(pair_cond_joint_cdf(cfg, model, x1, x2, t, conditioning))
    digest = hashlib.sha256(pickle.dumps(laws, protocol=4)).hexdigest()
    assert (len(laws), digest[:16]) == (16520, "b3e94355cfd6a4ce")


# every (n, r, k) with n < 60, then the largest system the benchmark reaches
# and two at n = 400, one with k = r - 1 and one with the longest support
INSPECTION_CASES = [(n, r, k) for n in range(2, 60) for r in range(2, n + 1) for k in range(1, r)]
INSPECTION_CASES += [(150, 40, 20), (400, 200, 199), (400, 3, 1)]


def test_inspection_laws_are_pinned():
    laws = []
    for n, r, k in INSPECTION_CASES:
        pmf = inspection_pmf(SystemConfig(n, r), k)
        laws.append((pmf.support, pmf.probs, expected_inspections(pmf)))
    digest = hashlib.sha256(pickle.dumps(laws, protocol=4)).hexdigest()
    assert (len(laws), digest[:16]) == (34223, "5e3233916510a222")


# the two README simulate commands: sha256 of their stdout as CSV, then as JSON
README_SIMULATE_PINS = [
    ("simulate --target inspections --n 12 --r 5 --k 3 --model exp:1 --reps 1000000 --seed 1",
     "32223c9a930ce62c1e46aed43dff600cad93ebc1cd2369721068d60a329771b7",
     "bf656d63950375ebca6c8258e6999b6e8d4ad06790e66778c5f5e26ca6bcb1ee"),
    ("simulate --target event --n 10 --r 4 --model exp:1 --x 1.5 --t1 1 --t2 2 --reps 500000",
     "3a36be1b246c94b472fdee8599dfc663569539146cbba126cc835465fb5c4520",
     "a326adb87e4d2b08334ad40347461680849f54054e6d899bfbf5d9c38519a3b2"),
]


# every other README command, likewise
README_PINS = [
    ("inspections --n 12 --r 5 --k 3",
     "24d8b9efee2dfb906caa443be533c8c6267f96ac4f58a72a36a834bfac3a0042",
     "5e8dc9cdefcfa8c0b51fc3d06e0088374d508fe24dc464b55a94e051b216c61c"),
    ("inspections --n 12 --r 7 --k 2 --expected",
     "6ded43fffe5f9a7875ec4ef9884486784e96a793f8e246c6871ad5b6fa65fc61",
     "0e665ded4f4009c658d30667a9eeb84925aab8df6d470518dc957af97f87a469"),
    ("joint-cdf --n 15 --r 7 --model exp:1 --t 2 --x-grid 0:6:0.05",
     "4c3750b447f767561a93852515e0ba74e8e2796e39a76be26df80534de19996a",
     "8a3bf9f793d506ae1e83cc739c3ce96e574156161dc80d7c44fd00c782fa4f12"),
    ("joint-cdf --n 15 --r 7 --model exp:1 --t-grid 0.5:4:0.5",
     "6d2f0b586563e88de6475411ce549ebbd7594ae692ba246a423cab77ad59f106",
     "eee176b8a68557c8b35c8c59d35d416c61ede4f325f65ad1d319ca67d82096aa"),
    ("cond-cdf --n 10 --r 4 --model exp:1 --t 2",
     "ad7aabe3c9a187d0de0f88ab82ef0e02321ea8d7750d9282f910a70dfe8122cf",
     "06f030a3a6cfbe1405a7bcc016957e5c62c6ef780c639a03299f8849f65bdf4c"),
    ("cond-cdf --n 10 --r 4 --model exp:1 --t1 1 --t2 2",
     "6415e3d50bfe6e4107b8670c1e6eac0157a6275380125fefece9f3989d5a44d7",
     "f7c73af15c3b94a527353d6672a6dd5ae28cb53ca7808332fa9e322142b2a8a7"),
    ("cond-cdf --n 10 --r 4 --model exp:1 --at 2",
     "7b08faa4da513b76cace34ab42d18156fdc402c0abd5479df31db60956048ba0",
     "23cea2daabf7ae842fa2929a46502063a4ba5543764b36dc5880184cf873e4ef"),
    ("mrl --n 10 --r 4 --model exp:1 --t1 1 --t2 2",
     "b2f0baaade066f87eb3ecf0ada3b91f68e61336dcafb057146164344122dd4cd",
     "a45ad166f298499dd93cca4370afb4a848120794307ba7d63e7781a6f4af3dd5"),
]


def _assert_stdout_is_pinned(capsys, command, csv_digest, json_digest):
    for extra, digest in (([], csv_digest), (["--format", "json"], json_digest)):
        assert main(command.split() + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,csv_digest,json_digest", README_SIMULATE_PINS,
                         ids=["inspections", "event"])
def test_readme_simulate_output_is_pinned(capsys, monkeypatch, command, csv_digest, json_digest):
    monkeypatch.delenv("ORDSTAT_SEED", raising=False)  # the event command takes seed 0
    _assert_stdout_is_pinned(capsys, command, csv_digest, json_digest)


@pytest.mark.parametrize("command,csv_digest,json_digest", README_PINS,
                         ids=[pin[0] for pin in README_PINS])
def test_readme_output_is_pinned(capsys, command, csv_digest, json_digest):
    _assert_stdout_is_pinned(capsys, command, csv_digest, json_digest)


def test_every_readme_command_is_pinned():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = [line.split("#")[0].strip().removeprefix("ordstat ")
                for line in readme.splitlines() if line.startswith("ordstat ")]
    assert commands == [pin[0] for pin in README_PINS + README_SIMULATE_PINS]
