"""Tests of the benchmark itself: seeded inputs, the checker, and span arithmetic.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "spec.json"), encoding="utf-8") as _handle:
    TOLERANCES = json.load(_handle)["tolerances"]


# --- the request generator ---------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_are_deterministic_per_seed(workload):
    first = workloads.requests(workload, 5)
    assert first == workloads.requests(workload, 5)
    assert first != workloads.requests(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_gets_the_same_sizes(workload):
    """The sizes n and ranks r that set a request's cost; an enumeration costs n! alike."""
    def sizes(seed):
        return sorted((req.get("n", 0), 0 if req["kind"] == "exhaustive" else req.get("r", 0))
                      for req in workloads.requests(workload, seed))

    assert sizes(5) == sizes(6)


def test_probes_are_deterministic_per_seed():
    assert workloads.laws_probes(3) == workloads.laws_probes(3)
    assert workloads.laws_probes(3) != workloads.laws_probes(4)


def test_windows_hold_the_order_statistic_with_the_drawn_probability():
    import random

    rng = random.Random(0)
    model = ("weibull", 2.0, 1.3)
    t1, t2 = workloads.os_window(rng, model, 40, 7, 0.05, 0.5)
    prob = ref.window_prob(40, 7, model, t1, t2)
    assert 0.05 * (1 - 1e-9) <= prob <= 0.5 * (1 + 1e-9)


# --- the timed loop ----------------------------------------------------------


def test_timed_loop_runs_every_request_and_flags_a_changed_output():
    import worker

    calls = []

    def send(request_id, req):
        calls.append(req["n"])
        return 0.25 if req["n"] == 2 and calls.count(2) == 2 else 0.5

    reqs = [{"kind": "order_stat_cdf", "n": n} for n in range(4)]
    stats, records, _ = worker.run_timed(reqs, send, seconds=0.0)
    assert records == []
    assert all(entry["runs"] >= worker.MIN_RUNS for entry in stats)
    assert [entry["differ"] for entry in stats] == [0, 0, 1, 0]
    assert all(entry["out"] == 0.5 and 0 < entry["best"] < 1 for entry in stats)


# --- the checker -------------------------------------------------------------


def _grid_request():
    model = ("exp", 1.3)
    return {"kind": "grid", "law": "between", "n": 25, "r": 6, "model": model,
            "xs": workloads.x_grid(model),
            "window": (workloads.os_quantile(model, 25, 6, 0.3),
                       workloads.os_quantile(model, 25, 6, 0.6))}


def test_checker_accepts_the_reference_and_flags_a_perturbed_value():
    req = _grid_request()
    values = [float(v) for v in ref.law_grid(req["n"], req["r"], req["model"], req["xs"],
                                             req["law"], window=req["window"])]
    assert checks.Checker(TOLERANCES).check(0, req, tuple(values)) is None
    values[100] += 1e-9
    assert checks.Checker(TOLERANCES).check(0, req, tuple(values)) is not None


def test_checker_flags_a_rare_event_reported_as_zero():
    req = {"kind": "window_prob", "n": 20, "r": 2, "model": ("exp", 1.0), "window": (3.0, 3.5)}
    exact = ref.window_prob(20, 2, ("exp", 1.0), 3.0, 3.5)
    assert 3.3e-24 < exact < 3.4e-24
    assert checks.Checker(TOLERANCES).check(0, req, exact) is None
    assert checks.Checker(TOLERANCES).check(0, req, 0.0) is not None


def test_checker_flags_a_wrong_fraction():
    req = {"kind": "expected", "n": 12, "r": 7, "k": 2}
    support, probs = ref.inspection_pmf(12, 7, 2)
    assert ref.expected_inspections(12, 7, 2) == Fraction(26, 7)
    checker = checks.Checker(TOLERANCES)
    assert checker.check(0, req, (support, probs, Fraction(26, 7))) is None
    assert checker.check(0, req, (support, probs, Fraction(26, 7) + Fraction(1, 10**30))) \
        is not None
    tiny = Fraction(1, 10**40)
    wrong = (probs[0] + tiny, probs[1] - tiny) + probs[2:]
    assert checker.check(0, req, (support, wrong, Fraction(26, 7))) is not None


def test_checker_flags_a_wrong_cli_numerator():
    support, probs = ref.inspection_pmf(12, 5, 3)
    rows = ["m,prob_numerator,prob_denominator,prob_decimal"]
    rows += [f"{m},{p.numerator},{p.denominator},{float(p):.6f}" for m, p in zip(support, probs)]
    req = {"kind": "cli", "check": {"sub": "inspections", "n": 12, "r": 5, "k": 3,
                                    "format": "csv"}}
    checker = checks.Checker(TOLERANCES)
    assert checker.check(0, req, (0, "\n".join(rows) + "\n", "")) is None
    rows[1] = rows[1].replace(f",{probs[0].numerator},", f",{probs[0].numerator + 1},", 1)
    assert checker.check(0, req, (0, "\n".join(rows) + "\n", "")) is not None


def test_checker_flags_a_monte_carlo_estimate_far_from_the_exact_pmf():
    support, probs = ref.inspection_pmf(15, 6, 2)
    reps = 1 << 15
    req = {"kind": "mc_pmf", "n": 15, "r": 6, "k": 2, "reps": reps}
    out = {m: (float(p), reps, 0.0) for m, p in zip(support, probs)}
    assert checks.Checker(TOLERANCES).check(0, req, out) is None
    m = support[1]
    p = float(probs[1])
    out[m] = (p + 7 * (p * (1 - p) / reps) ** 0.5, reps, 0.0)
    assert checks.Checker(TOLERANCES).check(0, req, out) is not None


def test_checker_keeps_rare_monte_carlo_counts():
    # three hits where 0.08 are expected: unlikely (p ~ 2e-4), but no 6-sigma event
    checker = checks.Checker(TOLERANCES)
    assert checker._frequency(3 / 32768, 32768, 2.42e-6) is None
    assert checker._frequency(12 / 32768, 32768, 2.42e-6) is not None


# --- span arithmetic ---------------------------------------------------------


def _tree():
    tracer = spans.Tracer()
    root = tracer.add(spans.REQUEST, -1, 0, 0.0, 10.0)
    grid = tracer.add("joint.eval_grid", root, 0, 1.0, 8.0, count=(201, 0))
    tracer.add("special.binom_tail", grid, 0, 2.0, 4.0)
    tracer.add("special.binom_tail", grid, 0, 5.0, 5.5, error=True)
    tracer.add("lifetimes.cdf", grid, 0, 6.0, 7.0)
    tracer.add("lifetimes.cdf", root, 0, 8.5, 9.0)
    return tracer


def test_self_time_subtracts_child_spans():
    tracer = _tree()
    assert spans.self_times(tracer.spans) == pytest.approx([2.5, 3.5, 2.0, 0.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    tracer = spans.Tracer()
    root = tracer.add("joint.eval_grid", -1, 0, 0.0, 10.0)
    tracer.add("special.binom_tail", root, 0, 1.0, 4.0)
    tracer.add("special.binom_tail", root, 0, 3.0, 6.0)
    tracer.add("special.binom_tail", root, 0, 9.0, 12.0)
    assert spans.self_times(tracer.spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_accounts_for_the_request_wall_time():
    tracer = _tree()
    summary = spans.summarize(tracer.names, tracer.spans)
    assert summary["_totals"] == {"requests": 1, "request_ms": 10_000.0, "pdf_under_mrl": 0}
    assert summary["special.binom_tail"]["calls"] == 2
    assert summary["special.binom_tail"]["errors"] == 1
    assert summary["joint.eval_grid"]["count"] == 201
    layers = sum(summary[name]["self_ms"] for name in ("special", "joint", "lifetimes"))
    assert layers + summary[spans.REQUEST]["self_ms"] == pytest.approx(10_000.0)


def test_wrapper_folds_same_layer_calls_and_records_errors():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    wrapped_inner = tracer.wrap("joint", "inner", inner)
    outer = tracer.wrap("joint", "outer", lambda x: wrapped_inner(x) + 1)
    root = tracer.begin_request(0)
    assert outer(1) == 2
    with pytest.raises(ValueError):
        outer(-1)
    tracer.end_request(root, error=True)
    names = [tracer.names[int(tracer.spans[i * spans.NFIELDS])]
             for i in range(len(tracer.spans) // spans.NFIELDS)]
    assert names == [spans.REQUEST, "joint.outer", "joint.outer"]
    assert [tracer.spans[i * spans.NFIELDS + 5] for i in range(3)] == [1.0, 0.0, 1.0]
