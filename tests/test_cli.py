import json

import pytest

from ordstat import (
    __version__,
    Exponential,
    SystemConfig,
    Window,
    eval_grid,
    mrl_summary,
    parse_model,
)
from ordstat.cli import DomainError, main, parse_grid
from ordstat.oracle import first_observation_leq, mc_event_prob, order_stat_leq


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspections_table_matches_reference_rows(capsys):
    code, out, err = run_cli(capsys, "inspections", "--n", "12", "--r", "5", "--k", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "m,prob_numerator,prob_denominator,prob_decimal"
    assert lines[1] == "3,1,55,0.018182"
    assert lines[-1] == "11,1,11,0.090909"
    assert len(lines) == 10


def test_inspections_json_carries_exact_fractions(capsys):
    code, out, _ = run_cli(
        capsys, "inspections", "--n", "12", "--r", "7", "--k", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["data"][0] == {
        "m": 2, "prob_numerator": 5, "prob_denominator": 22, "prob_decimal": "0.227273",
    }


@pytest.mark.parametrize(
    "argv,seed,inputs",
    [
        (["inspections", "--n", "12", "--r", "7", "--k", "2", "--expected"], None,
         {"n": 12, "r": 7, "k": 2, "expected": True}),
        (["inspections", "--n", "12", "--r", "7", "--k", "2"], None, {"n": 12, "r": 7, "k": 2}),
        (["joint-cdf", "--n", "4", "--r", "2", "--model", "exp:1", "--t-grid", "1:2:1",
          "--x-grid", "0:1:0.5"], None,
         {"n": 4, "r": 2, "model": "exp:1", "t_grid": "1:2:1", "x_grid": "0:1:0.5"}),
        (["cond-cdf", "--n", "4", "--r", "2", "--model", "exp:1", "--t1", "0.5", "--t2", "1"],
         None, {"n": 4, "r": 2, "model": "exp:1", "t1": 0.5, "t2": 1.0}),
        (["mrl", "--n", "10", "--r", "4", "--model", "exp:1", "--t1", "1", "--t2", "2"], None,
         {"n": 10, "r": 4, "model": "exp:1", "t1": 1.0, "t2": 2.0}),
        (["simulate", "--target", "event", "--n", "5", "--r", "2", "--model", "exp:1",
          "--x", "1", "--t", "1", "--seed", "13"], 13,
         {"n": 5, "r": 2, "model": "exp:1", "target": "event", "x": 1.0, "t": 1.0,
          "reps": 100_000}),
    ],
    ids=["expected", "inspections", "joint-cdf", "cond-cdf", "mrl", "simulate"],
)
def test_json_meta_holds_exactly_the_given_inputs(capsys, tmp_path, argv, seed, inputs):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *argv, "--format", "json", "--output", str(path))
    assert code == 0
    meta = json.loads(path.read_text())["meta"]
    assert meta == {"command": argv[0], "version": __version__, "seed": seed, **inputs}


def test_expected_inspections_report(capsys):
    code, out, _ = run_cli(capsys, "inspections", "--n", "12", "--r", "7", "--k", "2", "--expected")
    assert code == 0
    assert "26/7,3.714286" in out


def test_exact_time_grid_shows_jump_of_one_over_n(capsys):
    code, out, _ = run_cli(
        capsys, "cond-cdf", "--n", "10", "--r", "4", "--model", "exp:1",
        "--at", "2", "--x-grid", "0:6:0.01",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    values = [float(v) for _, v in rows]
    xs = [float(x) for x, _ in rows]
    steps = [b - a for a, b in zip(values, values[1:])]
    biggest = max(steps)
    where = xs[steps.index(biggest) + 1]
    assert abs(where - 2.0) <= 0.011
    assert abs(biggest - 0.1) < 0.005


def test_first_failure_law_at_time_zero(capsys):
    code, out, err = run_cli(
        capsys, "cond-cdf", "--n", "5", "--r", "1", "--model", "exp:1", "--at", "0",
        "--x-grid", "0:1:0.5",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["x,value", "0.000000,0.200000", "0.500000,0.514775",
                                "1.000000,0.705696"]


def test_json_output_round_trips_byte_identically(capsys):
    for argv in [
        ["inspections", "--n", "12", "--r", "5", "--k", "3", "--format", "json"],
        ["cond-cdf", "--n", "6", "--r", "3", "--model", "exp:1", "--t", "1.5",
         "--x-grid", "0:3:0.5", "--format", "json"],
        ["mrl", "--n", "10", "--r", "4", "--model", "exp:1", "--t1", "1", "--t2", "2",
         "--format", "json"],
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "data"}
        assert doc["meta"]["version"]
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_csv_grid_matches_library_values(capsys):
    code, out, _ = run_cli(
        capsys, "cond-cdf", "--n", "6", "--r", "3", "--model", "weibull:2,1",
        "--t", "1.0", "--x-grid", "0:2:0.25",
    )
    assert code == 0
    cfg = SystemConfig(6, 3)
    model = parse_model("weibull:2,1")
    grid = eval_grid(cfg, model, parse_grid("0:2:0.25"), "given_leq", t=1.0)
    got = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert got == [f"{v:.6f}" for v in grid.values]


def test_joint_surface_emits_t_column(capsys):
    code, out, _ = run_cli(
        capsys, "joint-cdf", "--n", "4", "--r", "2", "--model", "exp:1",
        "--t-grid", "0.5:1.5:0.5", "--x-grid", "0:1:0.5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 3 * 3


def test_default_x_grid_has_two_hundred_one_points(capsys):
    code, out, _ = run_cli(
        capsys, "joint-cdf", "--n", "4", "--r", "2", "--model", "exp:1", "--t", "1.0"
    )
    assert code == 0
    assert len(out.splitlines()) == 202


def test_mrl_row_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "mrl", "--n", "10", "--r", "4", "--model", "exp:1", "--t1", "1", "--t2", "2"
    )
    assert code == 0
    summary = mrl_summary(SystemConfig(10, 4), Exponential(1.0), Window(1.0, 2.0))
    row = out.splitlines()[1].split(",")
    assert row[2] == f"{summary.phi:.6f}"
    assert row[3] == f"{summary.psi:.6f}"


def test_simulate_event_matches_library_estimate(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--target", "event", "--n", "15", "--r", "7",
        "--model", "exp:1", "--x", "1", "--t", "2", "--reps", "50000", "--seed", "99",
    )
    assert code == 0
    cfg = SystemConfig(15, 7)
    model = Exponential(1.0)
    event = first_observation_leq(1.0)
    stat = order_stat_leq(cfg, 2.0)
    est = mc_event_prob(cfg, model, lambda s, o: event(s, o) & stat(s, o), 50000, 99)
    assert out.splitlines()[1].split(",")[0] == f"{est.estimate:.6f}"


def test_simulate_is_deterministic_per_seed(capsys):
    argv = ["simulate", "--target", "inspections", "--n", "6", "--r", "4", "--k", "2",
            "--model", "exp:1", "--reps", "20000", "--seed", "5"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_simulate_seed_env_var_default(capsys, monkeypatch):
    argv = ["simulate", "--target", "event", "--n", "5", "--r", "2", "--model", "exp:1",
            "--x", "1", "--t", "1", "--reps", "10000"]
    monkeypatch.setenv("ORDSTAT_SEED", "77")
    _, from_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("ORDSTAT_SEED")
    _, explicit, _ = run_cli(capsys, *(argv + ["--seed", "77"]))
    assert json.dumps(from_env) != ""
    assert from_env.splitlines()[1] == explicit.splitlines()[1]


def test_simulate_json_meta_records_seed(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--target", "event", "--n", "5", "--r", "2", "--model", "exp:1",
        "--x", "1", "--t", "1", "--reps", "1000", "--seed", "13", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 13


def test_output_written_to_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "inspections", "--n", "12", "--r", "5", "--k", "3", "--output", str(path)
    )
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("m,prob_numerator")
    assert "\r" not in text


def test_domain_error_exits_two_with_diagnostic(capsys):
    code, out, err = run_cli(capsys, "inspections", "--n", "3", "--r", "5", "--k", "1")
    assert code == 2 and out == ""
    assert "r must satisfy 1 <= r <= n" in err


def test_invalid_model_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "cond-cdf", "--n", "4", "--r", "2", "--model", "gauss:1", "--t", "1"
    )
    assert code == 2
    assert "unknown model kind" in err


def test_conflicting_cond_modes_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "cond-cdf", "--n", "4", "--r", "2", "--model", "exp:1",
        "--t", "1", "--at", "1",
    )
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize(
    "thresholds",
    [
        ["--t", "0.5", "--t1", "1", "--t2", "2"],
        ["--t", "0.5", "--t1", "1"],
        ["--t", "0.5", "--t2", "2"],
    ],
    ids=["t-and-window", "t-and-t1", "t-and-t2"],
)
def test_simulate_event_rejects_mixed_thresholds(capsys, thresholds):
    code, out, err = run_cli(
        capsys, "simulate", "--target", "event", "--n", "10", "--r", "4", "--model", "exp:1",
        "--x", "1.5", *thresholds, "--reps", "1000", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: simulate --target event needs exactly one of --t or --t1/--t2\n"


@pytest.mark.parametrize(
    "extra", [["--x", "1"], ["--t", "1"], ["--t1", "0.5"], ["--t2", "2"]],
    ids=["x", "t", "t1", "t2"],
)
def test_simulate_inspections_rejects_event_inputs(capsys, extra):
    code, out, err = run_cli(
        capsys, "simulate", "--target", "inspections", "--n", "6", "--r", "4", "--k", "2",
        "--model", "exp:1", *extra, "--reps", "100", "--seed", "2",
    )
    assert code == 2 and out == ""
    assert err == "error: simulate --target inspections takes no --x, --t, --t1 or --t2\n"


def test_simulate_event_rejects_k(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--target", "event", "--n", "5", "--r", "2", "--k", "1",
        "--model", "exp:1", "--x", "1", "--t", "1", "--reps", "100", "--seed", "2",
    )
    assert code == 2 and out == ""
    assert err == "error: simulate --target event takes no --k\n"


@pytest.mark.parametrize(
    "given", [[], ["--t", "2", "--t-grid", "0.5:1:0.5"]], ids=["neither", "both"]
)
def test_joint_cdf_needs_exactly_one_of_t_or_t_grid(capsys, given):
    code, out, err = run_cli(
        capsys, "joint-cdf", "--n", "5", "--r", "2", "--model", "exp:1", *given,
        "--x-grid", "0:1:0.5", "--format", "json",
    )
    assert code == 2 and out == ""
    assert err == "error: joint-cdf needs exactly one of --t or --t-grid\n"


@pytest.mark.parametrize("flag", ["--x", "--t"])
def test_simulate_nan_threshold_exits_two(capsys, flag):
    argv = ["simulate", "--target", "event", "--n", "5", "--r", "2", "--model", "exp:1",
            "--x", "1", "--t", "1", "--reps", "100"]
    argv[argv.index(flag) + 1] = "nan"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be a nonnegative time" in err


@pytest.mark.parametrize("env,flag", [("abc", None), ("1.5", None), (None, "-1")])
def test_bad_seed_exits_two(capsys, monkeypatch, env, flag):
    argv = ["simulate", "--target", "event", "--n", "5", "--r", "2", "--model", "exp:1",
            "--x", "1", "--t", "1", "--reps", "100"]
    if env is not None:
        monkeypatch.setenv("ORDSTAT_SEED", env)
    if flag is not None:
        argv += ["--seed", flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "seed must be a nonnegative integer" in err


def test_large_system_exits_zero(capsys):
    for argv in [
        ["mrl", "--n", "2000", "--r", "1000", "--model", "exp:1", "--t1", "0.69", "--t2", "0.7"],
        ["joint-cdf", "--n", "2000", "--r", "1000", "--model", "exp:1", "--t", "0.7"],
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""


def test_overflowing_weibull_exponent_prints_no_warning(capsys):
    for argv in [
        ["cond-cdf", "--n", "5", "--r", "2", "--model", "weibull:3,1", "--t", "1e200",
         "--x-grid", "0:1:1"],
        ["mrl", "--n", "5", "--r", "2", "--model", "weibull:3,1", "--t1", "1", "--t2", "1e200"],
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cond-cdf", "--model", "weibull:0.001,1", "--t", "1"],
        ["simulate", "--target", "event", "--model", "weibull:0.001,1", "--x", "1", "--t", "1",
         "--reps", "1000", "--seed", "1"],
    ],
    ids=["cond-cdf", "simulate"],
)
def test_too_small_weibull_shape_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--n", "5", "--r", "2", *argv[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Warning" not in err
    assert "shape must be a finite number >= 0.01" in err


@pytest.mark.parametrize(
    "model,t", [("weibull:0.02,1e300", "1e300"), ("exp:1e-308", "1")], ids=["weibull", "exp"],
)
def test_default_grid_beyond_the_largest_float_exits_two(capsys, model, t):
    # warnings are errors here
    code, out, err = run_cli(capsys, "cond-cdf", "--n", "5", "--r", "2", "--model", model, "--t", t)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Warning" not in err and "--x-grid" in err


def test_simulate_takes_an_empirical_model(capsys, tmp_path):
    path = tmp_path / "values.csv"
    path.write_text("".join(f"{v}\n" for v in range(1, 1001)))
    code, out, err = run_cli(
        capsys, "simulate", "--target", "inspections", "--n", "6", "--r", "4", "--k", "2",
        "--model", f"empirical:@{path}", "--reps", "1000", "--seed", "1",
    )
    assert code == 0 and err == ""
    assert [line.split(",")[0] for line in out.splitlines()] == ["m", "2", "3", "4", "5"]


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run_cli(capsys, "inspections", "--n", "12", "--r", "5", "--k", "3", "--bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["cond-cdf", "--n", "5", "--r", "2", "--model", "exp:1", "--t", "abc"], "'abc'"),
        (["bogus"], "'bogus'"),
        ([], "command"),
        (["cond-cdf", "--r", "2", "--model", "exp:1", "--t", "1"], "--n"),
        (["inspections", "--n", "12", "--r", "5", "--k", "3", "--bogus"], "--bogus"),
    ],
    ids=["bad-float", "unknown-command", "no-command", "missing-n", "unknown-flag"],
)
def test_argument_errors_print_one_line(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv", [["--help"], ["cond-cdf", "--help"]], ids=["top", "cond-cdf"])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("usage: ordstat") and err == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cond-cdf", "--model", "exp:1", "--t1", "1", "--x-grid", "0:1:1"],
         "cond-cdf needs exactly one of --t, --t1/--t2, or --at"),
        (["cond-cdf", "--model", "exp:1", "--t2", "2", "--at", "1", "--x-grid", "0:1:1"],
         "cond-cdf needs exactly one of --t, --t1/--t2, or --at"),
        (["simulate", "--target", "event", "--model", "exp:1", "--x", "1", "--t1", "1"],
         "simulate --target event needs exactly one of --t or --t1/--t2"),
        (["simulate", "--target", "event", "--model", "exp:1", "--x", "1"],
         "simulate --target event needs exactly one of --t or --t1/--t2"),
        (["simulate", "--target", "inspections", "--model", "exp:1"],
         "simulate --target inspections needs --k"),
        (["simulate", "--target", "event", "--model", "exp:1", "--t", "1"],
         "simulate --target event needs --x"),
    ],
    ids=["cond-t1", "cond-t2-at", "event-t1", "event-none", "inspections-no-k", "event-no-x"],
)
def test_incomplete_modes_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--n", "5", "--r", "2", *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _no_constant(name):
    raise AssertionError(f"not strict JSON: {name}")


@pytest.mark.parametrize(
    "argv,key",
    [
        (["cond-cdf", "--model", "exp:1", "--t", "inf", "--x-grid", "0:1:0.5"], "t"),
        (["simulate", "--target", "event", "--model", "exp:1", "--x", "inf", "--t", "1",
          "--reps", "100"], "x"),
    ],
    ids=["cond-cdf", "simulate"],
)
def test_json_echoes_an_infinite_input_as_a_string(capsys, argv, key):
    code, out, _ = run_cli(capsys, argv[0], "--n", "5", "--r", "2", *argv[1:], "--format", "json")
    assert code == 0
    assert json.loads(out, parse_constant=_no_constant)["meta"][key] == "inf"


def test_empirical_file_with_a_bad_line_exits_two(capsys, tmp_path):
    path = tmp_path / "values.csv"
    path.write_text("1.5\nabc\n2.0\n")
    code, out, err = run_cli(
        capsys, "cond-cdf", "--n", "5", "--r", "2", "--model", f"empirical:@{path}",
        "--t", "1", "--x-grid", "0:1:1",
    )
    assert code == 2 and out == ""
    assert err == f"error: {path}:2: not a number: 'abc'\n"


def test_unwritable_output_exits_three(capsys, tmp_path):
    missing_dir = tmp_path / "not" / "there" / "out.csv"
    code, _, err = run_cli(
        capsys, "inspections", "--n", "6", "--r", "4", "--k", "2",
        "--output", str(missing_dir),
    )
    assert code == 3
    assert "i/o error" in err


def test_grid_parsing_is_inclusive():
    assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_grid("2:2:1")[0] == 2.0
    with pytest.raises(DomainError):
        parse_grid("0:1")
    with pytest.raises(DomainError):
        parse_grid("1:0:0.1")
    with pytest.raises(DomainError):
        parse_grid("0:1:-0.5")
    assert len(parse_grid("0:999999:1")) == 1_000_000
    for spec in ["0:1:0", "0:1:nan", "nan:1:0.1", "0:inf:1", "-inf:0:1", "0:1:inf",
                 "0:1e9:1e-9", "0:1000000:1", "-1e308:1e308:1"]:
        with pytest.raises(DomainError):
            parse_grid(spec)
