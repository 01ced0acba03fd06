"""Command-line front end: every computation as a subcommand with CSV or
JSON output.

Subcommands
-----------
joint-cdf     joint CDF grid of one observation and the r-th order statistic
cond-cdf      conditional CDF grids (threshold, window, or exact failure time)
inspections   exact inspection-count pmf table, or its expected value
mrl           mean residual life / mean past for an inspection window
simulate      seeded Monte-Carlo estimates for events or inspection counts

Output is CSV by default or JSON with ``--format json``: a single object
with ``meta`` (the command, the package version, the seed, or null where
none applies, and every input given on the command line) and a ``data``
array.  Exact probabilities carry numerator and denominator fields next to
a fixed six-place decimal, so tables can be checked without parsing
decimals.  Grids use the inclusive ``start:stop:step`` syntax with finite
fields and at most ``MAX_GRID_POINTS`` points; when ``--x-grid`` is omitted
the grid spans [0, quantile(0.999)], which must be finite.

Exit codes: 0 success, 2 argument or domain errors (one-line diagnostic on
stderr naming the violated precondition), 3 I/O failure.  The ORDSTAT_SEED
environment variable supplies the default seed for ``simulate``; a seed must
be a nonnegative integer.

This module only parses arguments and formats reports; all numeric work
lives in the library modules, and no library module formats output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .errors import _ABOVE_ZERO, _FINITE, DomainError, OrdstatError, _real
from .inspections import expected_inspections, inspection_pmf
from .joint import eval_grid
from .lifetimes import parse_model
from .mrl import mrl_summary
from .oracle import (
    first_observation_leq,
    mc_event_prob,
    mc_inspection_pmf,
    order_stat_in_window,
    order_stat_leq,
)
from .system import SystemConfig, Window

__all__ = ["main", "parse_grid"]

DEFAULT_SEED = 0
SEED_ENV_VAR = "ORDSTAT_SEED"
# largest grid parse_grid builds; a bigger one is almost surely a typo
MAX_GRID_POINTS = 1_000_000
# parsed arguments that choose how and where to write, not what to compute
_NOT_INPUTS = ("format", "output", "handler")


@dataclass
class Report:
    """JSON ``records``; the CSV shows the ``header`` columns of each record."""

    header: list[str]
    records: list[dict]


def _dec(value) -> str:
    return f"{float(value):.6f}"


def _cell(value) -> str:
    return _dec(value) if isinstance(value, float) else str(value)


def parse_grid(text: str) -> list[float]:
    """Inclusive start:stop:step grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec {text!r} must look like start:stop:step")
    start = _real(parts[0], -_FINITE, _FINITE, f"grid spec {text!r} needs a finite start")
    stop = _real(parts[1], start, _FINITE, f"grid spec {text!r} needs a finite stop >= start")
    step = _real(parts[2], _ABOVE_ZERO, _FINITE, f"grid spec {text!r} needs a finite step > 0")
    count = (stop - start) / step + 1e-9
    if not count < MAX_GRID_POINTS:  # also true when the span overflowed to inf
        raise DomainError(f"grid spec {text!r} has more than {MAX_GRID_POINTS} points")
    count = int(count)
    points = [start + i * step for i in range(count + 1)]
    if abs(points[-1] - stop) < step * 1e-6:
        points[-1] = stop
    return points


def _seed(flag) -> int:
    """--seed, else $ORDSTAT_SEED, else DEFAULT_SEED; a nonnegative integer."""
    raw = flag if flag is not None else os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    if not str(raw).strip().isdecimal():
        raise DomainError(f"seed must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _x_grid(args, model) -> list[float]:
    if args.x_grid:
        return parse_grid(args.x_grid)
    hi = model.quantile(0.999)
    if not math.isfinite(hi):
        raise DomainError(f"quantile(0.999) of {model!r} exceeds the largest float; give --x-grid")
    return [i * hi / 200.0 for i in range(201)]


def _meta(args) -> dict:
    """The command, the version, the seed (None if the command takes none) and
    every input given on the command line."""
    meta = {"version": __version__, "seed": None}
    meta.update((k, v) for k, v in vars(args).items() if v is not None and k not in _NOT_INPUTS)
    return meta


def _grid_records(grid, **extra) -> list[dict]:
    return [{**extra, "x": x, "value": _dec(v)}
            for x, v in zip(grid.points.tolist(), grid.values.tolist())]


def _cmd_joint(args, cfg: SystemConfig) -> Report:
    model = parse_model(args.model)
    xs = _x_grid(args, model)
    if (args.t is None) == (args.t_grid is None):
        raise DomainError("joint-cdf needs exactly one of --t or --t-grid")
    if args.t_grid is not None:
        records = []
        for t in parse_grid(args.t_grid):
            records += _grid_records(eval_grid(cfg, model, xs, "joint", t=t), t=t)
        return Report(["t", "x", "value"], records)
    grid = eval_grid(cfg, model, xs, "joint", t=args.t)
    return Report(["x", "value"], _grid_records(grid))


def _cmd_cond(args, cfg: SystemConfig) -> Report:
    model = parse_model(args.model)
    xs = _x_grid(args, model)
    windowed = args.t1 is not None or args.t2 is not None
    modes = sum([args.t is not None, windowed, args.at is not None])
    if modes != 1:
        raise DomainError("cond-cdf needs exactly one of --t, --t1/--t2, or --at")
    if args.t is not None:
        grid = eval_grid(cfg, model, xs, "given_leq", t=args.t)
    elif windowed:
        if args.t1 is None or args.t2 is None:
            raise DomainError("window mode needs both --t1 and --t2")
        grid = eval_grid(cfg, model, xs, "between", window=Window(args.t1, args.t2))
    else:
        grid = eval_grid(cfg, model, xs, "given_eq", t=args.at)
    return Report(["x", "value"], _grid_records(grid))


def _cmd_inspections(args, cfg: SystemConfig) -> Report:
    pmf = inspection_pmf(cfg, args.k)
    if args.expected:
        mean = expected_inspections(pmf)
        record = {
            "expected_numerator": mean.numerator,
            "expected_denominator": mean.denominator,
            "expected_fraction": f"{mean.numerator}/{mean.denominator}",
            "expected_decimal": _dec(mean),
        }
        return Report(["expected_fraction", "expected_decimal"], [record])
    records = [
        {"m": m, "prob_numerator": p.numerator, "prob_denominator": p.denominator,
         "prob_decimal": _dec(p)}
        for m, p in zip(pmf.support, pmf.probs)
    ]
    return Report(["m", "prob_numerator", "prob_denominator", "prob_decimal"], records)


def _cmd_mrl(args, cfg: SystemConfig) -> Report:
    model = parse_model(args.model)
    summary = mrl_summary(cfg, model, Window(args.t1, args.t2))
    record = {
        "t1": summary.t1, "t2": summary.t2,
        "phi": _dec(summary.phi), "psi": _dec(summary.psi),
        "truncation_bound": f"{summary.truncation_bound:.6e}",
    }
    return Report(["t1", "t2", "phi", "psi", "truncation_bound"], [record])


def _cmd_simulate(args, cfg: SystemConfig) -> Report:
    model = parse_model(args.model)
    if args.target == "inspections":
        if args.k is None:
            raise DomainError("simulate --target inspections needs --k")
        if any(v is not None for v in (args.x, args.t, args.t1, args.t2)):
            raise DomainError("simulate --target inspections takes no --x, --t, --t1 or --t2")
        estimates = mc_inspection_pmf(cfg, model, args.k, args.reps, args.seed)
        records = [{"m": m, "estimate": _dec(e.estimate), "std_error": f"{e.std_error:.6e}",
                    "replications": e.replications} for m, e in estimates.items()]
        return Report(["m", "estimate", "std_error", "replications"], records)
    if args.k is not None:
        raise DomainError("simulate --target event takes no --k")
    if args.x is None:
        raise DomainError("simulate --target event needs --x")
    if args.t is not None and (args.t1 is not None or args.t2 is not None):
        raise DomainError("simulate --target event needs exactly one of --t or --t1/--t2")
    event = first_observation_leq(args.x)
    if args.t1 is not None and args.t2 is not None:
        window = order_stat_in_window(cfg, Window(args.t1, args.t2))
        estimate = mc_event_prob(cfg, model, event, args.reps, args.seed, given=window)
    elif args.t is not None:
        stat_event = order_stat_leq(cfg, args.t)
        estimate = mc_event_prob(cfg, model, lambda s, o: event(s, o) & stat_event(s, o),
                                 args.reps, args.seed)
    else:
        raise DomainError("simulate --target event needs --t, or both --t1 and --t2")
    header = ["estimate", "std_error", "replications", "conditioned_fraction"]
    record = {
        "estimate": _dec(estimate.estimate),
        "std_error": f"{estimate.std_error:.6e}",
        "replications": estimate.replications,
        "conditioned_fraction": _dec(estimate.conditioned_fraction),
    }
    return Report(header, [record])


def _render(meta: dict, report: Report, kind: str) -> str:
    if kind == "json":
        doc = {"meta": meta, "data": report.records}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(report.header)
    writer.writerows([_cell(rec[h]) for h in report.header] for rec in report.records)
    return buffer.getvalue()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ordstat",
        description="Order-statistic conditional laws and inspection planning "
                    "for k-out-of-n systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.add_argument("--n", type=int, required=True, help="number of components")
        p.add_argument("--r", type=int, required=True, help="order-statistic index")
        p.set_defaults(handler=handler)
        return p

    p = add("joint-cdf", _cmd_joint, "joint CDF of X_1 and the r-th order statistic")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float)
    p.add_argument("--t-grid", dest="t_grid", help="emit a surface over this t grid")
    p.add_argument("--x-grid", dest="x_grid")

    p = add("cond-cdf", _cmd_cond, "conditional CDF of X_1 given the order statistic")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, help="condition on X_{r:n} <= t")
    p.add_argument("--t1", type=float, help="window left edge")
    p.add_argument("--t2", type=float, help="window right edge")
    p.add_argument("--at", type=float, help="condition on X_{r:n} = t")
    p.add_argument("--x-grid", dest="x_grid")

    p = add("inspections", _cmd_inspections, "exact inspection-count pmf")
    p.add_argument("--k", type=int, required=True, help="number of failures to detect")
    p.add_argument("--expected", action="store_true", default=None,
                   help="report the expected inspection count instead of the table")

    p = add("mrl", _cmd_mrl, "mean residual life and mean past for a window")
    p.add_argument("--model", required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)

    p = add("simulate", _cmd_simulate, "seeded Monte-Carlo estimates")
    p.add_argument("--target", choices=("event", "inspections"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--x", type=float, help="event threshold on X_1")
    p.add_argument("--t", type=float, help="event threshold on X_{r:n}")
    p.add_argument("--t1", type=float, help="conditioning window left edge")
    p.add_argument("--t2", type=float, help="conditioning window right edge")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = SystemConfig(args.n, args.r)
        if "seed" in vars(args):  # resolved here, so meta records the seed used
            args.seed = _seed(args.seed)
        report = args.handler(args, cfg)
        _emit(_render(_meta(args), report, args.format), args.output)
    except OrdstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
