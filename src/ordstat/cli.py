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
with ``meta`` (the inputs, the seed where one applies, and the package
version) and a ``data`` array.  Exact probabilities carry numerator and
denominator fields next to a fixed six-place decimal, so tables can be
checked without parsing decimals.  Grids use the inclusive ``start:stop:step``
syntax; when ``--x-grid`` is omitted the grid spans [0, quantile(0.999)].

Exit codes: 0 success, 2 argument or domain errors (one-line diagnostic on
stderr naming the violated precondition), 3 I/O failure.  The ORDSTAT_SEED
environment variable supplies the default seed for ``simulate``.

This module only parses arguments and formats reports; all numeric work
lives in the library modules.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .errors import DomainError, OrdstatError
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

__all__ = ["main", "OutputFormat", "parse_grid"]

DEFAULT_SEED = 0
SEED_ENV_VAR = "ORDSTAT_SEED"


@dataclass(frozen=True)
class OutputFormat:
    """Report format and destination (a path, or None for stdout)."""

    kind: str
    destination: str | None

    def __post_init__(self):
        if self.kind not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.kind!r}")


@dataclass
class Report:
    """JSON ``records``; the CSV shows the ``header`` columns of each record."""

    meta: dict
    header: list[str]
    records: list[dict]


def _dec(value: float) -> str:
    return f"{float(value):.6f}"


def _cell(value) -> str:
    return _dec(value) if isinstance(value, float) else str(value)


def parse_grid(text: str) -> list[float]:
    """Inclusive start:stop:step grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec {text!r} must look like start:stop:step")
    try:
        start, stop, step = (float(s) for s in parts)
    except ValueError:
        raise DomainError(f"grid spec {text!r} has a non-numeric field") from None
    if step <= 0 or stop < start:
        raise DomainError(f"grid spec {text!r} needs step > 0 and stop >= start")
    count = int((stop - start) / step + 1e-9)
    points = [start + i * step for i in range(count + 1)]
    if abs(points[-1] - stop) < step * 1e-6:
        points[-1] = stop
    return points


def _x_grid(args, model) -> list[float]:
    if args.x_grid:
        return parse_grid(args.x_grid)
    hi = model.quantile(0.999)
    return [i * hi / 200.0 for i in range(201)]


def _meta(command: str, args, seed=None, **inputs) -> dict:
    meta = {"command": command, "version": __version__, "seed": seed}
    meta.update({k: v for k, v in inputs.items() if v is not None})
    return meta


def _grid_records(grid, **extra) -> list[dict]:
    return [{**extra, "x": x, "value": _dec(v)} for x, v in zip(grid.points, grid.values)]


def _cmd_joint(args) -> Report:
    cfg = SystemConfig(args.n, args.r)
    model = parse_model(args.model)
    xs = _x_grid(args, model)
    meta = _meta(
        "joint-cdf", args, n=args.n, r=args.r, model=args.model,
        t=args.t, t_grid=args.t_grid, x_grid=args.x_grid,
    )
    if args.t_grid:
        records = []
        for t in parse_grid(args.t_grid):
            records += _grid_records(eval_grid(cfg, model, xs, "joint", t=t), t=t)
        return Report(meta, ["t", "x", "value"], records)
    if args.t is None:
        raise DomainError("joint-cdf needs --t or --t-grid")
    grid = eval_grid(cfg, model, xs, "joint", t=args.t)
    return Report(meta, ["x", "value"], _grid_records(grid))


def _cmd_cond(args) -> Report:
    cfg = SystemConfig(args.n, args.r)
    model = parse_model(args.model)
    xs = _x_grid(args, model)
    windowed = args.t1 is not None or args.t2 is not None
    modes = sum([args.t is not None, windowed, args.at is not None])
    if modes != 1:
        raise DomainError("cond-cdf needs exactly one of --t, --t1/--t2, or --at")
    meta = _meta(
        "cond-cdf", args, n=args.n, r=args.r, model=args.model,
        t=args.t, t1=args.t1, t2=args.t2, at=args.at, x_grid=args.x_grid,
    )
    if args.t is not None:
        grid = eval_grid(cfg, model, xs, "given_leq", t=args.t)
    elif windowed:
        if args.t1 is None or args.t2 is None:
            raise DomainError("window mode needs both --t1 and --t2")
        grid = eval_grid(cfg, model, xs, "between", window=Window(args.t1, args.t2))
    else:
        grid = eval_grid(cfg, model, xs, "given_eq", t=args.at)
    return Report(meta, ["x", "value"], _grid_records(grid))


def _cmd_inspections(args) -> Report:
    cfg = SystemConfig(args.n, args.r)
    pmf = inspection_pmf(cfg, args.k)
    meta = _meta("inspections", args, n=args.n, r=args.r, k=args.k, expected=args.expected or None)
    if args.expected:
        mean = expected_inspections(pmf)
        fraction = f"{mean.numerator}/{mean.denominator}"
        return Report(
            meta,
            ["expected_fraction", "expected_decimal"],
            [{
                "expected_numerator": mean.numerator,
                "expected_denominator": mean.denominator,
                "expected_fraction": fraction,
                "expected_decimal": _dec(float(mean)),
            }],
        )
    return Report(meta, ["m", "prob_numerator", "prob_denominator", "prob_decimal"],
                  pmf.to_json_records())


def _cmd_mrl(args) -> Report:
    cfg = SystemConfig(args.n, args.r)
    model = parse_model(args.model)
    summary = mrl_summary(cfg, model, Window(args.t1, args.t2))
    meta = _meta("mrl", args, n=args.n, r=args.r, model=args.model, t1=args.t1, t2=args.t2)
    record = {
        "t1": summary.t1, "t2": summary.t2,
        "phi": _dec(summary.phi), "psi": _dec(summary.psi),
        "truncation_bound": f"{summary.truncation_bound:.6e}",
    }
    return Report(meta, ["t1", "t2", "phi", "psi", "truncation_bound"], [record])


def _cmd_simulate(args) -> Report:
    cfg = SystemConfig(args.n, args.r)
    model = parse_model(args.model)
    if args.seed is not None:
        seed = args.seed
    else:
        seed = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))
    meta = _meta(
        "simulate", args, seed=seed, n=args.n, r=args.r, k=args.k, model=args.model,
        target=args.target, reps=args.reps, x=args.x, t=args.t, t1=args.t1, t2=args.t2,
    )
    if args.target == "inspections":
        if args.k is None:
            raise DomainError("simulate --target inspections needs --k")
        estimates = mc_inspection_pmf(cfg, model, args.k, args.reps, seed)
        records = [{"m": m, "estimate": _dec(e.estimate), "std_error": f"{e.std_error:.6e}",
                    "replications": e.replications} for m, e in estimates.items()]
        return Report(meta, ["m", "estimate", "std_error", "replications"], records)
    if args.x is None:
        raise DomainError("simulate --target event needs --x")
    windowed = args.t1 is not None and args.t2 is not None
    if windowed:
        estimate = mc_event_prob(
            cfg, model, first_observation_leq(args.x), args.reps, seed,
            given=order_stat_in_window(cfg, Window(args.t1, args.t2)),
        )
    elif args.t is not None:
        event = first_observation_leq(args.x)
        stat_event = order_stat_leq(cfg, args.t)
        estimate = mc_event_prob(
            cfg, model, lambda s, o: event(s, o) & stat_event(s, o), args.reps, seed,
        )
    else:
        raise DomainError("simulate --target event needs --t, or both --t1 and --t2")
    header = ["estimate", "std_error", "replications", "conditioned_fraction"]
    record = {
        "estimate": _dec(estimate.estimate),
        "std_error": f"{estimate.std_error:.6e}",
        "replications": estimate.replications,
        "conditioned_fraction": _dec(estimate.conditioned_fraction),
    }
    return Report(meta, header, [record])


def _render(report: Report, fmt: OutputFormat) -> str:
    if fmt.kind == "json":
        doc = {"meta": report.meta, "data": report.records}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(report.header)
    writer.writerows([_cell(rec[h]) for h in report.header] for rec in report.records)
    return buffer.getvalue()


def _emit(text: str, fmt: OutputFormat) -> None:
    if fmt.destination is None:
        sys.stdout.write(text)
    else:
        with open(fmt.destination, "w", encoding="utf-8", newline="") as handle:
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
    p.add_argument("--expected", action="store_true",
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
    fmt = OutputFormat(args.format, args.output)
    try:
        report = args.handler(args)
    except OrdstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(_render(report, fmt), fmt)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
