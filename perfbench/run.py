"""The ordstat benchmark: two closed-loop workloads, checked against independent references.

Run from the root of a checkout (``src/ordstat`` must be there):

    python3 perfbench/run.py --workload laws --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn

Each workload is one client sending a seeded set of requests, each after
the previous one returned, in a fresh interpreter (``worker.py``) with numpy
pinned to one thread.  The client sends every request of the set at least three
times with the same inputs, interleaved, the short ones more often, until
``--seconds`` are up (``worker.run_timed``).  Every output is checked
against ``reference.py``, which does not use the library, with the
tolerances in ``spec.json``, and every execution must give the same output
as the request's first.

A request's latency is its best execution time.  Other load on a shared
machine only ever adds to a request's time, and it comes and goes over tens
of seconds, so the best of several executions spread over the run is the
request's own cost, where a median over the run follows the load.  On a
2-vCPU shared host, one process's best times over successive 10-second
stretches moved by up to 1.8x, while over ten 45-second runs of the laws
workload ``req_p50_ms`` had an interquartile range of 4% of its median.  Sizes
are capped (n <= 120 for the laws, n <= 150 for the exact inspection laws)
so that every request runs many times.  ``req_p50_ms`` and ``req_p90_ms`` are Harrell-Davis estimates
over the best latencies of the distinct successful requests, and
``req_per_s`` is the rate of one client sending the set at those latencies:
requests over the sum of their best times.  ``setup_s`` is the median of
eight fresh interpreters importing the package, four before the client runs
and four after it, so that it does not rest on one moment's load.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the layers of ``ordstat`` are wrapped with span recorders
(``spans.py``), the requests take turns, and the per-layer metrics are
reported; afterwards the first quarter of the traced executions is replayed
untraced, which gives the tracing overhead.  Counts and times of the
per-layer metrics are per request execution (``/req``).

The laws workload also runs the known-defect slices named in ``spec.json``
after its timed loop, and reports how many of their requests fail.  They are
kept apart from the timed loop, whose requests must all succeed.  The oracles
workload runs a CLI batch after its timed loop: the README's subcommand mix,
one ``python -m ordstat.cli`` child per request, once each.  Its outputs are
checked and count in ``attempted`` and ``failed``; its spans give the ``cli``
layer's metrics.  On the same host the best time of a CLI request over a
50-second run moved by up to 1.5x between runs, too much for a bounded
end-to-end metric, so the batch adds nothing to the end-to-end metrics.

Output: one block of ``name value unit`` lines per workload, a ``meta``
line, and as the last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and full results are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 4  # before the client runs and again after it


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(module: str, env: dict, warm_up: bool) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters importing ``module``.

    No timeout: with one, ``subprocess`` polls the child in steps of up to 50 ms.
    """
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
        if i or not warm_up:
            times.append(time.perf_counter() - start)
    return times


def run_metadata(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ordstat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": git_commit(root), "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = os.path.join(git, ref_name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A Beta-weighted mean of all order statistics: it moves less than a single
    order statistic when the latencies near the quantile are sparse, which they
    are when request costs span several decades.
    """
    from scipy import special

    ordered = sorted(values)
    n = len(ordered)
    edges = special.betainc(q * (n + 1), (1 - q) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], ordered)))


def run_workload(root, workload, seed, seconds, trace, spec):
    import checks
    import spans
    import workloads

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)
    reqs = workloads.requests(workload, seed)
    probes = workloads.laws_probes(seed) if workload == "laws" else {}
    cli = workloads.cli_batch(seed) if workload == "oracles" else []
    setup = measure_setup("ordstat", env, warm_up=True)

    tag = f"{workload}-seed{seed}-trace{trace}"
    job_path = os.path.join(out_dir, f"{tag}.job.pickle")
    result_path = os.path.join(out_dir, f"{tag}.result.pickle")
    spans_path = os.path.join(out_dir, f"{tag}.spans")
    job = {"workload": workload, "requests": reqs, "probes": probes, "cli": cli,
           "seconds": seconds,
           "trace": trace, "src": os.path.join(root, "src"), "child_env": env,
           "out_dir": out_dir, "spans_path": spans_path}
    with open(job_path, "wb") as handle:
        pickle.dump(job, handle)
    worker = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                             result_path], env=env, timeout=170)
    if worker.returncode != 0:
        _fail(f"{workload}: the client exited with code {worker.returncode}")
    setup += measure_setup("ordstat", env, warm_up=False)
    with open(result_path, "rb") as handle:
        result = pickle.load(handle)
    os.remove(job_path)
    os.remove(result_path)

    checker = checks.Checker(spec["tolerances"])
    failures = []
    latencies = []
    attempted = failed = 0
    for index, entry in enumerate(result["requests"]):
        attempted += entry["runs"]
        out = entry["out"]
        reason = checker.check(index, reqs[index], out) if entry["ok"] else f"{out[0]}: {out[1]}"
        if reason is None and entry["errors"]:
            reason = f"{entry['errors']} of {entry['runs']} executions raised"
        if reason is None and entry["differ"]:
            reason = f"{entry['differ']} of {entry['runs']} executions differ from the first"
        if reason is None:
            latencies.append(entry["best"] * 1e3)
        else:  # every execution of a failed request counts as failed
            failed += entry["runs"]
            failures.append((index, reqs[index]["kind"], reason))
    slices = {}
    for name, records in result["probes"].items():
        by_kind = {}
        for index, _, _, ok, out in records:
            if not ok:
                by_kind[out[0]] = by_kind.get(out[0], 0) + 1
            elif checker.check(("probe", name, index), probes[name][index], out):
                by_kind["wrong value"] = by_kind.get("wrong value", 0) + 1
        slices[name] = {"attempted": len(records), "failed": sum(by_kind.values()),
                        "by_kind": by_kind}
    cli_ms = []
    for index, start, end, ok, out in result["cli"]:
        attempted += 1
        reason = checker.check(("cli", index), cli[index], out) if ok else f"{out[0]}: {out[1]}"
        if reason is None:
            cli_ms.append((end - start) * 1e3)
        else:
            failed += 1
            failures.append((f"cli {index}", cli[index]["argv"][0], reason))

    e2e = {
        "setup_s": statistics.median(setup),
        "req_per_s": len(latencies) / (sum(latencies) / 1e3) if latencies else 0.0,
        "req_p50_ms": quantile(latencies, 0.5) if latencies else float("nan"),
        "req_p90_ms": quantile(latencies, 0.9) if latencies else float("nan"),
        "failed_frac": failed / attempted,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    layer = None
    if trace:
        names, recorded = spans.load(spans_path)
        summary = spans.summarize(names, recorded)
        stdout_bytes = [len(out[1]) for *_, ok, out in result["cli"] if ok]
        layer = per_layer_metrics(summary, slices, spec["known_defects"], result["replay"],
                                  stdout_bytes)
    meta = run_metadata(root, workload, seed, seconds, trace)
    meta.update(attempted=attempted, failed=failed, requests_in_set=len(reqs),
                timed_s=result["elapsed"], cli_requests=len(cli),
                cli_median_ms=statistics.median(cli_ms) if cli_ms else None,
                p90_samples_beyond=sum(v > e2e["req_p90_ms"] for v in latencies),
                setup_samples_s=setup)
    report = {"meta": meta, "end_to_end": e2e, "per_layer": layer, "known_defects": slices,
              "failures": [list(f) for f in failures[:50]]}
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    return report


def per_layer_metrics(summary, slices, known_defects, replay, stdout_bytes):
    import spans

    totals = summary.pop("_totals")
    per_req = 1.0 / max(1, totals["requests"])

    def field(name, key):
        return summary.get(name, {}).get(key, 0)

    def group(prefix, names, key):
        return sum(field(f"{prefix}.{n}", key) for n in names)

    m = {}
    for name in ("special.binom_tail", "lifetimes.cdf", "lifetimes.pdf", "joint.eval_grid",
                 "mrl.mrl_summary", "inspections.inspection_pmf",
                 "oracle.exhaustive_inspection_pmf"):
        short = name.replace("exhaustive_inspection_pmf", "exhaustive")
        m[f"{short}.calls"] = field(name, "calls") * per_req
        m[f"{short}.self_ms"] = field(name, "self_ms") * per_req
    m["special.binom_tail.errors"] = field("special.binom_tail", "errors") * per_req
    m["lifetimes.sample.draws"] = field("lifetimes.sample", "count") * per_req
    m["lifetimes.sample.self_ms"] = field("lifetimes.sample", "self_ms") * per_req
    joint = spans.LAYER_FUNCTIONS["joint"]
    m["joint.points"] = field("joint.eval_grid", "count") * per_req
    m["joint.errors"] = group("joint", joint, "errors") * per_req
    mrl_calls = group("mrl", spans.LAYER_FUNCTIONS["mrl"], "calls")
    m["mrl.pdf_evals_per_call"] = totals["pdf_under_mrl"] / mrl_calls if mrl_calls else 0.0
    m["inspections.support_points"] = field("inspections.inspection_pmf", "count") * per_req
    m["oracle.exhaustive.orderings"] = field("oracle.exhaustive_inspection_pmf", "count") * per_req
    mc = ("mc_event_prob", "mc_event_mean", "mc_inspection_pmf")
    m["oracle.mc.calls"] = group("oracle", mc, "calls") * per_req
    m["oracle.mc.self_ms"] = group("oracle", mc, "self_ms") * per_req
    reps = group("oracle", mc, "count")
    m["oracle.mc.reps"] = reps * per_req
    m["oracle.mc.accept_frac"] = group("oracle", mc, "aux") / reps if reps else 0.0
    # per invocation of the CLI batch, not per request of the workload
    invocations = field("cli.import", "calls")
    m["cli.import_ms"] = field("cli.import", "self_ms") / invocations if invocations else 0.0
    m["cli.main.self_ms"] = field("cli.main", "self_ms") / invocations if invocations else 0.0
    m["cli.output_bytes"] = statistics.fmean(stdout_bytes) if stdout_bytes else 0.0
    layer_ms = 0.0
    for name in spans.LAYERS:
        m[f"{name}.self_ms"] = field(name, "self_ms") * per_req
        layer_ms += field(name, "self_ms")
    m["request.self_ms"] = field(spans.REQUEST, "self_ms") * per_req
    m["trace.layer_share"] = layer_ms / totals["request_ms"] if totals["request_ms"] else 0.0
    m["trace.req_per_s"] = replay["requests"] / replay["traced_s"]
    m["trace.untraced_req_per_s"] = replay["requests"] / replay["untraced_s"]
    m["trace.overhead"] = replay["traced_s"] / replay["untraced_s"] - 1.0
    for name in known_defects:
        m[f"known_defect.{name}.failed"] = slices.get(name, {}).get("failed", 0)
    return m


def print_report(report, bench, trace):
    meta, e2e = report["meta"], report["end_to_end"]
    print(f"== {meta['workload']}  seed={meta['seed']}  seconds={meta['seconds']}  trace={trace}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_frac"] = "ratio"
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(f"  ({meta['requests_in_set']} requests, {meta['attempted']} executions, "
          f"{meta['p90_samples_beyond']} successful requests beyond req_p90_ms)")
    for name, info in report["known_defects"].items():
        print(f"  known defect {name}: {info['failed']}/{info['attempted']} failed "
              f"{json.dumps(info['by_kind'], sort_keys=True)}")
    for index, kind, reason in report["failures"][:5]:
        print(f"  FAILED request {index} ({kind}): {reason}")
    if report["per_layer"]:
        for name, value in report["per_layer"].items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print("meta " + json.dumps(meta, sort_keys=True))


def result_line(report, bench, trace):
    source = report["per_layer"] if trace else report["end_to_end"]
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    meta = report["meta"]
    return {
        "correct": meta["failed"] == 0,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ordstat", "__init__.py")):
        _fail("run from the root of an ordstat checkout: src/ordstat is missing")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        _fail(f"unknown workload {args.workload!r}; expected one of {names} or all")

    lines = []
    for workload in chosen:
        report = run_workload(root, workload, args.seed, seconds, args.trace, spec)
        print_report(report, bench, args.trace)
        lines.append(result_line(report, bench, args.trace))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{w}.{k}": v for w, line in zip(chosen, lines)
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
