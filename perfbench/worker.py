"""The benchmark's client: runs one workload's requests in a closed loop.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.  It
reads the request set from a pickle, sends each request several times, each
after the previous one returned, until the time is up (see ``run_timed``), and
writes each request's first output and best latency, the process's peak RSS
and (when traced) the spans to a pickle.  After the timed loop it runs the
job's known-defect probes and its CLI batch, one ``python -m ordstat.cli``
child per request, once each.  Outputs are converted to plain data after the
loop, outside the timed region.

Usage: python3 worker.py IN_PICKLE OUT_PICKLE
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import pickle
import subprocess
import sys
import time

import spans as spans_mod

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 3


def _model(o, spec):
    kind, *params = spec
    return {"exp": o.Exponential, "weibull": o.Weibull, "uniform": o.Uniform}[kind](*params)


def _statistic_minus(t2):
    return lambda samples, ordered: samples[:, 0] - t2


def call(o, req):
    """Send one in-process request; returns the library's raw result."""
    kind = req["kind"]
    if kind in ("pmf", "expected", "exhaustive"):
        cfg = o.SystemConfig(req["n"], req["r"])
        if kind == "exhaustive":
            return o.exhaustive_inspection_pmf(cfg, req["k"])
        pmf = o.inspection_pmf(cfg, req["k"])
        return pmf if kind == "pmf" else (pmf, o.expected_inspections(pmf))
    cfg = o.SystemConfig(req["n"], req.get("r", 1))
    model = _model(o, req["model"])
    window = o.Window(*req["window"]) if "window" in req else None
    if kind == "grid":
        return o.eval_grid(cfg, model, req["xs"], req["law"], t=req.get("t"), window=window)
    if kind == "order_stat_cdf":
        return o.order_stat_cdf(cfg, model, req["t"])
    if kind == "window_prob":
        return o.window_prob(cfg, model, window)
    if kind == "pair":
        return o.pair_cond_joint_cdf(cfg, model, req["x1"], req["x2"], req["t"], req["cond"])
    if kind == "mrl":
        return o.mrl_summary(cfg, model, window)
    from ordstat import oracle

    given = oracle.order_stat_in_window(cfg, window) if window else None
    if kind == "mc_pmf":
        return o.mc_inspection_pmf(cfg, model, req["k"], req["reps"], req["seed"])
    if kind == "mc_prob":
        return o.mc_event_prob(cfg, model, oracle.first_observation_leq(req["x"]),
                               req["reps"], req["seed"], given=given)
    if kind == "mc_mean":
        return o.mc_event_mean(cfg, model, _statistic_minus(window.t2),
                               req["reps"], req["seed"], given=given)
    raise ValueError(f"unknown request kind {kind!r}")


def plain(kind, result):
    """The library's result as plain data the checker can read without ``ordstat``."""
    if kind == "grid":
        return tuple(result.values)
    if kind == "mrl":
        return (result.phi, result.psi, result.truncation_bound)
    if kind in ("pmf", "exhaustive"):
        return (result.support, result.probs)
    if kind == "expected":
        pmf, mean = result
        return (pmf.support, pmf.probs, mean)
    if kind == "mc_pmf":
        return {m: (e.estimate, e.replications, e.std_error) for m, e in result.items()}
    if kind in ("mc_prob", "mc_mean"):
        return (result.estimate, result.replications, result.std_error,
                result.conditioned_fraction)
    return float(result)


class CliClient:
    """Runs one CLI invocation per request, one child process at a time.

    Traced, the child is ``clitrace.py``, which writes its spans to
    ``spans_path(request_id)``."""

    def __init__(self, env, spans_dir):
        self.env = env
        self.spans_dir = spans_dir

    def spans_path(self, request_id):
        return os.path.join(self.spans_dir, f"cli-{request_id}.bin")

    def __call__(self, request_id, req, traced=False):
        if traced:
            argv = [sys.executable, os.path.join(HERE, "clitrace.py"),
                    self.spans_path(request_id), *req["argv"]]
        else:
            argv = [sys.executable, "-m", "ordstat.cli", *req["argv"]]
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        done = subprocess.run(argv, capture_output=True, text=True, env=self.env)
        return (done.returncode, done.stdout, done.stderr)


def peak_rss_kib() -> int:
    """Peak resident memory of this process.

    Linux carries ``ru_maxrss`` across exec, so for this process it would
    include the parent that started it; the high-water mark of its own address
    space (VmHWM) does not.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_loop(reqs, send, order, tracer=None, first_id=0):
    """Send the request indices in ``order`` once each, the next only after the
    previous one returned.  Returns the records (request index, start, end, ok,
    raw result or error, request span) and the wall time."""
    records = []
    began = time.perf_counter()
    for position, index in enumerate(order):
        span = tracer.begin_request(first_id + position) if tracer else -1
        start = time.perf_counter()
        try:
            out, ok = send(first_id + position, reqs[index]), True
        except Exception as exc:  # a failed request is recorded, never fatal
            out, ok = (type(exc).__name__, str(exc)[:300]), False
        end = time.perf_counter()
        if tracer:
            tracer.end_request(span, not ok)
        records.append((index, start, end, ok, out, span))
    return records, time.perf_counter() - began


def fingerprint(kind, ok, out):
    """A digest that is equal when two executions of a request gave the same output."""
    if ok:
        out = plain(kind, out)
    return hashlib.blake2b(pickle.dumps((ok, out), protocol=pickle.HIGHEST_PROTOCOL)).digest()


def run_timed(reqs, send, seconds, tracer=None):
    """The timed closed loop: every request several times, spread over ``seconds``.

    Every request is sent once in list order; then, until the time is up and
    every request has run MIN_RUNS times, the next request is the one with the
    least ``runs * best ** EXPONENT``.  Untraced, EXPONENT is 1/2: a request
    gets executions in inverse proportion to the square root of its cost, so
    a short request runs many times, interleaved with the rest, and meets the
    quiet moments of a shared machine, while a long one still runs several
    times.  Traced, EXPONENT is 0 and the requests take turns, so that
    per-request layer metrics weight every request of the set alike.  Every
    execution's output is compared with the request's first output, outside
    the timed interval.

    Returns per-request stats (best latency, executions, failed executions,
    executions whose output differed from the first, the first output), the
    records of the executions when traced, and the wall time.
    """
    exponent = 0.0 if tracer else 0.5
    stats = [{"best": math.inf, "runs": 0, "errors": 0, "differ": 0, "ok": None, "out": None}
             for _ in reqs]
    marks = [None] * len(reqs)
    records = []
    queue = [(0.0, index) for index in range(len(reqs))]
    short = len(reqs)  # requests with fewer than MIN_RUNS executions
    executions = 0
    began = time.perf_counter()
    while short or time.perf_counter() - began < seconds:
        index = heapq.heappop(queue)[1]
        req, entry = reqs[index], stats[index]
        span = tracer.begin_request(executions) if tracer else -1
        start = time.perf_counter()
        try:
            out, ok = send(executions, req), True
        except Exception as exc:  # a failed request is recorded, never fatal
            out, ok = (type(exc).__name__, str(exc)[:300]), False
        end = time.perf_counter()
        if tracer:
            tracer.end_request(span, not ok)
            records.append((index, start, end, ok, None, span))  # outputs live in stats
        executions += 1
        entry["runs"] += 1
        short -= entry["runs"] == MIN_RUNS
        if not ok:
            entry["errors"] += 1
        entry["best"] = min(entry["best"], end - start)
        mark = fingerprint(req["kind"], ok, out)
        if marks[index] is None:
            marks[index] = mark
            entry["ok"], entry["out"] = ok, out
        elif mark != marks[index]:
            entry["differ"] += 1
        heapq.heappush(queue, (entry["runs"] * entry["best"] ** exponent, index))
    return stats, records, time.perf_counter() - began


def main(in_path, out_path):
    with open(in_path, "rb") as handle:
        job = pickle.load(handle)
    reqs, probes, cli = job["requests"], job["probes"], job["cli"]
    tracer = spans_mod.Tracer() if job["trace"] else None
    import ordstat as o

    if not os.path.abspath(o.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"ordstat imported from {o.__file__}, not from {job['src']}")

    def send(request_id, req):
        return call(o, req)

    if tracer:
        tracer.install()
    stats, records, elapsed = run_timed(reqs, send, job["seconds"], tracer=tracer)
    probe_records = {}
    first_id = len(records)
    for name, batch in probes.items():
        probe_records[name] = run_loop(batch, send, range(len(batch)), tracer=tracer,
                                       first_id=first_id)[0]
        first_id += len(batch)
    if tracer:
        tracer.uninstall()
    client = CliClient(job["child_env"], job["out_dir"])
    cli_records = run_loop(cli, lambda request_id, req: client(request_id, req, tracer is not None),
                           range(len(cli)), tracer=tracer, first_id=first_id)[0]
    replay = None
    if tracer:
        for request_id, record in enumerate(cli_records, start=first_id):
            path = client.spans_path(request_id)
            if os.path.exists(path):
                _graft(tracer, record[5], *spans_mod.load(path))
                os.remove(path)
                os.remove(path + ".json")
        # the first quarter of the traced executions again, untraced: the tracing overhead
        quarter = records[:max(1, len(records) // 4)]
        replayed, _ = run_loop(reqs, send, [rec[0] for rec in quarter])
        replay = {"requests": len(replayed),
                  "untraced_s": sum(rec[2] - rec[1] for rec in replayed),
                  "traced_s": sum(rec[2] - rec[1] for rec in quarter)}
    for index, entry in enumerate(stats):
        if entry["ok"]:
            entry["out"] = plain(reqs[index]["kind"], entry["out"])

    def convert(batch, source):
        out = []
        for index, start, end, ok, result, _ in batch:
            if ok and source[index]["kind"] != "cli":
                result = plain(source[index]["kind"], result)
            out.append((index, start, end, ok, result))
        return out

    result = {
        "requests": stats,
        "elapsed": elapsed,
        "probes": {name: convert(batch, probes[name]) for name, batch in probe_records.items()},
        "cli": convert(cli_records, cli),
        "peak_rss_kib": peak_rss_kib(),
        "replay": replay,
    }
    if tracer:
        tracer.dump(job["spans_path"])
    with open(out_path, "wb") as handle:
        pickle.dump(result, handle)


def _graft(tracer, root, names, child):
    """Hang a CLI child's spans under the request span ``root`` recorded here."""
    nf = spans_mod.NFIELDS
    offset = len(tracer.spans) // nf
    request = tracer.spans[root * nf + 2]
    for i in range(len(child) // nf):
        row = list(child[i * nf:(i + 1) * nf])
        row[0] = tracer.name_id(names[int(row[0])])
        row[1] = root if row[1] < 0 else row[1] + offset
        row[2] = request
        tracer.spans.extend(row)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
