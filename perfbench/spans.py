"""Span recording around the layers of ``ordstat``, and the per-layer arithmetic.

A span is one call into a layer: name, start, end, parent span, request id,
whether it raised, and up to two work counts (draws, grid points, ...).
Spans are kept in memory in flat arrays and written out when the run ends.

The recorder wraps the public functions of each module from outside, and
replaces every alias other modules imported (``ordstat.joint.binom_tail``,
``ordstat.cli.eval_grid``, ...), so the library itself is not modified.  A
call made from inside the same layer (``eval_grid`` calling
``cond_cdf_between``) is folded into the caller's span: a layer's span then
covers all of its own code, and the self time of a span is the layer's own
work.  This module uses only the standard library, so that a traced CLI child
pays nothing extra at import.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from time import perf_counter

# one span is FIELDS consecutive doubles
FIELDS = ("name", "parent", "request", "start", "end", "error", "count", "aux")
NFIELDS = len(FIELDS)

# layer -> public functions of the module of the same name
LAYER_FUNCTIONS = {
    "special": ("binom_tail", "reg_inc_beta"),
    "joint": (
        "order_stat_cdf", "window_prob", "joint_cdf_single", "cond_cdf_given_leq",
        "cond_cdf_between", "cond_cdf_given_eq", "joint_cdf_multi", "joint_pdf_multi",
        "pair_cond_joint_cdf", "eval_grid",
    ),
    "mrl": ("cond_pdf_between", "mean_residual", "mean_past", "mrl_summary"),
    "inspections": ("lambda_coeff", "inspection_pmf", "expected_inspections"),
    "oracle": ("mc_event_prob", "mc_event_mean", "mc_inspection_pmf", "exhaustive_inspection_pmf"),
    "cli": ("main",),
}
LAYERS = ("special", "lifetimes", "joint", "mrl", "inspections", "oracle", "cli")
MODEL_METHODS = ("cdf", "pdf", "sample")
REQUEST = "request"


def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _counter(layer: str, name: str):
    """How a span measures its work, as (count, aux) from (args, kwargs, result)."""
    if layer == "joint" and name == "eval_grid":
        return lambda a, k, res: (len(res.points), 0.0)
    if layer == "inspections" and name == "inspection_pmf":
        return lambda a, k, res: (len(res.support), 0.0)
    if layer == "oracle" and name == "exhaustive_inspection_pmf":
        return lambda a, k, res: (math.factorial(a[0].n), 0.0)
    if layer == "oracle" and name == "mc_inspection_pmf":
        return lambda a, k, res: (_arg(a, k, 3, "m_reps"),) * 2
    if layer == "oracle" and name in ("mc_event_prob", "mc_event_mean"):
        def counts(a, k, res):
            reps = _arg(a, k, 3, "m_reps")
            return reps, reps * res.conditioned_fraction
        return counts
    if layer == "lifetimes" and name == "sample":
        return lambda a, k, res: (_size(_arg(a, k, 2, "size")), 0.0)
    return None


class Tracer:
    """In-memory span recorder; ``install`` wraps the layers of a loaded ``ordstat``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("d")
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patched: list[tuple] = []
        self.request = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, layer: str) -> int:
        index = len(self.spans) // NFIELDS
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((name_id, parent, self.request, perf_counter(), 0.0, 0.0, 0.0, 0.0))
        self._stack.append(index)
        self._layers.append(layer)
        return index

    def close(self, index: int, error: bool = False, count=(0.0, 0.0)) -> None:
        base = index * NFIELDS
        self.spans[base + 4] = perf_counter()
        self.spans[base + 5] = 1.0 if error else 0.0
        self.spans[base + 6], self.spans[base + 7] = count
        self._stack.pop()
        self._layers.pop()

    def add(self, name: str, parent: int, request: int, start: float, end: float,
            error=False, count=(0.0, 0.0)) -> int:
        """Append a finished span, for spans measured elsewhere."""
        index = len(self.spans) // NFIELDS
        self.spans.extend((self.name_id(name), parent, request, start, end,
                           1.0 if error else 0.0, *count))
        return index

    def begin_request(self, request: int) -> int:
        self.request = request
        return self.open(self.name_id(REQUEST), REQUEST)

    def end_request(self, index: int, error: bool) -> None:
        self.close(index, error)
        self.request = -1

    def wrap(self, layer: str, name: str, fn):
        span_id = self.name_id(f"{layer}.{name}")
        counter = _counter(layer, name)
        layers = self._layers

        def traced(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            index = self.open(span_id, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index, count=counter(args, kwargs, result) if counter else (0.0, 0.0))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function and every alias of it in the loaded ``ordstat``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ordstat" or name.startswith("ordstat."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"ordstat.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        lifetimes = sys.modules["ordstat.lifetimes"]
        for cls in vars(lifetimes).values():
            if isinstance(cls, type) and issubclass(cls, lifetimes.LifetimeModel):
                for method in MODEL_METHODS:
                    if method in vars(cls):
                        self._patch(cls, method, self.wrap("lifetimes", method, vars(cls)[method]))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write the spans as ``path`` (raw doubles) and ``path.json`` (names and fields)."""
        with open(path, "wb") as handle:
            self.spans.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "fields": FIELDS}, handle)


def load(path: str) -> tuple[list[str], array]:
    with open(path + ".json", encoding="utf-8") as handle:
        names = json.load(handle)["names"]
    spans = array("d")
    with open(path, "rb") as handle:
        spans.frombytes(handle.read())
    return names, spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    count = len(spans) // NFIELDS
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(count):
        parent = int(spans[i * NFIELDS + 1])
        if parent >= 0:
            children.setdefault(parent, []).append(
                (spans[i * NFIELDS + 3], spans[i * NFIELDS + 4])
            )
    out = []
    for i in range(count):
        start, end = spans[i * NFIELDS + 3], spans[i * NFIELDS + 4]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(names: list[str], spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_ms, errors, count and aux totals.

    Under each layer name, the layer's total self time.  Under ``_totals``:
    ``requests`` (number of request spans), ``request_ms`` (their total
    duration) and ``pdf_under_mrl`` (lifetime-model ``pdf`` calls made from
    inside an ``mrl`` span).
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    requests = 0
    request_ms = 0.0
    pdf_under_mrl = 0
    count = len(spans) // NFIELDS
    for i in range(count):
        base = i * NFIELDS
        name = names[int(spans[base])]
        entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "errors": 0,
                                      "count": 0.0, "aux": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += selfs[i] * 1e3
        entry["errors"] += int(spans[base + 5])
        entry["count"] += spans[base + 6]
        entry["aux"] += spans[base + 7]
        if name == REQUEST:
            requests += 1
            request_ms += (spans[base + 4] - spans[base + 3]) * 1e3
        elif name == "lifetimes.pdf":
            parent = int(spans[base + 1])
            if parent >= 0 and names[int(spans[parent * NFIELDS])].startswith("mrl."):
                pdf_under_mrl += 1
        layer = name.split(".")[0]
        total = out.setdefault(layer, {"calls": 0, "self_ms": 0.0, "errors": 0,
                                       "count": 0.0, "aux": 0.0})
        if total is not entry:
            total["self_ms"] += selfs[i] * 1e3
    out["_totals"] = {"requests": requests, "request_ms": request_ms,
                      "pdf_under_mrl": pdf_under_mrl}
    return out
