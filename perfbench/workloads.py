"""Seeded request sets for the two workloads, and the CLI batch.

A request set is made of rounds of one or more parts, whose requests the
client sends repeatedly (see ``worker.run_timed``).  Every round holds one
request from each cell of its part (request kind by input-size band).
Within a cell the sizes and ranks sit at fixed points of their ranges, one
pair per round, so that every seed gets the same cost profile; the seed
draws the other inputs, which round gets which pair, and the order of the
set.

The CLI batch is a further seeded list of ``python -m ordstat.cli``
invocations that the ``oracles`` workload runs once each after its timed
loop, for the ``cli`` layer.

A request is a plain dict: ``kind`` plus its inputs.  Lifetime models are
tuples understood by ``reference``.  Thresholds and windows are placed at
quantiles of X_(r:n), found by inverting its law with scipy's ``betaincinv``.
"""

from __future__ import annotations

import math
import random

from scipy import special

import reference as ref

WORKLOADS = ("laws", "oracles")
# the parts a workload's request set is made of: oracles holds the exact inspection
# laws and the Monte-Carlo oracles
PARTS = {"laws": ("laws",), "oracles": ("exact", "simulate")}
FAMILIES = ("exp", "weibull0.5", "weibull2", "uniform")
LAWS = ("joint", "given_leq", "between", "given_eq")
PAIR_CONDITIONINGS = ("max_leq", "min_leq", "min_gt")
GRID_POINTS = 201
MC_REPS = 1 << 11
CLI_MC_REPS = 100_000
CLI_MC_N = 12  # as in the README; a fixed size keeps the CLI's peak memory steady
# (n, r) of the other CLI requests: fixed, so that every seed gets the same costs
CLI_SIZES = {"inspections": (120, 60), "expected": (60, 40), "joint": (40, 10),
             "surface": (30, 15), "given_leq": (50, 20), "between": (40, 12),
             "given_eq": (60, 30), "mrl": (30, 10)}
# rounds per part: a workload holds at least 100 requests, so that req_p90_ms has
# ten beyond it; exact's rounds alternate n = 7 and 8
ROUNDS = {"laws": 4, "exact": 8, "simulate": 6}
LAWS_N = (5, 120)
EXACT_N = (8, 150)
EXHAUSTIVE_N = (7, 8)
PROBES_PER_SLICE = 16


def _bands(lo: float, hi: float, count: int = 4):
    edges = [lo * (hi / lo) ** (i / count) for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


LAWS_BANDS = _bands(*LAWS_N)
EXACT_BANDS = _bands(*EXACT_N)
SIMULATE_BANDS = _bands(12, 200)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _int_in(rng: random.Random, lo: float, hi: float) -> int:
    """An integer log-uniform on [lo, hi]."""
    return max(math.ceil(lo), min(math.floor(hi), round(_log_uniform(rng, lo, hi))))


def _radical_inverse(index: int, base: int) -> float:
    inverse, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        inverse += digit * scale
        scale /= base
    return inverse


class Strata:
    """Evenly spread positions in [0, 1) for the draws of each cell of a request set.

    A cell gets ``size`` points, one per round.  The first two coordinates,
    which set a request's cost (its size n and rank r), form a fixed design:
    the i-th point takes the middle of stratum i in the first and of stratum
    i * step mod size in the second, so a cell holds the same (n, r) pairs for
    every seed; the seed only decides which round gets which pair.  Further
    coordinates take the i-th point of a van der Corput sequence (one prime
    base per dimension), shifted by a seeded offset per cell and dimension,
    so they cover their range evenly and differ between seeds.
    """

    BASES = (3,)

    def __init__(self, seed: int, size: int):
        self._rng = random.Random(seed)
        self._size = size
        # the integer nearest size / golden ratio that is prime to size: pairs spread out
        self._step = min((s for s in range(1, size + 1) if math.gcd(s, size) == 1),
                         key=lambda s: abs(s - 0.618 * size))
        self._cells: dict = {}

    def point(self, cell, dims: int = 1) -> tuple[float, ...]:
        if cell not in self._cells:
            order = list(range(self._size))
            self._rng.shuffle(order)
            self._cells[cell] = [0, order, [self._rng.random() for _ in self.BASES]]
        entry = self._cells[cell]
        index, order, offsets = entry
        entry[0] += 1
        stratum = order[index % self._size]
        fixed = ((stratum + 0.5) / self._size,
                 (stratum * self._step % self._size + 0.5) / self._size)
        return fixed[:dims] + tuple((_radical_inverse(index, base) + offset) % 1.0
                                    for base, offset in zip(self.BASES[:dims - 2], offsets))


def _int_at(u: float, lo: float, hi: float) -> int:
    """The integer at position u of a log-uniform scale over [lo, hi]."""
    return max(math.ceil(lo), min(math.floor(hi), round(lo * (hi / lo) ** u)))


def draw_model(rng: random.Random, family: str | None = None):
    family = family or rng.choice(FAMILIES)
    if family == "exp":
        return ("exp", round(_log_uniform(rng, 0.5, 2.0), 4))
    if family.startswith("weibull"):
        return ("weibull", float(family[len("weibull"):]), round(_log_uniform(rng, 0.5, 2.0), 4))
    lo = round(rng.uniform(0.0, 1.0), 4)
    return ("uniform", lo, round(lo + rng.uniform(0.5, 3.0), 4))


def os_quantile(model, n: int, r: int, u: float) -> float:
    """The u-quantile of X_(r:n): its component survival solves I_s(n-r+1, r) = 1 - u."""
    return ref.quantile_from_survival(model, float(special.betaincinv(n - r + 1, r, 1.0 - u)))


def os_window(rng, model, n, r, prob_lo, prob_hi, edge=0.02):
    """A window [t1, t2] holding X_(r:n) with probability in [prob_lo, prob_hi]."""
    width = _log_uniform(rng, prob_lo, prob_hi)
    u1 = rng.uniform(edge, 1.0 - edge - width)
    return (os_quantile(model, n, r, u1), os_quantile(model, n, r, u1 + width))


def x_grid(model) -> list[float]:
    """201 points over [0, the component's 0.999 quantile]."""
    hi = ref.quantile_from_survival(model, 1e-3)
    return [i * hi / (GRID_POINTS - 1) for i in range(GRID_POINTS)]


# --- laws ----------------------------------------------------------------------


def _laws_round(rng: random.Random, strata: Strata) -> list[dict]:
    reqs = []
    for band, (lo, hi) in enumerate(LAWS_BANDS):
        for kind in (*LAWS, "order_stat_cdf", "window_prob"):
            u_n, u_r, u_t = strata.point((band, kind), 3)
            n = _int_at(u_n, lo, hi)
            r = 1 + min(n - 1, int(u_r * n))
            model = draw_model(rng)
            if kind in LAWS:
                req = {"kind": "grid", "law": kind, "n": n, "r": r, "model": model,
                       "xs": x_grid(model)}
            else:
                req = {"kind": kind, "n": n, "r": r, "model": model}
            if kind in ("between", "window_prob"):
                req["window"] = os_window(rng, model, n, r, 0.05, 0.5)
            else:
                req["t"] = os_quantile(model, n, r, 0.05 + 0.9 * u_t)
            reqs.append(req)
    for conditioning in PAIR_CONDITIONINGS:
        n = _int_at(strata.point(("pair", conditioning))[0], *LAWS_N)
        model = draw_model(rng)
        # the conditioning extreme is X_(n:n) for max_leq and X_(1:n) otherwise
        t = os_quantile(model, n, n if conditioning == "max_leq" else 1, rng.uniform(0.05, 0.95))
        hi = ref.quantile_from_survival(model, 1e-3)
        reqs.append({"kind": "pair", "n": n, "model": model, "t": t, "cond": conditioning,
                     "x1": rng.uniform(0.0, hi), "x2": rng.uniform(0.0, hi)})
    for family in FAMILIES:
        u_n, u_r = strata.point(("mrl", family), 2)
        n = _int_at(u_n, *LAWS_N)
        r = 1 + min(n - 1, int(u_r * n))
        model = _mrl_model(rng, family)
        reqs.append({"kind": "mrl", "n": n, "r": r, "model": model,
                     "window": os_window(rng, model, n, r, 0.05, 0.5)})
    return reqs


def _mrl_model(rng, family):
    """A model for an MRL request; uniform laws start at 0 (see ``uniform_mrl``)."""
    model = draw_model(rng, family)
    return ("uniform", 0.0, model[2]) if model[0] == "uniform" else model


def laws_probes(seed: int) -> dict[str, list[dict]]:
    """The known-defect slices of ``laws``, run after its timed loop.

    * ``overflow``: n in [1030, 2000] with r <= n/2, so the binomial tail
      passes through C(n, n/2) > 1.8e308.
    * ``rare_window``: windows on the right of the law of X_(r:n), holding
      it with probability 1e-30 .. 1e-18, where a difference of two upper
      tails cancels to zero.
    * ``uniform_mrl``: MRL requests under Uniform(lo, hi) with lo > 0; the
      density jumps at lo inside the quadrature interval [0, t1], which
      adaptive quadrature can miss while reporting a tiny error.
    """
    rng = random.Random(seed * 7919 + 1)
    overflow = []
    kinds = ("order_stat_cdf", "window_prob", "grid", "mrl")
    for i in range(PROBES_PER_SLICE):
        n = _int_in(rng, 1030, 2000)
        r = rng.randint(1, n // 2)
        model = draw_model(rng)
        req = {"kind": kinds[i % len(kinds)], "n": n, "r": r, "model": model,
               "window": os_window(rng, model, n, r, 0.05, 0.5)}
        if req["kind"] == "order_stat_cdf":
            req["t"] = req.pop("window")[1]
        elif req["kind"] == "grid":
            req.update(law="between", xs=x_grid(model))
        overflow.append(req)
    rare = []
    kinds = ("window_prob", "grid", "mrl")
    for i in range(PROBES_PER_SLICE):
        n = rng.randint(10, 40)
        r = rng.randint(1, 3)
        model = draw_model(rng, rng.choice(("exp", "weibull2", "uniform")))
        s1 = 10.0 ** rng.uniform(-30.0, -18.0)
        s2 = s1 * 10.0 ** rng.uniform(-3.0, -0.3)
        window = tuple(
            ref.quantile_from_survival(model, float(special.betaincinv(n - r + 1, r, s)))
            for s in (s1, s2)
        )
        req = {"kind": kinds[i % len(kinds)], "n": n, "r": r, "model": model, "window": window}
        if req["kind"] == "grid":
            req.update(law="between", xs=x_grid(model))
        rare.append(req)
    uniform = []
    for _ in range(2 * PROBES_PER_SLICE):  # about one in ten fails, so take more
        n = _int_in(rng, 5, 300)
        r = rng.randint(1, n)
        model = draw_model(rng, "uniform")
        model = ("uniform", max(model[1], 0.05), model[2])
        uniform.append({"kind": "mrl", "n": n, "r": r, "model": model,
                        "window": os_window(rng, model, n, r, 0.05, 0.5)})
    return {"overflow": overflow, "rare_window": rare, "uniform_mrl": uniform}


# --- exact ---------------------------------------------------------------------


def _exact_round(strata: Strata, index: int) -> list[dict]:
    """Per size band, one request with r in the lower and one in the upper half of
    [2, n], the two kinds alternating by round; and one enumeration, n = 7 or 8."""
    reqs = []
    for band, (lo, hi) in enumerate(EXACT_BANDS):
        for half in (0, 1):
            u_n, u_r, u_k = strata.point((band, half), 3)
            n = _int_at(u_n, lo, hi)
            r = 2 + min(n - 2, int((half + u_r) / 2 * (n - 1)))
            k = 1 + min(r - 2, int(u_k * (r - 1)))
            reqs.append({"kind": ("pmf", "expected")[(index + half) % 2], "n": n, "r": r, "k": k})
    n = EXHAUSTIVE_N[index % len(EXHAUSTIVE_N)]
    u_r, u_k = strata.point(("exhaustive", n), 2)
    r = 2 + min(n - 2, int(u_r * (n - 1)))
    reqs.append({"kind": "exhaustive", "n": n, "r": r, "k": 1 + min(r - 2, int(u_k * (r - 1)))})
    return reqs


# --- simulate ------------------------------------------------------------------


def _simulate_round(rng: random.Random, strata: Strata) -> list[dict]:
    reqs = []
    for band, (lo, hi) in enumerate(SIMULATE_BANDS):
        for kind in ("mc_pmf", "mc_prob", "mc_mean"):
            u_n, u_r = strata.point((band, kind), 2)
            n = _int_at(u_n, lo, hi)
            if kind == "mc_pmf" and hi == SIMULATE_BANDS[-1][1]:
                # the largest pmf run sets peak memory; its fixed size keeps that steady
                n = round(hi)
            model = draw_model(rng)
            req = {"kind": kind, "n": n, "model": model, "reps": MC_REPS}
            if kind == "mc_pmf":
                req["r"] = 2 + min(n - 2, int(u_r * (n - 1)))
                req["k"] = rng.randint(1, req["r"] - 1)
            else:
                req["r"] = 1 + min(n - 1, int(u_r * n))
                req["window"] = os_window(rng, model, n, req["r"], 0.01, 0.5, edge=0.005)
            if kind == "mc_prob":
                req["x"] = ref.quantile_from_survival(model, rng.uniform(0.1, 0.9))
            req["seed"] = rng.getrandbits(32)
            reqs.append(req)
    return reqs


# --- cli -----------------------------------------------------------------------


def _num(value: float) -> str:
    return repr(float(value))


def _cli_law_inputs(rng, name):
    n, r = CLI_SIZES[name]
    model = draw_model(rng)
    return n, r, model, ["--n", str(n), "--r", str(r), "--model", ref.model_spec(model)]


def _cli_round(rng: random.Random) -> list[dict]:
    """The README's subcommand mix, alternately in CSV and in JSON."""
    templates = []
    n, r = CLI_SIZES["inspections"]
    k = rng.randint(1, r - 1)
    templates.append(({"sub": "inspections", "n": n, "r": r, "k": k},
                      ["inspections", "--n", str(n), "--r", str(r), "--k", str(k)]))
    n, r = CLI_SIZES["expected"]
    k = rng.randint(1, r - 1)
    templates.append(({"sub": "expected", "n": n, "r": r, "k": k},
                      ["inspections", "--n", str(n), "--r", str(r), "--k", str(k), "--expected"]))

    n, r, model, args = _cli_law_inputs(rng, "joint")
    t = os_quantile(model, n, r, rng.uniform(0.05, 0.95))
    hi = ref.quantile_from_survival(model, 1e-3)
    step = round(hi / 120, 4)
    templates.append(({"sub": "grid", "law": "joint", "n": n, "r": r, "model": model, "t": t,
                       "x_grid": f"0:{_num(hi)}:{_num(step)}"},
                      ["joint-cdf", *args, "--t", _num(t), "--x-grid", f"0:{_num(hi)}:{_num(step)}"]))

    n, r, model, args = _cli_law_inputs(rng, "surface")
    start = round(os_quantile(model, n, r, 0.2), 3)
    step = round(max((os_quantile(model, n, r, 0.9) - start) / 7, 1e-3), 3)
    t_grid = f"{_num(start)}:{_num(start + 7 * step)}:{_num(step)}"
    templates.append(({"sub": "surface", "n": n, "r": r, "model": model, "t_grid": t_grid},
                      ["joint-cdf", *args, "--t-grid", t_grid]))

    n, r, model, args = _cli_law_inputs(rng, "given_leq")
    t = os_quantile(model, n, r, rng.uniform(0.05, 0.95))
    templates.append(({"sub": "grid", "law": "given_leq", "n": n, "r": r, "model": model, "t": t},
                      ["cond-cdf", *args, "--t", _num(t)]))

    n, r, model, args = _cli_law_inputs(rng, "between")
    t1, t2 = os_window(rng, model, n, r, 0.05, 0.5)
    templates.append(({"sub": "grid", "law": "between", "n": n, "r": r, "model": model,
                       "window": (t1, t2)},
                      ["cond-cdf", *args, "--t1", _num(t1), "--t2", _num(t2)]))

    n, r, model, args = _cli_law_inputs(rng, "given_eq")
    t = os_quantile(model, n, r, rng.uniform(0.05, 0.95))
    templates.append(({"sub": "grid", "law": "given_eq", "n": n, "r": r, "model": model, "t": t},
                      ["cond-cdf", *args, "--at", _num(t)]))

    n, r = CLI_SIZES["mrl"]
    model = _mrl_model(rng, rng.choice(FAMILIES))
    args = ["--n", str(n), "--r", str(r), "--model", ref.model_spec(model)]
    t1, t2 = os_window(rng, model, n, r, 0.05, 0.5)
    templates.append(({"sub": "mrl", "n": n, "r": r, "model": model, "window": (t1, t2)},
                      ["mrl", *args, "--t1", _num(t1), "--t2", _num(t2)]))

    n = CLI_MC_N
    r = rng.randint(2, n)
    k = rng.randint(1, r - 1)
    model = draw_model(rng)
    seed = rng.getrandbits(32)
    templates.append(({"sub": "mc_pmf", "n": n, "r": r, "k": k, "reps": CLI_MC_REPS},
                      ["simulate", "--target", "inspections", "--n", str(n), "--r", str(r),
                       "--k", str(k), "--model", ref.model_spec(model),
                       "--reps", str(CLI_MC_REPS), "--seed", str(seed)]))

    n = CLI_MC_N
    r = rng.randint(1, n)
    model = draw_model(rng)
    t1, t2 = os_window(rng, model, n, r, 0.05, 0.5)
    x = ref.quantile_from_survival(model, rng.uniform(0.1, 0.9))
    seed = rng.getrandbits(32)
    templates.append(({"sub": "mc_prob", "n": n, "r": r, "model": model, "x": x,
                       "window": (t1, t2), "reps": CLI_MC_REPS},
                      ["simulate", "--target", "event", "--n", str(n), "--r", str(r),
                       "--model", ref.model_spec(model), "--x", _num(x), "--t1", _num(t1),
                       "--t2", _num(t2), "--reps", str(CLI_MC_REPS), "--seed", str(seed)]))

    flip = rng.getrandbits(1)
    reqs = []
    for index, (check, argv) in enumerate(templates):
        fmt = ("csv", "json")[(index + flip) % 2]
        reqs.append({"kind": "cli", "check": dict(check, format=fmt),
                     "argv": [*argv, "--format", fmt]})
    return reqs


# --- streams -------------------------------------------------------------------


def requests(workload: str, seed: int) -> list[dict]:
    """The seeded request set of a workload, in a seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed * 1_000_003 + WORKLOADS.index(workload))
    stream = []
    for part in PARTS[workload]:
        strata = Strata(rng.getrandbits(64), ROUNDS[part])
        for index in range(ROUNDS[part]):
            if part == "laws":
                stream += _laws_round(rng, strata)
            elif part == "exact":
                stream += _exact_round(strata, index)
            else:
                stream += _simulate_round(rng, strata)
    rng.shuffle(stream)
    return stream


def cli_batch(seed: int) -> list[dict]:
    """The CLI invocations the ``oracles`` workload runs once each after its timed loop."""
    return _cli_round(random.Random(seed * 7919 + 2))
