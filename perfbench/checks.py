"""Checks every output against ``reference``, with the tolerances of ``spec.json``.

``Checker.check(key, request, output)`` returns None when the output is
right and a one-line reason when it is not.  References are computed once
per distinct input (``key``), after the timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import math

from scipy import special, stats

import reference as ref

CLI_HALF_UNIT = 5e-7  # the CLI prints probabilities to six places


def parse_grid(text: str) -> list[float]:
    """The CLI's documented inclusive start:stop:step grid."""
    start, stop, step = (float(s) for s in text.split(":"))
    count = int((stop - start) / step + 1e-9)
    points = [start + i * step for i in range(count + 1)]
    if abs(points[-1] - stop) < step * 1e-6:
        points[-1] = stop
    return points


def default_cli_grid(model) -> list[float]:
    hi = ref.quantile_from_survival(model, 1.0 - 0.999)
    return [i * hi / 200.0 for i in range(201)]


class Checker:
    def __init__(self, tolerances: dict):
        self.tol = tolerances
        self._cache: dict = {}

    def _ref(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    # --- tolerance rules -----------------------------------------------------

    def _values(self, got, want, slack=0.0):
        """Law values: absolute tolerance, plus the rounding ``slack`` of printed values."""
        if len(got) != len(want):
            return f"{len(got)} values, expected {len(want)}"
        worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        if not worst <= self.tol["law_value_abs"] + slack:
            return f"law value off by {worst:.3e}"
        return None

    def _event(self, got, want):
        """Event probabilities: relative tolerance, so that a rare event cannot round to 0."""
        if not abs(got - want) <= self.tol["event_prob_rel"] * want:
            return f"probability {got!r}, reference {want!r}"
        return None

    def _frequency(self, estimate, trials, p):
        """A relative frequency over ``trials`` draws, against the exact probability ``p``.

        Its count must be at least as likely under Binomial(trials, p) as a
        deviation of ``mc_z`` standard errors (two-sided); the exact tail keeps
        the test right for entries whose expected count is far below one.
        """
        trials = round(trials)
        count = round(estimate * trials)
        tail = min(stats.binom.cdf(count, trials, p), stats.binom.sf(count - 1, trials, p))
        if 2 * tail < special.erfc(self.tol["mc_z"] / math.sqrt(2)):
            return f"{count} of {trials} draws, exact probability {p!r}"
        return None

    def _mean(self, estimate, exact, sd, count):
        """A Monte-Carlo mean within ``mc_z`` standard errors (from the exact law) of the truth."""
        bound = self.tol["mc_z"] * sd / math.sqrt(count)
        if not abs(estimate - exact) <= bound:
            return f"estimate {estimate!r}, exact {exact!r}, allowed {bound:.3e}"
        return None

    def _mrl(self, n, r, model, window, phi, psi, bound, slack=0.0):
        t1, t2 = window
        _, mean, _, coefs, parts = ref.window_moments(n, r, model, t1, t2)
        quad_rel, quad_abs = self.tol["quad_rel_tol"], self.tol["quad_abs_tol"]
        allowed = (bound + quad_rel * float(sum(abs(p) for p in parts))
                   + 3 * quad_abs * float(max(coefs)) + slack)
        err = max(abs(phi - float(mean - t2)), abs(psi - float(t2 - mean)))
        if not err <= allowed:
            return f"mrl off by {err:.3e}, allowed {allowed:.3e}"
        return None

    # --- in-process requests -------------------------------------------------

    def check(self, key, req, out):
        kind = req["kind"]
        if kind == "cli":
            return self.check_cli(key, req, out)
        n, r = req["n"], req.get("r")
        if kind == "grid":
            want = self._ref(key, lambda: ref.law_grid(
                n, r, req["model"], req["xs"], req["law"], req.get("t"), req.get("window")))
            return self._values(out, want)
        if kind == "order_stat_cdf":
            return self._event(out, self._ref(key, lambda: ref.order_stat_cdf(
                n, r, req["model"], req["t"])))
        if kind == "window_prob":
            return self._event(out, self._ref(key, lambda: ref.window_prob(
                n, r, req["model"], *req["window"])))
        if kind == "pair":
            want = self._ref(key, lambda: ref.pair_cond(
                n, req["model"], req["x1"], req["x2"], req["t"], req["cond"]))
            return self._values([out], [want])
        if kind == "mrl":
            return self._mrl(n, r, req["model"], req["window"], *out)
        if kind in ("pmf", "exhaustive", "expected"):
            support, probs = self._ref(key, lambda: ref.inspection_pmf(n, r, req["k"]))
            if (tuple(out[0]), tuple(out[1])) != (support, probs):
                return "pmf differs from the negative hypergeometric law"
            if kind == "expected" and out[2] != ref.expected_inspections(n, r, req["k"]):
                return f"mean {out[2]} != k(n+1)/r"
            return None
        if kind == "mc_pmf":
            support, probs = self._ref(key, lambda: ref.inspection_pmf(n, r, req["k"]))
            if tuple(out) != support:
                return "simulated support differs"
            for m, p in zip(support, probs):
                estimate, reps, _ = out[m]
                bad = self._frequency(estimate, reps, float(p))
                if bad or reps != req["reps"]:
                    return f"m={m}: {bad or 'replication count'}"
            return None
        if kind in ("mc_prob", "mc_mean"):
            estimate, reps, _, accepted = out
            return self._check_window_mc(key, req, estimate, reps, accepted)
        raise ValueError(f"unknown request kind {kind!r}")

    def _window_law(self, key, req):
        def make():
            w, mean, var, _, _ = ref.window_moments(req["n"], req["r"], req["model"], *req["window"])
            prob = None
            if "x" in req:
                prob = float(ref.law_grid(req["n"], req["r"], req["model"], [req["x"]],
                                          "between", window=req["window"])[0])
            return float(w), float(mean), float(var), prob
        return self._ref(key, make)

    def _check_window_mc(self, key, req, estimate, reps, accepted):
        w, mean, var, prob = self._window_law(key, req)
        bad = self._frequency(accepted, reps, w)
        if bad:
            return f"acceptance: {bad}"
        kept = accepted * reps
        if req["kind"] == "mc_mean":
            return self._mean(estimate, mean - req["window"][1], math.sqrt(var), kept)
        return self._frequency(estimate, kept, prob)

    # --- CLI invocations -----------------------------------------------------

    def check_cli(self, key, req, out):
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"exit {code}: {stderr.strip()[:200]}"
        spec = req["check"]
        try:
            if spec["format"] == "json":
                doc = json.loads(stdout)
                rows = doc["data"]
                if doc["meta"]["n"] != spec["n"] or doc["meta"]["r"] != spec["r"]:
                    return "meta does not echo the inputs"
            else:
                table = list(csv.reader(io.StringIO(stdout)))
                rows = [dict(zip(table[0], row)) for row in table[1:]]
            return self._cli_rows(key, spec, rows)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    def _cli_rows(self, key, spec, rows):
        sub, n, r = spec["sub"], spec["n"], spec["r"]
        if sub == "inspections":
            support, probs = self._ref(key, lambda: ref.inspection_pmf(n, r, spec["k"]))
            got = [(int(row["m"]), int(row["prob_numerator"]), int(row["prob_denominator"]),
                    row["prob_decimal"]) for row in rows]
            want = [(m, p.numerator, p.denominator, f"{float(p):.6f}")
                    for m, p in zip(support, probs)]
            return None if got == want else "pmf table differs from the exact law"
        if sub == "expected":
            mean = ref.expected_inspections(n, r, spec["k"])
            (row,) = rows
            if row["expected_fraction"] != f"{mean.numerator}/{mean.denominator}":
                return f"expected {row['expected_fraction']} != {mean}"
            if row["expected_decimal"] != f"{float(mean):.6f}":
                return f"expected decimal {row['expected_decimal']}"
            return None
        if sub in ("grid", "surface"):
            model = spec["model"]
            xs = parse_grid(spec["x_grid"]) if "x_grid" in spec else default_cli_grid(model)
            if sub == "grid":
                ts = [spec.get("t")]
            else:
                ts = parse_grid(spec["t_grid"])
            want_x, want_v, want_t = [], [], []
            for t in ts:
                values = self._ref((key, t), lambda: ref.law_grid(
                    n, r, model, xs, spec.get("law", "joint"), t, spec.get("window")))
                want_x += xs
                want_v += list(values)
                want_t += [t] * len(xs)
            got_x = [float(row["x"]) for row in rows]
            bad = self._values(got_x, want_x, CLI_HALF_UNIT)
            if sub == "surface" and not bad:
                bad = self._values([float(row["t"]) for row in rows], want_t, CLI_HALF_UNIT)
            return bad or self._values([float(row["value"]) for row in rows], want_v,
                                       CLI_HALF_UNIT)
        if sub == "mrl":
            (row,) = rows
            return self._mrl(n, r, spec["model"], spec["window"], float(row["phi"]),
                             float(row["psi"]), float(row["truncation_bound"]), CLI_HALF_UNIT)
        if sub == "mc_pmf":
            support, probs = self._ref(key, lambda: ref.inspection_pmf(n, r, spec["k"]))
            if [int(row["m"]) for row in rows] != list(support):
                return "simulated support differs"
            for row, p in zip(rows, probs):
                bad = self._frequency(float(row["estimate"]), int(row["replications"]), float(p))
                if bad:
                    return f"m={row['m']}: {bad}"
            return None
        if sub == "mc_prob":
            (row,) = rows
            req = {"kind": "mc_prob", **spec}
            return self._check_window_mc(key, req, float(row["estimate"]),
                                         int(row["replications"]),
                                         float(row["conditioned_fraction"]))
        raise ValueError(f"unknown cli check {sub!r}")
