"""Spans around calls into altbd, installed from outside the package.

`Tracer.install` rebinds each traced function, in every loaded altbd module
that holds it, to a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory until `write` puts them
in a CSV file at the end of the run.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# the public functions of each module whose work the per-module metrics split
TRACED = {
    "altbd.specfun": ("bessel_i", "hyp1f2"),
    "altbd.bilateral": ("transition_prob", "pgf"),
    "altbd.reflecting": ("q00", "q10_series", "q10_integral", "p_even", "r_mean", "r_variance", "pi_1n"),
    "altbd.oracle": ("uniformize", "transient_distribution", "invert_laplace", "simulate"),
    "altbd.cli": ("run_verification",),
}

Q_SERIES = ("reflecting.q00", "reflecting.q10_series")
MOMENT_SPANS = ("reflecting.r_mean", "reflecting.r_variance", "reflecting.p_even")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "altbd" or n.startswith("altbd.")]
        for mod_name, fn_names in TRACED.items():
            mod = sys.modules[mod_name]
            for fn_name in fn_names:
                orig = getattr(mod, fn_name)
                wrapped = self._wrap(f"{mod_name.split('.')[-1]}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, durations, and how
        many of its spans sit under each other name (for the ratios)."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [], "under": defaultdict(int)})
        for i in range(n):
            rec = out[self.names[i]]
            rec["calls"] += 1
            rec["self_s"] += self_s[i]
            rec["durations"].append(dur[i])
            seen = set()
            p = self.parent[i]
            while p >= 0:
                seen.add(self.names[p])
                p = self.parent[p]
            for name in seen:
                rec["under"][name] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))]


def per_module(summary: dict, passes: int, cli_kinds, sim_paths: int) -> dict[str, float]:
    """The per-module metrics of one traced run, per pass of the op sequence."""

    def rec(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "durations": [], "under": {}})

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("specfun.bessel_i", "specfun.hyp1f2", "bilateral.pgf",
                 "reflecting.q00", "reflecting.q10_series", "reflecting.q10_integral",
                 "reflecting.p_even", "reflecting.r_mean", "reflecting.r_variance",
                 "oracle.uniformize", "oracle.transient_distribution", "oracle.invert_laplace"):
        m[f"{name}.calls"] = rec(name)["calls"] / passes
        m[f"{name}.self_s"] = rec(name)["self_s"] / passes
    tp = rec("bilateral.transition_prob")
    m["bilateral.transition_prob.calls"] = tp["calls"] / passes
    m["bilateral.transition_prob.self_s"] = tp["self_s"] / passes
    m["bilateral.transition_prob.p50_us"] = 1e6 * quantile(tp["durations"], 0.5)
    m["bilateral.transition_prob.p90_us"] = 1e6 * quantile(tp["durations"], 0.9)
    m["reflecting.pi_1n.calls"] = rec("reflecting.pi_1n")["calls"] / passes
    # the three moment functions never call one another, so no call counts twice
    q_under = sum(rec(q)["under"].get(s, 0) for q in Q_SERIES for s in MOMENT_SPANS)
    m["reflecting.q_evals_per_moment"] = ratio(q_under, sum(rec(s)["calls"] for s in MOMENT_SPANS))
    sim = rec("oracle.simulate")
    m["oracle.simulate.self_s"] = sim["self_s"] / passes
    m["oracle.simulate.paths_per_s"] = ratio(sim_paths * passes, sim["self_s"])
    m["oracle.uniformize_per_distribution"] = ratio(
        rec("oracle.uniformize")["under"].get("oracle.transient_distribution", 0),
        rec("oracle.transient_distribution")["calls"])
    m["cli.run_verification.self_s"] = rec("cli.run_verification")["self_s"] / passes
    m["cli.command.self_s"] = sum(rec(f"op.{k}")["self_s"] for k in cli_kinds) / passes
    return m


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples): the highest percentile with at least ten
    samples above it, or the smallest value when there are ten or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return 0.0, s[0], n
    return 100.0 * (n - 10) / n, s[n - 11], n
