"""The benchmark's three workloads: seeded op generation, execution and checks.

An op is one call into altbd's public surface: an in-process CLI command
(`verify`, `reflect`, `moments`) or a library call.  Every op is checked
against a route other than the one it times; references come from
`References`, never from the op's own output.

Library calls go through module attributes (`reflecting.p_even`, not a
name imported from it), so the tracer in `spans.py` sees them once it has
rebound those attributes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

import altbd.cli
from altbd import bilateral, oracle, reflecting
from altbd.bilateral import Rates, TransitionQuery
from altbd.oracle import SimConfig

WORKLOADS = ("verify", "reflected-curves", "long-horizon")

# the verify battery's default grid, plus two unequal pairs for the reflected chain
DEFAULT_PAIRS = ((1.0, 2.0), (2.0, 2.0), (2.0, 1.0))
REFLECTED_PAIRS = DEFAULT_PAIRS + ((0.5, 3.0), (3.0, 0.5))
LONG_PAIRS = ((1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (3.0, 0.5))

# largest |lam-mu| t and (lam+mu) t at which q00 and q10_series still
# converge: (1,2) works at t=700 and t=230, and fails at t=720 and t=240
Q00_REACH = 700.0
Q10_REACH = 690.0

LONG_T = (50.0, 1000.0)

# uniformization's mass budget for the long-horizon rows and every reference
# row.  The default 1e-12 is below the rounding of its own Poisson weights
# once 2 max(lam,mu) t passes about 1400 (missing mass up to 1.6e-12 was
# seen at 2218); the transient_distribution call then widens its window six
# times, for minutes, and raises.  1e-10 stays above that rounding up to
# t=1000 for every pair used here, and the rows still match the closed forms
# to about 1e-13.
ROW_EPS = 1e-10

# acceptance tolerances of the closed forms (README, ROADMAP)
TOL_BILATERAL = 1e-9
TOL_REFLECTED = 1e-7
TOL_INVERSION = 1e-6
TOL_MOMENTS = 1e-6
SIM_SE = 4.0

# (check, lambda, mu, tolerance) of the default `altbd verify` battery
VERIFY_CHECKS = (
    ("normalization", 1e-9),
    ("symmetry", 1e-12),
    ("chapman_kolmogorov", 1e-8),
    ("q10_triple_agreement", 1e-6),
    ("origin_vs_oracle", 1e-7),
    ("bilateral_moments_vs_oracle", 1e-8),
    ("reflected_moments_vs_oracle", 1e-6),
    ("psi_product_vieta", 1e-12),
    ("laplace_system_residual", 1e-10),
)
VERIFY_ROWS = frozenset(
    [(check, lam, mu, tol) for lam, mu in DEFAULT_PAIRS for check, tol in VERIFY_CHECKS]
    + [("bessel_reduction", 2.0, 2.0, 1e-10)]
)

CLI_KINDS = ("verify", "reflect", "moments")


@dataclass
class Op:
    """One call into altbd: `kind` names the entry point, `args` its inputs."""

    kind: str
    lam: float = 0.0
    mu: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def rates(self) -> Rates:
        return Rates(self.lam, self.mu)

    def label(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.args.items())
        return f"{self.kind}({self.lam:g},{self.mu:g}) {inner}".strip()


def strata(rng: random.Random, n: int, lo: float, hi: float, digits: int = 3) -> list[float]:
    """n values, one near the middle of each of n equal strata of [lo, hi].

    Each value moves off its stratum's middle by up to a tenth of a stratum
    width, and mirror strata move by opposite amounts.  The seed thus moves
    every input while the set of sizes, and so the workload's cost, stays
    nearly the same.
    """
    width = (hi - lo) / n
    shifts = [0.1 * (2.0 * rng.random() - 1.0) for _ in range(n // 2)]
    offsets = shifts + ([0.0] if n % 2 else []) + [-d for d in reversed(shifts)]
    return [round(lo + width * (i + 0.5 + d), digits) for i, d in enumerate(offsets)]


def _per_pair(rng: random.Random, pairs, lo: float, hi: float, digits: int = 3):
    """(lam, mu, value) twice per rate pair: pair j takes strata j and n-1-j,
    one low and one high value, whatever the seed."""
    values = strata(rng, 2 * len(pairs), lo, hi, digits)
    return [(lam, mu, values[i]) for i, (lam, mu) in enumerate(pairs)] + [
        (lam, mu, values[-1 - i]) for i, (lam, mu) in enumerate(pairs)]


def _reflected_curves(rng: random.Random) -> list[Op]:
    ops = []
    for start, method in ((0, "series"), (1, "series"), (1, "integral")):
        for lam, mu, stop in _per_pair(rng, REFLECTED_PAIRS, 14.0, 20.0):
            ops.append(Op("reflect", lam, mu, {"start": start, "method": method, "stop": stop, "count": 11}))
    for start in (0, 1):
        for lam, mu, stop in _per_pair(rng, REFLECTED_PAIRS, 3.0, 5.0):
            ops.append(Op("moments", lam, mu, {"start": start, "stop": stop, "count": 3}))
        for lam, mu, t in _per_pair(rng, REFLECTED_PAIRS, 3.0, 7.0):
            ops.append(Op("p_even", lam, mu, {"start": start, "t": t}))
    rng.shuffle(ops)
    return ops


def _long_horizon(rng: random.Random) -> list[Op]:
    ops = []
    for chain in ("bilateral", "reflected"):
        for lam, mu, t in _per_pair(rng, LONG_PAIRS, *LONG_T):
            start = 1 if chain == "reflected" else rng.randint(-2, 2)
            ops.append(Op("distribution", lam, mu, {"chain": chain, "start": start, "t": t}))
        for lam, mu, horizon in _per_pair(rng, LONG_PAIRS, 30.0, 60.0):
            ops.append(Op("simulate", lam, mu, {
                "chain": chain, "start": 0, "paths": 1000, "horizon": horizon, "seed": rng.randrange(2**32)}))
    for lam, mu, t in _per_pair(rng, LONG_PAIRS, LONG_T[0], 0.25 * Q10_REACH):
        ops.append(Op("invert", lam, mu, {"t": t}))
    for lam, mu, t in _per_pair(rng, LONG_PAIRS, *LONG_T):
        start = rng.randint(-2, 2)
        ops.append(Op("transition", lam, mu, {"start": start, "end": start + rng.randint(-6, 6), "t": t}))
    for lam, mu, frac in _per_pair(rng, LONG_PAIRS, 0.3, 0.98, 4):
        ops.append(Op("q00", lam, mu, {"t": round(frac * Q00_REACH / abs(lam - mu), 3)}))
    for lam, mu, frac in _per_pair(rng, LONG_PAIRS, 0.3, 0.98, 4):
        ops.append(Op("q10_series", lam, mu, {"t": round(frac * Q10_REACH / (lam + mu), 3)}))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's op sequence for `seed` (verify's input is fixed)."""
    if workload == "verify":
        return [Op("verify")]
    rng = random.Random(seed)
    if workload == "reflected-curves":
        return _reflected_curves(rng)
    if workload == "long-horizon":
        return _long_horizon(rng)
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def known_defects(seed: int) -> list[Op]:
    """Ops past the closed forms' reach, which fail at the seed commit with
    NaN after the 10,000-term cap.  The traced report runs them, so a
    robustness fix has a count to move."""
    rng = random.Random(seed + 1)
    ops = [Op("q10_series", 1.0, 2.0, {"t": t}) for t in strata(rng, 2, 240.0, 1000.0)]
    ops += [Op("q00", 1.0, 2.0, {"t": t}) for t in strata(rng, 2, 720.0, 1000.0)]
    ops.append(Op("q10_series", 1e-3, 1e3, {"t": 1.0}))
    ops.append(Op("q00", 1e-3, 1e3, {"t": 1.0}))
    return ops


# ---------------------------------------------------------------------------
# execution

_RUNNER = CliRunner()


def _cli(args: list[str]):
    res = _RUNNER.invoke(altbd.cli.main, args)
    return res.exit_code, res.stdout


def _rate_args(op: Op) -> list[str]:
    return ["--lambda", repr(op.lam), "--mu", repr(op.mu)]


def _grid(op: Op) -> str:
    return f"0:{op.args['stop']!r}:{op.args['count']}"


def _run_verify(op: Op):
    return _cli(["verify"])


def _run_reflect(op: Op):
    a = op.args
    return _cli(["reflect", *_rate_args(op), "--from", str(a["start"]), "--t", _grid(op), "--method", a["method"]])


def _run_moments(op: Op):
    a = op.args
    return _cli(["moments", "--process", "reflected", *_rate_args(op), "--from", str(a["start"]), "--t", _grid(op)])


def _run_p_even(op: Op):
    return reflecting.p_even(op.args["start"], op.args["t"], op.rates)


def _run_distribution(op: Op):
    a = op.args
    return oracle.transient_distribution(a["chain"], op.rates, a["start"], a["t"], eps=ROW_EPS)


def _run_simulate(op: Op):
    a = op.args
    cfg = SimConfig(paths=a["paths"], horizon=a["horizon"], seed=a["seed"])
    return oracle.simulate(a["chain"], op.rates, a["start"], cfg, [a["horizon"] / 2.0, a["horizon"]])


def _run_invert(op: Op):
    rates = op.rates
    return oracle.invert_laplace(lambda s: reflecting.pi_1n(s, 0, rates), op.args["t"])


def _run_transition(op: Op):
    a = op.args
    return bilateral.transition_prob(TransitionQuery(a["start"], a["end"], a["t"]), op.rates)


def _run_q00(op: Op):
    return reflecting.q00(op.args["t"], op.rates)


def _run_q10_series(op: Op):
    return reflecting.q10_series(op.args["t"], op.rates)


EXECUTE = {
    "verify": _run_verify,
    "reflect": _run_reflect,
    "moments": _run_moments,
    "p_even": _run_p_even,
    "distribution": _run_distribution,
    "simulate": _run_simulate,
    "invert": _run_invert,
    "transition": _run_transition,
    "q00": _run_q00,
    "q10_series": _run_q10_series,
}


def warm_up(workload: str) -> None:
    """One small, untimed op of each kind the workload runs."""
    rates = (1.0, 2.0)
    if workload == "verify":
        _cli(["verify", "--help"])
        altbd.cli.run_verification(pairs=())
        return
    if workload == "reflected-curves":
        warm = [
            Op("reflect", *rates, {"start": 0, "method": "series", "stop": 1.0, "count": 2}),
            Op("reflect", *rates, {"start": 1, "method": "series", "stop": 1.0, "count": 2}),
            Op("reflect", *rates, {"start": 1, "method": "integral", "stop": 1.0, "count": 2}),
            Op("moments", *rates, {"start": 0, "stop": 0.5, "count": 2}),
            Op("p_even", *rates, {"start": 0, "t": 0.5}),
        ]
    elif workload == "long-horizon":
        warm = [
            Op("distribution", *rates, {"chain": "bilateral", "start": 0, "t": 1.0}),
            Op("distribution", *rates, {"chain": "reflected", "start": 1, "t": 1.0}),
            Op("simulate", *rates, {"chain": "reflected", "start": 0, "paths": 10, "horizon": 1.0, "seed": 0}),
            Op("invert", *rates, {"t": 1.0}),
            Op("transition", *rates, {"start": 0, "end": 1, "t": 1.0}),
            Op("q00", *rates, {"t": 1.0}),
            Op("q10_series", *rates, {"t": 1.0}),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    for op in warm:
        EXECUTE[op.kind](op)


# ---------------------------------------------------------------------------
# checks


class References:
    """Independent reference values, computed once per input and cached."""

    def __init__(self):
        self._rows = {}
        self._q10 = {}

    def row(self, chain: str, op: Op, start: int, t: float):
        key = (chain, op.lam, op.mu, start, t)
        if key not in self._rows:
            self._rows[key] = oracle.transient_distribution(chain, op.rates, start, t, eps=ROW_EPS)
        return self._rows[key]

    def prob(self, chain: str, op: Op, start: int, end: int, t: float) -> float:
        states, probs = self.row(chain, op, start, t)
        i = end - int(states[0])
        return float(probs[i]) if 0 <= i < probs.size else 0.0

    def moments(self, chain: str, op: Op, start: int, t: float) -> tuple[float, float]:
        states, probs = self.row(chain, op, start, t)
        x = states.astype(float)
        m1 = float(probs @ x)
        return m1, float(probs @ (x * x)) - m1 * m1

    def q10(self, op: Op, t: float) -> float:
        key = (op.lam, op.mu, t)
        if key not in self._q10:
            self._q10[key] = reflecting.q10_series(t, op.rates)
        return self._q10[key]


def _miss(what: str, got: float, want: float, tol: float, rel: bool = False):
    scale = max(abs(want), 1e-300) if rel else 1.0
    err = abs(got - want) / scale
    if not err <= tol:
        return f"{what}: got {got!r}, reference {want!r}, {'relative ' if rel else ''}error {err:.3e} > {tol:g}"
    return None


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _check_cli_exit(result):
    code, _ = result
    return None if code == 0 else f"exit code {code}"


def _check_verify(op: Op, result, refs: References):
    fault = _check_cli_exit(result)
    if fault:
        return fault
    rows = _csv_rows(result[1])
    got = frozenset((r[0], float(r[1]), float(r[2]), float(r[4])) for r in rows)
    if got != VERIFY_ROWS:
        return f"verify rows differ from the default battery: {sorted(got ^ VERIFY_ROWS)}"
    for check, lam, mu, residual, tol, status in rows:
        if status != "pass" or not float(residual) <= float(tol):
            return f"verify {check} ({lam},{mu}): residual {residual} tolerance {tol} status {status}"
    return None


def _grid_times(op: Op, rows) -> np.ndarray | str:
    want = np.linspace(0.0, op.args["stop"], op.args["count"])
    got = np.array([float(r[0]) for r in rows])
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-12):
        return f"time grid {got.tolist()} differs from {want.tolist()}"
    return got


def _check_reflect(op: Op, result, refs: References):
    fault = _check_cli_exit(result)
    if fault:
        return fault
    rows = _csv_rows(result[1])
    times = _grid_times(op, rows)
    if isinstance(times, str):
        return times
    start = op.args["start"]
    for t, row in zip(times, rows):
        fault = _miss(f"q{start}0(t={t})", float(row[1]), refs.prob("reflected", op, start, 0, float(t)), TOL_REFLECTED)
        if fault:
            return fault
    return None


def _check_moments(op: Op, result, refs: References):
    fault = _check_cli_exit(result)
    if fault:
        return fault
    rows = _csv_rows(result[1])
    times = _grid_times(op, rows)
    if isinstance(times, str):
        return times
    for t, row in zip(times, rows):
        m1, var = refs.moments("reflected", op, op.args["start"], float(t))
        fault = _miss(f"mean(t={t})", float(row[1]), m1, TOL_MOMENTS) or _miss(
            f"variance(t={t})", float(row[2]), var, TOL_MOMENTS)
        if fault:
            return fault
    return None


def _check_p_even(op: Op, value, refs: References):
    states, probs = refs.row("reflected", op, op.args["start"], op.args["t"])
    return _miss("p_even", value, float(probs[states % 2 == 0].sum()), TOL_REFLECTED)


def _check_distribution(op: Op, result, refs: References):
    chain, start, t = op.args["chain"], op.args["start"], op.args["t"]
    states, probs = result
    fault = _miss("total mass", float(probs.sum()), 1.0, TOL_BILATERAL)
    if fault:
        return fault
    x = states.astype(float)
    if chain == "bilateral":
        m1 = float(probs @ x)
        fault = _miss("mean", m1, bilateral.mean(start, t, op.rates), TOL_BILATERAL) or _miss(
            "variance", float(probs @ (x * x)) - m1 * m1, bilateral.variance(start, t, op.rates), TOL_BILATERAL, rel=True)
        if fault:
            return fault
        even = states % 2 == 0
        for z in (0.99, 1.01):
            pair = bilateral.pgf(start, z, t, op.rates)
            zx = np.power(z, x)
            fault = _miss(f"F(z={z})", float(probs[even] @ zx[even]), pair.f, TOL_BILATERAL, rel=True) or _miss(
                f"G(z={z})", float(probs[~even] @ zx[~even]), pair.g, TOL_BILATERAL, rel=True)
            if fault:
                return fault
        return None
    # reflected, started at 1: the Laplace-domain route reaches any time
    rates = op.rates
    for n in range(4):
        want = oracle.invert_laplace(lambda s, n=n: reflecting.pi_1n(s, n, rates), t)
        fault = _miss(f"p_1{n}", float(probs[n]), want, TOL_REFLECTED)
        if fault:
            return fault
    if op.lam + op.mu <= Q10_REACH / t:
        return _miss("q10", float(probs[0]), refs.q10(op, t), TOL_REFLECTED)
    return None


def _check_simulate(op: Op, res, refs: References):
    a = op.args
    i = len(res.times) - 1
    m1, var = refs.moments(a["chain"], op, a["start"], a["horizon"])
    for what, got, se, want in (("mean", res.mean[i], res.mean_se[i], m1), ("variance", res.var[i], res.var_se[i], var)):
        if not abs(got - want) <= SIM_SE * se:
            return f"simulated {what} {got!r} is {abs(got - want) / se:.1f} standard errors from {want!r}"
    return None


def _check_invert(op: Op, value, refs: References):
    return _miss("inverted q10", value, refs.q10(op, op.args["t"]), TOL_INVERSION)


def _check_transition(op: Op, value, refs: References):
    a = op.args
    return _miss("transition_prob", value, refs.prob("bilateral", op, a["start"], a["end"], a["t"]), TOL_BILATERAL)


def _check_q00(op: Op, value, refs: References):
    return _miss("q00", value, refs.prob("reflected", op, 0, 0, op.args["t"]), TOL_REFLECTED)


def _check_q10_series(op: Op, value, refs: References):
    return _miss("q10_series", value, refs.prob("reflected", op, 1, 0, op.args["t"]), TOL_REFLECTED)


CHECK = {
    "verify": _check_verify,
    "reflect": _check_reflect,
    "moments": _check_moments,
    "p_even": _check_p_even,
    "distribution": _check_distribution,
    "simulate": _check_simulate,
    "invert": _check_invert,
    "transition": _check_transition,
    "q00": _check_q00,
    "q10_series": _check_q10_series,
}


def verdict(op: Op, result, error: BaseException | None, refs: References) -> str | None:
    """None when the op returned a value its reference confirms, else the reason it failed."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        return CHECK[op.kind](op, result, refs)
    except Exception as exc:  # a reference route that fails leaves the op unconfirmed
        return f"check could not run: {type(exc).__name__}: {exc}"
