"""Command-line front end: CSV tables for the closed forms, the simulator,
and a cross-checking `verify` battery.

All numeric output uses 17 significant digits with a '.' decimal separator
(Python's formatting is locale-independent), one '#' comment block of
parameters, then a header line and the data rows.

Exit codes: 0 success, 2 usage error, 3 numeric/convergence failure,
4 verification failure.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import bilateral, oracle, reflecting
from .bilateral import Rates, TransitionQuery
from .oracle import SimConfig
from .specfun import ConvergenceError, DomainError, SeriesControl

EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class TimeGrid(click.ParamType):
    """start:stop:count with inclusive endpoints, strictly increasing."""

    name = "start:stop:count"

    def convert(self, value, param, ctx):
        try:
            start_s, stop_s, count_s = value.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            self.fail(f"{value!r} is not of the form start:stop:count", param, ctx)
        if count < 1:
            self.fail("count must be >= 1", param, ctx)
        if count > 1 and not stop > start:
            self.fail("grid must be strictly increasing (stop > start)", param, ctx)
        if start < 0:
            self.fail("times must be >= 0", param, ctx)
        return np.linspace(start, stop, count)


TIME_GRID = TimeGrid()


def _rate_options(f):
    f = click.option("--lambda", "lam", type=float, required=True, help="jump rate out of even states")(f)
    f = click.option("--mu", "mu", type=float, required=True, help="jump rate out of odd states")(f)
    return f


def _series_options(f):
    f = click.option("--tol", type=float, default=1e-14, show_default=True, help="series relative tolerance")(f)
    f = click.option("--max-terms", type=int, default=10_000, show_default=True, help="series term cap")(f)
    return f


def _out_option(f):
    return click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
                        help="write CSV here instead of standard output")(f)


def _emit(out, comments, header, rows):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _numeric_guard(fn):
    try:
        return fn()
    except (ConvergenceError, DomainError, oracle.WindowTooSmallError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)


@click.group()
def main():
    """Transient probabilities and moments of birth-death chains with
    parity-alternating jump rates (rate lambda out of even states, mu out of
    odd states), on the integers and reflected at zero."""


@main.command()
@_rate_options
@click.option("--from", "from_state", type=int, required=True, help="initial state")
@click.option("--to", "to_state", type=int, required=True, help="target state")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="time grid")
@_series_options
@_out_option
def prob(lam, mu, from_state, to_state, grid, tol, max_terms, out):
    """Transition probability of the unrestricted chain on a time grid."""
    def run():
        rates = Rates(lam, mu)
        ctl = SeriesControl(rel_tol=tol, max_terms=max_terms)
        rows = [
            (t, bilateral.transition_prob(TransitionQuery(from_state, to_state, float(t)), rates, ctl))
            for t in grid
        ]
        _emit(
            out,
            [
                "altbd prob",
                f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} to={to_state}",
                f"tol={_fmt(tol)} max_terms={max_terms}",
            ],
            ["t", "p"],
            rows,
        )
    _numeric_guard(run)


@main.command()
@_rate_options
@click.option("--from", "from_state", type=int, required=True, help="initial state")
@click.option("--z", type=float, required=True, help="generating-function argument (> 0)")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="time grid")
@_out_option
def pgf(lam, mu, from_state, z, grid, out):
    """Even/odd-state generating-function values on a time grid."""
    def run():
        rates = Rates(lam, mu)
        rows = []
        for t in grid:
            pair = bilateral.pgf(from_state, z, float(t), rates)
            rows.append((t, pair.f, pair.g, pair.total))
        _emit(
            out,
            ["altbd pgf", f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} z={_fmt(z)}"],
            ["t", "f_even", "g_odd", "total"],
            rows,
        )
    _numeric_guard(run)


@main.command()
@_rate_options
@click.option("--process", type=click.Choice(["bilateral", "reflected"]), default="bilateral",
              show_default=True)
@click.option("--from", "from_state", type=int, required=True, help="initial state")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="time grid")
@_series_options
@_out_option
def moments(lam, mu, process, from_state, grid, tol, max_terms, out):
    """Mean and variance on a time grid (reflected: initial state 0 or 1)."""
    if process == "reflected" and from_state not in (0, 1):
        raise click.UsageError("reflected moments need --from 0 or 1")

    def run():
        rates = Rates(lam, mu)
        ctl = SeriesControl(rel_tol=tol, max_terms=max_terms)
        rows = []
        for t in grid:
            t = float(t)
            if process == "bilateral":
                rows.append((t, bilateral.mean(from_state, t, rates), bilateral.variance(from_state, t, rates)))
            else:
                rows.append((
                    t,
                    reflecting.r_mean(from_state, t, rates, ctl),
                    reflecting.r_variance(from_state, t, rates, ctl),
                ))
        _emit(
            out,
            ["altbd moments", f"process={process} lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state}"],
            ["t", "mean", "variance"],
            rows,
        )
    _numeric_guard(run)


@main.command()
@_rate_options
@click.option("--from", "from_state", type=click.IntRange(0, 1), required=True,
              help="initial state (0 or 1)")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="time grid")
@click.option("--method", type=click.Choice(["series", "integral"]), default="series",
              show_default=True, help="evaluation route for the start-at-1 case")
@_series_options
@_out_option
def reflect(lam, mu, from_state, grid, method, tol, max_terms, out):
    """Probability that the reflected chain occupies the origin."""
    def run():
        rates = Rates(lam, mu)
        ctl = SeriesControl(rel_tol=tol, max_terms=max_terms)
        rows = []
        for t in grid:
            t = float(t)
            if from_state == 0:
                v = reflecting.q00(t, rates, ctl)
            elif method == "series":
                v = reflecting.q10_series(t, rates, ctl)
            else:
                v = reflecting.q10_integral(t, rates)
            rows.append((t, v))
        _emit(
            out,
            ["altbd reflect",
             f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} method={method}"],
            ["t", "q"],
            rows,
        )
    _numeric_guard(run)


@main.command()
@_rate_options
@click.option("--process", type=click.Choice(["bilateral", "reflected"]), default="bilateral",
              show_default=True)
@click.option("--from", "from_state", type=int, required=True, help="initial state")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="sample times")
@click.option("--paths", type=int, default=10_000, show_default=True, help="replicate count")
@click.option("--seed", type=int, default=0, show_default=True, help="reproducibility seed")
@_out_option
def simulate(lam, mu, process, from_state, grid, paths, seed, out):
    """Empirical distribution from stochastic simulation (fixed-seed reproducible)."""
    def run():
        rates = Rates(lam, mu)
        cfg = SimConfig(paths=paths, horizon=float(grid[-1]) if grid[-1] > 0 else 1.0, seed=seed)
        res = oracle.simulate(process, rates, from_state, cfg, np.asarray(grid, dtype=float))
        rows = []
        for i, t in enumerate(res.times):
            for state in sorted(res.pmf[i]):
                rows.append((t, state, res.pmf[i][state], res.pmf_se[i][state]))
        _emit(
            out,
            ["altbd simulate",
             f"process={process} lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state}",
             f"paths={paths} seed={seed}"],
            ["t", "state", "empirical_p", "std_err"],
            rows,
        )
    _numeric_guard(run)


# ---------------------------------------------------------------------------
# verify


def _check_normalization(rates, ctl, times, starts):
    worst = 0.0
    for k in starts:
        for t in times:
            lo, hi = oracle.default_window("bilateral", rates, k, t)
            total = sum(
                bilateral.transition_prob(TransitionQuery(k, n, t), rates, ctl)
                for n in range(lo, hi + 1)
            )
            worst = max(worst, abs(total - 1.0))
    return worst


def _check_symmetry(rates, ctl, times):
    # five-clause suite: reflections and translations by even/odd amounts,
    # plus the transpose; the transpose carries a rate swap exactly when the
    # two states have opposite parity (for equal parity it is the plain
    # reversibility transpose, a consequence of the even reflection)
    swapped = rates.swapped()
    worst = 0.0

    def p(k, n, t, rr):
        return bilateral.transition_prob(TransitionQuery(k, n, t), rr, ctl)

    span = range(-3, 4)
    for t in times:
        for k in span:
            for n in span:
                base = p(k, n, t, rates)
                worst = max(worst, abs(p(2 - k, 2 - n, t, rates) - base))        # even reflection
                worst = max(worst, abs(p(1 - k, 1 - n, t, swapped) - base))      # odd reflection
                transpose_rates = swapped if (k + n) % 2 != 0 else rates
                worst = max(worst, abs(p(n, k, t, transpose_rates) - base))      # transpose
                worst = max(worst, abs(p(2 + k, 2 + n, t, rates) - base))        # even translation
                worst = max(worst, abs(p(1 + k, 1 + n, t, swapped) - base))      # odd translation
    return worst


def _check_chapman_kolmogorov(rates, ctl, pairs):
    worst = 0.0
    for (t, s) in pairs:
        for (k, n) in ((0, 0), (0, 1), (-1, 2)):
            lo, hi = oracle.default_window("bilateral", rates, k, t + s)
            direct = bilateral.transition_prob(TransitionQuery(k, n, t + s), rates, ctl)
            total = sum(
                bilateral.transition_prob(TransitionQuery(k, m, t), rates, ctl)
                * bilateral.transition_prob(TransitionQuery(m, n, s), rates, ctl)
                for m in range(lo, hi + 1)
            )
            worst = max(worst, abs(total - direct))
    return worst


def _check_bessel_reduction(ctl):
    from .specfun import bessel_i

    worst = 0.0
    rates = Rates(2.0, 2.0)
    for t in (0.5, 2.0, 5.0):
        for n in range(-10, 11):
            closed = math.exp(-4.0 * t) * bessel_i(abs(n), 4.0 * t, ctl)
            series = bilateral.transition_prob(TransitionQuery(0, n, t), rates, ctl)
            worst = max(worst, abs(closed - series))
    return worst


def _check_q10_triple(rates, ctl, times):
    worst = 0.0
    for t in times:
        series = reflecting.q10_series(t, rates, ctl)
        integral = reflecting.q10_integral(t, rates)
        inverted = oracle.invert_laplace(lambda s: reflecting.pi_1n(s, 0, rates), t)
        worst = max(worst, abs(series - integral), abs(series - inverted))
    return worst


def _check_origin_vs_oracle(rates, ctl, times):
    worst = 0.0
    for t in times:
        for k, closed in ((0, reflecting.q00(t, rates, ctl)), (1, reflecting.q10_series(t, rates, ctl))):
            _, probs = oracle.transient_distribution("reflected", rates, k, t)
            worst = max(worst, abs(closed - probs[0]))
    return worst


def _check_moments_vs_oracle(rates, ctl):
    # the bilateral residual also covers transition_prob pointwise over the
    # oracle's whole row: the moments are closed forms of their own, and a
    # slip that keeps the symmetries leaves them untouched
    worst_b = 0.0
    for k in (0, 1):
        for t in (0.5, 2.0):
            states, probs = oracle.transient_distribution("bilateral", rates, k, t)
            m1 = float(probs @ states)
            m2 = float(probs @ (states.astype(float) ** 2))
            worst_b = max(
                worst_b,
                abs(bilateral.mean(k, t, rates) - m1),
                abs(bilateral.variance(k, t, rates) - (m2 - m1 * m1)),
                max(
                    abs(bilateral.transition_prob(TransitionQuery(k, int(n), t), rates, ctl) - p)
                    for n, p in zip(states, probs)
                ),
            )
    worst_r = 0.0
    for k in (0, 1):
        for t in (1.0, 2.0):
            states, probs = oracle.transient_distribution("reflected", rates, k, t)
            m1 = float(probs @ states)
            m2 = float(probs @ (states.astype(float) ** 2))
            worst_r = max(
                worst_r,
                abs(reflecting.r_mean(k, t, rates, ctl) - m1),
                abs(reflecting.r_variance(k, t, rates, ctl) - (m2 - m1 * m1)),
            )
    return worst_b, worst_r


def _check_laplace_roots(rates):
    worst_vieta = 0.0
    worst_system = 0.0
    lam, mu = rates.lam, rates.mu
    for s in (0.1, 1.0, 10.0):
        roots = reflecting.laplace_roots(s, rates)
        worst_vieta = max(worst_vieta, abs(roots.psi1_sq * roots.psi2_sq - 1.0))
        pi = [reflecting.pi_1n(s, n, rates) for n in range(6)]
        worst_system = max(
            worst_system,
            abs((lam + s) * pi[0] - mu * pi[1]),
            abs((2 * mu + s) * pi[1] - 1.0 - lam * pi[2] - lam * pi[0]),
            abs((2 * lam + s) * pi[2] - mu * pi[1] - mu * pi[3]),
            abs((2 * mu + s) * pi[3] - lam * pi[4] - lam * pi[2]),
        )
    return worst_vieta, worst_system


DEFAULT_VERIFY_PAIRS = ((1.0, 2.0), (2.0, 2.0), (2.0, 1.0))


def run_verification(pairs=DEFAULT_VERIFY_PAIRS, ctl: SeriesControl | None = None):
    """Run the full cross-check battery; returns CSV-ready result rows.

    Each row is (check, lambda, mu, max_residual, tolerance, status).
    """
    ctl = ctl or SeriesControl()
    times = (0.1, 0.5, 1.0, 2.0, 5.0)
    rows = []

    def add(check, lam, mu, residual, tol):
        rows.append((check, lam, mu, residual, tol, "pass" if residual <= tol else "FAIL"))

    for (lam, mu) in pairs:
        rates = Rates(lam, mu)
        add("normalization", lam, mu,
            _check_normalization(rates, ctl, times, range(-3, 4)), 1e-9)
        add("symmetry", lam, mu, _check_symmetry(rates, ctl, (0.5, 2.0)), 1e-12)
        add("chapman_kolmogorov", lam, mu,
            _check_chapman_kolmogorov(rates, ctl, ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7))), 1e-8)
        add("q10_triple_agreement", lam, mu, _check_q10_triple(rates, ctl, (0.5, 1.0, 2.0)), 1e-6)
        add("origin_vs_oracle", lam, mu, _check_origin_vs_oracle(rates, ctl, (0.25, 1.0, 5.0)), 1e-7)
        wb, wr = _check_moments_vs_oracle(rates, ctl)
        add("bilateral_moments_vs_oracle", lam, mu, wb, 1e-8)
        add("reflected_moments_vs_oracle", lam, mu, wr, 1e-6)
        wv, ws = _check_laplace_roots(rates)
        add("psi_product_vieta", lam, mu, wv, 1e-12)
        add("laplace_system_residual", lam, mu, ws, 1e-10)
    add("bessel_reduction", 2.0, 2.0, _check_bessel_reduction(ctl), 1e-10)
    return rows


@main.command()
@_series_options
@_out_option
def verify(tol, max_terms, out):
    """Cross-check every closed form against the independent oracles."""
    def run():
        ctl = SeriesControl(rel_tol=tol, max_terms=max_terms)
        # read the grid at call time, so the report header and rows agree
        rows = run_verification(DEFAULT_VERIFY_PAIRS, ctl=ctl)
        _emit(
            out,
            ["altbd verify", f"grid={' '.join(f'({l},{m})' for l, m in DEFAULT_VERIFY_PAIRS)}"],
            ["check", "lambda", "mu", "max_residual", "tolerance", "status"],
            rows,
        )
        failures = [r for r in rows if r[-1] == "FAIL"]
        for check, lam, mu, residual, tolerance, status in rows:
            click.echo(
                f"{status.upper():4s} {check:28s} ({_fmt(lam)},{_fmt(mu)}) "
                f"max residual {residual:.3e} (tolerance {tolerance:.1e})",
                err=True,
            )
        if failures:
            click.echo(f"{len(failures)} check(s) failed", err=True)
            sys.exit(EXIT_VERIFY)
        click.echo("all checks passed", err=True)
    _numeric_guard(run)


if __name__ == "__main__":
    main()
