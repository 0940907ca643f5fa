"""Command-line front end: CSV tables for the closed forms, the simulator,
and `verify`, which runs the cross-check battery of `altbd.verify`.

All numeric output uses 17 significant digits with a '.' decimal separator
(Python's formatting is locale-independent), one '#' comment block of
parameters, then a header line and the data rows.

Series truncation is fixed (`altbd.specfun.SERIES_REL_TOL` and
`SERIES_MAX_TERMS`), so no command takes a tolerance or a term cap.

Exit codes: 0 success, 2 usage error, 3 numeric/convergence failure,
4 verification failure.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import bilateral, oracle, reflecting
from .bilateral import Rates, TransitionQuery
from .oracle import SimConfig
from .specfun import ConvergenceError, DomainError
from .verify import DEFAULT_VERIFY_PAIRS, run_verification

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
        if not (start >= 0 and np.isfinite((start, stop)).all()):
            self.fail("times must be finite and >= 0", param, ctx)
        return np.linspace(start, stop, count)


TIME_GRID = TimeGrid()


def _rate_options(f):
    f = click.option("--lambda", "lam", type=float, required=True, help="jump rate out of even states")(f)
    f = click.option("--mu", "mu", type=float, required=True, help="jump rate out of odd states")(f)
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
@_out_option
def prob(lam, mu, from_state, to_state, grid, out):
    """Transition probability of the unrestricted chain on a time grid."""
    def run():
        rates = Rates(lam, mu)
        rows = [
            (t, bilateral.transition_prob(TransitionQuery(from_state, to_state, float(t)), rates))
            for t in grid
        ]
        _emit(
            out,
            ["altbd prob", f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} to={to_state}"],
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
@_out_option
def moments(lam, mu, process, from_state, grid, out):
    """Mean and variance on a time grid (reflected: initial state 0 or 1)."""
    if process == "reflected" and from_state not in (0, 1):
        raise click.UsageError("reflected moments need --from 0 or 1")

    def run():
        rates = Rates(lam, mu)
        rows = []
        for t in grid:
            t = float(t)
            if process == "bilateral":
                rows.append((t, bilateral.mean(from_state, t, rates), bilateral.variance(from_state, t, rates)))
            else:
                rows.append((t, reflecting.r_mean(from_state, t, rates), reflecting.r_variance(from_state, t, rates)))
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
@_out_option
def reflect(lam, mu, from_state, grid, method, out):
    """Probability that the reflected chain occupies the origin."""
    def run():
        rates = Rates(lam, mu)
        rows = []
        for t in grid:
            t = float(t)
            if from_state == 0:
                v = reflecting.q00(t, rates)
            elif method == "series":
                v = reflecting.q10_series(t, rates)
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


@main.command()
@_out_option
def verify(out):
    """Cross-check every closed form against the independent oracles."""
    def run():
        # read the grid at call time, so the report header and rows agree
        rows = run_verification(DEFAULT_VERIFY_PAIRS)
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
