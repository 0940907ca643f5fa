"""Command-line front end: CSV tables for the closed forms, the simulator,
and `verify`, which runs the cross-check battery of `altbd.verify`.

All numeric output uses 17 significant digits with a '.' decimal separator
(Python's formatting is locale-independent), one '#' comment block of
parameters, then a header line and the data rows.

Series truncation is fixed (`altbd.specfun.SERIES_REL_TOL` and
`SERIES_MAX_TERMS`), so no command takes a tolerance or a term cap.

Exit codes: 0 success, 2 usage error (a rate or --z that is not positive and
finite is one), 3 numeric failure (a typed library error from any command,
mapped in one place, `_Main.invoke`), 4 verification failure.
"""

from __future__ import annotations

import math
import sys

import click

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
        if not (start >= 0 and math.isfinite(start) and math.isfinite(stop)):
            self.fail("times must be finite and >= 0", param, ctx)
        return _linspace(start, stop, count)


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """`numpy.linspace(start, stop, count)` as a list of floats, bit for bit."""
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    step = delta / (count - 1)
    if step == 0.0:  # numpy's rule for a step that underflows: scale i/(count-1) by delta instead
        grid = [i / (count - 1) * delta + start for i in range(count)]
    else:
        grid = [i * step + start for i in range(count)]
    grid[-1] = stop
    return grid


TIME_GRID = TimeGrid()


def _positive(ctx, param, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise click.BadParameter(f"must be strictly positive and finite, got {value}")
    return value


def _rate_options(f):
    f = click.option("--lambda", "lam", type=float, required=True, callback=_positive,
                     help="jump rate out of even states")(f)
    f = click.option("--mu", "mu", type=float, required=True, callback=_positive,
                     help="jump rate out of odd states")(f)
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
        # every echo names its stream: click's cache of a wrapper per sys.stdout, a WeakKeyDictionary
        # whose value holds its key, would keep each in-process run's captured streams alive
        click.echo(text, nl=False, file=sys.stdout)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _table(out, name, params, header, grid, row):
    """One CSV row (t, *row(t)) per grid time under `# altbd <name>` and `# <params>`."""
    _emit(out, [f"altbd {name}", params], ["t", *header], [(t, *row(float(t))) for t in grid])


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


class _Main(click.Group):
    """The one place where a command's typed numeric failure becomes exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConvergenceError, DomainError, oracle.WindowTooSmallError) as exc:
            click.echo(f"numeric failure: {exc}", file=sys.stderr)
            sys.exit(EXIT_NUMERIC)


@click.group(cls=_Main)
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
    rates = Rates(lam, mu)
    _table(out, "prob", f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} to={to_state}", ["p"], grid,
           lambda t: (bilateral.transition_prob(TransitionQuery(from_state, to_state, t), rates),))


@main.command()
@_rate_options
@click.option("--from", "from_state", type=int, required=True, help="initial state")
@click.option("--z", type=float, required=True, callback=_positive,
              help="generating-function argument (> 0)")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="time grid")
@_out_option
def pgf(lam, mu, from_state, z, grid, out):
    """Even/odd-state generating-function values on a time grid."""
    rates = Rates(lam, mu)
    def row(t):
        pair = bilateral.pgf(from_state, z, t, rates)
        return pair.f, pair.g, pair.total
    _table(out, "pgf", f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} z={_fmt(z)}",
           ["f_even", "g_odd", "total"], grid, row)


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
    rates = Rates(lam, mu)
    def row(t):
        if process == "bilateral":
            return bilateral.mean(from_state, t, rates), bilateral.variance(from_state, t, rates)
        return reflecting._moments(from_state, t, rates)
    _table(out, "moments", f"process={process} lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state}",
           ["mean", "variance"], grid, row)


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
    if from_state == 0 and method == "integral":
        raise click.UsageError("--method integral needs --from 1; the start at 0 has only q00, "
                               "a contour sum of its transform")
    rates = Rates(lam, mu)
    if from_state == 0:
        route, method = reflecting.q00, "contour"
    else:
        route = reflecting.q10_series if method == "series" else reflecting.q10_integral
    _table(out, "reflect", f"lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state} method={method}", ["q"],
           grid, lambda t: (route(t, rates),))


@main.command()
@_rate_options
@click.option("--process", type=click.Choice(["bilateral", "reflected"]), default="bilateral",
              show_default=True)
@click.option("--from", "from_state", type=int, required=True, help="initial state")
@click.option("--t", "grid", type=TIME_GRID, required=True, help="sample times")
@click.option("--paths", type=click.IntRange(min=1), default=10_000, show_default=True, help="replicate count")
@click.option("--seed", type=int, default=0, show_default=True, help="reproducibility seed")
@_out_option
def simulate(lam, mu, process, from_state, grid, paths, seed, out):
    """Empirical distribution from stochastic simulation (fixed-seed reproducible)."""
    rates = Rates(lam, mu)
    cfg = SimConfig(paths=paths, horizon=float(grid[-1]) if grid[-1] > 0 else 1.0, seed=seed)
    res = oracle.simulate(process, rates, from_state, cfg, grid)
    states = res.states.tolist()
    rows = [(t, state, p, se)
            for t, ps, ses in zip(res.times, res.pmf.tolist(), res.pmf_se.tolist())
            for state, p, se in zip(states, ps, ses) if p > 0.0]
    _emit(
        out,
        ["altbd simulate",
         f"process={process} lambda={_fmt(lam)} mu={_fmt(mu)} from={from_state}",
         f"paths={paths} seed={seed}"],
        ["t", "state", "empirical_p", "std_err"],
        rows,
    )


@main.command()
@_out_option
def verify(out):
    """Cross-check every closed form against the independent oracles."""
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
            file=sys.stderr,
        )
    if failures:
        click.echo(f"{len(failures)} check(s) failed", file=sys.stderr)
        sys.exit(EXIT_VERIFY)
    click.echo("all checks passed", file=sys.stderr)


if __name__ == "__main__":
    main()
