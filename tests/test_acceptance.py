"""End-to-end acceptance battery.

One test per criterion, each at its stated tolerance, printing a PASS line
when it completes (run with -s to watch them stream).
"""

import math

import numpy as np
from click.testing import CliRunner

from altbd import cli
from altbd.bilateral import Rates, TransitionQuery, mean, transition_prob, variance
from altbd.oracle import SimConfig, invert_laplace, simulate, transient_distribution
from altbd.reflecting import (
    laplace_roots, p_even, pi_1n, q00, q10_integral, q10_series, r_mean, r_variance,
)
from altbd.specfun import bessel_i

from reference import _q00_series

GRID_PAIRS = [Rates(1.0, 2.0), Rates(2.0, 2.0), Rates(2.0, 1.0), Rates(0.5, 3.0)]
FIG3_PAIRS = [Rates(1.0, 2.0), Rates(2.0, 2.0), Rates(2.0, 1.0)]
GRID_TIMES = (0.1, 0.5, 1.0, 2.0, 5.0)
GRID_STARTS = range(-3, 4)


def p(k, n, t, rates):
    return transition_prob(TransitionQuery(k, n, t), rates)


def tail_window(rates, t):
    big = 2.0 * max(rates.lam, rates.mu)
    return int(math.ceil(big * t + 10.0 * math.sqrt(big * t) + 20.0))


def done(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_1_normalization():
    for rates in GRID_PAIRS:
        for k in GRID_STARTS:
            for t in GRID_TIMES:
                w = tail_window(rates, t)
                total = sum(p(k, n, t, rates) for n in range(k - w, k + w + 1))
                assert abs(total - 1.0) <= 1e-9, (rates, k, t, total)
    done(1, "normalization")


def test_criterion_2_symmetry():
    for rates in GRID_PAIRS:
        swapped = rates.swapped()
        for t in GRID_TIMES:
            for k in GRID_STARTS:
                for n in GRID_STARTS:
                    base = p(k, n, t, rates)
                    assert abs(p(2 - k, 2 - n, t, rates) - base) <= 1e-12
                    assert abs(p(1 - k, 1 - n, t, swapped) - base) <= 1e-12
                    assert abs(p(2 + k, 2 + n, t, rates) - base) <= 1e-12
                    assert abs(p(1 + k, 1 + n, t, swapped) - base) <= 1e-12
                    tr = swapped if (k + n) % 2 != 0 else rates
                    assert abs(p(n, k, t, tr) - base) <= 1e-12
    # the illustrated instance
    r12, r21 = Rates(1.0, 2.0), Rates(2.0, 1.0)
    for t in GRID_TIMES:
        assert abs(p(-2, 1, t, r12) - p(1, -2, t, r21)) <= 1e-12
    done(2, "symmetry")


def test_criterion_3_randomized_random_walk_reduction():
    for lam in (0.5, 1.0, 2.0):
        rates = Rates(lam, lam)
        for t in (0.5, 1.0, 2.0, 5.0):
            for n in range(-10, 11):
                closed = math.exp(-2.0 * lam * t) * bessel_i(abs(n), 2.0 * lam * t)
                assert abs(p(0, n, t, rates) - closed) <= 1e-10
    done(3, "randomized random walk reduction")


def test_criterion_4_oracle_equivalence_bilateral():
    for rates in GRID_PAIRS:
        for k in GRID_STARTS:
            for t in GRID_TIMES:
                states, probs = transient_distribution("bilateral", rates, k, t)
                lo = np.searchsorted(states, k - 12)
                hi = np.searchsorted(states, k + 12, side="right")
                for idx in range(lo, hi):
                    assert abs(p(k, int(states[idx]), t, rates) - probs[idx]) <= 1e-9
    # semigroup property
    rates = Rates(1.0, 2.0)
    for t in (0.3, 0.7):
        for s in (0.3, 0.7):
            w = tail_window(rates, t + s)
            for (k, n) in ((0, 0), (0, 3), (-1, 2)):
                direct = p(k, n, t + s, rates)
                total = sum(p(k, m, t, rates) * p(m, n, s, rates) for m in range(k - w, k + w + 1))
                assert abs(total - direct) <= 1e-8
    done(4, "oracle equivalence (bilateral)")


def test_criterion_5_moments():
    rates = Rates(1.0, 2.0)
    # exact mean, and variance against both truncated sums and the oracle
    for k in (-3, 0, 1, 2):
        for t in (0.5, 1.0, 2.0):
            assert mean(k, t, rates) == k
            w = tail_window(rates, t)
            ns = np.arange(k - w, k + w + 1)
            probs = np.array([p(k, int(n), t, rates) for n in ns])
            m2 = float(probs @ ns.astype(float) ** 2)
            assert abs(variance(k, t, rates) - (m2 - k * k)) <= 1e-8
            states, oprobs = transient_distribution("bilateral", rates, k, t)
            om1 = float(oprobs @ states)
            om2 = float(oprobs @ states.astype(float) ** 2)
            assert abs(variance(k, t, rates) - (om2 - om1 * om1)) <= 1e-8
    # Monte Carlo with 1e5 paths and a fixed seed
    res = simulate("bilateral", rates, 0, SimConfig(paths=100_000, horizon=1.0, seed=2024), [1.0])
    assert abs(res.mean[0] - 0.0) <= 4.0 * res.mean_se[0]
    assert abs(res.var[0] - variance(0, 1.0, rates)) <= 4.0 * res.var_se[0]
    done(5, "moments")


def test_criterion_6_reflected_chain():
    times = (0.25, 0.5, 1.0, 2.0, 5.0)
    for rates in FIG3_PAIRS:
        for t in times:
            _, probs = transient_distribution("reflected", rates, 0, t)
            assert abs(q00(t, rates) - probs[0]) <= 1e-7
            _, probs = transient_distribution("reflected", rates, 1, t)
            series = q10_series(t, rates)
            assert abs(series - probs[0]) <= 1e-7
            integral = q10_integral(t, rates)
            inverted = invert_laplace(lambda s: pi_1n(s, 0, rates), t)
            assert abs(series - integral) <= 1e-6
            assert abs(series - inverted) <= 1e-6
            assert abs(integral - inverted) <= 1e-6
    # top-to-bottom ordering of the three curves
    for t in np.linspace(0.05, 5.0, 40):
        top = q10_series(float(t), Rates(1.0, 2.0))
        mid = q10_series(float(t), Rates(2.0, 2.0))
        bot = q10_series(float(t), Rates(2.0, 1.0))
        assert top >= mid >= bot
    done(6, "reflected chain")


def test_criterion_7_laplace_domain():
    for rates in FIG3_PAIRS:
        lam, mu = rates.lam, rates.mu
        for s in (0.1, 1.0, 10.0):
            roots = laplace_roots(s, rates)
            assert roots.psi1_sq > 1.0
            assert 0.0 < roots.psi2_sq < 1.0
            assert abs(roots.psi1_sq * roots.psi2_sq - 1.0) <= 1e-12
            vals = [pi_1n(s, n, rates) for n in range(6)]
            assert abs((lam + s) * vals[0] - mu * vals[1]) <= 1e-10
            assert abs((2 * mu + s) * vals[1] - 1.0 - lam * vals[2] - lam * vals[0]) <= 1e-10
            assert abs((2 * lam + s) * vals[2] - mu * vals[1] - mu * vals[3]) <= 1e-10
            assert abs((2 * mu + s) * vals[3] - lam * vals[4] - lam * vals[2]) <= 1e-10
        for s in (0.5, 1.0, 2.0):
            total = sum(pi_1n(s, n, rates) for n in range(500))
            assert abs(total - 1.0 / s) <= 1e-8
    done(7, "laplace domain")


def test_criterion_8_reflected_moments():
    for rates in FIG3_PAIRS:
        for k in (0, 1):
            for t in (0.5, 1.0, 2.0, 5.0):
                states, probs = transient_distribution("reflected", rates, k, t)
                m1 = float(probs @ states)
                m2 = float(probs @ states.astype(float) ** 2)
                assert abs(r_mean(k, t, rates) - m1) <= 1e-6
                assert abs(r_variance(k, t, rates) - (m2 - m1 * m1)) <= 1e-6
    # even-state occupation solves its rate equation
    h = 1e-4
    for rates in FIG3_PAIRS:
        lam, mu = rates.lam, rates.mu
        for k in (0, 1):
            # the series of q00, not the contour sum the moments take their integrals from
            qf = (lambda tt, rr=rates: _q00_series(tt, rr)) if k == 0 else (lambda tt, rr=rates: q10_series(tt, rr))
            for t in (0.5, 1.5):
                dp = (p_even(k, t + h, rates) - p_even(k, t - h, rates)) / (2 * h)
                residual = dp + 2.0 * (lam + mu) * p_even(k, t, rates) - lam * qf(t) - 2.0 * mu
                assert abs(residual) < 1e-6
    done(8, "reflected moments")


def test_criterion_9_no_steady_state():
    ts = np.linspace(1.0, 100.0, 45)
    for rates in FIG3_PAIRS:
        values = np.array([q00(float(t), rates) for t in ts])
        assert values[-1] < 0.1
        peak = int(values.argmax())
        diffs = np.diff(values[peak:])
        assert np.all(diffs <= 1e-12), (rates, values[peak:])
    done(9, "no steady state")


def test_criterion_10_determinism():
    runner = CliRunner()
    args = [
        "simulate", "--lambda", "1", "--mu", "2", "--from", "0",
        "--t", "0.25:1:4", "--paths", "3000", "--seed", "99",
    ]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert first.exit_code == 0
    assert first.output == second.output  # byte-identical
    report = runner.invoke(cli.main, ["verify"])
    assert report.exit_code == 0, report.output
    done(10, "determinism and verification")
