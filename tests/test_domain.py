"""The domain contract: at any positive rates, long times and generating-function
or transform arguments, each public function returns a finite value in its
advertised range or raises a typed error that names the cause."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altbd import (
    ConvergenceError, DomainError, Rates, SimConfig, TransitionQuery, TruncatedChain, WindowTooSmallError,
    default_window, invert_laplace, laplace_roots, mean, p_even, pgf, pi_1n, q00, q10_integral, q10_series, r_mean,
    r_variance, simulate, transient_distribution, transition_prob, transition_probs, uniformize, variance,
)

from conftest import log_uniform

TYPED = (ConvergenceError, DomainError, WindowTooSmallError)


def calls(t, z, n, k, kind):
    """(name, call, lo, hi): every value `call(rates)` returns must be finite and in [lo, hi]."""
    return [
        ("transition_prob", lambda r: transition_prob(TransitionQuery(k, n, t), r), 0.0, 1.0),
        ("transition_probs", lambda r: transition_probs(k, range(n - 2, n + 3), t, r), 0.0, 1.0),
        ("pgf", lambda r: pgf(n, z, t, r), 0.0, math.inf),
        ("variance", lambda r: variance(n, t, r), 0.0, math.inf),
        ("q00", lambda r: q00(t, r), 0.0, 1.0),
        ("q10_series", lambda r: q10_series(t, r), 0.0, 1.0),
        ("q10_integral", lambda r: q10_integral(t, r), 0.0, 1.0),
        ("p_even", lambda r: p_even(k, t, r), 0.0, 1.0),
        ("r_mean", lambda r: r_mean(k, t, r), 0.0, math.inf),
        ("r_variance", lambda r: r_variance(k, t, r), 0.0, math.inf),
        ("laplace_roots", lambda r: laplace_roots(z, r), 0.0, math.inf),
        # the transform of a probability lies in [0, 1/s]
        ("pi_1n", lambda r: pi_1n(z, abs(n), r), 0.0, 1.0 / z),
        ("transient_distribution", lambda r: transient_distribution(kind, r, k, t)[1], 0.0, 1.0),
        # q10 from its transform, to the 1e-6 the inversion is held to elsewhere
        ("invert_laplace", lambda r: invert_laplace(lambda s: pi_1n(s, 0, r), t), -1e-6, 1.0 + 1e-6),
    ]


@settings(max_examples=25)
@given(
    lam=log_uniform(1e-3, 1e3),
    mu=log_uniform(1e-3, 1e3),
    t=log_uniform(1e-3, 1e3),
    z=log_uniform(0.01, 100.0),
    n=st.integers(min_value=-4, max_value=4),
    k=st.sampled_from([0, 1]),
    kind=st.sampled_from(["bilateral", "reflected"]),
)
# 2(lam + mu) overflows: Rates raises DomainError, naming both rates, before any series runs
@example(lam=1e308, mu=1e308, t=1e-305, z=1.0, n=0, k=0, kind="bilateral")
# a + b = 2 lam rounds to 0: the q10 routes form 2 lam/(lam + mu) directly and refuse lam/mu by DomainError
@example(lam=1e-300, mu=1.0, t=0.5, z=1.0, n=0, k=1, kind="reflected")
@example(lam=1.0, mu=1e300, t=1e-300, z=1.0, n=0, k=1, kind="reflected")
# lam t underflows and mu/lam overflows; the bilateral series runs on their logs
@example(lam=1e-170, mu=1e170, t=1e-169, z=1.0, n=1, k=1, kind="bilateral")
@example(lam=1e-300, mu=1e300, t=1e-300, z=1.0, n=0, k=1, kind="bilateral")
@example(lam=1e-300, mu=1e300, t=1e-250, z=1.0, n=1, k=1, kind="bilateral")
@example(lam=1e-300, mu=1e300, t=1.0, z=1.0, n=0, k=0, kind="bilateral")
# pgf's root product underflows, as would q10's divisor 2 lam (a + b) in absolute units
@example(lam=1e-300, mu=1e-300, t=1.0, z=1.0, n=0, k=1, kind="reflected")
# the quadrature's Bessel arguments reach the least subnormal
@example(lam=1e-3, mu=1e-300, t=1e-320, z=1.0, n=0, k=1, kind="reflected")
def test_value_in_range_or_typed_error(lam, mu, t, z, n, k, kind):
    # the oracle row takes about 2 max(lam, mu) t steps, so it runs only up to
    # 2e4 of them, formed so that it does not overflow at the explicit examples
    affordable_row = max(lam, mu) * t <= 1e4
    for name, call, lo, hi in calls(t, z, n, k, kind):
        if name == "transient_distribution" and not affordable_row:
            continue
        try:
            got = call(Rates(lam, mu))
        except TYPED:
            continue
        if dataclasses.is_dataclass(got):
            got = dataclasses.astuple(got)
        values = np.atleast_1d(np.asarray(got, dtype=float))
        assert np.isfinite(values).all() and ((lo <= values) & (values <= hi)).all(), (name, got)


RATES = Rates(1.0, 2.0)
# every public entry that takes a state, as a call of that state alone
STATE_ENTRIES = {
    "pi_1n": lambda k: pi_1n(1.0, k, RATES),
    "mean": lambda k: mean(k, 1.0, RATES),
    "variance": lambda k: variance(k, 1.0, RATES),
    "pgf": lambda k: pgf(k, 0.5, 1.0, RATES),
    "p_even": lambda k: p_even(k, 1.0, RATES),
    "r_mean": lambda k: r_mean(k, 1.0, RATES),
    "r_variance": lambda k: r_variance(k, 1.0, RATES),
    "simulate": lambda k: simulate("bilateral", RATES, k, SimConfig(10, 1.0), [1.0]),
    "default_window": lambda k: default_window("bilateral", RATES, k, 1.0),
    "transient_distribution": lambda k: transient_distribution("bilateral", RATES, k, 1.0),
    "uniformize": lambda k: uniformize(TruncatedChain("bilateral", -30, 30, RATES), k, 1.0),
}


@pytest.mark.parametrize("name", STATE_ENTRIES)
def test_non_integer_state_is_a_domain_error(name):
    call = STATE_ENTRIES[name]
    with pytest.raises(DomainError, match="must be an integer, got 2.5"):
        call(2.5)
    # a numpy integer is a state, with the value of the same int
    got, want = call(np.int64(1)), call(1)
    if dataclasses.is_dataclass(want):
        got, want = dataclasses.astuple(got), dataclasses.astuple(want)
    np.testing.assert_equal(got, want)
