import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from altbd import oracle
from altbd.bilateral import Rates, TransitionQuery, mean, transition_prob, variance
from altbd.oracle import (
    KINDS,
    SimConfig,
    TruncatedChain,
    WindowTooSmallError,
    default_window,
    invert_laplace,
    simulate,
    transient_distribution,
    uniformize,
)
from altbd.reflecting import pi_1n
from altbd.specfun import DomainError, SeriesOverflowError, bessel_i


def _against_twice_wider(kind, rates, k, t, eps):
    """The row on `default_window`, and the parts of the row on a window twice
    as wide that lie inside and outside it."""
    lo, hi = default_window(kind, rates, k, t, eps)
    narrow = uniformize(TruncatedChain(kind, lo, hi, rates), k, t, eps)
    wlo = 0 if kind == "reflected" else 2 * lo - k
    wide = uniformize(TruncatedChain(kind, wlo, 2 * hi - k, rates), k, t, eps)
    inside = np.zeros(wide.size, dtype=bool)
    inside[lo - wlo : hi - wlo + 1] = True
    return narrow, wide[inside], wide[~inside]


def _assert_leaks_at_most_half_eps(narrow, inside, outside, eps):
    # the Azuma-Hoeffding guarantee of default_window
    assert np.max(np.abs(inside - narrow)) <= eps / 2
    assert outside.sum() <= eps / 2


class TestTruncatedChain:
    def test_validation(self, rates_12):
        with pytest.raises(DomainError):
            TruncatedChain("other", -5, 5, rates_12)
        with pytest.raises(DomainError):
            TruncatedChain("bilateral", 5, -5, rates_12)
        with pytest.raises(DomainError):
            TruncatedChain("reflected", 1, 10, rates_12)

    def test_window_checks_the_kind(self, rates_12):
        # as TruncatedChain and simulate do, rather than sizing a bilateral window
        with pytest.raises(DomainError, match="kind"):
            default_window("reflect", rates_12, 3, 1.0)


def _truncated_row(kind, lo, hi, rates, k, t):
    """Row k of e^(Qt) for the truncated generator Q, built entry by entry:
    rate lam (mu) to each neighbour in the window from even (odd) states,
    except that the reflected zero state only jumps up; boundary rows leak mass."""
    states = np.arange(lo, hi + 1)
    q = np.zeros((states.size, states.size))
    for i, s in enumerate(states):
        r = rates.lam if s % 2 == 0 else rates.mu
        q[i, i] = -r if (kind == "reflected" and s == 0) else -2.0 * r
        if i + 1 < states.size:
            q[i, i + 1] = r
        if i > 0:
            q[i, i - 1] = r
    return expm(q * t)[k - lo]


class TestUniformize:
    def test_time_zero_indicator(self, rates_12):
        chain = TruncatedChain("bilateral", -5, 5, rates_12)
        probs = uniformize(chain, 2, 0.0)
        assert probs[chain.states.tolist().index(2)] == 1.0
        assert probs.sum() == 1.0

    def test_row_stochastic(self, rates_12):
        eps = 1e-12
        lo, hi = default_window("bilateral", rates_12, 0, 1.5)
        probs = uniformize(TruncatedChain("bilateral", lo, hi, rates_12), 0, 1.5, eps)
        assert abs(probs.sum() - 1.0) <= eps
        assert np.all(probs >= 0.0)

    def test_equal_rates_bessel_vector(self):
        rates = Rates(1.0, 1.0)
        states, probs = transient_distribution("bilateral", rates, 0, 1.0)
        for n in range(-8, 9):
            want = math.exp(-2.0) * bessel_i(abs(n), 2.0)
            got = probs[np.searchsorted(states, n)]
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("kind, lo, hi, k", [("bilateral", -20, 20, 0), ("reflected", 0, 24, 1)])
    def test_matches_matrix_exponential(self, kind, lo, hi, k, rates_12):
        t = 0.5
        want = _truncated_row(kind, lo, hi, rates_12, k, t)
        got = uniformize(TruncatedChain(kind, lo, hi, rates_12), k, t)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_window_too_small(self, rates_12):
        with pytest.raises(WindowTooSmallError):
            uniformize(TruncatedChain("bilateral", -2, 2, rates_12), 0, 3.0)

    @pytest.mark.parametrize("kind, lo, hi, k", [("bilateral", -2, 2, 0), ("reflected", 0, 3, 1)])
    def test_leak_is_the_mass_that_left_the_window(self, kind, lo, hi, k, rates_12):
        # the reported leak is the mass the truncated generator loses by time t
        with pytest.raises(WindowTooSmallError) as exc:
            uniformize(TruncatedChain(kind, lo, hi, rates_12), k, 3.0)
        leaked = float(re.search(r"leaked mass (\S+)", str(exc.value)).group(1))
        assert leaked == pytest.approx(1.0 - _truncated_row(kind, lo, hi, rates_12, k, 3.0).sum(), rel=1e-3)

    def test_rounding_is_not_counted_as_leaked(self):
        # Lambda t = 4e4 steps: the stencil's rounding drifts the total by about
        # 1e-12, past the default eps, though no mass reaches the window's edges
        rates = Rates(1e-3, 1e3)
        t = 20.0
        states, probs = transient_distribution("bilateral", rates, 0, t)
        assert 1.0 - probs.sum() > 1e-12
        m = float(states @ probs)
        assert abs(m - mean(0, t, rates)) <= 1e-9
        assert abs(float(states**2 @ probs) - m * m - variance(0, t, rates)) <= 1e-9

    def test_high_poisson_rate_keeps_mass(self, rates_12):
        # Poisson rate 4 * 386.25 = 1545: the weights themselves must not
        # leak mass, so the default window passes at the default eps
        t = 386.25
        lo, hi = default_window("bilateral", rates_12, 0, t)
        probs = uniformize(TruncatedChain("bilateral", lo, hi, rates_12), 0, t)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_widening_convergence(self, rates_12):
        # doubling the window moves the answer by less than eps
        eps = 1e-12
        lo, hi = default_window("bilateral", rates_12, 0, 2.0)
        narrow = uniformize(TruncatedChain("bilateral", lo, hi, rates_12), 0, 2.0, eps)
        wide = uniformize(TruncatedChain("bilateral", 2 * lo, 2 * hi, rates_12), 0, 2.0, eps)
        n0 = np.searchsorted(np.arange(lo, hi + 1), 0)
        w0 = np.searchsorted(np.arange(2 * lo, 2 * hi + 1), 0)
        span = 10
        assert np.allclose(
            narrow[n0 - span : n0 + span], wide[w0 - span : w0 + span], atol=eps
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rates", [Rates(1.0, 2.0), Rates(0.01, 10.0), Rates(3.0, 0.5)], ids=str)
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("t", [0.05, 1.0, 7.3, 40.0])
    def test_default_window_loses_no_mass(self, kind, rates, k, t):
        # where the displacement reach is no shorter than the jump reach R,
        # the window is the jump window and no mass reaches its edges: a
        # window twice as wide gives the same numbers, bit for bit, and exact
        # zeros outside it; where it is shorter, the contract of the
        # narrowed window holds
        eps = 1e-12
        narrow, inside, outside = _against_twice_wider(kind, rates, k, t, eps)
        left, weights = oracle._poisson_weights(oracle.uniformization_rate(rates) * t, eps)
        if default_window(kind, rates, k, t, eps)[1] - k == left + weights.size - 1:
            assert np.array_equal(inside, narrow)
            assert not np.any(outside)
        else:
            _assert_leaks_at_most_half_eps(narrow, inside, outside, eps)

    @given(
        kind=st.sampled_from(KINDS),
        log_lam=st.floats(math.log(1e-3), math.log(1e3)),
        log_mu=st.floats(math.log(1e-3), math.log(1e3)),
        k=st.integers(0, 5),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=12)
    def test_window_leaks_at_most_half_eps(self, kind, log_lam, log_mu, k, frac):
        # any rates in [1e-3, 1e3] and Poisson rates Lambda t up to 2e4
        eps = 1e-10
        rates = Rates(math.exp(log_lam), math.exp(log_mu))
        t = frac * 2e4 / oracle.uniformization_rate(rates)
        narrow, inside, outside = _against_twice_wider(kind, rates, k, t, eps)
        _assert_leaks_at_most_half_eps(narrow, inside, outside, eps)
        assert abs(narrow.sum() - 1.0) <= eps

    def test_long_time_row_is_short(self, rates_12):
        # the walk spreads like sqrt(Lambda t), not Lambda t: at t = 1000 the
        # jump reach alone would give 8,847 states
        states, _ = transient_distribution("bilateral", rates_12, 0, 1000.0, 1e-10)
        assert states.size <= 1000

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rates, lt", [(Rates(1.0, 1.0), "2e+300"), (Rates(1e10, 1.0), "inf")])
    def test_weights_past_any_array_are_a_domain_error(self, kind, rates, lt):
        # Lambda t = 2e300 asks for about 1e151 Poisson weights, past numpy's size
        # limit, and Lambda t = inf for infinitely many; no size numpy might try
        # to allocate is asked for here
        t = 1e300
        with pytest.raises(DomainError, match=re.escape(f"Lambda t = {lt} ")):
            default_window(kind, rates, 0, t)
        with pytest.raises(DomainError, match=re.escape(f"Lambda t = {lt} ")):
            transient_distribution(kind, rates, 0, t)
        with pytest.raises(DomainError, match=re.escape(f"Lambda t = {lt} ")):
            uniformize(TruncatedChain(kind, 0, 2, rates), 0, t)

    def test_weights_past_the_size_cap_build_no_array(self, monkeypatch):
        # Rates(1, 1) at t = 1e18 asked numpy for about 1.7e10 weights, 126 GiB;
        # with every numpy name in the oracle refused, the refusal must come
        # first.  Lambda t = 1.95e12 is the last rate whose range is built.
        class Built(Exception):
            pass

        class NoNumpy:
            def __getattr__(self, name):
                raise Built(name)

        monkeypatch.setattr(oracle, "np", NoNumpy())
        for kind in KINDS:
            with pytest.raises(DomainError, match=re.escape("Lambda t = 2e+18 ")):
                default_window(kind, Rates(1.0, 1.0), 0, 1e18)
            with pytest.raises(DomainError, match=re.escape("Lambda t = 2e+18 ")):
                transient_distribution(kind, Rates(1.0, 1.0), 0, 1e18)
        with pytest.raises(DomainError, match=re.escape("Lambda t = 1955000000000.0 ")):
            oracle._poisson_weights(1.955e12, 1e-12)
        with pytest.raises(Built):
            oracle._poisson_weights(1.954e12, 1e-12)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, 1.0, 5.0, math.nan, math.inf])
    def test_eps_outside_the_unit_interval(self, eps, rates_12):
        with pytest.raises(DomainError, match="eps"):
            default_window("bilateral", rates_12, 0, 1.0, eps)
        with pytest.raises(DomainError, match="eps"):
            transient_distribution("reflected", rates_12, 0, 1.0, eps)
        for t in (0.0, 1.0):
            with pytest.raises(DomainError, match="eps"):
                uniformize(TruncatedChain("bilateral", -20, 20, rates_12), 0, t, eps)

    def test_transient_distribution_sums_once(self, rates_12, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return uniformize(*args, **kwargs)

        monkeypatch.setattr(oracle, "uniformize", counted)
        for kind in KINDS:
            calls.clear()
            transient_distribution(kind, rates_12, 1, 40.0)
            assert len(calls) == 1

    @pytest.mark.parametrize("kind, want", [("bilateral", [3]), ("reflected", [0, 1, 2, 3])])
    def test_time_zero_window_ends_at_the_start(self, kind, want, rates_12):
        states, probs = transient_distribution(kind, rates_12, 3, 0.0)
        assert states.tolist() == want
        assert probs.tolist() == [0.0] * (len(want) - 1) + [1.0]

    @given(
        kind=st.sampled_from(KINDS),
        log_lam=st.floats(math.log(1e-2), math.log(1e2)),
        log_mu=st.floats(math.log(1e-2), math.log(1e2)),
        k=st.integers(0, 5),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_mass_within_eps(self, kind, log_lam, log_mu, k, frac):
        # any rates in [1e-2, 1e2] and times with Poisson rate Lambda t up
        # to 400: one window, no retry, no mass lost beyond eps
        eps = 1e-12
        rates = Rates(math.exp(log_lam), math.exp(log_mu))
        t = frac * 400.0 / (2.0 * max(rates.lam, rates.mu))
        _, probs = transient_distribution(kind, rates, k, t, eps)
        assert abs(probs.sum() - 1.0) <= eps

    def test_reflected_initial_boundary(self, rates_12):
        states, probs = transient_distribution("reflected", rates_12, 0, 0.8)
        assert states[0] == 0
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_initial_state_outside_window(self, rates_12):
        with pytest.raises(DomainError):
            uniformize(TruncatedChain("bilateral", -5, 5, rates_12), 9, 1.0)


class TestSimulate:
    def test_determinism(self, rates_12):
        cfg = SimConfig(paths=500, horizon=1.0, seed=123)
        a = simulate("bilateral", rates_12, 0, cfg, [0.5, 1.0])
        b = simulate("bilateral", rates_12, 0, cfg, [0.5, 1.0])
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.var, b.var)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.pmf, b.pmf)
        assert np.array_equal(a.pmf_se, b.pmf_se)

    def test_seed_changes_result(self, rates_12):
        a = simulate("bilateral", rates_12, 0, SimConfig(500, 1.0, seed=1), [1.0])
        b = simulate("bilateral", rates_12, 0, SimConfig(500, 1.0, seed=2), [1.0])
        assert not np.array_equal(a.mean, b.mean)

    def test_mean_within_standard_errors(self, rates_12):
        res = simulate("bilateral", rates_12, 2, SimConfig(20_000, 1.0, seed=7), [0.5, 1.0])
        for j in range(2):
            assert abs(res.mean[j] - 2.0) <= 4.0 * res.mean_se[j]

    def test_variance_within_standard_errors(self, rates_12):
        res = simulate("bilateral", rates_12, 0, SimConfig(20_000, 1.0, seed=11), [1.0])
        assert abs(res.var[0] - variance(0, 1.0, rates_12)) <= 4.0 * res.var_se[0]

    def test_reflected_stays_nonnegative(self, rates_12):
        res = simulate("reflected", rates_12, 0, SimConfig(2_000, 3.0, seed=3), [1.0, 3.0])
        assert res.states.min() >= 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_pmf_matches_uniformization(self, kind, rates_12):
        t = 1.0
        res = simulate(kind, rates_12, 0, SimConfig(20_000, t, seed=5), [t])
        states, probs = transient_distribution(kind, rates_12, 0, t)
        assert res.pmf.shape == res.pmf_se.shape == (1, res.states.size)
        for state, phat, se in zip(res.states, res.pmf[0], res.pmf_se[0]):
            if phat <= 1e-3:
                continue
            exact = probs[np.searchsorted(states, state)]
            assert abs(phat - exact) <= 4.0 * se

    def test_pmf_matches_closed_form(self, rates_12):
        t = 0.8
        res = simulate("bilateral", rates_12, 1, SimConfig(20_000, t, seed=17), [t])
        for state in (-1, 0, 1, 2, 3):
            exact = transition_prob(TransitionQuery(1, state, t), rates_12)
            j = np.searchsorted(res.states, state)
            assert res.states[j] == state
            assert abs(res.pmf[0, j] - exact) <= 4.0 * res.pmf_se[0, j]

    def test_empirical_pmf_sums_to_one(self, rates_12):
        res = simulate("reflected", rates_12, 1, SimConfig(1_000, 2.0, seed=9), [0.5, 2.0])
        for row in res.pmf:
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self, rates_12):
        with pytest.raises(DomainError):
            SimConfig(paths=0, horizon=1.0)
        with pytest.raises(DomainError):
            SimConfig(paths=10, horizon=0.0)
        with pytest.raises(DomainError):
            simulate("bilateral", rates_12, 0, SimConfig(10, 1.0), [2.0])
        with pytest.raises(DomainError):
            simulate("nope", rates_12, 0, SimConfig(10, 1.0), [0.5])
        with pytest.raises(DomainError, match="non-negative state"):
            simulate("reflected", rates_12, -1, SimConfig(10, 1.0), [0.5])
        with pytest.raises(DomainError, match="non-empty"):
            simulate("bilateral", rates_12, 0, SimConfig(10, 1.0), [])
        with pytest.raises(DomainError, match="nondecreasing"):
            simulate("bilateral", rates_12, 0, SimConfig(10, 1.0), [0.5, 0.25])


class TestInvertLaplace:
    def test_constant_transform(self):
        for t in (0.2, 1.0, 7.0):
            assert invert_laplace(lambda s: 1.0 / s, t) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_pair(self):
        for a in (0.5, 2.0):
            for t in (0.5, 1.5, 3.0):
                got = invert_laplace(lambda s: 1.0 / (s + a), t)
                assert got == pytest.approx(math.exp(-a * t), abs=1e-8)

    def test_cross_oracle_agreement(self, rates_12):
        t = 1.0
        inverted = invert_laplace(lambda s: pi_1n(s, 0, rates_12), t)
        states, probs = transient_distribution("reflected", rates_12, 1, t)
        assert inverted == pytest.approx(float(probs[0]), abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            invert_laplace(lambda s: 1.0 / s, 0.0)

    @pytest.mark.parametrize("t", [1e-300, 1e-305])
    def test_non_finite_sum_raises(self, t):
        # s + 2(lam + mu) overflows at the Bromwich nodes s ~ 9/t; the sum was
        # NaN, with only a numpy RuntimeWarning (an error under this suite's
        # warning filter)
        big = Rates(sys.float_info.max / 4, sys.float_info.max / 4)
        with pytest.raises(SeriesOverflowError, match=f"t={t!r}"):
            invert_laplace(lambda s: pi_1n(s, 0, big), t)
