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

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_window_past_int64_is_a_domain_error(self, kind, k):
        # numpy would hold such states as float64, whose neighbours collide at 2**63,
        # or as objects at 10**400; the window itself is refused
        with pytest.raises(DomainError, match=re.escape("must lie in [-2**62, 2**62] for the int64 state array")):
            transient_distribution(kind, Rates(1.0, 2.0), k, 1.0)
        with pytest.raises(DomainError, match="window hi must lie"):
            TruncatedChain(kind, 0, k, Rates(1.0, 2.0))
        with pytest.raises(DomainError, match="window lo must lie"):
            TruncatedChain("bilateral", -k, 0, Rates(1.0, 2.0))

    def test_window_at_the_int64_edge_runs(self, rates_12):
        # the row near 2**62 is the row near 0, shifted: its states are distinct int64s
        states, probs = transient_distribution("bilateral", rates_12, 2**62 - 100, 1.0)
        near, want = transient_distribution("bilateral", rates_12, 0, 1.0)
        assert states.dtype == np.int64 and states[-1] <= 2**62
        assert np.array_equal(states - (2**62 - 100), near)
        assert np.array_equal(probs, want)

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

    def test_work_past_the_caps_builds_no_array(self, rates_12, monkeypatch):
        # Rates(1, 2) at t = 1e6 would step its 30,529-state window 4e6 times,
        # minutes of work; a 10-state window at Lambda t = 1e9 takes only 1e10
        # state-steps, but 1e9 steps of about 3.7 us of numpy overhead each, an
        # hour; and a reflected start of 2**40 asked numpy for 2**40 cells.  With
        # every numpy name in the oracle refused, the refusals must come first,
        # at t = 0 too
        class NoNumpy:
            def __getattr__(self, name):
                pytest.fail(f"built an array with np.{name}")

        monkeypatch.setattr(oracle, "np", NoNumpy())
        with pytest.raises(DomainError, match=re.escape(
                "Lambda t = 4000000.0 takes up to 4.02e+06 Poisson steps of a 30529-state window, "
                "1.27e+11 state-steps with the overhead of 1000 per step, past its cap of 3e+10")):
            uniformize(TruncatedChain("bilateral", -15264, 15264, rates_12), 0, 1e6)
        with pytest.raises(DomainError, match=re.escape(
                "Lambda t = 1000000000.0 takes up to 1e+09 Poisson steps of a 10-state window, "
                "1.01e+12 state-steps with the overhead of 1000 per step, past its cap of 3e+10")):
            uniformize(TruncatedChain("bilateral", -4, 5, rates_12), 0, 2.5e8)
        for t in (0.0, 1.0):
            with pytest.raises(DomainError, match=re.escape(
                    f"has {2**40 + 1} states, past uniformize's cap of 4194304")):
                uniformize(TruncatedChain("reflected", 0, 2**40, rates_12), 2**40, t)
        monkeypatch.undo()
        # through the default window, after its few Poisson weights
        with pytest.raises(DomainError, match="30529-state window"):
            transient_distribution("bilateral", rates_12, 0, 1e6)
        with pytest.raises(DomainError, match="states, past uniformize's cap of 4194304"):
            transient_distribution("reflected", rates_12, 2**40, 1.0)

    def test_runs_at_the_caps(self, rates_12, monkeypatch):
        # a run exactly at each cap goes ahead and returns the row it returns below
        # any cap; a wider window or a longer time is refused
        chain, t = TruncatedChain("bilateral", -30, 30, rates_12), 1.0
        kept = uniformize(chain, 0, t)
        steps = 4.0 * t + oracle._poisson_reach(4.0 * t)
        monkeypatch.setattr(oracle, "_MAX_WINDOW_STATES", 61)
        monkeypatch.setattr(oracle, "_MAX_STATE_STEPS", steps * (61 + oracle._STEP_OVERHEAD_STATES))
        assert np.array_equal(uniformize(chain, 0, t), kept)
        with pytest.raises(DomainError, match="has 62 states, past uniformize's cap of 61"):
            uniformize(TruncatedChain("bilateral", -30, 31, rates_12), 0, t)
        with pytest.raises(DomainError, match="61-state window"):
            uniformize(chain, 0, 1.01)
        # the per-step overhead counts in full: a cap one state-step short per step refuses the run
        monkeypatch.setattr(oracle, "_MAX_STATE_STEPS", steps * (60 + oracle._STEP_OVERHEAD_STATES))
        with pytest.raises(DomainError, match="61-state window"):
            uniformize(chain, 0, t)

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
        # NaN fails both ends of the range check
        with pytest.raises(DomainError, match=re.escape("lie in [0, horizon]")):
            simulate("bilateral", rates_12, 0, SimConfig(10, 1.0), [float("nan")])
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            SimConfig(paths=10, horizon=1.0, seed=-1)

    def test_jump_bound_refused_before_any_draw(self, rates_12, monkeypatch):
        # paths times the expected jump count of one path; past the cap the call
        # would run for minutes, so it is refused before a generator exists
        cfg = SimConfig(paths=1000, horizon=1.0, seed=4)
        kept = simulate("bilateral", rates_12, 0, cfg, [0.5, 1.0])
        monkeypatch.setattr(oracle.np.random, "default_rng", lambda seed: pytest.fail("drew past the cap"))
        with pytest.raises(DomainError, match=re.escape("expects up to 2.67e+300 jumps")) as exc:
            simulate("bilateral", rates_12, 0, SimConfig(paths=1, horizon=1e300), [0.0, 1e300])
        assert f"cap of {oracle._MAX_JUMPS:.0e}" in str(exc.value)
        monkeypatch.undo()
        # at the cap itself the call runs, and its draws are the ones below any cap
        monkeypatch.setattr(oracle, "_MAX_JUMPS", oracle._expected_jumps(rates_12, 0, 1.0) * 1000)
        at_cap = simulate("bilateral", rates_12, 0, cfg, [0.5, 1.0])
        assert np.array_equal(at_cap.pmf, kept.pmf) and np.array_equal(at_cap.states, kept.states)
        with pytest.raises(DomainError, match="cap of 3e\\+03"):
            simulate("bilateral", rates_12, 0, SimConfig(paths=1001, horizon=1.0, seed=4), [0.5, 1.0])

    @pytest.mark.parametrize("k", [0, 1, -3, 4])
    @pytest.mark.parametrize("rates", [Rates(1.0, 2.0), Rates(2.0, 1.0), Rates(1e-6, 1e3)], ids=str)
    def test_expected_jumps_is_the_bilateral_variance(self, rates, k):
        # every step is +-1 and independent of the holding times
        for t in (0.0, 0.3, 2.0, 1e7):
            assert oracle._expected_jumps(rates, k, t) == pytest.approx(variance(k, t, rates), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_long_horizon_at_very_unequal_rates(self, kind):
        # about 40 jumps expected: the even states hold for 5e5 on average, the odd ones for 5e-4
        rates = Rates(1e-6, 1e3)
        assert oracle._expected_jumps(rates, 0, 1e7) == pytest.approx(40.0, rel=1e-3)
        res = simulate(kind, rates, 0, SimConfig(paths=1, horizon=1e7), [0.0, 1e7])
        assert res.pmf.shape == (2, res.states.size)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unbounded_run_still_refused(self, kind, rates_12):
        with pytest.raises(DomainError, match=re.escape("past its cap of 1e+10")):
            simulate(kind, rates_12, 0, SimConfig(paths=1, horizon=1e300), [0.0, 1e300])

    @pytest.mark.parametrize("kind", KINDS)
    def test_start_past_int64_refused_before_any_draw(self, kind, rates_12, monkeypatch):
        # int64 states wrap silently; a path from 2**62 needs over 4e18 jumps to wrap
        res = simulate(kind, rates_12, 2**62, SimConfig(paths=10, horizon=1.0), [0.0, 1.0])
        assert np.all(np.abs(res.states - 2**62) <= 100)
        monkeypatch.setattr(oracle.np.random, "default_rng", lambda seed: pytest.fail("drew past int64"))
        for k in (2**63 - 1, 2**63, 2**62 + 1):
            with pytest.raises(DomainError, match=re.escape(f"int64 state array of simulate, got {k}")):
                simulate(kind, rates_12, k, SimConfig(paths=100, horizon=1.0), [0.0, 1.0])
        with pytest.raises(DomainError, match="int64 state array"):
            simulate("bilateral", rates_12, -(2**62) - 1, SimConfig(paths=100, horizon=1.0), [0.0, 1.0])

    def test_paths_past_int64_are_a_domain_error(self):
        assert SimConfig(paths=2**63 - 1, horizon=1.0).paths == 2**63 - 1
        for paths in (2**63, 10**400):
            with pytest.raises(DomainError, match=re.escape("paths must be at most 2**63 - 1")):
                SimConfig(paths=paths, horizon=1.0)


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
