import math

import numpy as np
import pytest
from scipy.integrate import quad

from altbd import reflecting
from altbd.bilateral import Rates
from altbd.oracle import invert_laplace, transient_distribution
from altbd.reflecting import (
    LaplaceRoots,
    laplace_roots,
    p_even,
    pi_1n,
    q00,
    q10_integral,
    q10_series,
    r_mean,
    r_variance,
)
from altbd.specfun import ConvergenceError, DomainError, SeriesOverflowError, bessel_i

from conftest import oracle_moments, oracle_prob

FIG3_PAIRS = [Rates(1.0, 2.0), Rates(2.0, 2.0), Rates(2.0, 1.0)]
QUAD_RATES = [Rates(1.0, 2.0), Rates(3.0, 0.5), Rates(0.5, 3.0)]


def _unresolvable(u):
    # a square wave of period 2pi/1e5: 200 panels of 21 nodes cannot follow it
    return float(math.sin(1e5 * u) > 0.0)


class TestQuad:
    def test_gauss_subset_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.allclose(reflecting._KRONROD_NODES[9::-2], nodes[5:], rtol=0, atol=1e-15)
        assert np.allclose(reflecting._GAUSS_WEIGHTS[::-1], weights[5:], rtol=0, atol=1e-15)

    def test_kronrod_weights_sum_to_two(self):
        w = reflecting._KRONROD_WEIGHTS
        assert 2.0 * sum(w[:10]) + w[10] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("d", range(32))
    def test_rule_is_exact_to_degree_31(self, d):
        got, _ = reflecting._gk21(lambda x: x**d, -1.0, 1.0)
        assert got == pytest.approx(2.0 / (d + 1) if d % 2 == 0 else 0.0, abs=1e-15)

    @pytest.mark.parametrize("rates", QUAD_RATES, ids=lambda r: f"{r.lam:g},{r.mu:g}")
    @pytest.mark.parametrize("t", [0.5, 3.0, 7.0, 14.0, 20.0])
    @pytest.mark.parametrize(
        "route",
        [
            q10_integral,
            lambda t, r: p_even(0, t, r),
            lambda t, r: r_mean(1, t, r),
            lambda t, r: r_variance(1, t, r),
        ],
        ids=["q10_integral", "p_even", "r_mean", "r_variance"],
    )
    def test_matches_scipy_quad(self, monkeypatch, route, rates, t):
        # every integrand a route builds is integrated by both, which must
        # agree in value and in the number of integrand evaluations; the
        # integrand is memoized, since both rules evaluate it at the same nodes
        real = reflecting._quad
        results = []

        def both(f, upper, what):
            memo = {}
            calls = []

            def g(u):
                calls.append(u)
                if u not in memo:
                    memo[u] = f(u)
                return memo[u]

            tol = reflecting._QUAD_TOL
            want, _ = quad(g, 0.0, upper, epsabs=tol, epsrel=tol, limit=reflecting._QUAD_PANELS)
            scipy_calls = len(calls)
            got = real(g, upper, what)
            results.append((got, want, len(calls) - scipy_calls, scipy_calls))
            return got

        monkeypatch.setattr(reflecting, "_quad", both)
        route(t, rates)
        assert results
        for got, want, calls, scipy_calls in results:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert calls == scipy_calls

    def test_cap_raises_convergence_error(self):
        with pytest.raises(ConvergenceError) as exc:
            reflecting._quad(_unresolvable, 1.0, "square wave")
        assert not isinstance(exc.value, SeriesOverflowError)
        assert exc.value.terms == reflecting._QUAD_PANELS

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_raises_at_once(self, bad):
        calls = []

        def f(u):
            calls.append(u)
            return bad if u > 0.5 else 1.0

        with pytest.raises(SeriesOverflowError):
            reflecting._quad(f, 1.0, "bad")
        assert len(calls) == 21

    @pytest.mark.parametrize("route", [p_even, r_mean, r_variance])
    def test_unresolved_integral_raises(self, route, rates_12):
        # the routes return no value the quadrature could not vouch for
        with pytest.raises(ConvergenceError):
            route(0, 1.0, rates_12, q_k0=_unresolvable)


class TestLaplaceRoots:
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_vieta_product(self, s, rates_12):
        roots = laplace_roots(s, rates_12)
        assert roots.psi1_sq * roots.psi2_sq == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_root_bounds(self, s):
        for rates in FIG3_PAIRS:
            roots = laplace_roots(s, rates)
            assert roots.psi1_sq > 1.0
            assert 0.0 < roots.psi2_sq < 1.0

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_biquadratic_residual(self, s, rates_12):
        lam, mu = rates_12.lam, rates_12.mu
        x2 = laplace_roots(s, rates_12).psi2_sq
        mid = (lam + mu + s) ** 2 - lam * lam - mu * mu
        assert lam * mu * x2 * x2 - mid * x2 + lam * mu == pytest.approx(0.0, abs=1e-10)

    def test_equal_rates_root_still_interior(self, rates_22):
        for s in (0.1, 1.0, 10.0):
            roots = laplace_roots(s, rates_22)
            assert 0.0 < roots.psi2_sq < 1.0

    def test_domain_error(self, rates_12):
        with pytest.raises(DomainError):
            laplace_roots(0.0, rates_12)
        with pytest.raises(DomainError):
            laplace_roots(-1.0, rates_12)


class TestPi1n:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_total_mass_transform(self, s, rates_12):
        # transform of the constant 1: geometric tail makes truncation easy
        total = sum(pi_1n(s, n, rates_12) for n in range(400))
        assert total == pytest.approx(1.0 / s, abs=1e-8)

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_balance_system_residuals(self, s, rates_12):
        lam, mu = rates_12.lam, rates_12.mu
        vals = [pi_1n(s, n, rates_12) for n in range(6)]
        assert (lam + s) * vals[0] - mu * vals[1] == pytest.approx(0.0, abs=1e-10)
        assert (2 * mu + s) * vals[1] - 1.0 - lam * vals[2] - lam * vals[0] == pytest.approx(0.0, abs=1e-10)
        assert (2 * lam + s) * vals[2] - mu * vals[1] - mu * vals[3] == pytest.approx(0.0, abs=1e-10)
        assert (2 * mu + s) * vals[3] - lam * vals[4] - lam * vals[2] == pytest.approx(0.0, abs=1e-10)

    def test_even_terms_decay_geometrically(self, rates_21):
        s = 1.3
        ratio = laplace_roots(s, rates_21).psi2_sq
        for m in (1, 2, 3):
            got = pi_1n(s, 2 * (m + 1), rates_21) / pi_1n(s, 2 * m, rates_21)
            assert got == pytest.approx(ratio, rel=1e-12)

    def test_complex_argument_supported(self, rates_12):
        v = pi_1n(1.0 + 2.0j, 0, rates_12)
        assert isinstance(v, complex)
        with pytest.raises(DomainError):
            pi_1n(-1.0 + 2.0j, 0, rates_12)

    def test_validation(self, rates_12):
        with pytest.raises(DomainError):
            pi_1n(0.0, 0, rates_12)
        with pytest.raises(DomainError):
            pi_1n(1.0, -1, rates_12)


class TestQ00:
    def test_initial_value(self, rates_12):
        assert q00(0.0, rates_12) == 1.0

    def test_equal_rates_bessel_form(self):
        lam = 2.0
        rates = Rates(lam, lam)
        for t in (0.25, 1.0, 4.0):
            want = math.exp(-2 * lam * t) * (bessel_i(0, 2 * lam * t) + bessel_i(1, 2 * lam * t))
            assert q00(t, rates) == pytest.approx(want, abs=1e-12)

    def test_against_uniformization(self):
        for rates in FIG3_PAIRS:
            for t in (0.25, 1.0, 3.0):
                assert q00(t, rates) == pytest.approx(
                    oracle_prob("reflected", rates, 0, 0, t), abs=1e-8
                )

    def test_eventual_decay(self, rates_21):
        assert q00(50.0, rates_21) < q00(20.0, rates_21) < q00(5.0, rates_21)


class TestSeriesOverflow:
    # past (lam+mu)t or |lam-mu|t ~ 709 a 1F2 factor overflows to inf while
    # its e^(-at) scale underflows to 0, so the very first term is NaN
    @pytest.mark.parametrize(
        "fn, lam, mu, t",
        [
            (q00, 1.0, 2.0, 720.0),
            (q00, 1.0, 2.0, 792.0),
            (q10_series, 1.0, 2.0, 240.0),
            (q10_series, 1.0, 2.0, 426.0),
            (q00, 1e-3, 1e3, 1.0),
            (q10_series, 1e-3, 1e3, 1.0),
        ],
    )
    def test_raises_promptly(self, fn, lam, mu, t):
        with pytest.raises(SeriesOverflowError) as exc:
            fn(t, Rates(lam, mu))
        assert exc.value.terms < 10

    def test_quadrature_route_names_overflow(self):
        # the Bessel factors of the q10 integrand overflow once (lam+mu) t passes about 713
        with pytest.raises(SeriesOverflowError):
            q10_integral(300.0, Rates(1.0, 2.0))


class TestQ10:
    def test_initial_values(self, rates_12):
        assert q10_series(0.0, rates_12) == 0.0
        assert q10_integral(0.0, rates_12) == 0.0

    def test_series_against_uniformization(self):
        for rates in FIG3_PAIRS:
            for t in (0.5, 1.0, 2.0, 5.0):
                assert q10_series(t, rates) == pytest.approx(
                    oracle_prob("reflected", rates, 1, 0, t), abs=1e-7
                )

    def test_series_equals_integral(self):
        for rates in FIG3_PAIRS:
            for t in (0.5, 1.0, 2.0, 5.0):
                assert q10_series(t, rates) == pytest.approx(q10_integral(t, rates), abs=1e-7)

    def test_integral_against_laplace_inversion(self, rates_12):
        for t in (0.5, 1.0, 2.0):
            inverted = invert_laplace(lambda s: pi_1n(s, 0, rates_12), t)
            assert q10_integral(t, rates_12) == pytest.approx(inverted, abs=1e-6)

    def test_small_time_slope_is_mu(self, rates_12):
        t = 1e-4
        assert q10_series(t, rates_12) == pytest.approx(rates_12.mu * t, rel=1e-3)

    def test_no_steady_state_mass_at_origin(self):
        # occupation of the origin dies out; there is no limiting law
        for rates in FIG3_PAIRS:
            assert q10_series(100.0, rates) < 0.1
            assert q10_series(100.0, rates) < q10_series(40.0, rates) < q10_series(10.0, rates)

    @pytest.mark.parametrize("t", [0.3, 5.0, 17.0])
    def test_series_computes_each_value_once(self, monkeypatch, t):
        # the H_{2n+2} of term n is reused as the H_{2n} of term n+1, so each
        # outer term costs three kernel sums, plus one for H_0
        kernel_calls, outer_terms = [], []
        real_kernel, real_sum = reflecting._hyp_series, reflecting._sum_series

        def kernel(*args, **kwargs):
            kernel_calls.append(args)
            return real_kernel(*args, **kwargs)

        def sum_series(terms, what):
            def counted():
                for item in terms:
                    outer_terms.append(item)
                    yield item

            return real_sum(counted(), what)

        monkeypatch.setattr(reflecting, "_hyp_series", kernel)
        monkeypatch.setattr(reflecting, "_sum_series", sum_series)
        q10_series(t, Rates(3.0, 0.5))
        assert len(outer_terms) > 2
        assert len(kernel_calls) == 3 * len(outer_terms) + 1

    def test_integrand_computes_i0_once(self, monkeypatch):
        # per node: I_1 in each of the two kernel terms, and I_0 and I_1 of
        # a*s in the companion, I_0 shared by its two uses
        bessel_calls, nodes = [], []
        real_bessel, real_quad = reflecting.bessel_i, reflecting._quad

        def bessel(order, x):
            bessel_calls.append((order, x))
            return real_bessel(order, x)

        def quad(f, upper, what):
            def counted(u):
                nodes.append(u)
                return f(u)

            return real_quad(counted, upper, what)

        monkeypatch.setattr(reflecting, "bessel_i", bessel)
        monkeypatch.setattr(reflecting, "_quad", quad)
        q10_integral(5.0, Rates(1.0, 2.0))
        assert nodes
        assert len(bessel_calls) == 4 * len(nodes)


class TestLaplaceConsistency:
    def test_inversion_matches_uniformization_low_states(self):
        for rates in FIG3_PAIRS:
            for t in (0.5, 1.0, 2.0):
                states, probs = transient_distribution("reflected", rates, 1, t)
                for n in range(7):
                    inverted = invert_laplace(lambda s: pi_1n(s, n, rates), t)
                    assert inverted == pytest.approx(float(probs[n]), abs=1e-6)


class TestPEven:
    def test_initial_conditions(self, rates_12):
        assert p_even(0, 0.0, rates_12) == pytest.approx(1.0, abs=1e-14)
        assert p_even(1, 0.0, rates_12) == pytest.approx(0.0, abs=1e-14)

    def test_matches_even_state_mass(self):
        for rates in FIG3_PAIRS:
            for k in (0, 1):
                for t in (0.7, 2.0):
                    states, probs = transient_distribution("reflected", rates, k, t)
                    want = float(probs[::2].sum())
                    assert p_even(k, t, rates) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1])
    def test_ode_residual(self, k, rates_21):
        # dP/dt + 2(lam+mu) P - lam q_{k,0} - 2 mu = 0, central differences
        lam, mu = rates_21.lam, rates_21.mu
        h = 1e-4
        for t in (0.5, 1.5):
            dp = (p_even(k, t + h, rates_21) - p_even(k, t - h, rates_21)) / (2 * h)
            q = q00(t, rates_21) if k == 0 else q10_series(t, rates_21)
            residual = dp + 2.0 * (lam + mu) * p_even(k, t, rates_21) - lam * q - 2.0 * mu
            assert abs(residual) < 1e-6

    def test_bounds(self, rates_12):
        for t in (0.1, 1.0, 5.0):
            for k in (0, 1):
                v = p_even(k, t, rates_12)
                assert -1e-12 <= v <= 1.0 + 1e-12

    def test_injected_evaluator_for_general_start(self, rates_12):
        # the oracle supplies the return probability for starts without a
        # closed form
        k = 2
        def q_k0(tau):
            return oracle_prob("reflected", rates_12, k, 0, tau, eps=1e-11)
        t = 1.0
        states, probs = transient_distribution("reflected", rates_12, k, t)
        want = float(probs[::2].sum())
        assert p_even(k, t, rates_12, q_k0=q_k0) == pytest.approx(want, abs=1e-7)

    def test_unknown_start_requires_evaluator(self, rates_12):
        with pytest.raises(DomainError):
            p_even(3, 1.0, rates_12)


class TestReflectedMoments:
    def test_mean_at_zero(self, rates_12):
        assert r_mean(0, 0.0, rates_12) == 0.0
        assert r_mean(1, 0.0, rates_12) == 1.0

    def test_mean_nondecreasing(self, rates_12):
        values = [r_mean(0, t, rates_12) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_mean_against_oracle(self, rates_12):
        m, _ = oracle_moments("reflected", rates_12, 0, 1.0)
        assert r_mean(0, 1.0, rates_12) == pytest.approx(m, abs=1e-6)

    def test_variance_at_zero(self, rates_12):
        assert r_variance(0, 0.0, rates_12) == 0.0
        assert r_variance(1, 0.0, rates_12) == 0.0

    def test_variance_equal_rates_against_oracle(self, rates_22):
        for t in (0.5, 2.0):
            _, var = oracle_moments("reflected", rates_22, 0, t)
            assert r_variance(0, t, rates_22) == pytest.approx(var, abs=1e-6)

    def test_variance_against_oracle(self, rates_21):
        _, var = oracle_moments("reflected", rates_21, 1, 2.0)
        assert r_variance(1, 2.0, rates_21) == pytest.approx(var, abs=1e-6)

    def test_injected_evaluator(self, rates_12):
        k = 3
        def q_k0(tau):
            return oracle_prob("reflected", rates_12, k, 0, tau, eps=1e-11)
        m, var = oracle_moments("reflected", rates_12, k, 1.0)
        assert r_mean(k, 1.0, rates_12, q_k0=q_k0) == pytest.approx(m, abs=1e-6)
        assert r_variance(k, 1.0, rates_12, q_k0=q_k0) == pytest.approx(var, abs=1e-6)
