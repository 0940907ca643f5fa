import functools
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from altbd import reflecting, specfun, verify
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

from conftest import log_uniform, oracle_moments, oracle_prob
from reference import _q00_series, _q10_series_direct

FIG3_PAIRS = [Rates(1.0, 2.0), Rates(2.0, 2.0), Rates(2.0, 1.0)]
QUAD_RATES = [Rates(1.0, 2.0), Rates(3.0, 0.5), Rates(0.5, 3.0)]
LOG_UNIFORM = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


def _unresolvable(u):
    # a square wave of period 2pi/1e5: the 513 nodes of the last rule cannot follow it
    return float(math.sin(1e5 * u) > 0.0)


def _paper_pi_1n(lam, mu, s, count, dps):
    """pi_1n(s) for n < count by the paper's formulas at dps digits, A and B factored."""
    with mpmath.workdps(dps):
        lam, mu, s = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpmathify(s)
        A = mpmath.sqrt(s) * mpmath.sqrt(s + 2 * (lam + mu))
        B = mpmath.sqrt(s + 2 * mu) * mpmath.sqrt(s + 2 * lam)
        psi2 = 4 * lam * mu / (A + B) ** 2
        den = mu * (1 - psi2) - s * psi2
        want = [((2 * lam + s) * (2 * mu + s) - A * B) / (lam * (s * (2 * mu + s) + A * B))]
        for n in range(1, count):
            if n % 2 == 0:
                want.append((2 * mu + s) * (lam + s) * psi2 ** (n // 2 + 1) / (lam * lam * den))
            else:
                want.append((lam + s) * psi2 ** ((n + 1) // 2) * (1 + psi2) / (lam * den))
        return [complex(w) for w in want]


@functools.cache
def _scipy_occupation(k, t, rates):
    """int_0^t q_{k,0} and W(t) = int_0^t e^(-2a(t-u)) q_{k,0}(u) du by scipy's quad over the series
    (the series of q00, not q00, which sums the same contour as the moments)."""
    series = _q00_series if k == 0 else q10_series
    memo = {}

    def q(u):
        if u not in memo:
            memo[u] = series(u, rates)
        return memo[u]

    a = rates.total
    return tuple(
        quad(f, 0.0, t, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        for f in (q, lambda u: math.exp(-2.0 * a * (t - u)) * q(u))
    )


def _rule_totals(f, t):
    """The totals of `_quad`'s nested one-panel rules, orders 4 to 512, each sum formed as `_quad` forms it."""
    values = {}

    def at(x):
        if x not in values:
            values[x] = f(x)
        return values[x]

    n = reflecting._QUAD_MIN_ORDER
    while n <= reflecting._QUAD_MAX_ORDER:
        pairs = [at(t * math.sin(0.5 * math.pi * j / n) ** 2) for j in range(n + 1)]
        weights = reflecting._clenshaw_curtis_weights(n)
        yield n, 0.5 * t * sum(w * c * k for w, (_, c), (k, _) in zip(weights, pairs, reversed(pairs)))
        n *= 2


def _two_rule_order(f, t):
    """The order at which two successive rules first agree within _QUAD_TOL, absolute or relative,
    from the first rule whose nodes resolve unit scale at the ends."""
    previous, tol = None, reflecting._QUAD_TOL
    for n, total in _rule_totals(f, t):
        resolved = t * math.sin(0.5 * math.pi / n) ** 2 <= reflecting._QUAD_END_SPACING
        if resolved and previous is not None and abs(total - previous) <= max(tol, tol * abs(total)):
            return n
        previous = total
    return None


def _chebyshev(k, x):
    """T_k(2x - 1) on [0, 1]."""
    return math.cos(k * math.acos(min(1.0, max(-1.0, 2.0 * x - 1.0))))


class TestQuad:
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_rule_is_exact_to_its_order(self, n):
        weights = reflecting._clenshaw_curtis_weights(n)
        nodes = [math.cos(math.pi * j / n) for j in range(n + 1)]
        for d in range(n + 1):
            got = sum(w * x**d for w, x in zip(weights, nodes))
            assert got == pytest.approx(2.0 / (d + 1) if d % 2 == 0 else 0.0, abs=1e-14)

    @pytest.mark.parametrize("rates", QUAD_RATES, ids=lambda r: f"{r.lam:g},{r.mu:g}")
    @pytest.mark.parametrize("t", [0.5, 3.0, 7.0, 14.0, 20.0])
    @pytest.mark.parametrize(
        "route",
        [
            q10_integral,
            lambda t, r: p_even(0, t, r),
            lambda t, r: r_mean(1, t, r),
            lambda t, r: r_variance(1, t, r),
            lambda t, r: reflecting._q10_grid(t, 10, r),
        ],
        ids=["q10_integral", "p_even", "r_mean", "r_variance", "q10_grid"],
    )
    def test_matches_scipy_quad(self, monkeypatch, route, rates, t):
        # every integral a route takes must agree with scipy's quad: each
        # convolution k(i h - s) c(s) of _quad, one per panel end i h, and both
        # integrals of the contour sum in _contour with quad over the series
        real_quad, real_contour = reflecting._quad, reflecting._contour
        results = []

        def both(f, h, panels, what):
            tol = reflecting._QUAD_TOL
            got = real_quad(f, h, panels, what)
            assert len(got) == panels
            for i, total in enumerate(got, 1):
                upper = i * h
                want, _ = quad(lambda s: f(upper - s)[0] * f(s)[1], 0.0, upper, epsabs=tol, epsrel=tol, limit=200)
                results.append((total, want, 1e-12))
            return got

        def contour(k, upper, r):
            got = real_contour(k, upper, r)
            results.extend((g, w, 1e-10) for g, w in zip(got[1:], _scipy_occupation(k, upper, r)))
            return got

        monkeypatch.setattr(reflecting, "_quad", both)
        monkeypatch.setattr(reflecting, "_contour", contour)
        route(t, rates)
        assert results
        for got, want, tol in results:
            assert abs(got - want) <= tol * max(1.0, abs(want))

    def test_cap_raises_convergence_error(self):
        for panels in (1, 3):
            with pytest.raises(ConvergenceError) as exc:
                reflecting._quad(lambda x: (1.0, _unresolvable(x)), 1.0 / panels, panels, "square wave")
            assert not isinstance(exc.value, SeriesOverflowError)
            assert exc.value.terms == panels * reflecting._QUAD_MAX_ORDER + 1

    @pytest.mark.parametrize("rates", [Rates(1.0, 2.0), Rates(2.0, 1.0), Rates(1e-3, 1.0), Rates(1e3, 1e-3)],
                             ids=lambda r: f"{r.lam:g},{r.mu:g}")
    def test_never_more_nodes_than_two_rules(self, monkeypatch, rates):
        # the prediction only ever stops the rule earlier than the two-rule test would
        real_quad = reflecting._quad
        counts = []

        def counted(f, h, panels, what):
            nodes = []

            def g(x):
                nodes.append(x)
                return f(x)

            got = real_quad(g, h, panels, what)
            assert panels == 1
            counts.append((len(nodes), _two_rule_order(f, h) + 1))
            return got

        monkeypatch.setattr(reflecting, "_quad", counted)
        for tau in (1e-3, 0.1, 1.0, 5.0, 20.0, 60.0, 150.0, 400.0, 713.9):
            q10_integral(tau / rates.total, rates)
        assert all(new <= old for new, old in counts), counts
        assert sum(new for new, _ in counts) < sum(old for _, old in counts)

    def test_prediction_returns_an_order_early(self):
        # cos(20 x) on [0, 1]: successive differences 9.4e-3, 4.4e-7, 8e-17, so the
        # two-rule test returns at order 64, and the prediction (4.4e-7)^3/(9.4e-3)^2 = 1e-15
        # at 32, with that rule within 1e-16 of sin(20)/20
        assert _two_rule_order(lambda x: (1.0, math.cos(20.0 * x)), 1.0) == 64
        nodes = []

        def f(x):
            nodes.append(x)
            return 1.0, math.cos(20.0 * x)

        [got] = reflecting._quad(f, 1.0, 1, "cos(20 x)")
        assert len(nodes) == 33
        assert abs(got - math.sin(20.0) / 20.0) <= 1e-15

    def test_large_difference_is_not_accepted_on_the_prediction(self):
        # 2000 T_12 + 7.08e-3 T_40 at 2x - 1: order 16 is exact for T_12, so d_32 = 1.0e-4 is
        # T_40 alone and d_32^3/d_16^2 = 7e-17 lies within tol = 1.4e-10; but d_32 exceeds
        # sqrt(tol), and the rule of order 32 is 7.9e-6 off.  Order 128 is exact
        def c(x):
            return 2000.0 * _chebyshev(12, x) + 7.08e-3 * _chebyshev(40, x)

        exact = -2000.0 / 143 - 7.08e-3 / 1599
        totals = dict(_rule_totals(lambda x: (1.0, c(x)), 1.0))
        tol = reflecting._QUAD_TOL * abs(totals[32])
        d16, d32 = abs(totals[16] - totals[8]), abs(totals[32] - totals[16])
        assert d32**3 <= tol * d16**2 and d32 > math.sqrt(tol)
        assert abs(totals[32] - exact) > 1e3 * tol
        nodes = []

        def f(x):
            nodes.append(x)
            return 1.0, c(x)

        [got] = reflecting._quad(f, 1.0, 1, "Chebyshev sum")
        assert len(nodes) == 129
        assert abs(got - exact) <= tol

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_raises_at_once(self, bad):
        # with two panels the first total is finite and the second is not
        calls = []

        def f(u):
            calls.append(u)
            return 1.0, (bad if u > 0.5 else 1.0)

        for panels in (1, 2):
            calls.clear()
            with pytest.raises(SeriesOverflowError):
                reflecting._quad(f, 1.0 / panels, panels, "bad")
            assert len(calls) == panels * reflecting._QUAD_MIN_ORDER + 1  # the nodes of the first rule


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

    @pytest.mark.parametrize("s", [1e3, 1e6, 1e8])
    def test_small_root_matches_mpmath_at_large_s(self, s, rates_12):
        # psi2^2 = (A - B)^2/(4 lam mu) at 50 digits; A and B agree to about
        # log10(s^2) digits, so the float route must not subtract them
        with mpmath.workdps(50):
            lam, mu, s_ = mpmath.mpf(rates_12.lam), mpmath.mpf(rates_12.mu), mpmath.mpf(s)
            a, b = lam + mu, lam - mu
            A = mpmath.sqrt((a + s_) ** 2 - a * a)
            B = mpmath.sqrt((a + s_) ** 2 - b * b)
            want = float((A - B) ** 2 / (4 * lam * mu))
        assert laplace_roots(s, rates_12).psi2_sq == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_equal_rates_root_still_interior(self, rates_22):
        for s in (0.1, 1.0, 10.0):
            roots = laplace_roots(s, rates_22)
            assert 0.0 < roots.psi2_sq < 1.0

    def test_overflow_names_s(self, rates_12):
        # psi1^2 is about s^2/(lam mu)
        assert laplace_roots(1e150, rates_12).psi1_sq == pytest.approx(5e299, rel=1e-12)
        with pytest.raises(SeriesOverflowError, match=r"s=1e\+200"):
            laplace_roots(1e200, rates_12)

    def test_largest_rates_roots_in_range(self):
        # 4 lam mu overflows here; the roots are 1 -+ 1.5e-154, so both round to 1
        roots = laplace_roots(1.0, Rates(sys.float_info.max / 4, sys.float_info.max / 4))
        assert roots.psi1_sq == pytest.approx(1.0, rel=1e-15)
        assert roots.psi2_sq == pytest.approx(1.0, rel=1e-15)

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

    @pytest.mark.parametrize("s", [1e8, 1e100, 1e200, 1e300, 1.7e308])
    def test_finite_float_for_large_s(self, s, rates_12):
        values = [pi_1n(s, n, rates_12) for n in range(6)]
        assert all(type(v) is float and math.isfinite(v) for v in values)
        # the chain leaves 1 at rate 2 mu: pi_11(s) = 1/(s + 2 mu) + O(s^-3)
        assert values[1] == pytest.approx(1.0 / s, rel=1e-6, abs=1e-307)

    @pytest.mark.parametrize("s", [1e3, 1e6])
    def test_matches_mpmath_at_large_s(self, s, rates_12):
        # in floats (A - B)^2 and (2lam+s)(2mu+s) - AB lose about log10(s^2) digits to cancellation
        for n, w in enumerate(_paper_pi_1n(rates_12.lam, rates_12.mu, s, 6, 50)):
            assert pi_1n(s, n, rates_12) == pytest.approx(w.real, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "lam, mu, s",
        [
            (1.0, 2.0, 1e-300),
            (1.0, 2.0, 0.3 + 2.0j),
            (sys.float_info.max / 4, sys.float_info.max / 4, 1.0),
            (sys.float_info.max / 4, sys.float_info.max / 4, 1e-300),
            (1e-300, sys.float_info.max / 4, 1.0),
            (sys.float_info.max / 4, 1e-300, 1e10),
            (1e-300, 1e-300, 1e10),
        ],
    )
    def test_matches_mpmath_at_extreme_s_and_rates(self, lam, mu, s):
        # in floats lam mu overflows here, 1 - psi2^2 cancels at small s, and
        # (2 mu + s)/den or lam^2 den leaves the float range
        rates = Rates(lam, mu)
        for n, w in enumerate(_paper_pi_1n(lam, mu, s, 5, 700)):
            assert pi_1n(s, n, rates) == pytest.approx(w, rel=1e-12, abs=1e-300)

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

    @pytest.mark.parametrize("rates", [*FIG3_PAIRS, Rates(0.5, 3.0)], ids=lambda r: f"{r.lam:g},{r.mu:g}")
    @pytest.mark.parametrize("at", [1e-12, 1e-3, 0.1, 1.0, 5.0, 20.0, 50.0, 150.0, 400.0, 690.0])
    def test_contour_agrees_with_series(self, rates, at):
        # the contour sum against its 1F2 series, from a t near 0 up to the series' reach
        t = at / rates.total
        assert abs(q00(t, rates) - _q00_series(t, rates)) <= 1e-12

    @settings(max_examples=25)
    @given(lam=LOG_UNIFORM, mu=LOG_UNIFORM, t=LOG_UNIFORM)
    def test_property_against_uniformization(self, lam, mu, t):
        assume(2.0 * max(lam, mu) * t <= 2e4)
        rates = Rates(lam, mu)
        assert abs(q00(t, rates) - oracle_prob("reflected", rates, 0, 0, t)) <= 1e-9

    @pytest.mark.parametrize("t", [1e6, 1e300])
    def test_in_the_unit_interval_at_long_times(self, t):
        for rates in (*FIG3_PAIRS, Rates(1e-3, 1e3), Rates(1e3, 1e-3)):
            assert 0.0 <= q00(t, rates) <= 1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_series_at_very_unequal_rates(self, t):
        # 1 - r^m, r = b/a, formed as -expm1(m log1p(-2 lam/a)): subtracted
        # directly it lost about 7 digits here
        rates = Rates(1e-8, 1.0)
        assert abs(_q00_series(t, rates) - oracle_prob("reflected", rates, 0, 0, t)) <= 1e-13

    @pytest.mark.parametrize("t", [1e-5, 0.5, 1.0, 5.0, 100.0])
    def test_one_rate_vanishing(self, t):
        # with lam = 1e-300 the chain stays at 0 (q00 = e^(-lam t) to within
        # lam t); with mu = 1e-300 state 1 holds it once entered (q00 = e^(-t));
        # the series divides by 2 lam, where a + b = 1e-300 + (1e-300 - 1) is 0
        assert q00(t, Rates(1e-300, 1.0)) == pytest.approx(1.0, abs=1e-13)
        assert q00(t, Rates(1.0, 1e-300)) == pytest.approx(math.exp(-t), abs=1e-13)
        assert _q00_series(t, Rates(1e-300, 1.0)) == pytest.approx(1.0, abs=1e-13)


class TestSeriesOverflow:
    # past |lam-mu|t ~ 709 a 1F2 factor of the q00 series overflows to inf while
    # its e^(-at) scale underflows to 0, so the very first term is NaN; q10_series
    # refuses past (lam+mu)t = 713.98 before its first term
    @pytest.mark.parametrize(
        "fn, lam, mu, t",
        [
            (_q00_series, 1.0, 2.0, 720.0),
            (_q00_series, 1.0, 2.0, 792.0),
            (q10_series, 1.0, 2.0, 240.0),
            (q10_series, 1.0, 2.0, 426.0),
            (_q00_series, 1e-3, 1e3, 1.0),
            (q10_series, 1e-3, 1e3, 1.0),
        ],
    )
    def test_raises_promptly(self, fn, lam, mu, t):
        with pytest.raises(SeriesOverflowError) as exc:
            fn(t, Rates(lam, mu))
        assert exc.value.terms < 10

    @pytest.mark.parametrize(
        "lam, mu, t", [(1.0, 2.0, 720.0), (1.0, 2.0, 792.0), (1.0, 2.0, 1000.0), (1e-3, 1e3, 1.0)]
    )
    def test_q00_past_the_series_reach(self, lam, mu, t):
        # q00 has no reach limit: it holds where its series overflows
        rates = Rates(lam, mu)
        assert abs(q00(t, rates) - oracle_prob("reflected", rates, 0, 0, t)) <= 1e-9

    @pytest.mark.parametrize(
        "fn",
        [q00, lambda t, r: p_even(0, t, r), lambda t, r: r_mean(1, t, r), lambda t, r: r_variance(0, t, r)],
        ids=["q00", "p_even", "r_mean", "r_variance"],
    )
    def test_contour_sum_overflow_names_t(self, fn):
        # the contour nodes z/t leave the float range, as does the transform there
        t = 1e-310
        with pytest.raises(SeriesOverflowError, match=f"t={t!r}"):
            fn(t, Rates(1e300, 1e300))

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

    @settings(max_examples=25)
    @given(lam=LOG_UNIFORM, mu=LOG_UNIFORM, t=LOG_UNIFORM)
    @example(lam=1e-3, mu=1e3, t=0.5)
    def test_integral_property_against_uniformization(self, lam, mu, t):
        # a value within 1e-7 of the oracle, or a typed error naming the cause
        assume(2.0 * max(lam, mu) * t <= 2e4)
        rates = Rates(lam, mu)
        try:
            got = q10_integral(t, rates)
        except ConvergenceError:
            return
        assert abs(got - oracle_prob("reflected", rates, 1, 0, t)) <= 1e-7

    @pytest.mark.parametrize("rates", [Rates(1e-300, 1e-300), Rates(1e-300, 1.0), Rates(1e200, 1e200)])
    def test_divisor_out_of_the_float_range(self, rates):
        # the paper's divisor 2 lam (a + b) underflows at (1e-300, 1e-300) and overflows at
        # (1e200, 1e200); in the chain's time unit it is (2 lam/a)^2 = 1, and the values are
        # those of Rates(1, 1) at the same (lam + mu) t = 2.  At (1e-300, 1) lam/mu is refused
        t = 2.0 / rates.total
        for route in (q10_series, q10_integral):
            if rates.lam < reflecting._Q10_MIN_RATIO * rates.mu:
                with pytest.raises(DomainError, match="lam/mu"):
                    route(t, rates)
            else:
                assert abs(route(t, rates) - route(1.0, Rates(1.0, 1.0))) <= 1e-14

    @settings(max_examples=30)
    @given(
        lam=log_uniform(1e-3, 1e3),
        mu=log_uniform(1e-3, 1e3),
        c=log_uniform(1e-300, 1e300),
        tau=st.floats(min_value=0.0, max_value=700.0, exclude_min=True),
    )
    # the chain (1, 2) at t = 20 in the time unit 1/(3e-150), where absolute-unit kernels leave the float range
    @example(lam=1.0, mu=2.0, c=1e-150, tau=60.0)
    def test_routes_are_scale_invariant(self, lam, mu, c, tau):
        # q10 depends on the rates only through lam/mu and (lam + mu) t; every scaled
        # pair here lies in the range Rates accepts
        base, scaled = Rates(lam, mu), Rates(c * lam, c * mu)
        t = tau / scaled.total
        want = oracle_prob("reflected", scaled, 1, 0, t)
        for route in (q10_series, q10_integral):
            got = route(t, scaled)
            assert abs(got - route(tau / base.total, base)) <= 1e-14 * (1.0 + mu / lam)
            assert abs(got - want) <= 1e-7

    def test_least_subnormal_quadrature_nodes(self):
        # a s reaches 5e-324 at the nodes; q10 is about mu t = 1e-620, which rounds to 0
        assert q10_integral(1e-320, Rates(1e-3, 1e-300)) == 0.0
        assert q10_series(1e-320, Rates(1e-3, 1e-300)) == 0.0

    def test_small_time_slope_is_mu(self, rates_12):
        t = 1e-4
        assert q10_series(t, rates_12) == pytest.approx(rates_12.mu * t, rel=1e-3)

    def test_no_steady_state_mass_at_origin(self):
        # occupation of the origin dies out; there is no limiting law
        for rates in FIG3_PAIRS:
            assert q10_series(100.0, rates) < 0.1
            assert q10_series(100.0, rates) < q10_series(40.0, rates) < q10_series(10.0, rates)

    @pytest.mark.parametrize("t", [0.3, 5.0, 17.0, 200.0])
    def test_series_sums_eight_kernel_values(self, monkeypatch, t):
        # two sequences of four kernel sums each, whatever the number of outer terms
        kernel_calls, outer_terms = [], []
        real_kernel, real_sum = reflecting._hyp_series, reflecting._sum_series

        def kernel(*args):
            kernel_calls.append(args)
            return real_kernel(*args)

        def sum_series(terms, what, settled):
            def counted():
                for item in terms:
                    outer_terms.append(item)
                    yield item

            return real_sum(counted(), what, settled)

        monkeypatch.setattr(reflecting, "_hyp_series", kernel)
        monkeypatch.setattr(reflecting, "_sum_series", sum_series)
        q10_series(t, Rates(1.0, 2.0))
        assert len(outer_terms) > 2
        assert len(kernel_calls) <= 8

    @pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 5.0, 50.0, 300.0, 690.0])
    def test_h_sequence_matches_one_kernel_sum_per_value(self, z):
        top = int(z + 12.0 * math.sqrt(z)) + 40
        h = reflecting._h_sequence(z, top)
        assert len(h) == top + 3
        for j, got in enumerate(h):
            want = specfun._hyp_series(0.5, 0.5 * (j + 1), 0.5 * (j + 2), z * z / 4.0)
            assert abs(got - want) <= 1e-13 * want, j

    @pytest.mark.parametrize("z", [2.0, 100.0, 690.0])
    def test_h_sequence_against_mpmath(self, z):
        top = int(z + 12.0 * math.sqrt(z)) + 40
        h = reflecting._h_sequence(z, top)
        with mpmath.workdps(40):
            for j in (0, 1, 2, 3, top // 4, top // 2, top - 1, top + 2):
                want = float(mpmath.hyper([0.5], [mpmath.mpf(j + 1) / 2, mpmath.mpf(j + 2) / 2], mpmath.mpf(z) ** 2 / 4))
                assert abs(h[j] - want) <= 1e-14 * want, j

    @pytest.mark.parametrize("rates", [Rates(1.0, 2.0), Rates(3.0, 0.5), Rates(2.0, 2.0), Rates(1e-3, 1.0),
                                       Rates(1.0, 1e-3), Rates(40.0, 0.1)])
    def test_series_matches_one_kernel_sum_per_value(self, rates):
        # the sequences and the 2F3 identity against the paper's per-term loop; both
        # brackets cancel terms of order (lam + mu)^2 down to order lam, so the two
        # roundings part like mu/lam (each within 1e-13 of a 40-digit sum at 1e-3)
        tol = 5e-16 * (1.0 + rates.mu / rates.lam)
        for at in (1e-4, 0.3, 2.0, 10.0, 40.0, 100.0):
            t = at / rates.total
            assert abs(q10_series(t, rates) - _q10_series_direct(t, rates)) <= tol, t

    @pytest.mark.parametrize("rates", [Rates(1.0, 2.0), Rates(2.0, 1.0), Rates(1e-3, 1.0)])
    def test_series_sequences_cover_the_last_index_read(self, monkeypatch, rates):
        # the sequences are built once, so the sum must stop before it reads their end:
        # on a dense grid up to the reach, the last index read leaves a whole term to spare
        real = reflecting._h_sequence
        built, read = [], []

        class Recorded(list):
            def __getitem__(self, j):
                read.append(j)
                return super().__getitem__(j)

        def recorded(z, top):
            built.append(top + 3)
            return Recorded(real(z, top))

        monkeypatch.setattr(reflecting, "_h_sequence", recorded)
        taus = [10.0**e for e in range(-8, 1)] + [0.5 * k for k in range(3, 1427, 7)]
        for tau in taus:
            built.clear()
            read.clear()
            q10_series(tau / rates.total, rates)
            assert max(read) + 2 < min(built), tau

    def test_series_reach(self, rates_12):
        # H_0 = I_0((lam + mu) t) leaves the float range at 713.99; past 713.98 the series refuses
        assert 0.0 < q10_series(237.0, rates_12) < 1.0
        with pytest.raises(SeriesOverflowError, match="q10 series overflowed"):
            q10_series(238.0, rates_12)

    def test_series_kernel_overflow_at_its_cap(self, monkeypatch, rates_12):
        # past the reach, up to where (lam + mu) t itself overflows, the series refuses
        # by naming (lam + mu) t before any kernel sum: at 1.5e4 and 2e4 H_0's own sum
        # would reach its term cap overflowed
        built = []
        monkeypatch.setattr(reflecting, "_h_sequence", lambda z, top: built.append(z))
        monkeypatch.setattr(reflecting, "_hyp_series", lambda *args: built.append(args))
        for tau in (714.0, 1.5e4, 2e4, 1e308):
            with pytest.raises(SeriesOverflowError, match=re.escape("q10 series overflowed: (lam + mu) t =")) as exc:
                q10_series(tau / rates_12.total, rates_12)
            assert exc.value.partial == math.inf
        assert built == []

    def test_series_foresees_its_cap(self, monkeypatch):
        # the sum may stop from n = a t / 2 on, so with a cap of 20 the last a t
        # it can sum is 36 (where the kernel's own cap of 20 then raises); past
        # it the cap is certain and no sequence is built
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20)
        built = []
        real = reflecting._h_sequence

        def counted(z, top):
            built.append(z)
            return real(z, top)

        monkeypatch.setattr(reflecting, "_h_sequence", counted)
        rates = Rates(1.0, 2.0)
        with pytest.raises(ConvergenceError):
            q10_series(36.0 / rates.total, rates)
        assert built
        built.clear()
        with pytest.raises(ConvergenceError) as foreseen:
            q10_series(36.5 / rates.total, rates)
        assert type(foreseen.value) is ConvergenceError
        assert str(foreseen.value).startswith("q10 series did not converge")
        assert foreseen.value.partial == 0.0
        assert foreseen.value.terms == 20
        assert built == []

    def test_series_overflowed_argument(self):
        # (lam + mu) t itself overflows: typed, before any list is sized from it
        with pytest.raises(SeriesOverflowError, match="q10 series overflowed"):
            q10_series(1e308, Rates(1.0, 1.0))

    def test_integral_tolerance_applies_to_the_probability(self):
        # the raw integral is 2 lam (a + b) e^(at) times the probability, about 2e-9
        # times it here, so only a tolerance on the probability holds it to the oracle
        rates, t = Rates(1e-9, 1e-3), 2e4
        assert abs(q10_integral(t, rates) - oracle_prob("reflected", rates, 1, 0, t)) <= 1e-9

    @pytest.mark.parametrize(
        "rates, t",
        [
            pytest.param(Rates(1.0, 2.0), 237.5, id="237.5"),
            pytest.param(Rates(1.0, 2.0), 237.8, id="237.8"),
            pytest.param(Rates(1.0, 2.0), 250.0, id="250.0"),
            pytest.param(Rates(1e3, 1e-3), 712.6 / (1e3 + 1e-3), id="1e3,1e-3-712.6"),
            pytest.param(Rates(1e3, 1e-3), 713.5 / (1e3 + 1e-3), id="1e3,1e-3-713.5"),
        ],
    )
    def test_integral_overflow_is_typed(self, rates, t):
        # up to the reach each node's factors carry their share of e^(-(lam + mu) t), so none
        # overflows; past the reach the route refuses: inf or nan is named, never returned as a
        # silent 0
        if rates.total * t > reflecting._Q10_REACH:
            with pytest.raises(SeriesOverflowError, match="overflowed"):
                q10_integral(t, rates)
            return
        assert abs(q10_integral(t, rates) - oracle_prob("reflected", rates, 1, 0, t)) <= 1e-7

    @settings(max_examples=20)
    @given(
        lam=log_uniform(1e-3, 1e3),
        mu=log_uniform(1e-3, 1e3),
        tau=log_uniform(1e-3, 713.0),
        steps=st.integers(min_value=1, max_value=256),
    )
    @example(lam=1.0, mu=2.0, tau=713.0, steps=80)
    # panels of width 116 and 102, where a prediction from the rules of order 4, 8 and 16 was 1.9e-5
    # and 3.8e-8 off, and of width 19, where the rules of order 4 and 8 agreed on a total 2.2e-9 off
    @example(lam=21.61949429469387, mu=2.5714902721262893, tau=232.06056613798404, steps=2)
    @example(lam=187.23177588733736, mu=0.016449782557903872, tau=204.09345162223673, steps=2)
    @example(lam=626.1220848149931, mu=0.0036331264856115536, tau=38.3221676821885, steps=2)
    def test_grid_matches_one_time_calls(self, lam, mu, tau, steps):
        # one composite rule over the whole grid: each time within the quadrature's
        # tolerance of its own rule, though not bit-equal to it, and of the series
        rates = Rates(lam, mu)
        assert lam >= reflecting._Q10_MIN_RATIO * mu
        stop = tau / rates.total
        got = reflecting._q10_grid(stop, steps, rates)
        assert len(got) == steps
        for i, q in enumerate(got, 1):
            t = stop * i / steps
            assert abs(q - q10_integral(t, rates)) <= 1e-10, t
            assert abs(q - q10_series(t, rates)) <= 1e-9, t

    @pytest.mark.parametrize(
        "lam, mu, tau",
        [
            (1.3559809022253577, 0.2310311514285737, 326.75938428176335),
            (2.6328681634951496, 0.002477726667260254, 97.04815388605840),
            (923.9588217862487, 0.005838486870569817, 390.3386444413427),
        ],
    )
    def test_integral_prediction_waits_for_a_resolved_rule(self, lam, mu, tau):
        # on a wide panel two coarse rules may agree by chance before the differences decay
        # geometrically: predicted stops were 2.7e-5 (order 32), 5.2e-7 (16) and 1.8e-9 (32) off
        rates = Rates(lam, mu)
        t = tau / rates.total
        assert abs(q10_integral(t, rates) - q10_series(t, rates)) <= 1e-10

    def test_grid_stops_where_geometric_convergence_predicts(self, monkeypatch):
        # a benchmark grid: the differences of each total fall like rho^(-n), so the
        # prediction d_n^3/d_(n/2)^2 stops every total at order 16, 161 nodes, where
        # d_n^2/d_(n/2) overestimated the error enough to double to order 32, 321 nodes
        nodes = []
        real_sums = reflecting._bessel_sums

        def counted(z, beta, kappa):
            nodes.append(z)
            return real_sums(z, beta, kappa)

        monkeypatch.setattr(reflecting, "_bessel_sums", counted)
        rates, stop = Rates(2.0, 2.0), 14.892
        got = reflecting._q10_grid(stop, 10, rates)
        assert len(nodes) == 161
        monkeypatch.undo()
        for i, q in enumerate(got, 1):
            assert abs(q - q10_series(stop * i / 10, rates)) <= 1e-12

    def test_integral_sums_each_node_once(self, monkeypatch):
        # each node takes both of its factors, at x and |r| x, from one fused loop at x,
        # since every mirrored node i h - x is itself a node, and calls no other kernel:
        # a whole grid evaluates panels n + 1 distinct nodes, whatever its number of times
        rates = Rates(1.0, 2.0)
        sums, nodes, others, orders = [], [], [], []
        real_sums, real_quad = reflecting._bessel_sums, reflecting._quad

        def counted_sums(z, beta, kappa):
            sums.append(z)
            return real_sums(z, beta, kappa)

        def quad(f, h, panels, what):
            def counted(x):
                nodes.append(x)
                return f(x)

            got = real_quad(counted, h, panels, what)
            orders.append((len(nodes) - 1) / panels)
            return got

        for module in (specfun, reflecting):
            for name in ("bessel_i", "_hyp_series", "hyp1f2"):
                monkeypatch.setattr(module, name, lambda *args, name=name: others.append(name), raising=False)
        monkeypatch.setattr(reflecting, "_bessel_sums", counted_sums)
        monkeypatch.setattr(reflecting, "_quad", quad)
        reflecting._q10_grid(5.0, 8, rates)
        assert orders[0] in [reflecting._QUAD_MIN_ORDER * 2**e for e in range(8)]
        assert nodes and len(set(nodes)) == len(nodes)
        assert sums == nodes
        assert others == []

    def test_grid_builds_its_weights_once_and_outlasts_every_node(self, monkeypatch):
        # one weight table per grid, sized from its stop: at tau = 713.7, just below the
        # reach, the largest node is tau itself, and its terms stop two weights before the end
        builds, nodes = [], []
        real_weights, real_sums = reflecting._q10_weights, reflecting._bessel_sums

        def counted_weights(r, rp, rm, size):
            builds.append(size)
            return real_weights(r, rp, rm, size)

        def counted_sums(z, beta, kappa):
            nodes.append(z)
            return real_sums(z, beta, kappa)

        monkeypatch.setattr(reflecting, "_q10_weights", counted_weights)
        monkeypatch.setattr(reflecting, "_bessel_sums", counted_sums)
        rates = Rates(1.0, 2.0)
        stop = 713.7 / rates.total
        got = reflecting._q10_grid(stop, 10, rates)
        assert len(builds) == 1 and len(nodes) > 10
        beta, kappa = real_weights(-1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0, builds[0])
        real_sums(max(nodes), beta[:-2], kappa[:-2])
        q10_integral(1.0, rates)
        assert len(builds) == 2
        monkeypatch.undo()
        for i, q in enumerate(got, 1):
            assert abs(q - q10_series(stop * i / 10, rates)) <= 1e-10

    @pytest.mark.parametrize("route", [q10_series, q10_integral])
    def test_routes_take_the_kernel_directly(self, route, monkeypatch):
        # the series sums the 1F2 kernel itself and the quadrature the fused Bessel
        # sums alone; the checked public hyp1f2 is for outside input, so neither calls it
        public, kernel, bessel = [], [], []
        real_kernel = reflecting._hyp_series

        def counted(*args, **kwargs):
            kernel.append(args)
            return real_kernel(*args, **kwargs)

        for module in (specfun, reflecting):
            monkeypatch.setattr(module, "hyp1f2", lambda *args: public.append(args), raising=False)
            monkeypatch.setattr(module, "bessel_i", lambda *args: bessel.append(args), raising=False)
            monkeypatch.setattr(module, "_hyp_series", counted)
        route(5.0, Rates(1.0, 2.0))
        assert public == []
        if route is q10_series:
            assert kernel
        else:
            assert kernel == [] and bessel == []

    @pytest.mark.parametrize("route", [q10_series, q10_integral])
    def test_numpy_time_computes_in_python_floats(self, route):
        got = route(np.float64(1.0), Rates(1.0, 2.0))
        assert type(got) is float
        assert got == route(1.0, Rates(1.0, 2.0))

    def test_numpy_time_overflow_is_typed(self):
        # tier-1 turns warnings into errors: a numpy scalar's overflow warning would
        # come out in place of the typed error
        with pytest.raises(SeriesOverflowError, match="q10 series overflowed"):
            q10_series(np.float64(714.0) / 3, Rates(2.0, 1.0))

    @pytest.mark.parametrize(
        "rates, tau", [(Rates(1.0, 2.0), 3 * 237.9), (Rates(2.0, 1.0), 713.4), (Rates(1e3, 1e-3), 712.6)]
    )
    def test_series_holds_up_to_its_reach(self, rates, tau):
        # each part of a bracket may come within a factor 4 of the float range, so each
        # takes the e^(-tau) scale before they are added
        t = tau / rates.total
        got = q10_series(t, rates)
        assert abs(got - q10_integral(t, rates)) <= 1e-9
        assert abs(got - oracle_prob("reflected", rates, 1, 0, t)) <= 1e-9

    @pytest.mark.parametrize("lam", [3.1e-8, 1e-7, 1e-4])
    def test_integral_cancels_nothing_near_the_ratio_bound(self, lam):
        # the node's weights are sums and products of positive numbers, so its sums keep their
        # relative accuracy as lam/mu nears the bound, where the companion's bracket as
        # (1/2) C1 + r S2 + (1/2) C3 cancelled down to order lam and cost about 1e-9
        rates = Rates(lam, 1.0)
        for t in (0.5, 5.0, 19.0, 45.0):
            assert abs(q10_integral(t, rates) - oracle_prob("reflected", rates, 1, 0, t)) <= 1e-11, t

    @settings(max_examples=25)
    @given(lam=log_uniform(1e-12, 1e3), mu=log_uniform(1e-12, 1e3), t=st.floats(min_value=0.01, max_value=20.0))
    # lam/mu below the bound, where the cancelling brackets cost about 1e-7 and 1e-4
    @example(lam=1e-9, mu=1.0, t=0.5)
    @example(lam=1e-12, mu=1.0, t=0.5)
    def test_routes_hold_or_refuse_at_any_rate_ratio(self, lam, mu, t):
        # within the reflected tolerance of the oracle, a ConvergenceError, or,
        # where lam/mu is below the cancellation bound, a DomainError naming it
        assume(2.0 * max(lam, mu) * t <= 2e4)  # the oracle row takes about that many steps
        rates = Rates(lam, mu)
        want = oracle_prob("reflected", rates, 1, 0, t)
        for route in (q10_series, q10_integral):
            if lam < reflecting._Q10_MIN_RATIO * mu:
                with pytest.raises(DomainError, match="cancel"):
                    route(t, rates)
                continue
            try:
                got = route(t, rates)
            except ConvergenceError:
                continue
            assert abs(got - want) <= 1e-7


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
            q = _q00_series(t, rates_21) if k == 0 else q10_series(t, rates_21)
            residual = dp + 2.0 * (lam + mu) * p_even(k, t, rates_21) - lam * q - 2.0 * mu
            assert abs(residual) < 1e-6

    def test_bounds(self, rates_12):
        for t in (0.1, 1.0, 5.0):
            for k in (0, 1):
                v = p_even(k, t, rates_12)
                assert -1e-12 <= v <= 1.0 + 1e-12

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


class TestContour:
    # (rates, t, (q00, p_even(0), p_even(1), r_mean(1), r_variance(0))) pinned to the bit, so that any
    # change to the contour sums shows; the times straddle a t = 1e-17 and lam t = 1e-17
    PINNED = [
        ((1.0, 2.0), 5e-324, (
            1.0, 1.0, 0.0,
            1.0, 1e-323,
        )),
        ((1.0, 2.0), 3e-18, (
            1.0, 1.0, 8.999999999999999e-36,
            1.0, 2.999999999999999e-18,
        )),
        ((1.0, 2.0), 4e-18, (
            1.0, 1.0, 1.5999999999453314e-35,
            1.0, 4.000000000002886e-18,
        )),
        ((1.0, 2.0), 2e-17, (
            0.9999999999999936, 1.0, 1.1102230246251565e-16,
            1.0, 2.000000000001444e-17,
        )),
        ((1.0, 2.0), 0.5, (
            0.7111453411636329, 0.8054926874052285, 0.6836819041374921,
            1.1262060315800444, 0.5428079318509281,
        )),
        ((1.0, 2.0), 1000000.0, (
            0.0006514699751536633, 0.6667752450049071, 0.6667752449506179,
            1302.2740979780872, 969014.0615162877,
        )),
        ((3.0, 0.5), 1.0, (
            0.15247816366215033, 0.22076411539517554, 0.19145934313525084,
            1.2755426714376494, 0.6887333124425836,
        )),
        ((3.0, 0.5), 1000.0, (
            0.00550490994961774, 0.14521655846987613, 0.1452161653231163,
            32.904304224592494, 623.1656205946229,
        )),
        ((0.001, 1000.0), 9e-21, (
            1.0, 1.0, 4.05e-41,
            1.0, 9.000000001100618e-24,
        )),
        ((0.001, 1000.0), 2e-20, (
            1.0, 1.0, 1.9999999999316644e-40,
            1.0, 2.0000000002460256e-23,
        )),
        ((0.001, 1000.0), 1e-13, (
            0.9999999999999936, 0.9999999999999999, 2.000000165480742e-10,
            1.0, 1.0000000002230121e-16,
        )),
        ((0.001, 1000.0), 1000000.0, (
            0.02522815810504896, 0.9999990126150665, 0.999999012608761,
            49.494162577121415, 1453.8827565634215,
        )),
    ]

    @pytest.mark.parametrize("rates, t, want", PINNED, ids=[f"{lam:g},{mu:g}-{t:g}" for (lam, mu), t, _ in PINNED])
    def test_values_pinned(self, rates, t, want):
        rates = Rates(*rates)
        got = (q00(t, rates), p_even(0, t, rates), p_even(1, t, rates), r_mean(1, t, rates), r_variance(0, t, rates))
        assert got == want

    def test_moments_evaluate_neither_series_nor_quadrature(self, monkeypatch, rates_12):
        def forbidden(*args):
            raise AssertionError("the moments take their integrals from the transform")

        for name in ("q00", "q10_series", "_quad"):
            monkeypatch.setattr(reflecting, name, forbidden)
        for k in (0, 1):
            assert 0.0 < p_even(k, 3.0, rates_12) < 1.0
            assert r_mean(k, 3.0, rates_12) > k
            assert r_variance(k, 3.0, rates_12) > 0.0

    @pytest.mark.parametrize(
        "rates", [*FIG3_PAIRS, Rates(1e-3, 1e3), Rates(1e3, 1e-3)], ids=lambda r: f"{r.lam:g},{r.mu:g}"
    )
    def test_balance_at_contour_nodes(self, rates):
        # laplace_system_residual also evaluates the transform at the nodes
        # z/t, t in {1e-3, 1, 1e3}, off the real axis and across Re s < 0
        assert max(verify.laplace_system_residual(rates)) <= 1e-10

    @pytest.mark.parametrize("rates", [Rates(1.0, 2.0), Rates(3.0, 0.5)], ids=["1,2", "3,0.5"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_long_time_against_uniformization(self, k, rates):
        # at t = 1000, a t is past the q-series' reach of about 690
        t = 1000.0
        states, probs = transient_distribution("reflected", rates, k, t)
        m1, var = oracle_moments("reflected", rates, k, t)
        assert abs(r_mean(k, t, rates) - m1) <= 1e-9
        assert abs(r_variance(k, t, rates) - var) <= 1e-9 * var
        assert abs(p_even(k, t, rates) - float(probs[states % 2 == 0].sum())) <= 1e-12

    @settings(max_examples=25)
    @given(lam=LOG_UNIFORM, mu=LOG_UNIFORM, t=LOG_UNIFORM, k=st.sampled_from([0, 1]))
    def test_property_against_uniformization(self, lam, mu, t, k):
        assume(2.0 * max(lam, mu) * t <= 2e4)
        rates = Rates(lam, mu)
        states, probs = transient_distribution("reflected", rates, k, t)
        m1, var = oracle_moments("reflected", rates, k, t)
        pairs = [
            (p_even(k, t, rates), float(probs[states % 2 == 0].sum())),
            (r_mean(k, t, rates), m1),
            (r_variance(k, t, rates), var),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_extreme_times_give_a_value_or_a_typed_error(self, rates_12):
        for t in (1e-300, 1e-100, 1e100, 1e300):
            assert math.isfinite(r_mean(1, t, rates_12))
            assert math.isfinite(r_variance(1, t, rates_12))
            assert 0.0 <= p_even(1, t, rates_12) <= 1.0
        # from 0 the origin is held at first: lam int_0^t q00 = lam t + O(t^2);
        # from 1 the chain leaves at rate 2 mu, so the variance is 2 mu t + O(t^2)
        assert r_mean(0, 1e-300, rates_12) == pytest.approx(1e-300, rel=1e-9, abs=0.0)
        assert r_variance(1, 1e-300, rates_12) == pytest.approx(4e-300, rel=1e-9, abs=0.0)
        assert math.isfinite(r_variance(0, 1.0, Rates(1e200, 1e200)))

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("t", [5e-324, 1e-308])
    def test_below_the_contour_the_t_to_0_limits(self, k, t, rates_12):
        # z/t leaves the float range here: P(0), k and 0, to within t
        assert p_even(k, t, rates_12) == (1.0 if k == 0 else 0.0)
        assert r_mean(k, t, rates_12) == pytest.approx(k, abs=1e-307)
        assert 0.0 <= r_variance(k, t, rates_12) <= 1e-307

    @pytest.mark.parametrize("k", [0, 1])
    def test_at_the_largest_times_values_in_range(self, k, rates_12):
        # past the relaxation time the mean grows like sqrt(t) and the
        # variance like t; at t = 1e308 neither leaves the float range,
        # though 4 lam mu t/a and (lam int q)^2 each do
        t, base = 1e308, 1e300
        assert r_mean(k, t, rates_12) == pytest.approx(1e4 * r_mean(k, base, rates_12), rel=1e-9)
        assert r_mean(k, t, rates_12) == pytest.approx(1.3e154, rel=1e-2)
        assert r_variance(k, t, rates_12) == pytest.approx(1e8 * r_variance(k, base, rates_12), rel=1e-9)
        assert r_variance(k, t, rates_12) == pytest.approx(9.7e307, rel=1e-2)
        assert p_even(k, t, rates_12) == pytest.approx(rates_12.mu / rates_12.total, abs=1e-12)

    def test_variance_overflow_is_typed(self):
        # with rates 1e3 the variance at t = 1e308 is about 7e310
        with pytest.raises(SeriesOverflowError, match=r"t=1e\+308"):
            r_variance(0, 1e308, Rates(1e3, 1e3))
