import itertools
import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altbd import bilateral
from altbd.bilateral import (
    PgfPair,
    Rates,
    TransitionQuery,
    mean,
    pgf,
    transition_matrix,
    transition_prob,
    transition_probs,
    variance,
)
from altbd.oracle import default_window, transient_distribution
from altbd import specfun
from altbd.specfun import ConvergenceError, DomainError, SeriesOverflowError, bessel_i

from conftest import log_uniform, mis_index_cross_parity, oracle_moments, oracle_prob


def window_for(rates, t, extra=0):
    big = 2.0 * max(rates.lam, rates.mu)
    return int(math.ceil(big * t + 10.0 * math.sqrt(big * t) + 20.0)) + extra


def p(k, n, t, rates, **kw):
    return transition_prob(TransitionQuery(k, n, t), rates, **kw)


def exact_log_inner(n, d, x: Fraction) -> float:
    """log S_n(d, x), S_n(d, x) = sum_k C(n,k) C(n,k+d) x^(2k+d), from exact arithmetic.

    With x = a/b and m = n - d, S_n = (a/b)^d N / b^(2m), where
    N = sum_k c_k a^(2k) b^(2(m-k)) and c_k = C(n,k) C(n,k+d).  The c_k are
    symmetric (c_k = c_(m-k)), so N is symmetric in a and b, and Horner's rule
    multiplies by the larger square while a power of the smaller one grows.
    """
    a, b = x.numerator, x.denominator
    big, small = max(a, b) ** 2, min(a, b) ** 2
    acc, power, c = 0, 1, math.comb(n, d)
    for k in range(n - d + 1):
        acc = acc * big + c * power
        power *= small
        c = c * (n - k) * (n - d - k) // ((k + 1) * (k + d + 1))  # exact: c_(k+1) is an integer
    return math.log(acc) + d * (math.log(a) - math.log(b)) - 2 * (n - d) * math.log(b)


def mp_transition_prob(k, n, t, lam, mu):
    """p_(k,n)(t) from the paper's even-start double series at 50 digits.

    An odd start is an even one with the rates swapped.  The inner sums
    S_j(d, x) come from their exact three-term recurrence in mpmath, and an
    odd target's two offsets |d| and |d+1| are summed as two separate series.
    Each term is at most the Poisson(at) weight of 2j (S_j(d, x) <= (1+x)^(2j)),
    so summing to 20 standard deviations past the mean leaves no visible tail.
    """
    with mpmath.workdps(50):
        if k % 2:
            lam, mu, k, n = mu, lam, k - 1, n - 1
        lam, mu, t = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(t)
        a, x, lt = lam + mu, mu / lam, lam * t
        top = int(a * t + 20 * mpmath.sqrt(a * t) + 40) // 2 + 1
        d = n // 2 - k // 2

        def inner(d):
            # S_(d-1) = 0, S_d = x^d, then
            # (j+1-d)(j+1+d) S_(j+1) = (j+1) [(2j+1)(1+x^2) S_j - j(1-x^2)^2 S_(j-1)]
            s = [mpmath.mpf(0), x**d]
            for j in range(d, top):
                s.append((j + 1) * ((2 * j + 1) * (1 + x * x) * s[-1] - j * (1 - x * x) ** 2 * s[-2])
                         / ((j + 1 - d) * (j + 1 + d)))
            return dict(zip(range(d, top + 1), s[1:]))

        def weight(m):
            return lt**m / mpmath.factorial(m)

        if n % 2 == 0:
            c = (mu - lam) / lam
            total = sum((weight(2 * j) + c * weight(2 * j + 1)) * s for j, s in inner(abs(d)).items())
        else:
            total = sum(weight(2 * j + 1) * s for e in (abs(d), abs(d + 1)) for j, s in inner(e).items())
        return float(mpmath.exp(-a * t) * total)


class TestInnerSum:
    def test_exact_reference_matches_binomial_sum(self):
        for x in (Fraction(1, 2), Fraction(3)):
            for n, d in ((0, 0), (1, 1), (5, 2), (12, 0), (9, 7)):
                direct = sum(
                    Fraction(math.comb(n, k) * math.comb(n, k + d)) * x ** (2 * k + d) for k in range(n - d + 1)
                )
                assert exact_log_inner(n, d, x) == pytest.approx(
                    math.log(direct.numerator) - math.log(direct.denominator), abs=1e-13
                )

    @pytest.mark.parametrize("x", [Fraction(1, 1000), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(1000)])
    @pytest.mark.parametrize("d", [0, 1, 7, 40])
    def test_recurrence_matches_exact_sum(self, x, d):
        offsets = (0, 1, 2, 3, 10, 100, 500, 1500)
        logs = list(itertools.islice(bilateral._inner_logs(d, math.log(x)), offsets[-1] + 1))
        for i in offsets:
            assert abs(logs[i] - exact_log_inner(d + i, d, x)) <= 1e-10, (x, d, i)

    def test_finite_for_extreme_arguments(self):
        # x^2 over- or underflows a double, and at lx = +-1381.6 x = 1e+-600
        # itself is outside the float range; the recurrence still runs
        for lx in (math.log(1e-200), math.log(1e200), -1381.6, 1381.6):
            logs = list(itertools.islice(bilateral._inner_logs(2, lx), 50))
            assert all(math.isfinite(v) for v in logs)
            assert logs[0] == pytest.approx(2 * lx, rel=1e-15)


class TestRates:
    def test_validation(self):
        with pytest.raises(DomainError):
            Rates(0.0, 1.0)
        with pytest.raises(DomainError):
            Rates(1.0, -2.0)
        with pytest.raises(DomainError):
            Rates(1.0, float("inf"))

    @pytest.mark.parametrize("lam, mu", [(1e308, 1e308), (1e308, 1e-3), (1e-3, 1e308)])
    def test_overflowing_rate_sum_rejected(self, lam, mu):
        # at these rates lam + mu or the uniformization rate 2 max(lam, mu) is
        # inf: the series summed zero terms to the cap and reported "did not
        # converge", default_window raised a bare OverflowError and
        # laplace_roots returned NaN roots
        with pytest.raises(DomainError, match=re.escape(f"lam={lam!r}, mu={mu!r}")):
            Rates(lam, mu)

    def test_largest_accepted_rates(self):
        rates = Rates(sys.float_info.max / 4.0, sys.float_info.max / 4.0)
        assert math.isfinite(2.0 * rates.total)

    def test_swapped(self):
        assert Rates(1.0, 2.0).swapped() == Rates(2.0, 1.0)


class TestPgf:
    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 2, 5])
    def test_initial_condition(self, k, rates_12):
        pair = pgf(k, 0.7, 0.0, rates_12)
        assert isinstance(pair, PgfPair)
        zk = 0.7**k
        if k % 2 == 0:
            assert pair.f == pytest.approx(zk, rel=1e-14)
            assert pair.g == 0.0
        else:
            assert pair.f == 0.0
            assert pair.g == pytest.approx(zk, rel=1e-14)

    @settings(max_examples=30)
    @given(
        t=st.floats(min_value=0.0, max_value=20.0),
        lam=st.floats(min_value=0.5, max_value=4.0),
        mu=st.floats(min_value=0.5, max_value=4.0),
        k=st.integers(min_value=-3, max_value=3),
    )
    def test_total_probability_at_unit_argument(self, t, lam, mu, k):
        pair = pgf(k, 1.0, t, Rates(lam, mu))
        assert pair.total == pytest.approx(1.0, abs=1e-12)

    def test_even_shift_factor(self, rates_22):
        z, t = 1.3, 0.9
        base = pgf(0, z, t, rates_22)
        shifted = pgf(2, z, t, rates_22)
        assert shifted.f == pytest.approx(z**2 * base.f, rel=1e-13)
        assert shifted.g == pytest.approx(z**2 * base.g, rel=1e-13)

    def test_nonnegative_for_positive_argument(self, rates_12):
        for z in (0.4, 1.0, 1.6):
            pair = pgf(1, z, 0.8, rates_12)
            assert pair.f >= 0.0 and pair.g >= 0.0

    def test_domain_error(self, rates_12):
        with pytest.raises(DomainError):
            pgf(0, 0.0, 1.0, rates_12)
        with pytest.raises(DomainError):
            pgf(0, -1.0, 1.0, rates_12)
        with pytest.raises(DomainError):
            pgf(0, 1.0, -0.1, rates_12)

    @pytest.mark.parametrize("k, z, t", [(400, 10.0, 1.0), (-200, 1e-3, 300.0), (0, 1e200, 1.0)])
    def test_out_of_range_raises_naming_arguments(self, k, z, t, rates_12):
        with pytest.raises(SeriesOverflowError, match=re.escape(f"k={k}, z={z!r}, t={t!r}")):
            pgf(k, z, t, rates_12)

    def test_in_range_value_with_out_of_range_factors(self, rates_12):
        # e^(theta - at) alone overflows and z^k alone underflows, but F and G
        # are near e^18; a 50-digit evaluation of the closed forms is the reference
        k, z, t = 120, 1e-3, 0.6
        lam, mu = rates_12.lam, rates_12.mu
        with mpmath.workdps(50):
            z_, t_ = mpmath.mpf(z), mpmath.mpf(t)
            h = mpmath.sqrt((mu * z_**2 + lam) * (lam * z_**2 + mu))
            scale = z_**k * mpmath.exp(-(lam + mu) * t_)
            f = scale * (mpmath.cosh(t_ * h / z_) + (mu - lam) * z_ / h * mpmath.sinh(t_ * h / z_))
            g = scale * lam * (z_**2 + 1) / h * mpmath.sinh(t_ * h / z_)
        pair = pgf(k, z, t, rates_12)
        assert pair.f == pytest.approx(float(f), rel=1e-11)
        assert pair.g == pytest.approx(float(g), rel=1e-11)

    def test_rates_whose_root_product_leaves_the_float_range(self):
        # h = sqrt(mu z^2 + lam) sqrt(lam z^2 + mu): the product under one root
        # overflows at 1e200 and underflows at 1e-300
        rates, t, z = Rates(1e200, 1e200), 1e-200, 0.99
        assert pgf(0, 1.0, t, rates).total == pytest.approx(1.0, abs=1e-14)
        states, probs = transient_distribution("bilateral", rates, 0, t)
        even = states % 2 == 0
        pair = pgf(0, z, t, rates)
        assert pair.f == pytest.approx(float(probs[even] @ z ** states[even].astype(float)), abs=1e-12)
        assert pair.g == pytest.approx(float(probs[~even] @ z ** states[~even].astype(float)), abs=1e-12)
        # lam t = 1e-300: F = 1 - O(lam t), G = lam t (z + 1/z) to first order
        pair = pgf(0, 1.0, 1.0, Rates(1e-300, 1e-300))
        assert pair.f == 1.0
        assert pair.g == pytest.approx(2e-300, rel=1e-12)

    def test_coefficient_extraction_consistency(self, rates_12):
        # sum_n z^n p_{k,n}(t) over a tail-bounded window reproduces f + g
        t = 0.8
        for k in (0, 1):
            for z in (0.5, 1.0, 1.5):
                w = window_for(rates_12, t, extra=25)
                total = sum(z**n * p(k, n, t, rates_12) for n in range(k - w, k + w + 1))
                pair = pgf(k, z, t, rates_12)
                assert total == pytest.approx(pair.total, abs=1e-9)


class TestTransitionQuery:
    @pytest.mark.parametrize("state", [0.5, 1.5, "1"])
    @pytest.mark.parametrize("field", ["from_state", "to_state"])
    def test_non_integer_state_rejected(self, field, state):
        states = {"from_state": 0, "to_state": 1, field: state}
        with pytest.raises(DomainError, match=field):
            TransitionQuery(t=1.0, **states)

    def test_numpy_integer_state_accepted(self, rates_12):
        q = TransitionQuery(np.int64(0), np.int64(3), 1.0)
        assert (q.from_state, q.to_state) == (0, 3)
        assert type(q.from_state) is int and type(q.to_state) is int
        assert transition_prob(q, rates_12) == p(0, 3, 1.0, rates_12)


class TestTransitionProb:
    def test_kronecker_at_zero(self, rates_12):
        assert p(3, 3, 0.0, rates_12) == 1.0
        assert p(3, 2, 0.0, rates_12) == 0.0
        assert p(-1, 4, 0.0, rates_12) == 0.0

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_equal_rates_reduce_to_bessel(self, lam):
        # with equal rates the chain is a randomized random walk whose
        # transition probabilities are modified Bessel functions
        rates = Rates(lam, lam)
        for t in (0.3, 1.0, 5.0):
            for n in range(-10, 11):
                want = math.exp(-2.0 * lam * t) * bessel_i(abs(n), 2.0 * lam * t)
                assert abs(p(0, n, t, rates) - want) <= 1e-10

    def test_matches_uniformization(self, rates_12):
        t = 0.8
        for k in (-2, 0, 1):
            w = window_for(rates_12, t)
            for n in range(k - 6, k + 7):
                assert p(k, n, t, rates_12) == pytest.approx(
                    oracle_prob("bilateral", rates_12, k, n, t), abs=1e-10
                )

    @settings(max_examples=20)
    @given(
        lam=st.floats(min_value=0.5, max_value=4.0),
        mu=st.floats(min_value=0.5, max_value=4.0),
        k=st.integers(min_value=-3, max_value=3),
        t=st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]),
    )
    def test_normalization(self, lam, mu, k, t):
        rates = Rates(lam, mu)
        w = window_for(rates, t)
        total = sum(p(k, n, t, rates) for n in range(k - w, k + w + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40)
    @given(
        log_lam=st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)),
        log_mu=st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)),
        horizon=st.floats(min_value=1e-3, max_value=400.0),
        k=st.integers(min_value=-3, max_value=3),
        shift=st.integers(min_value=-6, max_value=6),
    )
    def test_extreme_rates_match_uniformization(self, log_lam, log_mu, horizon, k, shift):
        # rates four decades apart at most; horizon = 2 max(lam, mu) t is the
        # oracle's Poisson rate
        rates = Rates(math.exp(log_lam), math.exp(log_mu))
        t = horizon / (2.0 * max(rates.lam, rates.mu))
        want = oracle_prob("bilateral", rates, k, k + shift, t)
        assert abs(p(k, k + shift, t, rates) - want) <= 1e-10

    @pytest.mark.parametrize("k, n", [(0, 1), (0, -3), (1, 4), (0, 0), (-1, -1)])
    def test_one_series_per_probability(self, k, n, rates_12, monkeypatch):
        # an odd target sums both of its offsets in one pass
        calls = []
        sum_series = bilateral._sum_series
        monkeypatch.setattr(
            bilateral, "_sum_series", lambda terms, what, settled: calls.append(what) or sum_series(terms, what, settled)
        )
        p(k, n, 2.5, rates_12)
        parity = "same" if (n - k) % 2 == 0 else "cross"
        assert calls == [f"transition series ({parity} parity)"]

    @pytest.mark.parametrize("t", [0.3, 5.0, 40.0])
    @pytest.mark.parametrize("lam, mu", [(1.0, 2.0), (0.5, 3.0), (10.0, 0.01), (0.01, 10.0), (1.0, 1.0001)])
    def test_matches_mpmath_reference(self, lam, mu, t):
        rates = Rates(lam, mu)
        for k, n in ((0, 0), (0, 1), (0, -3), (1, 1), (1, 4), (2, -2)):
            want = mp_transition_prob(k, n, t, lam, mu)
            assert abs(p(k, n, t, rates) - want) <= 1e-12, (k, n, want)

    def test_parity_reflection_about_start(self, rates_12):
        # displacement distribution is symmetric for every start
        t = 1.1
        for k in (-3, 0, 2):
            for r in (1, 2, 5):
                assert p(k, k + r, t, rates_12) == pytest.approx(p(k, k - r, t, rates_12), abs=1e-13)

    def test_figure_instance_rate_swap(self, rates_12, rates_21):
        for t in (0.4, 1.0, 3.0):
            assert p(-2, 1, t, rates_12) == pytest.approx(p(1, -2, t, rates_21), abs=1e-13)

    def test_symmetry_suite(self, rates_12):
        swapped = rates_12.swapped()
        t = 0.7
        for k in range(-3, 4):
            for n in range(-3, 4):
                base = p(k, n, t, rates_12)
                assert p(2 - k, 2 - n, t, rates_12) == pytest.approx(base, abs=1e-12)
                assert p(1 - k, 1 - n, t, swapped) == pytest.approx(base, abs=1e-12)
                assert p(2 + k, 2 + n, t, rates_12) == pytest.approx(base, abs=1e-12)
                assert p(1 + k, 1 + n, t, swapped) == pytest.approx(base, abs=1e-12)
                # transpose swaps rates exactly for opposite-parity pairs;
                # equal parity transposes with the rates unchanged
                tr = swapped if (k + n) % 2 != 0 else rates_12
                assert p(n, k, t, tr) == pytest.approx(base, abs=1e-12)

    def test_chapman_kolmogorov(self, rates_12):
        for (t, s) in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7)):
            w = window_for(rates_12, t + s)
            for (k, n) in ((0, 0), (0, 3), (-1, 2)):
                direct = p(k, n, t + s, rates_12)
                total = sum(p(k, m, t, rates_12) * p(m, n, s, rates_12) for m in range(k - w, k + w + 1))
                assert total == pytest.approx(direct, abs=1e-8)

    def test_mutation_mode_breaks_symmetry(self, rates_12, monkeypatch):
        # a uniform shift of d maps every symmetry clause's offsets onto
        # themselves, so the slip shows in the values and the row sum
        good = [p(0, n, 0.9, rates_12) for n in (1, 3)]
        lo, hi = default_window("bilateral", rates_12, 0, 0.9)
        mis_index_cross_parity(monkeypatch)
        bad = [p(0, n, 0.9, rates_12) for n in (1, 3)]
        for g, b in zip(good, bad):
            assert abs(g - b) > 1e-3
        row_sum = sum(p(0, n, 0.9, rates_12) for n in range(lo, hi + 1))
        assert abs(row_sum - 1.0) > 1e-2

    @pytest.mark.parametrize("k, n", [(0, 0), (0, 1)])
    def test_term_cap_reports_terms(self, k, n, rates_12, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as exc:
            p(k, n, 5.0, rates_12)
        assert not isinstance(exc.value, SeriesOverflowError)
        assert exc.value.terms == 3

    @pytest.mark.parametrize(
        "t, k, n, expected",
        [
            # lam*t underflows to 0 at t = 1e-320; mu*t does not
            (1e-320, 0, 0, 1.0),
            (1e-320, 0, 1, 0.0),
            (1e-320, 2, 0, 0.0),
            (1e-320, 1, 1, 1.0),
            (1e-320, 1, 0, 1e-320),
            (1e-300, 0, 0, 1.0),
        ],
    )
    def test_underflowed_rate_time_product(self, t, k, n, expected):
        assert p(k, n, t, Rates(1e-5, 1.0)) == expected

    def test_first_jump_probability_at_tiny_time(self):
        # p_01 = lam t (1 - O(t)) rounds to 1e-305; the series' first term is
        # e^(log(lam) + log(t)), and rounding that log sum near -702 (ulp 1.1e-13)
        # moves the value by up to about 2e-13 relative
        assert p(0, 1, 1e-300, Rates(1e-5, 1.0)) == pytest.approx(1e-305, rel=2e-13)

    @pytest.mark.parametrize("lam, mu, t", [(1e-170, 1e170, 1e-169), (1e-300, 1e300, 1e-300)])
    @pytest.mark.parametrize("k", [0, 1])
    def test_rate_time_product_past_the_float_range(self, lam, mu, t, k):
        # lam t underflows to 0 and mu/lam overflows, but mu t is 10 or 1: the
        # series runs on the logs of both and matches uniformization
        rates = Rates(lam, mu)
        states, probs = transient_distribution("bilateral", rates, k, t)
        got = transition_probs(k, states.tolist(), t, rates)
        assert np.max(np.abs(np.asarray(got) - probs)) <= 1e-9
        assert got[k - states[0]] == pytest.approx(1.0 if k == 0 else math.exp(-2.0 * mu * t), rel=1e-9)

    @pytest.mark.parametrize("t", [1e-250, 1.0])
    def test_too_many_terms_is_a_typed_error(self, t):
        # mu t = 1e50 and 1e300: the terms peak far past the term cap
        with pytest.raises(ConvergenceError):
            p(0, 0, t, Rates(1e-300, 1e300))

    @pytest.mark.parametrize(
        "rates, k, t",
        [(Rates(1e-300, 1e300), 0, 1.0), (Rates(1e-300, 1e300), 1, 1.0), (Rates(1e-300, 1e300), 0, 1e-250),
         (Rates(1.0, 2.0), 1, 20000.0)],
    )
    def test_certain_term_cap_raises_before_summing(self, rates, k, t, monkeypatch):
        # a t / 2 lies past the cap, so no key can stop in time: the row
        # raises the cap's error at once, with no term read
        read = []
        sum_series = bilateral._sum_series

        def counted(terms, what, settled):
            return sum_series((read.append(term) or term for term in terms), what, settled)

        monkeypatch.setattr(bilateral, "_sum_series", counted)
        with pytest.raises(ConvergenceError) as exc:
            transition_probs(k, [k, k + 1], t, rates)
        assert type(exc.value) is ConvergenceError
        assert exc.value.terms == specfun.SERIES_MAX_TERMS
        assert exc.value.partial == 0.0
        assert str(exc.value).startswith("transition series (same parity) did not converge")
        assert read == []

    def test_foreseen_cap_is_exact(self, monkeypatch):
        # the sum stops at the earliest on terms n = m + cap - 2 and m + cap - 1,
        # counted once 2n >= a t: at a t = 2 (cap - 2) key (0, same) is summed,
        # and past it the cap is certain, so nothing is summed
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20)
        rates = Rates(1.0, 1.0)
        with pytest.raises(ConvergenceError) as summed:
            p(0, 0, 18.0, rates)
        with pytest.raises(ConvergenceError) as foreseen:
            p(0, 0, 18.25, rates)
        assert summed.value.partial > 0.0
        assert foreseen.value.partial == 0.0
        assert summed.value.terms == foreseen.value.terms == 20


class TestTransitionProbs:
    @settings(max_examples=25)
    @given(
        lam=log_uniform(1e-3, 1e3),
        mu=log_uniform(1e-3, 1e3),
        horizon=st.floats(min_value=1e-3, max_value=60.0),
        k=st.integers(min_value=-5, max_value=5),
    )
    @example(lam=1.0, mu=2.0, horizon=0.0, k=1)  # t = 0
    @example(lam=1e-5, mu=1.0, horizon=2e-320, k=0)  # lam t underflows to 0, mu t does not
    @example(lam=1e-5, mu=1.0, horizon=2e-320, k=-1)
    def test_row_equals_single_calls(self, lam, mu, horizon, k):
        # horizon = 2 max(lam, mu) t, the oracle's Poisson rate, sizes the window
        rates = Rates(lam, mu)
        t = horizon / (2.0 * max(lam, mu))
        lo, hi = default_window("bilateral", rates, k, t)
        targets = list(range(lo, hi + 1))
        singles = [p(k, n, t, rates) for n in targets]
        assert transition_probs(k, targets, t, rates) == singles
        # order and repeats are the caller's
        shuffled = targets[::-1] + targets[:3]
        assert transition_probs(k, shuffled, t, rates) == singles[::-1] + singles[:3]

    @pytest.mark.parametrize("k", [0, -3])
    def test_one_series_per_distinct_key(self, k, rates_12, monkeypatch):
        # extends test_one_series_per_probability to a row: a target's series
        # is fixed by |n - k|, and n = k +- j share it
        calls = []
        sum_series = bilateral._sum_series
        monkeypatch.setattr(
            bilateral, "_sum_series", lambda terms, what, settled: calls.append(what) or sum_series(terms, what, settled)
        )
        targets = range(k - 7, k + 9)
        transition_probs(k, targets, 2.5, rates_12)
        distances = {abs(n - k) for n in targets}
        assert len(distances) == 9
        want = [f"transition series ({'cross' if j % 2 else 'same'} parity)" for j in distances]
        assert sorted(calls) == sorted(want)

    @pytest.mark.parametrize("targets", [[0], [1], [0, 1, -3, 4], [5, -5, 0]])
    def test_term_cap_raises_as_a_single_call(self, targets, rates_12, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as single:
            p(0, targets[0], 5.0, rates_12)
        with pytest.raises(ConvergenceError) as row:
            transition_probs(0, targets, 5.0, rates_12)
        assert type(row.value) is type(single.value) is ConvergenceError
        assert row.value.terms == single.value.terms == 3
        assert str(row.value) == str(single.value)

    @pytest.mark.parametrize(
        "from_state, to_state, t",
        [(0, 1.5, 1.0), (0.5, 1, 1.0), (0, None, 1.0), (0, 1, -1.0), (0, 1, float("nan")), (0, 1, float("inf"))],
    )
    def test_domain_errors_as_a_single_call(self, from_state, to_state, t, rates_12):
        with pytest.raises(DomainError) as single:
            p(from_state, to_state, t, rates_12)
        with pytest.raises(DomainError) as row:
            transition_probs(from_state, [0, to_state], t, rates_12)
        assert str(row.value) == str(single.value)

    def test_empty_row(self, rates_12):
        assert transition_probs(0, [], 1.0, rates_12) == []


class TestTransitionMatrix:
    @settings(max_examples=25)
    @given(
        lam=log_uniform(1e-3, 1e3),
        mu=log_uniform(1e-3, 1e3),
        horizon=st.floats(min_value=1e-3, max_value=60.0),
        starts=st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6),
        targets=st.lists(st.integers(min_value=-30, max_value=30), max_size=40),
    )
    @example(lam=1.0, mu=2.0, horizon=0.0, starts=[1, 0, -3, 1], targets=[1, 0, 3, 1, -3])  # t = 0
    # lam t underflows to 0, mu t does not
    @example(lam=1e-5, mu=1.0, horizon=2e-320, starts=[0, -1, 2, -1, 0], targets=[0, 1, -1, 2, 0, -2])
    def test_rows_equal_single_rows(self, lam, mu, horizon, starts, targets):
        # hypothesis draws starts and targets of mixed parity, repeated and in any order
        rates = Rates(lam, mu)
        t = horizon / (2.0 * max(lam, mu))
        rows = [transition_probs(k, targets, t, rates) for k in starts]
        assert transition_matrix(starts, targets, t, rates) == rows

    def test_one_series_per_distinct_key_and_start_parity(self, rates_12, monkeypatch):
        # the series of (k, n) is fixed by the parity of k and by |n - k|
        calls = []
        sum_series = bilateral._sum_series
        monkeypatch.setattr(
            bilateral, "_sum_series", lambda terms, what, settled: calls.append(what) or sum_series(terms, what, settled)
        )
        starts, targets = [0, -3, 2, 5, 0, 1], range(-8, 9)
        transition_matrix(starts, targets, 2.5, rates_12)
        series = {(k % 2, abs(n - k)) for k in starts for n in targets}
        want = [f"transition series ({'cross' if j % 2 else 'same'} parity)" for _, j in series]
        assert sorted(calls) == sorted(want)
        assert len(calls) < sum(len({abs(n - k) for n in targets}) for k in set(starts))

    @pytest.mark.parametrize(
        "rates, t", [(Rates(1e-300, 1e300), 1.0), (Rates(1e-300, 1e300), 1e-250), (Rates(1.0, 2.0), 20000.0)]
    )
    def test_certain_term_cap_raises_before_summing(self, rates, t, monkeypatch):
        # as for a row: a t / 2 lies past the cap, so no key of either start
        # parity can stop in time, and the block raises with no term read
        read = []
        sum_series = bilateral._sum_series

        def counted(terms, what, settled):
            return sum_series((read.append(term) or term for term in terms), what, settled)

        monkeypatch.setattr(bilateral, "_sum_series", counted)
        with pytest.raises(ConvergenceError) as exc:
            transition_matrix([1, 0, -2], [0, 1, 3], t, rates)
        assert type(exc.value) is ConvergenceError
        assert exc.value.terms == specfun.SERIES_MAX_TERMS
        assert exc.value.partial == 0.0
        assert str(exc.value).startswith("transition series (same parity) did not converge")
        assert read == []

    @pytest.mark.parametrize(
        "from_states, to_states, t, row_start",
        [([0, 1.5], [0, 1], 1.0, 1.5), ([0, 1], [1, 0.5], 1.0, 0), ([None], [0], 1.0, None), ([0, 1], [1], -1.0, 0)],
    )
    def test_domain_errors_as_a_single_row(self, from_states, to_states, t, row_start, rates_12):
        # row_start is the start whose row raises the block's error
        with pytest.raises(DomainError) as block:
            transition_matrix(from_states, to_states, t, rates_12)
        with pytest.raises(DomainError) as row:
            transition_probs(row_start, to_states, t, rates_12)
        assert str(block.value) == str(row.value)

    def test_empty_blocks(self, rates_12):
        assert transition_matrix([], [0, 1], 1.0, rates_12) == []
        assert transition_matrix([0, 1], [], 1.0, rates_12) == [[], []]


class TestMoments:
    def test_mean_is_initial_state(self, rates_21):
        assert mean(3, 5.0, rates_21) == 3.0
        assert mean(0, 0.0, rates_21) == 0.0
        assert mean(-4, 2.5, Rates(2.0, 1.0)) == -4.0

    def test_variance_at_zero_time(self, rates_12):
        for k in (-1, 0, 4):
            assert variance(k, 0.0, rates_12) == 0.0

    def test_variance_equal_rates_is_linear(self):
        lam = 1.7
        rates = Rates(lam, lam)
        for k in (0, 1):
            for t in (0.5, 3.0):
                assert variance(k, t, rates) == pytest.approx(2.0 * lam * t, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, -3])
    def test_variance_matches_oracle(self, k, rates_12):
        # odd starts exercise the parity-dependent transient coefficient
        for t in (0.5, 2.0, 5.0):
            _, var = oracle_moments("bilateral", rates_12, k, t)
            assert variance(k, t, rates_12) == pytest.approx(var, abs=1e-8)

    def test_moments_match_truncated_distribution(self, rates_21):
        t = 1.2
        for k in (0, 1):
            w = window_for(rates_21, t)
            ns = np.arange(k - w, k + w + 1)
            probs = np.array([p(k, n, t, rates_21) for n in ns])
            m1 = float(probs @ ns)
            m2 = float(probs @ ns.astype(float) ** 2)
            assert mean(k, t, rates_21) == pytest.approx(m1, abs=1e-8)
            assert variance(k, t, rates_21) == pytest.approx(m2 - m1 * m1, abs=1e-8)

    def test_variance_out_of_range_raises(self, rates_12):
        with pytest.raises(SeriesOverflowError, match=r"t=1e\+308"):
            variance(0, 1e308, rates_12)
        # in range although lam * mu is not
        assert variance(0, 1.0, Rates(1e200, 1e200)) == pytest.approx(2e200, rel=1e-14)

    def test_time_validation(self, rates_12):
        with pytest.raises(DomainError):
            mean(0, -1.0, rates_12)
        with pytest.raises(DomainError):
            variance(0, float("nan"), rates_12)
