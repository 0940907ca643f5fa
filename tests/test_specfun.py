import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altbd import bilateral, oracle, reflecting, specfun
from altbd.specfun import (
    ConvergenceError,
    DomainError,
    SeriesOverflowError,
    _sum_series,
    bessel_i,
    hyp1f2,
)


def bessel_i0_bruteforce(x, terms=50):
    """Independent oracle: direct partial sum of sum (x/2)^(2m) / m!^2."""
    return sum((x / 2.0) ** (2 * m) / math.factorial(m) ** 2 for m in range(terms))


def hyp0f1_bruteforce(b, x, terms=60):
    """Independent oracle: direct series of 0F1(; b; x)."""
    total = 0.0
    for m in range(terms):
        den = math.factorial(m)
        for j in range(m):
            den *= b + j
        total += x**m / den
    return total


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(7, 0.0) == 0.0

    def test_against_bruteforce_series(self):
        got = bessel_i(0, 2.0)
        want = bessel_i0_bruteforce(2.0)
        assert abs(got - want) <= 1e-13 * want

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_i(0, -0.5)
        with pytest.raises(DomainError):
            bessel_i(0, float("nan"))
        with pytest.raises(DomainError):
            bessel_i(0, float("inf"))

    def test_convergence_error_carries_partial(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as exc:
            bessel_i(0, 30.0)
        assert exc.value.partial > 0.0
        assert exc.value.terms == 3

    @pytest.mark.parametrize("order, x", [(0, 720.0), (0, 1e5), (100, 1e5)])
    def test_overflow_is_named(self, order, x):
        # past the float range (I_0 near x = 713, or a first term that
        # overflows) the sum is reported as an overflow, not as a value or
        # a failure to converge
        with pytest.raises(SeriesOverflowError):
            bessel_i(order, x)

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=20),
        x=st.floats(min_value=1e-2, max_value=50.0),
    )
    def test_three_term_recurrence(self, n, x):
        # I_{n-1}(x) - I_{n+1}(x) = (2n/x) I_n(x)
        lhs = bessel_i(n - 1, x) - bessel_i(n + 1, x)
        rhs = 2.0 * n / x * bessel_i(n, x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("x", [0.3, 1.0, 4.0, 10.0])
    def test_generating_identity(self, x):
        # e^x = I_0(x) + 2 sum_{n>=1} I_n(x); the tail beyond n_max is
        # bounded by the first omitted term times a geometric factor
        n_max = 40
        total = bessel_i(0, x) + 2.0 * sum(bessel_i(n, x) for n in range(1, n_max + 1))
        assert abs(total - math.exp(x)) <= 1e-10 * math.exp(x)


class TestHyp1f2:
    @settings(max_examples=30)
    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        b1=st.floats(min_value=0.25, max_value=5.0),
        b2=st.floats(min_value=0.25, max_value=5.0),
    )
    def test_unit_at_zero(self, a, b1, b2):
        assert hyp1f2(a, b1, b2, 0.0) == 1.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 120.0])
    @pytest.mark.parametrize("b2", [0.5, 1.0, 2.5])
    def test_cancelling_upper_lower_reduces_to_0f1(self, x, b2):
        # with a == b1 the Pochhammers cancel and 1F2 degenerates to 0F1
        got = hyp1f2(1.7, 1.7, b2, x)
        want = hyp0f1_bruteforce(b2, x)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    @pytest.mark.parametrize("x", [0.5, 5.0, 20.0])
    def test_unit_parameters_reduce_to_squared_factorials(self, x):
        # a = b1 cancels, leaving sum x^m / (m!)^2, i.e. 0F1(; 1; x)
        want = sum(x**m / math.factorial(m) ** 2 for m in range(60))
        assert abs(hyp1f2(1.0, 1.0, 1.0, x) - want) <= 1e-13 * max(abs(want), 1.0)

    @pytest.mark.parametrize("x", [0.5, 5.0, 20.0])
    def test_unit_parameters_match_bessel(self, x):
        # the same reduction in Bessel form for non-negative arguments
        assert hyp1f2(1.0, 1.0, 1.0, x) == pytest.approx(bessel_i(0, 2.0 * math.sqrt(x)), rel=1e-12)

    def test_negative_a_polynomial_like_arguments(self, monkeypatch):
        # a = -1/2 is the workhorse case; compare against a tight-tolerance
        # self-evaluation to confirm the truncation-error bound
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-9)
        loose = hyp1f2(-0.5, 0.5, 1.0, 300.0)
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-15)
        tight = hyp1f2(-0.5, 0.5, 1.0, 300.0)
        assert abs(loose - tight) <= 1e-8 * abs(tight)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp1f2(0.5, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            hyp1f2(0.5, 1.0, -2.0, 1.0)
        with pytest.raises(DomainError):
            hyp1f2(0.5, 1.0, 1.0, float("inf"))

    @pytest.mark.parametrize("x", [-1e-3, -3.0, -1e3])
    def test_negative_x_is_rejected(self, x):
        # the alternating sum cancels catastrophically (at x = -1e3 the direct
        # sum is off by five orders of magnitude); no closed form passes x < 0
        with pytest.raises(DomainError, match=r"x must be finite and >= 0"):
            hyp1f2(0.5, 1.5, 1.0, x)

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 4)
        with pytest.raises(ConvergenceError):
            hyp1f2(0.5, 1.0, 1.0, 500.0)

    @pytest.mark.parametrize("a, b1", [(0.5, 1.5), (-0.5, 0.5)])
    def test_overflow_is_named(self, a, b1):
        # past the float range the sum is +-inf, reported as an overflow
        # rather than returned
        with pytest.raises(SeriesOverflowError):
            hyp1f2(a, b1, 1.0, 3e5)


def hyp2f3_exact(n, x):
    """Independent oracle: 2F3(1/2, 1; 2, n+3/2, n+2; x) in exact rationals."""
    x = Fraction(x)
    a, b1, b2 = Fraction(1, 2), Fraction(2 * n + 3, 2), Fraction(n + 2)
    term = total = Fraction(1)
    for m in itertools.count():
        # the definition's ratio: upper parameters a and 1, lower 2, b1, b2, and m!
        ratio = x * (a + m) * (1 + m) / ((2 + m) * (b1 + m) * (b2 + m) * (m + 1))
        term *= ratio
        total += term
        # positive terms with ratios falling below 1/2: the tail is < term
        if ratio < Fraction(1, 2) and term < total * Fraction(1, 10**30):
            return float(total)


class TestHypSeries:
    @pytest.mark.parametrize("n", [0, 1, 3, 10, 40])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 3.0, 50.0, 400.0, 5000.0])
    def test_c2_is_the_q10_2f3(self, n, x):
        # c = 2 turns the 1F2 kernel into the 2F3 of q10_series; the (1)_m of
        # its upper parameter 1 cancels the m! of the series
        got = specfun._hyp_series(0.5, n + 1.5, n + 2.0, x, "2F3", c=2.0)
        want = hyp2f3_exact(n, x)
        assert abs(got - want) <= 1e-14 * want


class TestSumSeries:
    def test_stops_after_two_settled_small_terms(self, monkeypatch):
        # 1 + 1/2 + 1/4 + ...: stops once two terms in a row are below tol
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-3)
        terms = ((0.5**m, True) for m in itertools.count())
        got = _sum_series(terms, "geometric")
        assert got == 2.0 - 0.5**10

    def test_unsettled_terms_never_stop(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-3)
        terms = ((0.5**m, m >= 20) for m in itertools.count())
        got = _sum_series(terms, "geometric")
        assert got == 2.0 - 0.5**21

    def test_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 7)
        with pytest.raises(ConvergenceError) as exc:
            _sum_series(((1.0, True) for _ in itertools.count()), "ones")
        assert not isinstance(exc.value, SeriesOverflowError)
        assert exc.value.terms == 7
        assert exc.value.partial == 7.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_term_raises_overflow(self, bad):
        terms = iter([(1.0, False), (bad, True), (0.0, True), (0.0, True)])
        with pytest.raises(SeriesOverflowError) as exc:
            _sum_series(terms, "bad")
        assert exc.value.terms == 2
        assert "bad overflowed" in str(exc.value)


_RATES = bilateral.Rates(1.0, 2.0)
TIME_ENTRY_POINTS = {
    "TransitionQuery": lambda t: bilateral.TransitionQuery(0, 1, t),
    "pgf": lambda t: bilateral.pgf(0, 1.0, t, _RATES),
    "mean": lambda t: bilateral.mean(0, t, _RATES),
    "variance": lambda t: bilateral.variance(0, t, _RATES),
    "q00": lambda t: reflecting.q00(t, _RATES),
    "q10_series": lambda t: reflecting.q10_series(t, _RATES),
    "q10_integral": lambda t: reflecting.q10_integral(t, _RATES),
    "p_even": lambda t: reflecting.p_even(0, t, _RATES),
    "r_mean": lambda t: reflecting.r_mean(0, t, _RATES),
    "r_variance": lambda t: reflecting.r_variance(0, t, _RATES),
    "default_window": lambda t: oracle.default_window("bilateral", _RATES, 0, t),
    "uniformize": lambda t: oracle.uniformize(oracle.TruncatedChain("bilateral", -2, 2, _RATES), 0, t),
}


@pytest.mark.parametrize("name", sorted(TIME_ENTRY_POINTS))
@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_every_time_argument_is_checked_alike(name, t):
    # one check (specfun._check_time) with one message serves every entry point
    with pytest.raises(DomainError, match=r"^t must be finite and >= 0, got "):
        TIME_ENTRY_POINTS[name](t)
