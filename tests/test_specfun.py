import cmath
import itertools
import math
import re

import mpmath
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

    def test_least_subnormal_argument(self):
        # x/2 underflows to 0 at x = 5e-324, so log(x/2) is formed as log x - log 2
        assert bessel_i(0, 5e-324) == 1.0
        assert bessel_i(1, 5e-324) in (0.0, 5e-324)
        assert bessel_i(1, 1e-320) == pytest.approx(5e-321, rel=1e-3)  # subnormal precision

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
        # a non-finite order is refused before any term, not summed into an "overflow"
        for order in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="order must be finite"):
                bessel_i(order, 1.0)

    def test_convergence_error_carries_partial(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as exc:
            bessel_i(0, 30.0)
        assert exc.value.partial > 0.0
        assert exc.value.terms == 3

    @pytest.mark.parametrize("order, x", [(0, 720.0), (0, 1e5), (100, 1e5), (0, 1e4)])
    def test_overflow_is_named(self, order, x):
        # past the float range (I_0 near x = 713, or a first term that
        # overflows) the sum is reported as an overflow, not as a value or
        # a failure to converge, at the first non-finite partial sum
        with pytest.raises(SeriesOverflowError) as exc:
            bessel_i(order, x)
        assert exc.value.terms < 1000

    @pytest.mark.parametrize("order, x", [(0, 0.5), (1, 20.0), (7, 300.0), (500, 600.0)])
    def test_one_accumulator_call(self, order, x, monkeypatch):
        # past its checks each evaluation is one `_sum_series` call, with no loop of its own
        calls = []

        def counted(terms, what, settled):
            calls.append((what, settled))
            return _sum_series(terms, what, settled)

        monkeypatch.setattr(specfun, "_sum_series", counted)
        bessel_i(order, x)
        assert calls == [(f"bessel_i({order}, {x})", 0)]

    @pytest.mark.parametrize("order", [0, 1])
    def test_large_arguments_against_mpmath(self, order):
        # ~x/2 term ratios compound to the peak, so each is formed as a product of two
        # rounded halves, not from one rounded (x/2)^2
        xs = [200.0 + (713.9 - 200.0) * (i + 0.5) / 150 for i in range(150)]
        with mpmath.workdps(40):
            for x in xs:
                want = mpmath.besseli(order, mpmath.mpf(x))
                assert abs(bessel_i(order, x) - want) <= 1.5e-14 * want, x

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
        # refused before any term: a NaN would otherwise run the loop to the cap
        # and be reported as an overflow
        nan, inf = math.nan, math.inf
        for a, b1, b2 in ((nan, 1, 1), (0.5, nan, 1), (0.5, 1, nan), (inf, 1, 1), (0.5, inf, 1), (0.5, 1, -inf)):
            with pytest.raises(DomainError, match="parameters must be finite"):
                hyp1f2(a, b1, b2, 1.0)

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


class TestHypSeries:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 10, 40])
    @pytest.mark.parametrize("x", [1e-3, 0.0025, 0.5, 2.25, 3.0, 50.0, 400.0, 5000.0])
    def test_c2_is_the_q10_2f3(self, n, x):
        # q10_series carries half of s 2F3(1/2, 1; 2, n+3/2, n+2; x), s = 4x/((2n+1)(2n+2)),
        # as s H_{2n+2} - (H_{2n} - 1) in two kernel 1F2s; the identity is exact, so its
        # error is the rounding of H_{2n} - 1 and is bounded relative to H_{2n}
        s = 4.0 * x / ((2 * n + 1) * (2 * n + 2))
        h_low = specfun._hyp_series(0.5, n + 0.5, n + 1.0, x)
        got = s * specfun._hyp_series(0.5, n + 1.5, n + 2.0, x) - (h_low - 1.0)
        with mpmath.workdps(40):
            want = float(0.5 * s * mpmath.hyper([0.5, 1], [2, n + 1.5, n + 2], mpmath.mpf(x)))
        assert abs(got - want) <= 1e-14 * h_low

    def test_convergence_error_names_its_arguments(self, monkeypatch):
        # the error names the series from the kernel's own arguments
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as exc:
            specfun._hyp_series(0.5, 1.5, 2.0, 500.0)
        assert str(exc.value).startswith("1F2(0.5; 1.5, 2.0; 500.0) did not converge")
        assert exc.value.terms == 3

    def test_overflow_at_the_cap_is_named(self):
        # the terms still rise at the cap with the sum long overflowed: an
        # overflow, not a sum that failed to converge
        with pytest.raises(SeriesOverflowError, match=re.escape("1F2(0.5; 0.5, 1.0; 56000000.0) overflowed")) as exc:
            hyp1f2(0.5, 0.5, 1.0, 5.6e7)
        assert exc.value.terms == specfun.SERIES_MAX_TERMS

    def test_hyp1f2_overflow_names_its_arguments(self):
        with pytest.raises(SeriesOverflowError, match=re.escape("1F2(0.5; 1.5, 1.0; 300000.0) overflowed")):
            hyp1f2(0.5, 1.5, 1.0, 3e5)


def _bessel_ratio(x):
    """2 I_1(x)/x at the working precision, 1 at x = 0."""
    return 2 * mpmath.besseli(1, x) / x if x else mpmath.mpf(1)


class TestBesselSums:
    @pytest.mark.parametrize("z", [0.0, 5e-324, 1e-3, 0.5, 5.0, 50.0, 300.0, 713.9])
    def test_against_mpmath(self, z):
        # S0 = I_0(z), C1 = 2 I_1(z)/z, S2 = 1F2(1/2; 3/2, 1; z^2/4), the kernel difference
        # K = 2 I_1(z)/z - r^2 2 I_1(|r| z)/(|r| z) and C3 = r^2 1F2(1/2; 3/2, 2; r^2 z^2/4),
        # each a positive sum, so one relative tolerance holds them all; K is formed from
        # the two ratios at 40 digits, where a difference of two double sums loses about
        # 6 digits at r = -(1 - 2e-6)
        for r in (0.0, 1 / 3, -5 / 7, -(1 - 2e-6)):
            got = specfun._bessel_sums(z, r * r, (1.0 + r) * (1.0 - r))
            with mpmath.workdps(40):
                x, rsq = mpmath.mpf(z), mpmath.mpf(r) ** 2
                gx = abs(mpmath.mpf(r)) * x
                want = (
                    mpmath.besseli(0, x),
                    _bessel_ratio(x),
                    mpmath.hyp1f2(0.5, 1.5, 1, x * x / 4),
                    _bessel_ratio(x) - rsq * _bessel_ratio(gx),
                    rsq * mpmath.hyp1f2(0.5, 1.5, 2, gx * gx / 4),
                )
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-14 * w, (r, got, want)

    def test_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as exc:
            specfun._bessel_sums(30.0, 0.25, 0.75)
        assert not isinstance(exc.value, SeriesOverflowError)
        assert exc.value.partial > 0.0
        assert exc.value.terms == 3

    @pytest.mark.parametrize("z", [714.0, 1e5])
    def test_non_finite_sum_raises_overflow(self, z):
        with pytest.raises(SeriesOverflowError, match="overflowed"):
            specfun._bessel_sums(z, 0.25, 0.75)


class TestSumSeries:
    def test_stops_after_two_settled_small_terms(self, monkeypatch):
        # 1 + 1/2 + 1/4 + ...: stops once two terms in a row are below tol
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-3)
        terms = (0.5**m for m in itertools.count())
        got = _sum_series(terms, "geometric", 0.0)
        assert got == 2.0 - 0.5**10

    def test_unsettled_terms_never_stop(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-3)
        terms = (0.5**m for m in itertools.count())
        got = _sum_series(terms, "geometric", 20.0)
        assert got == 2.0 - 0.5**21

    def test_fractional_settled_counts_from_the_next_index(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-3)
        terms = (0.5**m for m in itertools.count())
        assert _sum_series(terms, "geometric", 19.5) == 2.0 - 0.5**21

    def test_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 7)
        with pytest.raises(ConvergenceError) as exc:
            _sum_series((1.0 for _ in itertools.count()), "ones", 0.0)
        assert not isinstance(exc.value, SeriesOverflowError)
        assert exc.value.terms == 7
        assert exc.value.partial == 7.0

    def test_finite_iterable_reports_the_terms_read(self):
        # a finite iterable that ends before the stop: the error counts its terms, not the cap
        with pytest.raises(ConvergenceError) as exc:
            _sum_series(iter([1.0, 1.0, 1.0]), "ones", 0.0)
        assert type(exc.value) is ConvergenceError
        assert exc.value.terms == 3
        assert exc.value.partial == 3.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_term_raises_overflow(self, bad):
        terms = iter([1.0, bad, 0.0, 0.0])
        with pytest.raises(SeriesOverflowError) as exc:
            _sum_series(terms, "bad", 1.0)
        assert exc.value.terms == 2
        assert "bad overflowed" in str(exc.value)

    def test_certain_cap_raises_before_reading_a_term(self, monkeypatch):
        # settled = cap - 1: the earliest stop would be index cap, past the cap
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20)
        read = []
        terms = (read.append(m) or 0.0 for m in itertools.count())
        with pytest.raises(ConvergenceError) as exc:
            _sum_series(terms, "foreseen", 19.0)
        assert type(exc.value) is ConvergenceError
        assert str(exc.value).startswith("foreseen did not converge")
        assert exc.value.partial == 0.0
        assert exc.value.terms == 20
        assert read == []

    def test_last_possible_stop_is_summed(self, monkeypatch):
        # settled = cap - 2: the sum may still stop on indices cap - 2 and cap - 1
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20)
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-3)
        terms = (0.5**m for m in itertools.count())
        assert _sum_series(terms, "geometric", 18.0) == 2.0 - 0.5**19


class TestContour:
    # (1/t) Re sum w F(z/t) over the table inverts F at t; each pair is (F, f)
    PAIRS = {
        "1/(s+1)": (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
        "1/s": (lambda s: 1.0 / s, lambda t: 1.0),
        "1/s^2": (lambda s: 1.0 / (s * s), lambda t: t),
        "1/sqrt(s)": (lambda s: 1.0 / cmath.sqrt(s), lambda t: 1.0 / math.sqrt(math.pi * t)),
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0, 100.0, 1e4])
    def test_inverts_known_transforms(self, name, t):
        F, f = self.PAIRS[name]
        got = sum(w * F(z / t) for z, w in specfun._CONTOUR).real / t
        assert abs(got - f(t)) <= 1e-12 * max(1.0, abs(f(t)))


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
