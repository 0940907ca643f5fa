"""The one base module: every other module imports it, and the closed forms
(`bilateral`, `reflecting`) and the oracles import nothing from one another.
It holds the rates (`Rates`), the argument checks (`_check_time`, `_state`),
the typed errors, the series accumulator (`_sum_series`), the scalar special
functions and kernels below, and the contour table `_CONTOUR` of the
reflected closed forms.

Every series here is evaluated by direct power series with a running
term-ratio recurrence (no factorials are ever materialised), which keeps
individual terms in range long after naive evaluation would overflow.
Three loops sum everything: `_sum_series`, the accumulator of `bessel_i`
and of the outer series of the closed forms (the bilateral series, q00 and
q10); the fixed-shape `_hyp_series`, which gives every 1F2 (`q10_series`
reads whole sequences of them, stepped by a contiguous relation from a few
kernel values); and `_bessel_sums`, which gives a quadrature node of
`q10_integral` (or of a whole grid of its times) the three sums it reads,
I_0(x) and two sums of the same terms under weights that its caller
tabulates once per grid, from one pass over the terms at x: the weights
depend on r alone and carry the sums at |r| x, whose terms are those at x
times r^(2m), and past the peak r^(2m) e^x <= e^(|r| x), so the stop at x
bounds every tail.  All functions are pure and reentrant.

Production code calls `_hyp_series` directly: every x it passes is a square
over 4 and every lower parameter positive, so no check could fire.
`hyp1f2` is the checked public entry for outside input.  The kernel's
errors name the series by its arguments, as 1F2(a; b1, b2; x), and format
that name only when they raise.

Every series, here and in the closed forms, truncates by the same fixed
rule: stop after two consecutive terms below SERIES_REL_TOL relative to the
partial sum, counting only terms from the peak of the terms on, and give
up with ConvergenceError after SERIES_MAX_TERMS terms.  For `bessel_i` and
the closed forms `_sum_series` owns the rule, given their terms and the index
of the peak (0 for `bessel_i`, whose rising terms never meet the stop).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

__all__ = [
    "SERIES_REL_TOL",
    "SERIES_MAX_TERMS",
    "Rates",
    "DomainError",
    "ConvergenceError",
    "SeriesOverflowError",
    "WindowTooSmallError",
    "bessel_i",
    "hyp1f2",
]


# stop once two consecutive terms are this small relative to the partial sum
# (a single-term test misfires where a series crosses between growth and
# decay regimes)
SERIES_REL_TOL = 1e-14
# hard cap on summed terms; reaching it raises ConvergenceError
SERIES_MAX_TERMS = 10_000

_LOG_2 = math.log(2.0)


class DomainError(ValueError):
    """An argument lies outside the domain a routine supports."""


class ConvergenceError(RuntimeError):
    """A series hit its term cap before meeting the series tolerance, or a
    quadrature its highest order before meeting the quadrature tolerance.

    Carries the partial sum and the number of terms (integrand nodes, for a
    quadrature) accumulated so far so callers can inspect how close the
    evaluation got; 0 where only the finished sum is checked.
    """

    def __init__(self, message: str, partial: float, terms: int):
        super().__init__(f"{message} (partial sum {partial!r} after {terms} terms)")
        self.partial = partial
        self.terms = terms


class SeriesOverflowError(ConvergenceError):
    """A series or quadrature produced a non-finite partial sum (an
    overflowed term, or inf * 0 = NaN where an overflowed factor met an
    underflowed scale), or a closed form's value lies outside the float range.

    Raised at the first such term rather than after the term cap, since no
    further term can bring the sum back into range.
    """


class WindowTooSmallError(RuntimeError):
    """Probability mass reached the truncation boundary; widen the window."""


@dataclass(frozen=True)
class Rates:
    """Jump rates: `lam` out of even states, `mu` out of odd states."""

    lam: float
    mu: float

    def __post_init__(self):
        for name, v in (("lam", self.lam), ("mu", self.mu)):
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be strictly positive and finite, got {v}")
        # every series and oracle scales by lam + mu or by the uniformization rate 2 max(lam, mu)
        if not math.isfinite(2.0 * (self.lam + self.mu)):
            raise DomainError(f"2(lam + mu) overflows at lam={self.lam!r}, mu={self.mu!r}")

    @property
    def total(self) -> float:
        return self.lam + self.mu

    @property
    def diff(self) -> float:
        return self.lam - self.mu

    def swapped(self) -> "Rates":
        return Rates(self.mu, self.lam)


def _check_time(t: float) -> None:
    """Raise DomainError unless t is a finite time >= 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")


def _state(name: str, value) -> int:
    """`value` as an int state; DomainError unless `operator.index` accepts it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _state_text(k: int) -> str:
    """An int argument k (a state, a count or a seed) for an error message: its digits up
    to 256 bits, past them its sign and bit length, since Python refuses to format an int
    of over 4,300 digits."""
    bits = k.bit_length()
    return str(k) if bits <= 256 else f"{'-' if k < 0 else ''}<{bits}-bit integer>"


def _sum_series(terms, what: str, settled: float) -> float:
    """Sum an iterable of terms in order, by the rule of every series.

    Stops after two consecutive terms with |term| <= SERIES_REL_TOL * |total|
    from the 0-based index `settled` on (typically the peak of the terms), so
    a small term on the rising side cannot end the sum.  Raises
    SeriesOverflowError at the first non-finite partial sum, and
    ConvergenceError after SERIES_MAX_TERMS terms or once a finite iterable
    ends unsettled (terms the number read), or before the first (partial sum
    0) where settled > SERIES_MAX_TERMS - 2 leaves no stop under the cap.
    """
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    if settled > max_terms - 2:
        raise ConvergenceError(f"{what} did not converge", 0.0, max_terms)
    total = 0.0
    small = 0
    index = -1
    for index, term in enumerate(itertools.islice(terms, max_terms)):
        total += term
        if not math.isfinite(total):
            raise SeriesOverflowError(f"{what} overflowed", total, index + 1)
        if index >= settled and abs(term) <= rel_tol * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(f"{what} did not converge", total, index + 1)


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order >= 0.

    Sums I_n(x) = sum_m (x/2)^(2m+n) / (m! (m+n)!) by `_sum_series`, with the
    term recurrence t_{m+1} = t_m * (x/(2(m+1))) * (x/(2(m+n+1))).  Every term
    may count toward the stop: the terms are positive and rise to one peak,
    so a rising term is at least 1/(index + 1) of the partial sum, far above
    SERIES_REL_TOL.  Raises DomainError for a non-finite or negative order
    or x, and SeriesOverflowError once the sum is past the float range (I_0(x)
    overflows near x = 713).
    """
    if not (order >= 0 and math.isfinite(order)):
        raise DomainError(f"order must be finite and >= 0, got {order}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0

    half = x / 2.0
    # first term (x/2)^n / n! in log form: n can be large enough to overflow
    # a naive power even when I_n(x) itself is representable; log(x/2) is
    # log x - log 2, since x/2 underflows to 0 at the least subnormal x
    try:
        first = math.exp(order * (math.log(x) - _LOG_2) - math.lgamma(order + 1))
    except OverflowError:
        raise SeriesOverflowError(f"bessel_i({order}, {x}) overflowed", math.inf, 1) from None

    def terms(term=first):
        for m in itertools.count():
            yield term
            # not (x/2)^2/((m+1)(m+n+1)), whose one rounding compounds to 3e-14 by x = 500
            term *= (half / (m + 1)) * (half / (m + order + 1))

    return _sum_series(terms(), f"bessel_i({order}, {x})", 0)


def _bessel_sums(z: float, beta, kappa) -> tuple[float, float, float]:
    """(S0, E, K) for finite z >= 0, unchecked: with T_m = (z^2/4)^m/(m!)^2, the sums of
    T_m = I_0(z), T_m beta[m] and T_m kappa[m], in one loop by the stopping rule and term
    cap of every series on T_m, past its peak.  The weight sequences are indexed from
    m = 0 and must outlast the stop: the caller sizes them, and a pair that runs out first
    raises ConvergenceError, as the cap does.  Weights at most a few in size, as those of
    `reflecting._q10_weights` (at most 2), leave every tail within a few times the stop's
    bound on S0's.  Raises SeriesOverflowError past I_0's float range.
    """
    half = z / 2.0
    term = s0 = 1.0
    betas, kappas = iter(beta), iter(kappa)
    e, k = next(betas), next(kappas)
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    small = m = 0
    for m, b, c in zip(range(1, max_terms + 1), betas, kappas):
        step = half / m  # not (z^2/4)/m^2, whose one rounding compounds to 3e-14 by z = 700
        ratio = step * step
        term *= ratio
        s0 += term
        e += term * b
        k += term * c
        if term <= rel_tol * s0 and ratio < 1.0:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    # checked once, not per term: an overflowed s0 stays infinite and passes the stop test
    if not math.isfinite(s0):
        raise SeriesOverflowError(f"Bessel sums at z={z!r} overflowed", s0, m)
    if small < 2:
        raise ConvergenceError(f"Bessel sums at z={z!r} did not converge", s0, m)
    return s0, e, k


def _hyp_series(a: float, b1: float, b2: float, x: float) -> float:
    """1F2(a; b1, b2; x) = sum_m (a)_m x^m / (m! (b1)_m (b2)_m), each term the
    last times x (a+m) / ((1+m)(b1+m)(b2+m)).  Stops on two consecutive terms
    below SERIES_REL_TOL once the term ratio has dropped under 1/2, at which
    point the omitted tail is below 2|next term|.  Unchecked: the caller keeps
    x >= 0 and the lower parameters off the poles (`hyp1f2` checks them).  An
    overflowed sum comes back as +-inf, or raises SeriesOverflowError if it
    reaches the term cap (x past about 5e7 for b1, b2 near 1).
    """
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    term = total = 1.0
    small = 0
    for m in range(max_terms):
        ratio = x * (a + m) / ((1.0 + m) * (b1 + m) * (b2 + m))
        term *= ratio
        total += term
        if abs(term) <= rel_tol * abs(total) and abs(ratio) < 0.5:
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    if not math.isfinite(total):
        raise SeriesOverflowError(f"{_hyp_name(a, b1, b2, x)} overflowed", total, max_terms)
    raise ConvergenceError(f"{_hyp_name(a, b1, b2, x)} did not converge", total, max_terms)


def _hyp_name(a: float, b1: float, b2: float, x: float) -> str:
    """The series `_hyp_series` sums, by its arguments, for its errors."""
    return f"1F2({a}; {b1}, {b2}; {x})"


def hyp1f2(a: float, b1: float, b2: float, x: float) -> float:
    """Generalized hypergeometric function 1F2(a; b1, b2; x) for x >= 0:
    `_hyp_series` with its arguments checked, the entry for outside input.

    Negative `a` (the closed forms use a = -1/2 and a = 1/2) needs no
    special casing because the term recurrence carries the sign.  A lower
    parameter at a pole (zero or a negative integer) and a negative x raise
    DomainError: at x < 0 cancellation ruins the alternating sum, and every
    x of the closed forms is a square over 4.  Raises SeriesOverflowError
    once the sum is past the float range (1F2(1/2; 3/2, 1; x) overflows
    near x = 1.3e5).  A non-finite a, b1 or b2 raises DomainError before
    any term is summed.
    """
    if not all(map(math.isfinite, (a, b1, b2))):
        raise DomainError(f"parameters must be finite, got a={a}, b1={b1}, b2={b2}")
    for b in (b1, b2):
        if b == 0.0 or (b < 0.0 and b == int(b)):
            raise DomainError(f"lower parameter {b} is zero or a negative integer")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    v = _hyp_series(a, b1, b2, x)
    # checked once, not per term: an overflowed sum comes back as +-inf
    if not math.isfinite(v):
        raise SeriesOverflowError(f"{_hyp_name(a, b1, b2, x)} overflowed", v, 0)
    return v


# Weideman & Trefethen's parabolic contour (Math. Comp. 76, 2007) as (z_j, w_j) pairs: the
# N = 32 midpoints theta_j of (-pi, pi) on z = N (0.1309 - 0.1194 theta^2 + 0.25 i theta)
# give f(t) = (1/t) Re sum_j w_j F(z_j/t), w_j = 2 e^(z_j) z'(theta_j)/(N i), summed
# over theta_j > 0 only: F is real on the real axis, so the rest are conjugates.
_CONTOUR = tuple(
    (z, -2j * cmath.exp(z) * complex(-0.2388 * th, 0.25))
    for th in (math.pi * (2 * j + 1) / 32 for j in range(16))
    for z in [32 * complex(0.1309 - 0.1194 * th * th, 0.25 * th)]
)
