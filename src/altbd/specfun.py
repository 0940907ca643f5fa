"""Scalar special functions used by the closed-form transition probabilities.

Everything here is evaluated by direct power series with a running
term-ratio recurrence (no factorials are ever materialised), which keeps
individual terms in range long after naive evaluation would overflow.
Three loops sum everything: `_sum_series`, the accumulator of the outer
series of the closed forms (the bilateral series, q00 and q10); the
fixed-shape `_hyp_series`, which gives every 1F2 and the one 2F3 of
`q10_series`; and `bessel_i`'s own, kept because `_hyp_series` as a 0F1
took 1.6 times as long per call (orders 0 and 1, x up to 60) and moved
values by up to 2e-15.  All functions are pure and reentrant.

Every series, here and in the closed forms, truncates by the same fixed
rule: stop after two consecutive terms below SERIES_REL_TOL relative to the
partial sum, and give up with ConvergenceError after SERIES_MAX_TERMS terms.
"""

from __future__ import annotations

import itertools
import math

__all__ = [
    "SERIES_REL_TOL",
    "SERIES_MAX_TERMS",
    "DomainError",
    "ConvergenceError",
    "SeriesOverflowError",
    "bessel_i",
    "hyp1f2",
]


# stop once two consecutive terms are this small relative to the partial sum
# (a single-term test misfires where a series crosses between growth and
# decay regimes)
SERIES_REL_TOL = 1e-14
# hard cap on summed terms; reaching it raises ConvergenceError
SERIES_MAX_TERMS = 10_000


class DomainError(ValueError):
    """An argument lies outside the domain a routine supports."""


class ConvergenceError(RuntimeError):
    """A series hit its term cap before meeting the series tolerance, or a
    quadrature its panel cap before meeting the quadrature tolerance.

    Carries the partial sum and the number of terms (panels, for a
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
    underflowed scale).

    Raised at the first such term rather than after the term cap, since no
    further term can bring the sum back into range.
    """


def _check_time(t: float) -> None:
    """Raise DomainError unless t is a finite time >= 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")


def _sum_series(terms, what: str) -> float:
    """Sum an iterable of (term, settled) pairs in order.

    Stops after two consecutive settled terms with |term| <= SERIES_REL_TOL
    * |total|; `settled` carries each series' own guard (typically "past the
    peak of the terms"), so a small term on the rising side cannot end the
    sum.  Raises
    SeriesOverflowError at the first non-finite partial sum and
    ConvergenceError once SERIES_MAX_TERMS terms are summed without stopping.
    """
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    total = 0.0
    small = 0
    for count, (term, settled) in enumerate(itertools.islice(terms, max_terms), 1):
        total += term
        if not math.isfinite(total):
            raise SeriesOverflowError(f"{what} overflowed", total, count)
        if settled and abs(term) <= rel_tol * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(f"{what} did not converge", total, max_terms)


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order >= 0.

    Sums I_n(x) = sum_m (x/2)^(2m+n) / (m! (m+n)!) with the term recurrence
    t_{m+1} = t_m * (x/2)^2 / ((m+1)(m+n+1)).  Terms are positive, so the
    two-consecutive-small-terms rule plus a past-the-peak guard bounds the
    tail geometrically.  Raises SeriesOverflowError once the sum is past
    the float range (I_0(x) overflows near x = 713).
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0

    half = x / 2.0
    # first term (x/2)^n / n! in log form: n can be large enough to overflow
    # a naive power even when I_n(x) itself is representable
    try:
        term = math.exp(order * math.log(half) - math.lgamma(order + 1))
    except OverflowError:
        raise SeriesOverflowError(f"bessel_i({order}, {x}) overflowed", math.inf, 1) from None
    total = term
    q = half * half
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    small = 0
    for m in range(max_terms):
        ratio = q / ((m + 1) * (m + order + 1))
        term *= ratio
        total += term
        if term <= rel_tol * total and ratio < 1.0:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    # checked once, not per term: an overflowed total stays infinite, and
    # inf passes the stop test above
    if not math.isfinite(total):
        raise SeriesOverflowError(f"bessel_i({order}, {x}) overflowed", total, m + 1)
    if small < 2:
        raise ConvergenceError(f"bessel_i({order}, {x}) did not converge", total, max_terms)
    return total


def _hyp_series(a: float, b1: float, b2: float, x: float, name: str, c: float = 1.0) -> float:
    """sum_m (a)_m x^m / ((c)_m (b1)_m (b2)_m), each term the last times
    x (a+m) / ((c+m)(b1+m)(b2+m)): 1F2(a; b1, b2; x) at c = 1, and at c = 2
    the 2F3(a, 1; 2, b1, b2; x) of `q10_series`.  Stops on two consecutive
    terms below SERIES_REL_TOL once the term ratio has dropped under 1/2,
    at which point the omitted tail is below 2|next term|.
    """
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    term = total = 1.0
    small = 0
    for m in range(max_terms):
        ratio = x * (a + m) / ((c + m) * (b1 + m) * (b2 + m))
        term *= ratio
        total += term
        if abs(term) <= rel_tol * abs(total) and abs(ratio) < 0.5:
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(f"{name}({x}) did not converge", total, max_terms)


def hyp1f2(a: float, b1: float, b2: float, x: float) -> float:
    """Generalized hypergeometric function 1F2(a; b1, b2; x) for x >= 0.

    Negative `a` (the closed forms use a = -1/2 and a = 1/2) needs no
    special casing because the term recurrence carries the sign.  A lower
    parameter at a pole (zero or a negative integer) and a negative x raise
    DomainError: at x < 0 cancellation ruins the alternating sum, and every
    x of the closed forms is a square over 4.  Raises SeriesOverflowError
    once the sum is past the float range (1F2(1/2; 3/2, 1; x) overflows
    near x = 1.3e5).
    """
    for b in (b1, b2):
        if b == 0.0 or (b < 0.0 and b == int(b)):
            raise DomainError(f"lower parameter {b} is zero or a negative integer")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    name = f"hyp1f2({a},{b1},{b2})"
    v = _hyp_series(a, b1, b2, x, name)
    # checked once, not per term: an overflowed sum comes back as +-inf
    if not math.isfinite(v):
        raise SeriesOverflowError(f"{name}({x}) overflowed", v, 0)
    return v
