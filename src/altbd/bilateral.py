"""Transient analysis of the unrestricted chain on the integers.

The chain jumps to either neighbour at rate `lam` from even states and at
rate `mu` from odd states.  Closed forms implemented here: the even/odd
probability generating functions, the transition-probability double series
(two even-start parity cases; an odd start is an even one with the rates
swapped), and the first two moments.  Each transition probability is one
series (`_series`): an odd target's two inner offsets are summed in the same
pass over n.

Every series is accumulated in log space: the raw terms behave like
(a t)^(2n) / (2n)! with a = lam + mu and overflow long before convergence
for large t, so each term carries the overall e^(-a t) damping inside the
exponent.

Each outer term n of the double series multiplies (r t)^(2n)/(2n)! by the
inner binomial sum S_n(d, x) = sum_k C(n,k) C(n,k+d) x^(2k+d).  S_n is a
scaled Jacobi polynomial, so successive n follow a three-term recurrence
(see `_inner_logs`), and each outer term costs O(1) float work: one
recurrence step plus `math.lgamma` for the factorial.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

from .specfun import DomainError, SeriesOverflowError, _check_time, _sum_series

__all__ = ["Rates", "TransitionQuery", "PgfPair", "pgf", "transition_prob", "mean", "variance"]

# the largest x with e^x in the float range
_LOG_MAX = math.log(sys.float_info.max)


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


@dataclass(frozen=True)
class TransitionQuery:
    """One transition probability: start in `from_state`, end in `to_state` at time t.

    States are integers (anything `operator.index` accepts, stored as int).
    """

    from_state: int
    to_state: int
    t: float

    def __post_init__(self):
        for name in ("from_state", "to_state"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        _check_time(self.t)


@dataclass(frozen=True)
class PgfPair:
    """Values of the even-state and odd-state generating functions at (z, t).

    `f` collects the even states (coefficients of z^(2j)), `g` the odd ones.
    """

    f: float
    g: float

    @property
    def total(self) -> float:
        return self.f + self.g


def _is_even(n: int) -> bool:
    # mathematical parity; states range over all integers, so -3 is odd
    return n % 2 == 0


def pgf(k: int, z: float, t: float, rates: Rates) -> PgfPair:
    """Evaluate the pair (F_k(z, t), G_k(z, t)) of generating functions.

    F_k carries the even states and G_k the odd states of the chain started
    at k.  Requires z > 0: the closed forms divide by z and by the
    square-root helper h(z).  z^k and cosh/sinh of t*h(z)/z are folded
    together with the overall e^(-(lam+mu)t) factor in log space, so nothing
    overflows unless F or G itself is out of the float range; there
    SeriesOverflowError names the arguments.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError(f"z must be strictly positive and finite, got {z}")
    _check_time(t)
    lam, mu = rates.lam, rates.mu
    h = math.sqrt((mu * z * z + lam) * (lam * z * z + mu))
    theta = t * h / z
    # F and G are z^k e^(theta - at) times these brackets of e^(-theta) cosh and sinh
    ch = 0.5 * (1.0 + math.exp(-2.0 * theta))
    sh = -0.5 * math.expm1(-2.0 * theta)
    if _is_even(k):
        f, g = ch + (mu - lam) * z / h * sh, lam * (z * z + 1.0) / h * sh
    else:
        f, g = mu * (z * z + 1.0) / h * sh, ch + (lam - mu) * z / h * sh
    log_scale = k * math.log(z) + theta - rates.total * t
    logs = [log_scale + math.log(v) if v > 0.0 else -math.inf for v in (f, g)]
    if not all(v <= _LOG_MAX for v in logs):  # also false for NaN
        raise SeriesOverflowError(f"pgf at k={k}, z={z!r}, t={t!r} is out of the float range", math.inf, 0)
    return PgfPair(f=math.exp(logs[0]), g=math.exp(logs[1]))


def _inner_logs(d: int, x: float):
    """Yield log S_n(d, x) for n = d, d+1, ..., one O(1) step each.

    S_n(d, x) = sum_k C(n,k) C(n,k+d) x^(2k+d) is the inner binomial sum,
    x^d (1-x^2)^(n-d) P_(n-d)^(d,d)((1+x^2)/(1-x^2)) with P a Jacobi
    polynomial, so it obeys the three-term recurrence

        (n+1-d)(n+1+d) S_(n+1) = (n+1) [(2n+1)(1+x^2) S_n - n(1-x^2)^2 S_(n-1)]

    from S_(d-1) = 0, S_d = x^d.  S_n is the dominant solution (the other is
    smaller by ((1-x)/(1+x))^(2n)), so the forward direction is stable.

    Only e_n = S_n/S_(n-1) - 1 >= 0 is carried, so nothing overflows.  In
    terms of e and w = x^2 the recurrence has no cancelling terms:

        e_(n+1) = [n e + w (4n+1 - n w + (2n+1) e) + d^2 (1+e)/(n+1)]
                  / [(n+1-d)(n+1+d)/(n+1) (1+e)]

    The plain ratio form instead subtracts two numbers near 2n whose
    difference carries the 4x^2 that separates the two solutions; for
    x = 1/1000 its log S_n drifts by 1e-10 at n = 6000, against 3e-12 here.
    For x > 1 the recurrence runs on 1/x through S_n(d, x) = x^(2n) S_n(d, 1/x),
    which keeps w <= 1 for any positive rate pair.
    """
    shift = 2.0 * math.log(x) if x > 1.0 else 0.0
    y = min(x, 1.0 / x)
    w = y * y
    log_s = d * math.log(y)
    yield log_s + d * shift
    e = d + (d + 1) * w  # S_(d+1) = (d+1)(1+w) S_d
    for n in itertools.count(d + 1):
        log_s += math.log1p(e)
        yield log_s + n * shift
        m = n + 1
        e = (n * e + w * (4 * n + 1 - n * w + (2 * n + 1) * e) + d * d * (1.0 + e) / m) / (
            (m - d) * (m + d) / m * (1.0 + e)
        )


def _series(rate: float, x: float, d: int, t: float, a: float, c: float | None) -> float:
    """e^(-at) times the outer series of one transition probability; rt = rate*t.

    For an even target (c given) it is
        sum_{n>=d} [ (rt)^{2n}/(2n)! + c (rt)^{2n+1}/(2n+1)! ] S_n(d, x),
    whose even and odd parts share S_n, so the odd part is the even one
    times c*rt/(2n+1).  For an odd target (c None) it is
        sum_{n>=d} (rt)^{2n+1}/(2n+1)! [ S_n(d, x) + S_n(d+1, x) ],
    both offsets in one pass: S_(d+1) joins at n = d+1 (S_d(d+1, x) = 0).
    """
    rt = rate * t
    if rt == 0.0:  # rate*t underflowed: every term but an even target's e^(-at) S_0(0, x) is exactly 0
        return math.exp(-a * t) if d == 0 and c is not None else 0.0
    lrt = math.log(rt)

    def terms():
        upper = itertools.chain([-math.inf], _inner_logs(d + 1, x)) if c is None else None
        for n, log_s in enumerate(_inner_logs(d, x), d):
            if c is None:
                term = math.exp((2 * n + 1) * lrt - math.lgamma(2 * n + 2) + log_s - a * t)
                term *= 1.0 + math.exp(next(upper) - log_s)
            else:
                base = math.exp(2 * n * lrt - math.lgamma(2 * n + 1) + log_s - a * t)
                term = base * (1.0 + c * rt / (2 * n + 1))
            # settled only past the Poisson-weight peak at 2n ~ at, where
            # terms decay faster than geometrically
            yield term, n >= d + 5 and 2 * n >= a * t

    return _sum_series(terms(), "transition series (cross parity)" if c is None else "transition series (same parity)")


def transition_prob(q: TransitionQuery, rates: Rates) -> float:
    """Probability of moving from q.from_state to q.to_state in time q.t.

    Odd starts are reduced to even ones first; then the parity of the target
    picks one of the two even-start double-series closed forms, and each
    call sums exactly one series.  An odd target's two offsets, |d| and
    |d+1|, are the consecutive pair (m, m+1), summed in one pass.
    """
    if q.t == 0.0:
        return 1.0 if q.from_state == q.to_state else 0.0
    lam, mu = rates.lam, rates.mu
    a = rates.total
    k, n = q.from_state, q.to_state
    if not _is_even(k):
        # shifting both states by one swaps the rates: p_(k,n)(lam, mu) = p_(k-1,n-1)(mu, lam)
        lam, mu, k, n = mu, lam, k - 1, n - 1
    d = n // 2 - k // 2
    x = mu / lam
    if _is_even(n):
        v = _series(lam, x, abs(d), q.t, a, (mu - lam) / lam)
    else:
        v = _series(lam, x, min(abs(d), abs(d + 1)), q.t, a, None)
    # guard against sub-eps excursions outside [0, 1]
    return min(max(v, 0.0), 1.0)


def mean(k: int, t: float, rates: Rates) -> float:
    """Conditional mean of the chain started at k: identically k.

    The distribution of the displacement is symmetric about the start for
    every t and every rate pair, so the mean never moves.
    """
    _check_time(t)
    return float(k)


def variance(k: int, t: float, rates: Rates) -> float:
    """Conditional variance of the chain started at k.

    Linear growth 4*lam*mu/(lam+mu) * t plus a transient whose coefficient
    depends on k only through parity: lam*(lam-mu) from even starts,
    mu*(mu-lam) from odd ones (each is the other under a rate swap, matching
    the translation symmetry of the chain).
    """
    _check_time(t)
    lam, mu = rates.lam, rates.mu
    a = rates.total
    c = lam / a * ((lam - mu) / a) if _is_even(k) else mu / a * ((mu - lam) / a)
    v = 4.0 * lam * (mu / a) * t + c * (1.0 - math.exp(-2.0 * a * t))
    if not math.isfinite(v):
        raise SeriesOverflowError(f"variance at t={t!r} is out of the float range", v, 0)
    return v
