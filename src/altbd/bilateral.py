"""Transient analysis of the unrestricted chain on the integers.

The chain jumps to either neighbour at rate `lam` from even states and at
rate `mu` from odd states.  Closed forms implemented here: the even/odd
probability generating functions, the four parity cases of the
transition-probability double series, and the first two moments.

Every series is accumulated in log space: the raw terms behave like
(a t)^(2n) / (2n)! with a = lam + mu and overflow long before convergence
for large t, so each term carries the overall e^(-a t) damping inside the
exponent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .specfun import DEFAULT_CONTROL, DomainError, SeriesControl, _sum_series

__all__ = ["Rates", "TransitionQuery", "PgfPair", "pgf", "transition_prob", "mean", "variance"]


@dataclass(frozen=True)
class Rates:
    """Jump rates: `lam` out of even states, `mu` out of odd states."""

    lam: float
    mu: float

    def __post_init__(self):
        for name, v in (("lam", self.lam), ("mu", self.mu)):
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be strictly positive and finite, got {v}")

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
    """One transition probability: start in `from_state`, end in `to_state` at time t."""

    from_state: int
    to_state: int
    t: float

    def __post_init__(self):
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise DomainError(f"t must be finite and >= 0, got {self.t}")


@dataclass(frozen=True)
class PgfPair:
    """Values of the even-state and odd-state generating functions at (z, t).

    `f` collects the even states (coefficients of z^(2j)), `g` the odd ones;
    `h` is the square-root helper sqrt((mu z^2 + lam)(lam z^2 + mu)) both
    closed forms share.
    """

    f: float
    g: float
    h: float

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
    square-root helper h(z).  cosh/sinh of t*h(z)/z are folded together with
    the overall e^(-(lam+mu)t) factor so large t cannot overflow
    intermediates when the result itself is in range.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError(f"z must be strictly positive and finite, got {z}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    lam, mu = rates.lam, rates.mu
    a = rates.total
    h = math.sqrt((mu * z * z + lam) * (lam * z * z + mu))
    theta = t * h / z
    # e^(-at) cosh(theta) and e^(-at) sinh(theta), computed without forming e^theta
    ep = math.exp(theta - a * t)
    em = math.exp(-theta - a * t)
    ch = 0.5 * (ep + em)
    sh = 0.5 * (ep - em)
    zk = z**k
    if _is_even(k):
        f = zk * (ch + (mu - lam) * z / h * sh)
        g = zk * lam * (z * z + 1.0) / h * sh
    else:
        f = zk * mu * (z * z + 1.0) / h * sh
        g = zk * (ch + (lam - mu) * z / h * sh)
    return PgfPair(f=f, g=g, h=h)


# log-factorial table, grown on demand; rebuilding is idempotent, so a race
# between threads costs a redundant recompute at worst
_LOG_FACT = gammaln(np.arange(1, 130.0))


def _log_fact(n: int) -> np.ndarray:
    global _LOG_FACT
    if _LOG_FACT.size <= n:
        _LOG_FACT = gammaln(np.arange(1, max(2 * _LOG_FACT.size, n + 1) + 1.0))
    return _LOG_FACT


def _inner_log(n: int, d: int, log_x: float) -> float:
    """log of sum_k C(n,k) C(n,k+d) x^(2k+d), the inner binomial sum."""
    lf = _log_fact(n)
    ks = np.arange(n - d + 1)
    terms = (
        2.0 * lf[n]
        - lf[ks]
        - lf[d : n + 1][::-1]
        - lf[ks + d]
        - lf[: n - d + 1][::-1]
        + (2 * ks + d) * log_x
    )
    peak = terms.max()
    return float(peak + math.log(np.exp(terms - peak).sum()))


def _series_same_parity(rate: float, x: float, d: int, c: float, t: float, a: float, ctl: SeriesControl) -> float:
    """sum_{n>=d} [ (rt)^{2n}/(2n)! + c (rt)^{2n+1}/(2n+1)! ] S_n(d, x), times e^(-at).

    S_n is the inner binomial sum; rt = rate*t.  Both the even and the odd
    part of each term share S_n, so the odd part is the even one times
    c*rt/(2n+1).
    """
    rt = rate * t
    lrt = math.log(rt)
    lx = math.log(x)

    def terms():
        for n in itertools.count(d):
            base = math.exp(2 * n * lrt - _log_fact(2 * n)[2 * n] + _inner_log(n, d, lx) - a * t)
            # settled only past the Poisson-weight peak at 2n ~ at, where
            # terms decay faster than geometrically
            yield base * (1.0 + c * rt / (2 * n + 1)), n >= d + 5 and 2 * n >= a * t

    return _sum_series(terms(), ctl, "transition series (same parity)")


def _series_cross_parity(rate: float, x: float, d: int, t: float, a: float, ctl: SeriesControl) -> float:
    """sum_{n>=d} (rt)^{2n+1}/(2n+1)! S_n(d, x), times e^(-at)."""
    rt = rate * t
    lrt = math.log(rt)
    lx = math.log(x)

    def terms():
        for n in itertools.count(d):
            term = math.exp((2 * n + 1) * lrt - _log_fact(2 * n + 1)[2 * n + 1] + _inner_log(n, d, lx) - a * t)
            yield term, n >= d + 5 and 2 * n >= a * t

    return _sum_series(terms(), ctl, "transition series (cross parity)")


def transition_prob(q: TransitionQuery, rates: Rates, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Probability of moving from q.from_state to q.to_state in time q.t.

    Dispatches on the parities of the two states to the four double-series
    closed forms.
    """
    if q.t == 0.0:
        return 1.0 if q.from_state == q.to_state else 0.0
    lam, mu = rates.lam, rates.mu
    a = rates.total
    k, n = q.from_state, q.to_state
    if _is_even(k):
        l = k // 2
        if _is_even(n):
            r = n // 2
            v = _series_same_parity(lam, mu / lam, abs(r - l), (mu - lam) / lam, q.t, a, ctl)
        else:
            r = (n - 1) // 2
            v = _series_cross_parity(lam, mu / lam, abs(r - l), q.t, a, ctl) + _series_cross_parity(
                lam, mu / lam, abs(r - l + 1), q.t, a, ctl
            )
    else:
        l = (k - 1) // 2
        if _is_even(n):
            r = n // 2
            v = _series_cross_parity(mu, lam / mu, abs(r - l - 1), q.t, a, ctl) + _series_cross_parity(
                mu, lam / mu, abs(r - l), q.t, a, ctl
            )
        else:
            r = (n - 1) // 2
            v = _series_same_parity(mu, lam / mu, abs(r - l), (lam - mu) / mu, q.t, a, ctl)
    # guard against sub-eps excursions outside [0, 1]
    return min(max(v, 0.0), 1.0)


def mean(k: int, t: float, rates: Rates) -> float:
    """Conditional mean of the chain started at k: identically k.

    The distribution of the displacement is symmetric about the start for
    every t and every rate pair, so the mean never moves.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return float(k)


def variance(k: int, t: float, rates: Rates) -> float:
    """Conditional variance of the chain started at k.

    Linear growth 4*lam*mu/(lam+mu) * t plus a transient whose coefficient
    depends on k only through parity: lam*(lam-mu) from even starts,
    mu*(mu-lam) from odd ones (each is the other under a rate swap, matching
    the translation symmetry of the chain).
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    lam, mu = rates.lam, rates.mu
    a = rates.total
    c = lam * (lam - mu) if _is_even(k) else mu * (mu - lam)
    return 4.0 * lam * mu / a * t + c / (a * a) * (1.0 - math.exp(-2.0 * a * t))
