"""Transient analysis of the unrestricted chain on the integers.

The chain jumps to either neighbour at rate `lam` from even states and at
rate `mu` from odd states.  Closed forms implemented here: the even/odd
probability generating functions, the transition-probability double series
(two even-start parity cases; an odd start is an even one with the rates
swapped), and the first two moments.

`transition_matrix`, one block of the transition matrix, is the one route
of the double series; `transition_probs` is its one-start case and
`transition_prob` its one-entry case.  Each entry reduces to a key, its
offset m and whether the target has the start's parity (`_sum_key`), after
an odd start has been shifted to an even one with the rates swapped:
targets k + 2j and k - 2j share a key, and so do all the starts of one
parity at the same distance from their targets.  An odd target's two inner
offsets m and m+1 are summed in one pass over n.  A block sums each
distinct key of each start parity once, and steps each inner sequence once
for all the keys that read it (`_row_sums`).  Every value is the one a
single call returns, bit for bit.

Every series is accumulated in log space: the raw terms behave like
(a t)^(2n) / (2n)! with a = lam + mu and overflow long before convergence
for large t, so each term carries the overall e^(-a t) damping inside the
exponent.  Its scales are formed from logarithms too: log(rt) as
log(rate) + log(t), the inner argument x = mu/lam as log(mu) - log(lam), and
c rt as (mu - lam) t.  So one path covers every positive rate pair and
time: no product underflows to a special case, and a rate ratio outside the
float range is still a finite log.  Where the terms peak past the term cap
(about a t / 2 terms, so also at mu t >> 1 with lam t tiny), the sum raises
ConvergenceError before its first term, as `_sum_series` foresees it.

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

__all__ = [
    "Rates", "TransitionQuery", "PgfPair", "pgf", "transition_prob", "transition_probs", "transition_matrix", "mean",
    "variance",
]

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
            object.__setattr__(self, name, _state(name, getattr(self, name)))
        _check_time(self.t)


def _state(name: str, value) -> int:
    """`value` as an int state; DomainError unless `operator.index` accepts it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


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
    k = _state("k", k)
    _check_time(t)
    lam, mu = rates.lam, rates.mu
    # root by root: the product of the two factors leaves the float range near rates 1e200 and 1e-300
    h = math.sqrt(mu * z * z + lam) * math.sqrt(lam * z * z + mu)
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


def _inner_logs(d: int, lx: float):
    """Yield log S_n(d, x) for n = d, d+1, ..., one O(1) step each, from lx = log x.

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
    so it always sees log(1/x or x) = -|lx| and w <= 1, and x itself may lie
    outside the float range.
    """
    shift = 2.0 * lx if lx > 0.0 else 0.0
    log_y = -abs(lx)
    w = math.exp(2.0 * log_y)
    log_s = d * log_y
    yield log_s + d * shift
    e = d + (d + 1) * w  # S_(d+1) = (d+1)(1+w) S_d
    # fn is n as a float, exact below 2^51: float-float operations give the
    # values of the int-float ones bit for bit and take about a quarter less
    # time per step in CPython
    log1p, dd, fn = math.log1p, float(d * d), d + 1.0
    for n in itertools.count(d + 1):
        log_s += log1p(e)
        yield log_s + fn * shift
        m, fm = n + 1, fn + 1.0
        e1 = 1.0 + e
        e = (fn * e + w * (4.0 * fn + 1.0 - fn * w + (2.0 * fn + 1.0) * e) + dd * e1 / fm) / ((m - d) * (m + d) / m * e1)
        fn = fm


def _sum_key(d: int, same: bool) -> tuple[int, bool]:
    """The series a target at inner offset d reads, as (m, same parity).

    A same-parity target sums S_|d|; a cross-parity one sums S_m + S_(m+1)
    with (m, m+1) the pair |d|, |d+1| in order.  Targets k + 2j and k - 2j
    share a key, so a row sums each key once.
    """
    return (abs(d), True) if same else (min(abs(d), abs(d + 1)), False)


def _same_terms(logs, m: int, lrt: float, at: float, crt: float):
    """Terms n = m, m+1, ... of a same-parity key (m, True), from its S_n(m, x) in `logs`:
        e^(-at) [ (rt)^{2n}/(2n)! + c (rt)^{2n+1}/(2n+1)! ] S_n(m, x),  n >= m,
    whose even and odd parts share S_n, so the odd part is the even one times
    c*rt/(2n+1); lrt = log(rt), at = a*t, crt = c*rt.

    two_n is 2n as a float, exact like the counter of `_inner_logs`.
    """
    exp, lgamma = math.exp, math.lgamma
    two_n = 2.0 * m
    for log_s in logs:
        odd = two_n + 1.0
        yield exp(two_n * lrt - lgamma(odd) + log_s - at) * (1.0 + crt / odd)
        two_n = odd + 1.0


def _cross_terms(logs, upper, m: int, lrt: float, at: float):
    """Terms n = m, m+1, ... of a cross-parity key (m, False), from S_n(m, x) in
    `logs` and S_n(m+1, x) in `upper`, as in `_same_terms`:
        e^(-at) (rt)^{2n+1}/(2n+1)! [ S_n(m, x) + S_n(m+1, x) ],  n >= m,
    both offsets in one pass: S_(m+1) joins at n = m+1 (S_m(m+1, x) = 0).
    """
    exp, lgamma = math.exp, math.lgamma
    upper = itertools.chain([-math.inf], upper)
    two_n = 2.0 * m
    for log_s in logs:
        odd = two_n + 1.0
        term = exp(odd * lrt - lgamma(odd + 1.0) + log_s - at)
        yield term * (1.0 + exp(next(upper) - log_s))
        two_n = odd + 1.0


def _row_sums(keys, lrt: float, lx: float, at: float, crt: float) -> dict:
    """The probability each distinct key in `keys` sums, by key: e^(-at) times
    its outer series (`_same_terms`, `_cross_terms`), clamped to [0, 1].

    The series' scales come in as lrt = log(rt), lx = log x, at = a*t and
    crt = c*rt, each formed once per start parity of a block by `_matrix`.

    Each inner sequence S_n(j, x) is stepped once for all the keys: where
    several sums read it, `itertools.tee` keeps its values for the ones
    behind, and a sequence with one reader is the bare generator.

    A key's sum may stop only from term index max(5, at/2 - m) on (see
    `_sum_series`): from n = m + 5 and past the Poisson-weight peak at
    2n ~ at, where terms decay faster than geometrically.
    """
    sums = dict.fromkeys(keys)
    readers = {}  # how many sums read S(j): (m, same) reads S(m), (m, cross) S(m) and S(m+1)
    for m, same in sums:
        readers[m] = readers.get(m, 0) + 1
        if not same:
            readers[m + 1] = readers.get(m + 1, 0) + 1
    copies = {}
    for j, count in readers.items():
        logs = _inner_logs(j, lx)
        copies[j] = list(itertools.tee(logs, count)) if count > 1 else [logs]
    for m, same in sums:
        logs = copies[m].pop()
        terms = _same_terms(logs, m, lrt, at, crt) if same else _cross_terms(logs, copies[m + 1].pop(), m, lrt, at)
        v = _sum_series(terms, f"transition series ({'same' if same else 'cross'} parity)", max(5.0, 0.5 * at - m))
        sums[m, same] = min(max(v, 0.0), 1.0)  # guard against sub-eps excursions outside [0, 1]
    return sums


def transition_matrix(from_states, to_states, t: float, rates: Rates) -> list[list[float]]:
    """Probabilities of moving from each of `from_states` to each of `to_states` in time t.

    Returns one row per start, in the caller's order, each with one
    probability per target, in the caller's order.  Every entry reduces to
    the key of one even-start double series (`_sum_key`), and each distinct
    key of a start parity is summed once for the whole block, all of them
    over one pass of the inner sequences (`_row_sums`).  Every entry is
    exactly the value of one `transition_prob` call; where a series fails,
    the block raises the error of the first failing key, the even starts'
    keys taken before the odd starts'.
    """
    starts = [_state("from_state", k) for k in from_states]
    targets = [_state("to_state", n) for n in to_states]
    _check_time(t)
    return _matrix(starts, targets, t, rates)


def _matrix(starts, targets, t: float, rates: Rates) -> list[list[float]]:
    """`transition_matrix` on checked arguments: the one route of the double series."""
    if t == 0.0:
        return [[1.0 if n == k else 0.0 for n in targets] for k in starts]
    classes = ([], [])  # indices of the even starts and of the odd ones
    for i, k in enumerate(starts):
        classes[k % 2].append(i)
    width = len(targets)
    rows = [None] * len(starts)
    for parity, members in enumerate(classes):
        if not members:
            continue
        # shifting both states of an odd start by one swaps the rates: p_(k,n)(lam, mu) = p_(k-1,n-1)(mu, lam)
        lam, mu = (rates.mu, rates.lam) if parity else (rates.lam, rates.mu)
        # the inner offset of (k, n) is n // 2 - k // 2 once both are shifted to an even start
        halves = [((n - parity) // 2, n % 2 == parity) for n in targets]
        start_halves = [(starts[i] - parity) // 2 for i in members]
        keys = [_sum_key(h - kh, same) for kh in start_halves for h, same in halves]
        # log(lam t) and log(mu/lam) stay finite where lam t underflows or mu/lam leaves the float range
        log_lam = math.log(lam)
        sums = _row_sums(keys, log_lam + math.log(t), math.log(mu) - log_lam, rates.total * t, (mu - lam) * t)
        values = list(map(sums.__getitem__, keys))
        for j, i in enumerate(members):
            rows[i] = values[j * width : (j + 1) * width]
    return rows


def transition_probs(from_state: int, to_states, t: float, rates: Rates) -> list[float]:
    """Probabilities of moving from `from_state` to each of `to_states` in time t:
    the one-start case of `transition_matrix`, so a row sums each distinct
    series once and returns exactly the values of one `transition_prob`
    call per target."""
    return transition_matrix((from_state,), to_states, t, rates)[0]


def transition_prob(q: TransitionQuery, rates: Rates) -> float:
    """Probability of moving from q.from_state to q.to_state in time q.t:
    the one-entry case of `transition_matrix`, which sums exactly one
    series for it."""
    return _matrix((q.from_state,), (q.to_state,), q.t, rates)[0][0]


def mean(k: int, t: float, rates: Rates) -> float:
    """Conditional mean of the chain started at k: identically k.

    The distribution of the displacement is symmetric about the start for
    every t and every rate pair, so the mean never moves.
    """
    k = _state("k", k)
    _check_time(t)
    return float(k)


def variance(k: int, t: float, rates: Rates) -> float:
    """Conditional variance of the chain started at k.

    Linear growth 4*lam*mu/(lam+mu) * t plus a transient whose coefficient
    depends on k only through parity: lam*(lam-mu) from even starts,
    mu*(mu-lam) from odd ones (each is the other under a rate swap, matching
    the translation symmetry of the chain).
    """
    k = _state("k", k)
    _check_time(t)
    lam, mu = rates.lam, rates.mu
    a = rates.total
    c = lam / a * ((lam - mu) / a) if _is_even(k) else mu / a * ((mu - lam) / a)
    v = 4.0 * lam * (mu / a) * t + c * (1.0 - math.exp(-2.0 * a * t))
    if not math.isfinite(v):
        raise SeriesOverflowError(f"variance at t={t!r} is out of the float range", v, 0)
    return v
