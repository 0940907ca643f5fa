"""Transient analysis of the unrestricted chain on the integers.

The chain jumps to either neighbour at rate `lam` from even states and at
rate `mu` from odd states.  Closed forms implemented here: the even/odd
probability generating functions (`pgf`), the transition-probability double
series (two even-start parity cases) and the first two moments.  `pgf` and
the series are written for an even start only: an odd start is an even one
with the rates swapped, F and G exchanged in `pgf` and both states shifted
by one in the series.

`_blocks`, several blocks of the transition matrix at one time, is the one
route of the double series; `transition_matrix` is its one-block case,
`transition_probs` its one-start case and `transition_prob` its one-entry
case.  Each entry reduces to a key, its offset m and whether the target has
the start's parity (`_sum_key`), at its start's effective rate pair: an odd
start is shifted to an even one with the rates swapped.  Targets k + 2j and
k - 2j share a key, and so do all the starts of one effective rate pair at
the same distance from their targets; at lam = mu both parities have the
same pair.  An odd target's two inner offsets m and m+1 are summed in one
pass over n.  The starts are grouped by effective rate pair, each row
carrying its own keys; each distinct key of a group is summed once, and
each inner sequence is stepped once for all the keys of the group that read
it (`_row_sums`).  Every value is the one a single call returns, bit for
bit.

Every series is accumulated in log space: the raw terms behave like
(a t)^(2n) / (2n)! with a = lam + mu and overflow long before convergence
for large t, so each term carries the overall e^(-a t) damping inside the
exponent.  `_row_sums` forms its scales from (lam, mu, t), and from
logarithms too: log(rt) as log(rate) + log(t), the inner argument x = mu/lam
as log(mu) - log(lam), and c rt as (mu - lam) t.  So one path covers every positive rate pair and
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
import sys
from dataclasses import dataclass

from .specfun import DomainError, Rates, SeriesOverflowError, _check_time, _state, _sum_series

__all__ = [
    "TransitionQuery", "PgfPair", "pgf", "transition_prob", "transition_probs", "transition_matrix", "mean",
    "variance",
]

# the largest x with e^x in the float range
_LOG_MAX = math.log(sys.float_info.max)


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


def pgf(k: int, z: float, t: float, rates: Rates) -> PgfPair:
    """Evaluate the pair (F_k(z, t), G_k(z, t)) of generating functions.

    F_k carries the even states and G_k the odd states of the chain started
    at k.  From an even start, with a = lam + mu, s = z + 1/z and q the
    generator's eigenvalue sqrt(lam mu s^2 + (lam - mu)^2),

        F = z^k e^((q-a)t) [e^(-qt) cosh(qt) + (mu - lam)/q e^(-qt) sinh(qt)]
        G = z^k e^((q-a)t) lam s/q e^(-qt) sinh(qt);

    an odd start is an even one at the swapped rates with F and G exchanged,
    as in `_blocks`.  The growth rate q - a is formed as
    lam mu (z - 1/z)^2/(q + a), which cancels nothing, so F + G = 1 at z = 1
    for every t.  Requires z > 0.  z^k and the growth are folded together in
    log space, so nothing overflows unless F or G itself is out of the float
    range; there, and wherever a NaN arises, SeriesOverflowError names the
    arguments.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError(f"z must be strictly positive and finite, got {z}")
    k = _state("k", k)
    _check_time(t)
    odd = k % 2
    lam, mu = (rates.mu, rates.lam) if odd else (rates.lam, rates.mu)
    rl, rm = math.sqrt(lam), math.sqrt(mu)  # root by root: lam mu leaves the float range
    c, d = rl * rm * (z + 1.0 / z), rl * rm * (z - 1.0 / z)  # d^2 alone overflows at rates 1e200
    q = math.hypot(c, lam - mu)
    ch = 0.5 * (1.0 + math.exp(-2.0 * q * t))
    sh = -0.5 * math.expm1(-2.0 * q * t)
    # lam s/q as sqrt(lam/mu) c/q, with c/q <= 1: neither lam/q nor s/q may leave the range
    pair = (ch + (mu - lam) / q * sh, rl / rm * (c / q) * sh)
    # k past the float range weighs log z as the largest float: 0 at z = 1, z^k over- or underflows elsewhere
    big = sys.float_info.max
    log_scale = min(max(k, -big), big) * math.log(z) + d * (d / (q + lam + mu)) * t
    logs = [log_scale + (math.log(v) if v else -math.inf) for v in (pair[::-1] if odd else pair)]
    if not all(v <= _LOG_MAX for v in logs):  # also false for NaN, which a NaN weight keeps in its log
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


def _row_sums(keys, lam: float, mu: float, t: float) -> dict:
    """The probability each distinct key in `keys` sums at the rate pair
    (lam, mu) and time t > 0, by key: e^(-at) times its outer series
    (`_same_terms`, `_cross_terms`), clamped to [0, 1].

    The series' scales are formed here from (lam, mu, t): lrt = log(rt),
    lx = log x, at = a*t and crt = c*rt.

    Each inner sequence S_n(j, x) is stepped once for all the keys: where
    several sums read it, `itertools.tee` keeps its values for the ones
    behind, and a sequence with one reader is the bare generator.

    A key's sum may stop only from term index max(5, at/2 - m) on (see
    `_sum_series`): from n = m + 5 and past the Poisson-weight peak at
    2n ~ at, where terms decay faster than geometrically.
    """
    # log(lam t) and log(mu/lam) stay finite where lam t underflows or mu/lam leaves the float range
    log_lam = math.log(lam)
    lrt, lx, at, crt = log_lam + math.log(t), math.log(mu) - log_lam, (lam + mu) * t, (mu - lam) * t
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
    the key of one even-start double series (`_sum_key`) at its start's
    effective rate pair: `rates` for an even start, the swapped rates for an
    odd one.  The starts are grouped by that pair, so at lam = mu both
    parities share one pass, and each distinct key of a group is summed
    once for the whole block, all of them over one pass of the inner
    sequences (`_row_sums`).  Every entry is exactly the value of one
    `transition_prob` call; where a series fails, the block raises the error
    of the first failing key, the even starts' keys taken before the odd
    starts'.
    """
    starts = [_state("from_state", k) for k in from_states]
    targets = [_state("to_state", n) for n in to_states]
    _check_time(t)
    return _blocks([(starts, targets, rates)], t)[0]


def _blocks(requests, t: float) -> list[list[list[float]]]:
    """One block of rows per (starts, targets, rates) request, all at time t,
    on checked arguments: the one route of the double series.

    Every start is grouped by its effective rate pair, `rates` for an even
    start and `rates.swapped()` for an odd one, the even starts' pairs first,
    and each group makes one `_row_sums` call over the union of its keys.  So
    a series that several requests, or both parities at lam = mu, read is
    summed once, and a failing call raises the error of the first failing
    key in that group order.  Nothing is kept across calls.
    """
    if t == 0.0:
        return [[[1.0 if n == k else 0.0 for n in targets] for k in starts] for starts, targets, _ in requests]
    groups = {}  # effective (lam, mu) -> one (request index, start index, keys) per row
    for parity in (0, 1):
        for r, (starts, targets, rates) in enumerate(requests):
            # once both states are shifted to an even start, (k, n) has inner offset (n - k) // 2
            rows = [(r, i, [_sum_key((n - k) // 2, (n - k) % 2 == 0) for n in targets])
                    for i, k in enumerate(starts) if k % 2 == parity]
            if rows:
                # shifting both states of an odd start by one swaps the rates: p_(k,n)(lam, mu) = p_(k-1,n-1)(mu, lam)
                groups.setdefault((rates.mu, rates.lam) if parity else (rates.lam, rates.mu), []).extend(rows)
    blocks = [[None] * len(starts) for starts, _, _ in requests]
    for (lam, mu), rows in groups.items():
        sums = _row_sums([key for _, _, keys in rows for key in keys], lam, mu, t)
        for r, i, keys in rows:
            blocks[r][i] = [sums[key] for key in keys]
    return blocks


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
    return _blocks([((q.from_state,), (q.to_state,), rates)], q.t)[0][0][0]


def mean(k: int, t: float, rates: Rates) -> float:
    """Conditional mean of the chain started at k: identically k.

    The distribution of the displacement is symmetric about the start for
    every t and every rate pair, so the mean never moves.  A start past the
    float range raises SeriesOverflowError naming it.
    """
    k = _state("k", k)
    _check_time(t)
    if abs(k) > sys.float_info.max:
        raise SeriesOverflowError(f"mean at k={k} is out of the float range", math.inf, 0)
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
    c = lam / a * ((lam - mu) / a) if k % 2 == 0 else mu / a * ((mu - lam) / a)
    v = 4.0 * lam * (mu / a) * t + c * -math.expm1(-2.0 * a * t)
    if not math.isfinite(v):
        raise SeriesOverflowError(f"variance at t={t!r} is out of the float range", v, 0)
    return v
