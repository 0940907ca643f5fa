"""Transient analysis of the chain reflected at zero.

The chain lives on {0, 1, 2, ...} with the same parity-alternating rates as
the unrestricted one, except that state 0 jumps only upward (at rate lam).
Implemented routes:

* the Laplace-domain solution for a start at state 1 (`laplace_roots`,
  `pi_1n`), built on the roots of a biquadratic;
* closed-form return probabilities to the origin from starts 0 and 1
  (`q00`, a contour sum of its transform, and `q10_series` /
  `q10_integral` as two independent evaluations of the same function);
* occupation of the even states and the first two moments (`p_even`,
  `r_mean`, `r_variance`) from starts 0 and 1, closed formulas in two
  integrals of the return probability that `_occupation` takes from the
  transform by one contour sum, with no reach limit in t.

`q10_integral` is a convolution, which `_quad` integrates by nested
Clenshaw-Curtis rules whose weights are computed here, so only the standard
library is needed.  Their node set is symmetric, so both factors of the
integrand come from one evaluation per node, and each such evaluation is
one fused loop over the Bessel terms at x (`specfun._bessel_sums`), which
also gives those at |r| x.  The paper's 1F2 series for
q00 is no production route; it lives in the tests (`tests/reference.py`) as
the independent reference `q00` is checked against.

Throughout, a = lam + mu and b = lam - mu (b may be negative or zero).  The
q10 routes compute in the chain's own time unit 1/a, on tau = a t and
r = b/a (`_q10_units`), since q10 depends on the rates only through them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .bilateral import Rates, _is_even, _state
from .specfun import (
    ConvergenceError,
    DomainError,
    SeriesOverflowError,
    _bessel_sums,
    _check_time,
    _hyp_series,
    _sum_series,
)

__all__ = [
    "LaplaceRoots",
    "laplace_roots",
    "pi_1n",
    "q00",
    "q10_series",
    "q10_integral",
    "p_even",
    "r_mean",
    "r_variance",
]

# below this lam/mu both q10 routes lose the 1e-7 reflected tolerance: their
# brackets sum terms of order 1 to a value of order lam/(lam + mu), so their
# errors grow like mu/lam.  Against uniformization (mu t up to 45) the worst
# is about 5e-8 at 3e-8 and 1.3e-7 at 1e-8, both from q10_integral near
# mu t = 19; q10_series stays below 1.5e-8 at 1e-8
_Q10_MIN_RATIO = 3e-8
# past this (lam + mu) t both q10 routes refuse: I_0 leaves the float range at 713.9869
_Q10_REACH = 713.98
# absolute and relative tolerance of the quadrature: the returned rule's observed or
# predicted error is within it
_QUAD_TOL = 1e-10
# first and last order n of the nested Clenshaw-Curtis rules, each doubling the last
_QUAD_MIN_ORDER = 8
_QUAD_MAX_ORDER = 512


@functools.cache
def _clenshaw_curtis_weights(n: int) -> tuple[float, ...]:
    """Weights on [-1, 1] of the Clenshaw-Curtis rule at the n + 1 nodes
    cos(j pi/n), for even n, by the closed cosine sum of Trefethen's
    `clencurt` (Spectral Methods in MATLAB, SIAM 2000)."""
    cos = [math.cos(math.pi * m / n) for m in range(2 * n)]  # cos(2 k j pi/n) = cos[2kj mod 2n]
    end = 1.0 / (n * n - 1)
    weights = [end]
    for j in range(1, n):
        v = 1.0 - (-1) ** j * end
        for k in range(1, n // 2):
            v -= 2.0 * cos[2 * k * j % (2 * n)] / (4 * k * k - 1)
        weights.append(2.0 * v / n)
    weights.append(end)
    return tuple(weights)


def _quad(f, t: float, what: str) -> float:
    """Convolution int_0^t k(t - s) c(s) ds by nested Clenshaw-Curtis rules; f(x) -> (k(x), c(x)).

    The rule of order n takes f at the images x_j = t sin^2(j pi/(2n)) of the
    nodes cos(j pi/n), j = 0..n, and sums w_j k(x_{n-j}) c(x_j), since t - x_j
    is x_{n-j}; doubling n keeps every node, so each order evaluates f only at
    its n/2 new ones.  Starts at _QUAD_MIN_ORDER; with d_n = |I_n - I_(n/2)|
    and tol = _QUAD_TOL absolute or relative to I_n, it returns I_n once
    d_n <= tol, or once d_n <= sqrt(tol) and d_n^2 <= tol d_(n/2): d_n^2/d_(n/2)
    is the next difference under geometric decay, and every integrand here is
    entire, where Clenshaw-Curtis converges faster than geometrically, as fast
    as Gauss (Clenshaw & Curtis, Numer. Math. 2, 1960; Trefethen, SIAM Review
    50, 2008), so the prediction errs high.  Raises SeriesOverflowError at the
    first non-finite rule, and ConvergenceError, with terms the number of
    nodes, when the rule of order _QUAD_MAX_ORDER meets neither test.
    """
    n = _QUAD_MIN_ORDER
    values = [f(t * math.sin(0.5 * math.pi * j / n) ** 2) for j in range(n + 1)]
    previous = step = None
    while True:
        weights = _clenshaw_curtis_weights(n)
        total = 0.5 * t * sum(w * k * c for w, (_, c), (k, _) in zip(weights, values, reversed(values)))
        if not math.isfinite(total):
            raise SeriesOverflowError(f"{what} overflowed", total, len(values))
        if previous is not None:
            last, step = step, abs(total - previous)
            tol = max(_QUAD_TOL, _QUAD_TOL * abs(total))
            if step <= tol or (last is not None and step * step <= tol * last and step <= math.sqrt(tol)):
                return total
        if n == _QUAD_MAX_ORDER:
            raise ConvergenceError(f"{what} did not converge", total, len(values))
        previous, n = total, 2 * n
        new = [f(t * math.sin(0.5 * math.pi * j / n) ** 2) for j in range(1, n, 2)]
        values = [v for pair in zip(values, new) for v in pair] + values[-1:]


# Weideman & Trefethen's parabolic contour (Math. Comp. 76, 2007) as (z_j, w_j) pairs: the
# N = 32 midpoints theta_j of (-pi, pi) on z = N (0.1309 - 0.1194 theta^2 + 0.25 i theta)
# give f(t) = (1/t) Re sum_j w_j F(z_j/t), w_j = 2 e^(z_j) z'(theta_j)/(N i), summed
# over theta_j > 0 only: F is real on the real axis, so the rest are conjugates.
_CONTOUR = tuple(
    (z, -2j * cmath.exp(z) * complex(-0.2388 * th, 0.25))
    for th in (math.pi * (2 * j + 1) / 32 for j in range(16))
    for z in [32 * complex(0.1309 - 0.1194 * th * th, 0.25 * th)]
)


@dataclass(frozen=True)
class LaplaceRoots:
    """The biquadratic roots psi1^2 > 1 > psi2^2 > 0.

    With A^2 = (a+s)^2 - a^2 and B^2 = (a+s)^2 - b^2, psi1^2 = (A+B)^2/(a^2-b^2)
    and psi2^2 = (A-B)^2/(a^2-b^2) = (a^2-b^2)/(A+B)^2, formed in the last
    way so that nothing cancels at large s.  Their product is then 1 by
    construction; `verify` checks their sum against Vieta's
    ((lam+mu+s)^2 - lam^2 - mu^2)/(lam mu).
    """

    psi1_sq: float
    psi2_sq: float


def _roots(s, rates: Rates):
    """The factors sqrt(s), sqrt(s+2a), sqrt(s+2mu), sqrt(s+2lam) of A = sqrt(s) sqrt(s+2a)
    and B = sqrt(s+2mu) sqrt(s+2lam), A^2 = (a+s)^2 - a^2 and B^2 = (a+s)^2 - b^2, principal
    for Re s > 0; factored so that nothing squares s and both are analytic off (-inf, 0],
    where each factor's cut lies."""
    sqrt = cmath.sqrt if isinstance(s, complex) else math.sqrt
    return sqrt(s), sqrt(s + 2.0 * rates.total), sqrt(s + 2.0 * rates.mu), sqrt(s + 2.0 * rates.lam)


def laplace_roots(s: float, rates: Rates) -> LaplaceRoots:
    """Roots of the biquadratic underlying the transform-domain solution;
    SeriesOverflowError where psi1^2 leaves the float range."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be strictly positive, got {s}")
    rs, r2a, r2m, r2l = _roots(s, rates)
    A, B = rs * r2a, r2m * r2l
    scale = 2.0 * math.sqrt(rates.lam) * math.sqrt(rates.mu)  # sqrt(a^2 - b^2), forming no lam mu to overflow
    psi1, psi2 = (A + B) / scale, scale / (A + B)
    if math.isinf(psi1 * psi1):
        raise SeriesOverflowError(f"psi1^2 overflows at s={s!r}", math.inf, 0)
    return LaplaceRoots(psi1_sq=psi1 * psi1, psi2_sq=psi2 * psi2)


def pi_1n(s, n: int, rates: Rates):
    """Laplace transform of the transition probability 1 -> n of the chain.

    Real s > 0 gives the transform proper, a finite float; complex s with
    positive real part is accepted so numerical inversion can walk the
    Bromwich line.
    """
    n = _state("n", n)
    if n < 0:
        raise DomainError(f"state must be >= 0, got {n}")
    if not (s.real > 0.0 and cmath.isfinite(s)):
        raise DomainError(f"s must be finite with a positive real part, got {s}")
    return _pi1n(s, n, rates)


def _pi1n(s, n: int, rates: Rates):
    """pi_1n(s), unchecked, for real s > 0 or complex s off (-inf, 0].

    With w = 2/(A+B), psi2^2 = lam mu w^2 and 1 - psi2^2 = A w, since
    (A+B)^2 - 4 lam mu = 2A(A+B); the paper's denominator mu(1 - psi2^2) - s psi2^2
    is mu w (A - lam s w); and pi_10 = 4 mu P/((s(2mu+s) + AB)(P + AB)) with
    P = (2lam+s)(2mu+s) = B^2 is, both brackets factored,
    2 mu w sqrt(s+2lam)/(sqrt(s) (sqrt(s) sqrt(s+2mu) + sqrt(s+2a) sqrt(s+2lam))).
    Nothing cancels at small or large s, and no product of rates is formed, so
    every rate pair that `Rates` accepts keeps its values in the float range.
    """
    lam, mu = rates.lam, rates.mu
    rs, r2a, r2m, r2l = _roots(s, rates)
    w = 2.0 / (rs * r2a + r2m * r2l)
    if n == 0:
        return 2.0 * mu * w * r2l / (rs * r2m + r2a * r2l) / rs
    u = math.sqrt(mu) * w
    rho = math.sqrt(lam) * u
    psi2 = rho * rho
    den = rs * r2a - lam * (s * w)
    if n % 2 == 0:
        return (2.0 * mu + s) / den * ((lam + s) * w) * (u * u) * psi2 ** (n // 2 - 1)
    return (lam + s) * w / den * psi2 ** ((n - 1) // 2) * (1.0 + psi2)


def _pi_k0(s, k: int, rates: Rates):
    """pi_{k,0}(s) for k in {0, 1}, unchecked: pi_10 is `_pi1n` at n = 0, and the
    first jump out of 0 gives pi_00 = (1 + lam pi_10)/(lam + s)."""
    pi = _pi1n(s, 0, rates)
    return pi if k else (1.0 + rates.lam * pi) / (rates.lam + s)


def q00(t: float, rates: Rates) -> float:
    """Probability of being back at the origin at time t, started there.

    One contour sum (1/t) Re sum_j w_j pi_00(z_j/t) of the transform
    `_pi_k0`, the sum the moments take: 16 transform values at every t, no
    reach limit in t, and about 1e-13 absolute error.
    """
    _check_time(t)
    if rates.lam * t < 1e-17:  # q00 lies in [e^(-lam t), 1], so it rounds to 1
        return 1.0
    total = sum((w * _pi_k0(z / t, 0, rates)).real for z, w in _CONTOUR) / t
    if not math.isfinite(total):
        raise SeriesOverflowError(f"q00 contour sum overflowed at t={t!r}", total, len(_CONTOUR))
    return min(max(total, 0.0), 1.0)


def _q10_units(t: float, rates: Rates, what: str) -> tuple[float, float, float]:
    """(tau, r, 1 + r) of both q10 routes, which compute in the chain's time unit
    1/(lam + mu): tau = (lam + mu) t, r = (lam - mu)/(lam + mu) and
    1 + r = 2 lam/(lam + mu), each formed directly so that nothing cancels; the
    routes divide by (1 + r)^2.  Where tau underflows to 0 the routes return 0,
    as q10 <= 1 - e^(-mu t) <= tau.  Otherwise raises DomainError where
    lam/mu < _Q10_MIN_RATIO, and SeriesOverflowError, naming tau, past
    _Q10_REACH, before any kernel sum.
    """
    _check_time(t)
    lam, a = rates.lam, rates.total
    tau = a * float(t)
    if tau > 0.0:
        if lam < _Q10_MIN_RATIO * rates.mu:
            raise DomainError(f"q10 at lam/mu = {lam / rates.mu:.3g} < {_Q10_MIN_RATIO:g}: the routes' brackets "
                              f"cancel terms of order 1 down to order lam/(lam + mu); "
                              f"transient_distribution('reflected', ...) holds there")
        if tau > _Q10_REACH:
            raise SeriesOverflowError(f"{what} overflowed: (lam + mu) t = {tau!r} is past {_Q10_REACH}, where "
                                      f"I_0((lam + mu) t) leaves the float range", math.inf, 0)
    return tau, rates.diff / a, 2.0 * lam / a


def _h_sequence(z: float, top: int) -> list[float]:
    """H_j(z) = 1F2(1/2; (j+1)/2, (j+2)/2; z^2/4) for j = 0..top+2, top > z.

    H_0 = I_0(z), H_top, H_top+1 and H_top+2 come from the kernel; every other
    H_j from z^2 (H_{j+1}/(j+1) - H_{j+2}/(j+2)) = j (H_{j-1} - H_j), j >= 2,
    which follows from H_j = j z^(-j) int_0^z (z-u)^(j-1) I_0(u) du and
    (u I_1)' = u I_0.  It is stepped downward: upward, the bracket is a
    difference of nearly equal terms wherever j < z (Gautschi, "Computational
    aspects of three-term recurrence relations", SIAM Review 9, 1967).
    """
    x = z * z / 4.0
    h = [0.0] * (top + 3)
    for j in (0, top, top + 1, top + 2):
        h[j] = _hyp_series(0.5, 0.5 * (j + 1), 0.5 * (j + 2), x)
    zsq = z * z
    for j in range(top, 1, -1):
        h[j - 1] = h[j] + zsq / j * (h[j + 1] / (j + 1) - h[j + 2] / (j + 2))
    return h


def q10_series(t: float, rates: Rates) -> float:
    """Probability of sitting at the origin at time t, started at state 1.

    Series form of the convolution in `q10_integral`, obtained by
    integrating the kernel expansion term by term, in the units of
    `_q10_units`.  Term n reads H_j = 1F2(1/2; (j+1)/2, (j+2)/2; tau^2/4) at
    j = 2n, 2n+1, 2n+2 and carries its r-dependent part in half of
    r^2 tau^2/((2n+1)(2n+2)) times 2F3(1/2, 1; 2, n+3/2, n+2; r^2 tau^2/4),
    which equals, exactly, r^2 tau^2/((2n+1)(2n+2)) H'_{2n+2} - (H'_{2n} - 1)
    for the same sequence H' at |r| tau.  Both sequences come whole from
    `_h_sequence`, sized once past the last index the sum reads (measured at
    most tau + 8 sqrt(tau) + 12 up to the reach), so one call costs O(tau) and
    eight kernel sums.  Each part of a term takes the scale, with e^(-tau),
    before the parts are added, so none overflows below the reach.
    """
    tau, r, rp = _q10_units(t, rates, "q10 series")
    if tau == 0.0:
        return 0.0
    lt, ln2, rsq = math.log(tau), math.log(2.0), r * r

    def terms():
        top = int(tau + 10.0 * math.sqrt(tau)) + 20  # the terms peak near 2n = tau, with width about sqrt(tau)
        ha, hb = _h_sequence(tau, top), _h_sequence(abs(r) * tau, top)
        for n in range(top // 2 + 1):
            # the scale, with e^(-tau), goes onto each H first, as the parts add up to about 4 I_0(tau),
            # past the float range near the reach; 1 - r^(2n+2) goes on last, since in the scale it
            # would cost bits wherever that is subnormal
            scale = math.exp(2 * n * lt - (2 * n + 1) * ln2 - math.lgamma(n + 1.0) - math.lgamma(n + 2.0) - tau)
            tsq = tau * tau / ((2 * n + 1) * (2 * n + 2))
            yield (1.0 - r ** (2 * n + 2)) * (
                scale * ha[2 * n + 1] * (rp * tau / (2 * n + 1))
                + scale * (ha[2 * n] - 1.0)
                + scale * ha[2 * n + 2] * (r * tsq)
                + (scale * hb[2 * n + 2] * (rsq * tsq) - scale * (hb[2 * n] - 1.0))
            )

    total = _sum_series(terms(), "q10 series", 0.5 * tau)
    return min(max(total / (rp * rp), 0.0), 1.0)


def q10_integral(t: float, rates: Rates) -> float:
    """Quadrature route to the same origin-occupation probability as
    `q10_series`: `_quad`'s convolution over [0, tau] of the Bessel-difference
    kernel I1(u)/u - r^2 I1(|r| u)/(|r| u) with its companion function
    (1 + r) I0(s) + I1(s) + r s 1F2(1/2; 3/2, 1; s^2/4) + r^2 s/2 1F2(1/2; 3/2, 2; r^2 s^2/4),
    in the units of `_q10_units`, both read at a node from one `_bessel_sums`.
    The integrand carries the factor e^(-tau)/(1 + r)^2, so the quadrature's
    tolerance applies to the probability itself; each factor takes its own
    share e^(-x)/(1 + r) on every sum, so none overflows below the reach.
    """
    tau, r, rp = _q10_units(t, rates, "q10 quadrature")
    if tau == 0.0:
        return 0.0
    rsq, rsq_gap = r * r, rp * (2.0 - rp)  # 1 - r^2 = (1 + r)(1 - r)

    def node(x: float) -> tuple[float, float]:
        s0, c1, s2, k, c3 = _bessel_sums(x, rsq, rsq_gap)
        share = math.exp(-x)
        scale = share / rp
        # (1 + r) S0 times the scale is S0 e^(-x)
        return 0.5 * (k * scale), s0 * share + x * (0.5 * (c1 * scale) + r * (s2 * scale) + 0.5 * (c3 * scale))

    v = _quad(node, tau, "q10 quadrature")
    return min(max(v, 0.0), 1.0)


def _occupation(k: int, t: float, rates: Rates) -> tuple[float, float]:
    """int_0^t q_{k,0} and W(t) = int_0^t e^(-2a(t-u)) q_{k,0}(u) du for k in {0, 1},
    from their transforms pi_{k,0}(s)/s and pi_{k,0}(s)/(s + 2a) on one contour.

    Below a t = 1e-17 both are their t -> 0 limits, t from 0 and mu t^2/2
    from 1 (q_{k,0}(u) = [k = 0] + mu u [k = 1] + O((a u)^2)), exact in
    floats; the nodes z/t would leave the float range from t of about 2e-307.
    """
    k = _state("k", k)
    _check_time(t)
    if k not in (0, 1):
        raise DomainError(f"no closed form for start {k}; the reflected chain's moments cover starts 0 and 1")
    a = rates.total
    if a * t < 1e-17:
        occ = t if k == 0 else 0.5 * rates.mu * t * t
        return occ, occ
    occ = relaxed = 0.0
    for z, w in _CONTOUR:
        s = z / t
        term = w * _pi_k0(s, k, rates) / z  # (1/t) pi/s
        occ += term.real
        relaxed += (term * (s / (s + 2.0 * a))).real  # (1/t) pi/(s + 2a), forming no 2at to overflow
    if not (math.isfinite(occ) and math.isfinite(relaxed)):
        raise SeriesOverflowError(f"contour sum overflowed at t={t!r}", occ + relaxed, len(_CONTOUR))
    return occ, relaxed


def p_even(k: int, t: float, rates: Rates) -> float:
    """Probability that the reflected chain sits in an even state at time t.

    Solves dP/dt = -2(lam+mu) P + lam q_{k,0}(t) + 2 mu with the
    definitional initial condition P(0) = 1 for even k and 0 for odd k:

        P(t) = mu/a + (P(0) - mu/a) e^(-2at) + lam * int_0^t e^(-2a(t-u)) q_{k,0}(u) du,

    the last integral being the W(t) of `_occupation`.
    """
    mu, a = rates.mu, rates.total
    _, relaxed = _occupation(k, t, rates)
    c = (1.0 if _is_even(k) else 0.0) - mu / a
    return mu / a + c * math.exp(-2.0 * a * t) + rates.lam * relaxed


def r_mean(k: int, t: float, rates: Rates) -> float:
    """Mean of the reflected chain at time t from k in {0, 1}: k plus lam
    times the accumulated occupation of the origin (the boundary is the only
    state where up- and down-drift do not cancel)."""
    occ, _ = _occupation(k, t, rates)
    return k + rates.lam * occ


def r_variance(k: int, t: float, rates: Rates) -> float:
    """Variance of the reflected chain at time t from k in {0, 1}.

    2(lam-mu) int P_k - lam(2k+1) int q_{k,0} - lam^2 (int q_{k,0})^2 + 2 mu t.
    The double integral of P_k is flattened through Fubini so only single
    integrals of the return probability remain:

        int_0^t P_k = mu/a t + c (1-e^(-2at))/(2a)
                      + lam/(2a) int_0^t q_{k,0}(u) (1 - e^(-2a(t-u))) du,

    the last integral being int_0^t q_{k,0} less the W(t) of `p_even`.
    The two terms that grow like t, h^2 = 4 lam mu t/a and g^2 with
    g = lam int q_{k,0}, are subtracted as the product (h - g)(h + g),
    which stays in range wherever the variance does.
    """
    return _moments(k, t, rates)[1]


def _moments(k: int, t: float, rates: Rates) -> tuple[float, float]:
    """`r_mean` and `r_variance` from one contour sum."""
    lam, mu = rates.lam, rates.mu
    a = rates.total
    occ, relaxed = _occupation(k, t, rates)
    c = (1.0 if _is_even(k) else 0.0) - mu / a
    h, g = math.sqrt(4.0 * lam * (mu / a)) * math.sqrt(t), lam * occ
    rest = c * -math.expm1(-2.0 * a * t) / (2.0 * a) + lam / (2.0 * a) * (occ - relaxed)
    v = (h - g) * (h + g) + 2.0 * (lam - mu) * rest - g * (2 * k + 1)
    if not math.isfinite(v):
        raise SeriesOverflowError(f"r_variance at t={t!r} is out of the float range", v, 0)
    return k + g, v
