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

`q10_integral` integrates with `_quad`, nested Clenshaw-Curtis rules whose
weights are computed here, so only the standard library is needed.  The
paper's 1F2 series for q00 is no production route; it lives in the tests
(`tests/reference.py`) as the independent reference `q00` is checked against.

Throughout, a = lam + mu and b = lam - mu (b may be negative or zero).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

from .bilateral import Rates, _is_even
from .specfun import (
    ConvergenceError,
    DomainError,
    SeriesOverflowError,
    _check_time,
    _hyp_series,
    _sum_series,
    bessel_i,
    hyp1f2,
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

# absolute and relative tolerance of the quadrature: two successive rules agree within it
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
    """Integral of f over [0, t] by nested Clenshaw-Curtis rules.

    The rule of order n takes f at the images t sin^2(j pi/(2n)) of the
    nodes cos(j pi/n), j = 0..n; doubling n keeps every node, so each order
    evaluates f only at its n/2 new ones.  Starts at _QUAD_MIN_ORDER and
    returns once two successive rules agree within _QUAD_TOL, absolute or
    relative.  Raises SeriesOverflowError at the first non-finite rule, and
    ConvergenceError, with terms the number of nodes, when the rule of order
    _QUAD_MAX_ORDER still disagrees with the one before it.  Every integrand
    here is entire, where Clenshaw-Curtis converges as fast as Gauss
    (Trefethen, SIAM Review 50, 2008).
    """
    n = _QUAD_MIN_ORDER
    values = [f(t * math.sin(0.5 * math.pi * j / n) ** 2) for j in range(n + 1)]
    previous = None
    while True:
        total = 0.5 * t * sum(w * v for w, v in zip(_clenshaw_curtis_weights(n), values))
        if not math.isfinite(total):
            raise SeriesOverflowError(f"{what} overflowed", total, len(values))
        if previous is not None and abs(total - previous) <= max(_QUAD_TOL, _QUAD_TOL * abs(total)):
            return total
        if n == _QUAD_MAX_ORDER:
            raise ConvergenceError(f"{what} did not converge", total, len(values))
        previous, n = total, 2 * n
        new = [f(t * math.sin(0.5 * math.pi * j / n) ** 2) for j in range(1, n, 2)]
        values = [v for pair in zip(values, new) for v in pair] + values[-1:]


# Weideman & Trefethen's parabolic contour (Math. Comp. 76, 2007): the N = 32
# midpoints theta_j of (-pi, pi) on z = N (0.1309 - 0.1194 theta^2 + 0.25 i theta)
# give f(t) = (1/t) Re sum_j w_j F(z_j/t), w_j = 2 e^(z_j) z'(theta_j)/(N i), summed
# over theta_j > 0 only: F is real on the real axis, so the rest are conjugates.
_CONTOUR_THETA = [math.pi * (2 * j + 1) / 32 for j in range(16)]
_CONTOUR_NODES = [32 * complex(0.1309 - 0.1194 * th * th, 0.25 * th) for th in _CONTOUR_THETA]
_CONTOUR_WEIGHTS = [-2j * cmath.exp(z) * complex(-0.2388 * th, 0.25) for z, th in zip(_CONTOUR_NODES, _CONTOUR_THETA)]


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
    total = sum((w * _pi_k0(z / t, 0, rates)).real for z, w in zip(_CONTOUR_NODES, _CONTOUR_WEIGHTS)) / t
    if not math.isfinite(total):
        raise SeriesOverflowError(f"q00 contour sum overflowed at t={t!r}", total, len(_CONTOUR_NODES))
    return min(max(total, 0.0), 1.0)


def _check_normalizer(rates: Rates) -> None:
    """DomainError where a + b, the 2 lam that both q10 routes divide by, rounds to 0."""
    if rates.total + rates.diff == 0.0:
        raise DomainError(f"q10 divides by a + b = 2 lam, which rounds to 0 at lam={rates.lam!r}, mu={rates.mu!r}")


def q10_series(t: float, rates: Rates) -> float:
    """Probability of sitting at the origin at time t, started at state 1.

    Series form of the convolution in `q10_integral`, obtained by
    integrating the kernel expansion term by term: four hypergeometric
    families per index n, three of flavour 1F2(1/2; n+u, n+v; a^2 t^2/4)
    and one 2F3 carrying the b-dependent part.  The 1F2s are one sequence
    H_j = 1F2(1/2; (j+1)/2, (j+2)/2; a^2 t^2/4) at j = 2n, 2n+1, 2n+2; the
    last is carried to term n+1, so each value is computed once.  Terms are
    accumulated in log space with the same two-consecutive-terms stopping
    rule as the unrestricted chain's series.
    """
    _check_time(t)
    if t == 0.0:
        return 0.0
    lam = rates.lam
    a, b = rates.total, rates.diff
    _check_normalizer(rates)
    xa = a * a * t * t / 4.0
    xb = b * b * t * t / 4.0
    la = math.log(a)
    lt = math.log(t)
    r = b / a

    def terms():
        f_low = _hyp_series(0.5, 0.5, 1.0, xa, "q10 term")
        for n in itertools.count():
            f_mid = _hyp_series(0.5, n + 1.0, n + 1.5, xa, "q10 term")
            f_high = _hyp_series(0.5, n + 1.5, n + 2.0, xa, "q10 term")
            f_b = _hyp_series(0.5, n + 1.5, n + 2.0, xb, "q10 term", c=2.0)
            scale = math.exp(
                2 * n * lt
                + (2 * n + 2) * la
                - (2 * n + 1) * math.log(2.0)
                - math.lgamma(n + 1.0)
                - math.lgamma(n + 2.0)
                - a * t
            ) * (1.0 - r ** (2 * n + 2))
            tsq = t * t / ((2 * n + 1) * (2 * n + 2))
            term = scale * (
                (a + b) * t / (2 * n + 1) * f_mid
                + (f_low - 1.0)
                + a * b * tsq * f_high
                + 0.5 * b * b * tsq * f_b
            )
            yield term, 2 * n >= a * t
            f_low = f_high

    total = _sum_series(terms(), "q10 series")
    return min(max(total / (2.0 * lam * (a + b)), 0.0), 1.0)


def _kernel_m(g: float, u: float) -> float:
    """g^2 I_1(gu)/(gu) for u >= 0; even in g, zero for g = 0, and I_1(z)/z
    is continued through its removable point z = 0 by its series."""
    z = abs(g) * u
    if z < 1e-6:
        return g * g * (0.5 + z * z / 16.0)
    return g * g * (bessel_i(1, z) / z)


def _companion(s: float, a: float, b: float) -> float:
    """The function convolved against the Bessel-difference kernel in q10.

    a(I0+I1)(as) plus b times (one plus the running integral of that term)
    plus the even-in-b primitive of b I1(bs)/s; equals 2*lam at s = 0.
    """
    i0 = bessel_i(0, a * s)
    ga = a * (i0 + bessel_i(1, a * s))
    int_ga = a * s * hyp1f2(0.5, 1.5, 1.0, a * a * s * s / 4.0) + i0 - 1.0
    mb = 0.5 * b * b * s * hyp1f2(0.5, 1.5, 2.0, b * b * s * s / 4.0)
    return ga + b * (1.0 + int_ga) + mb


def q10_integral(t: float, rates: Rates) -> float:
    """Quadrature route to the same origin-occupation probability as
    `q10_series`: nested Clenshaw-Curtis rules (`_quad`) integrate the
    convolution of the Bessel-difference kernel
    a^2 I1(a u)/(a u) - b^2 I1(b u)/(b u) with its companion function over
    [0, t].  The I1(z)/z factors are even in z and continue through zero
    with value 1/2.
    """
    _check_time(t)
    if t == 0.0:
        return 0.0
    lam = rates.lam
    a, b = rates.total, rates.diff
    _check_normalizer(rates)

    def integrand(s: float) -> float:
        u = t - s
        return (_kernel_m(a, u) - _kernel_m(b, u)) * _companion(s, a, b)

    v = math.exp(-a * t) / (2.0 * lam * (a + b)) * _quad(integrand, t, "q10 quadrature")
    return min(max(v, 0.0), 1.0)


def _occupation(k: int, t: float, rates: Rates) -> tuple[float, float]:
    """int_0^t q_{k,0} and W(t) = int_0^t e^(-2a(t-u)) q_{k,0}(u) du for k in {0, 1},
    from their transforms pi_{k,0}(s)/s and pi_{k,0}(s)/(s + 2a) on one contour.

    Below a t = 1e-17 both are their t -> 0 limits, t from 0 and mu t^2/2
    from 1 (q_{k,0}(u) = [k = 0] + mu u [k = 1] + O((a u)^2)), exact in
    floats; the nodes z/t would leave the float range from t of about 2e-307.
    """
    _check_time(t)
    if k not in (0, 1):
        raise DomainError(f"no closed form for start {k}; the reflected chain's moments cover starts 0 and 1")
    a = rates.total
    if a * t < 1e-17:
        occ = t if k == 0 else 0.5 * rates.mu * t * t
        return occ, occ
    occ = relaxed = 0.0
    for z, w in zip(_CONTOUR_NODES, _CONTOUR_WEIGHTS):
        s = z / t
        term = w * _pi_k0(s, k, rates) / z  # (1/t) pi/s
        occ += term.real
        relaxed += (term * (s / (s + 2.0 * a))).real  # (1/t) pi/(s + 2a), forming no 2at to overflow
    if not (math.isfinite(occ) and math.isfinite(relaxed)):
        raise SeriesOverflowError(f"contour sum overflowed at t={t!r}", occ + relaxed, len(_CONTOUR_NODES))
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
