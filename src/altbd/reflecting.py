"""Transient analysis of the chain reflected at zero.

The chain lives on {0, 1, 2, ...} with the same parity-alternating rates as
the unrestricted one, except that state 0 jumps only upward (at rate lam).
Implemented routes:

* the Laplace-domain solution for a start at state 1 (`laplace_roots`,
  `pi_1n`), built on the roots of a biquadratic;
* closed-form return probabilities to the origin from starts 0 and 1
  (`q00`, and `q10_series` / `q10_integral` as two independent evaluations
  of the same function);
* occupation of the even states and the first two moments (`p_even`,
  `r_mean`, `r_variance`), expressed through the return probability.

`q10_integral`, `p_even`, `r_mean` and `r_variance` integrate over [0, t]
with one routine, `_quad`: QUADPACK's 21-point Gauss-Kronrod rule with
bisection of the worst panel, at most 200 panels, to 1e-10 absolute or
relative.  It has one convergence policy for all four: return a value that
met the tolerance, or raise ConvergenceError (cap reached) or
SeriesOverflowError (a non-finite value).  Only the standard library is
needed.

Throughout, a = lam + mu and b = lam - mu (b may be negative or zero).
"""

from __future__ import annotations

import cmath
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

# absolute and relative tolerance of every adaptive quadrature here
_QUAD_TOL = 1e-10
# most panels one quadrature may bisect [0, t] into
_QUAD_PANELS = 200

# QUADPACK's 21-point Kronrod rule on [-1, 1] (Piessens et al., QUADPACK,
# Springer 1983, routine qk21): nodes x_1 > ... > x_10 > x_11 = 0, each
# x_j != 0 used as +-x_j.  x_2, x_4, ..., x_10 are the 10-point Gauss nodes,
# and _GAUSS_WEIGHTS are their Gauss weights.
_KRONROD_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077580632699444,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21(f, lo: float, hi: float) -> tuple[float, float]:
    """(21-point Kronrod value, QUADPACK error estimate) of f over [lo, hi].

    The error estimate scales the Kronrod-Gauss difference by resasc, the
    rule's integral of |f - mean f|: resasc * min(1, (200 |K - G| / resasc)^1.5).
    qk21's floor of 50 eps times the integral of |f| is left out; it acts
    only at rounding level, far below _QUAD_TOL.  Sums in qk21's order: the
    centre, the Gauss pairs, then the other pairs.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    kronrod = _KRONROD_WEIGHTS[10] * fc
    gauss = 0.0
    values = [None] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        dx = half * _KRONROD_NODES[j]
        f1, f2 = values[j] = f(centre - dx), f(centre + dx)
        kronrod += _KRONROD_WEIGHTS[j] * (f1 + f2)
        if j % 2:
            gauss += _GAUSS_WEIGHTS[j // 2] * (f1 + f2)
    mean = 0.5 * kronrod
    resasc = _KRONROD_WEIGHTS[10] * abs(fc - mean)
    for w, (f1, f2) in zip(_KRONROD_WEIGHTS, values):
        resasc += w * (abs(f1 - mean) + abs(f2 - mean))
    resasc *= abs(half)
    err = abs((kronrod - gauss) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return kronrod * half, err


def _quad(f, t: float, what: str) -> float:
    """Integral of f over [0, t] by globally adaptive Gauss-Kronrod quadrature.

    Applies the G10K21 rule of `_gk21` and bisects the panel with the
    largest error estimate until the summed estimate is within _QUAD_TOL,
    absolute or relative to the summed value (the policy of QUADPACK's QAGS,
    without its extrapolation: every integrand here is smooth on [0, t]).
    Raises ConvergenceError once _QUAD_PANELS panels do not meet the
    tolerance, and SeriesOverflowError at the first panel with a non-finite
    value.  As in QAGS, the half with the larger error takes the bisected
    panel's place, so the panels are summed in QAGS's order.
    """
    panels = [(0.0, t, *_gk21(f, 0.0, t))]
    while True:
        total = sum(p[2] for p in panels)
        if not math.isfinite(total):
            raise SeriesOverflowError(f"{what} overflowed", total, len(panels))
        if sum(p[3] for p in panels) <= max(_QUAD_TOL, _QUAD_TOL * abs(total)):
            return total
        if len(panels) == _QUAD_PANELS:
            raise ConvergenceError(f"{what} did not converge", total, len(panels))
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi = panels[worst][:2]
        mid = 0.5 * (lo + hi)
        left = (lo, mid, *_gk21(f, lo, mid))
        right = (mid, hi, *_gk21(f, mid, hi))
        if right[3] > left[3]:
            left, right = right, left
        panels[worst] = left
        panels.append(right)


@dataclass(frozen=True)
class LaplaceRoots:
    """The biquadratic roots psi1^2 > 1 > psi2^2 > 0.

    With A^2 = (a+s)^2 - a^2 and B^2 = (a+s)^2 - b^2, psi1^2 = (A+B)^2/(a^2-b^2)
    and psi2^2 = (A-B)^2/(a^2-b^2); each is computed on its own, and their
    product is 1 (the biquadratic has equal leading and trailing
    coefficients), which `verify` checks.
    """

    psi1_sq: float
    psi2_sq: float


def _roots_any(s, rates: Rates):
    """A, B, psi2^2 for real s > 0 or complex s with positive real part."""
    a, b = rates.total, rates.diff
    sqrt = cmath.sqrt if isinstance(s, complex) else math.sqrt
    A = sqrt((a + s) ** 2 - a * a)
    B = sqrt((a + s) ** 2 - b * b)
    psi2 = (A - B) ** 2 / (a * a - b * b)
    return A, B, psi2


def laplace_roots(s: float, rates: Rates) -> LaplaceRoots:
    """Roots of the biquadratic underlying the transform-domain solution."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be strictly positive, got {s}")
    A, B, psi2 = _roots_any(s, rates)
    psi1 = (A + B) ** 2 / (rates.total**2 - rates.diff**2)
    return LaplaceRoots(psi1_sq=psi1, psi2_sq=psi2)


def pi_1n(s, n: int, rates: Rates):
    """Laplace transform of the transition probability 1 -> n of the chain.

    Real s > 0 gives the transform proper; complex s with positive real part
    is accepted so numerical inversion can walk the Bromwich line.
    """
    if n < 0:
        raise DomainError(f"state must be >= 0, got {n}")
    if isinstance(s, complex):
        if not s.real > 0.0:
            raise DomainError(f"Re(s) must be positive, got {s}")
    elif not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be strictly positive, got {s}")
    lam, mu = rates.lam, rates.mu
    A, B, psi2 = _roots_any(s, rates)
    if n == 0:
        return ((2.0 * lam + s) * (2.0 * mu + s) - A * B) / (lam * (s * (2.0 * mu + s) + A * B))
    den = mu * (1.0 - psi2) - s * psi2
    if n % 2 == 0:
        m = n // 2
        return (2.0 * mu + s) * (lam + s) * psi2 ** (m + 1) / (lam * lam * den)
    m = (n + 1) // 2
    return (lam + s) * psi2**m * (1.0 + psi2) / (lam * den)


def q00(t: float, rates: Rates) -> float:
    """Probability of being back at the origin at time t, started there.

    Single series over k with two 1F2 factors per term.  Each term is
    assembled in log space around its a^(2k+1) scale (with the overall
    e^(-at) damping folded in), because both the power factors and the 1F2
    values grow exponentially with t while the term itself stays bounded.
    """
    _check_time(t)
    if t == 0.0:
        return 1.0
    a, b = rates.total, rates.diff
    xb = b * b * t * t / 4.0
    la = math.log(a)
    lt2 = math.log(t / 2.0)
    r = b / a  # in (-1, 1)

    def terms():
        for k in itertools.count():
            f1 = _hyp_series(-0.5, k + 0.5, k + 1.0, xb, "q00 term")
            f2 = _hyp_series(-0.5, k + 1.0, k + 1.5, xb, "q00 term")
            scale = math.exp(2 * k * lt2 - 2.0 * math.lgamma(k + 1.0) + (2 * k + 1) * la - a * t)
            c1 = 1.0 + r ** (2 * k + 1)
            c2 = t * a * (1.0 - r ** (2 * k + 2)) / (2.0 * (k + 1))
            yield scale * (c1 * f1 + c2 * f2), 2 * k >= a * t

    total = _sum_series(terms(), "q00 series")
    return min(max(total / (a + b), 0.0), 1.0)


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
    `q10_series`: adaptive integration of the convolution of the
    Bessel-difference kernel a^2 I1(a u)/(a u) - b^2 I1(b u)/(b u) with its
    companion function over [0, t].  The I1(z)/z factors are even in z and
    continue through zero with value 1/2.
    """
    _check_time(t)
    if t == 0.0:
        return 0.0
    lam = rates.lam
    a, b = rates.total, rates.diff

    def integrand(s: float) -> float:
        u = t - s
        return (_kernel_m(a, u) - _kernel_m(b, u)) * _companion(s, a, b)

    v = math.exp(-a * t) / (2.0 * lam * (a + b)) * _quad(integrand, t, "q10 quadrature")
    return min(max(v, 0.0), 1.0)


def _default_q_k0(k: int, rates: Rates):
    if k == 0:
        return lambda tau: q00(tau, rates)
    if k == 1:
        return lambda tau: q10_series(tau, rates)
    raise DomainError(
        f"no closed-form return probability for start {k}; supply q_k0 explicitly"
    )


def _relaxed(q_k0, a: float, t: float, what: str) -> float:
    """W(t) = int_0^t e^(-2a(t-u)) q_{k,0}(u) du, as in `p_even`."""
    return _quad(lambda u: math.exp(-2.0 * a * (t - u)) * q_k0(u), t, what)


def p_even(k: int, t: float, rates: Rates, q_k0=None) -> float:
    """Probability that the reflected chain sits in an even state at time t.

    Solves dP/dt = -2(lam+mu) P + lam q_{k,0}(t) + 2 mu with the
    definitional initial condition P(0) = 1 for even k and 0 for odd k:

        P(t) = mu/a + (P(0) - mu/a) e^(-2at) + lam * int_0^t e^(-2a(t-u)) q_{k,0}(u) du.

    `q_k0` supplies the return probability; by default the closed forms for
    k in {0, 1} are used, and any reentrant callable (for instance one
    backed by the uniformization oracle) may be injected for other starts.
    """
    _check_time(t)
    lam, mu = rates.lam, rates.mu
    a = rates.total
    if q_k0 is None:
        q_k0 = _default_q_k0(k, rates)
    c = (1.0 if _is_even(k) else 0.0) - mu / a
    if t == 0.0:
        return mu / a + c
    conv = _relaxed(q_k0, a, t, "p_even quadrature")
    return mu / a + c * math.exp(-2.0 * a * t) + lam * conv


def r_mean(k: int, t: float, rates: Rates, q_k0=None) -> float:
    """Mean of the reflected chain at time t: k plus lam times the
    accumulated occupation of the origin (the boundary is the only state
    where up- and down-drift do not cancel)."""
    _check_time(t)
    if q_k0 is None:
        q_k0 = _default_q_k0(k, rates)
    if t == 0.0:
        return float(k)
    return k + rates.lam * _quad(q_k0, t, "r_mean quadrature")


def r_variance(k: int, t: float, rates: Rates, q_k0=None) -> float:
    """Variance of the reflected chain at time t.

    2(lam-mu) int P_k - lam(2k+1) int q_{k,0} - lam^2 (int q_{k,0})^2 + 2 mu t.
    The double integral of P_k is flattened through Fubini so only single
    quadratures of the return probability remain:

        int_0^t P_k = mu/a t + c (1-e^(-2at))/(2a)
                      + lam/(2a) int_0^t q_{k,0}(u) (1 - e^(-2a(t-u))) du,

    the last integral being int_0^t q_{k,0} less the W(t) of `p_even`.
    """
    _check_time(t)
    lam, mu = rates.lam, rates.mu
    a = rates.total
    if q_k0 is None:
        q_k0 = _default_q_k0(k, rates)
    if t == 0.0:
        return 0.0
    occ = _quad(q_k0, t, "r_variance quadrature")
    weighted = occ - _relaxed(q_k0, a, t, "r_variance quadrature")
    c = (1.0 if _is_even(k) else 0.0) - mu / a
    int_p = mu / a * t + c * (1.0 - math.exp(-2.0 * a * t)) / (2.0 * a) + lam / (2.0 * a) * weighted
    return 2.0 * (lam - mu) * int_p - lam * (2 * k + 1) * occ - lam * lam * occ * occ + 2.0 * mu * t
