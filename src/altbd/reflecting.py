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

Throughout, a = lam + mu and b = lam - mu (b may be negative or zero).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from scipy.integrate import quad

from .bilateral import Rates, _is_even
from .specfun import ConvergenceError, DomainError, _hyp_series, _sum_series, bessel_i, hyp1f2

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


def _quad(f, t: float):
    """(integral of f over [0, t], its error estimate) by adaptive quadrature."""
    return quad(f, 0.0, t, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)


@dataclass(frozen=True)
class LaplaceRoots:
    """Square roots A, B and the biquadratic roots psi1^2 > 1 > psi2^2 > 0.

    A^2 = (a+s)^2 - a^2 and B^2 = (a+s)^2 - b^2; the squared roots satisfy
    psi1^2 * psi2^2 = 1 (the biquadratic has equal leading and trailing
    coefficients).
    """

    s: float
    a_term: float
    b_term: float
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
    return LaplaceRoots(s=s, a_term=A, b_term=B, psi1_sq=psi1, psi2_sq=psi2)


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
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 1.0
    a, b = rates.total, rates.diff
    xb = b * b * t * t / 4.0
    la = math.log(a)
    lt2 = math.log(t / 2.0)
    r = b / a  # in (-1, 1)

    def terms():
        for k in itertools.count():
            f1 = hyp1f2(-0.5, k + 0.5, k + 1.0, xb)
            f2 = hyp1f2(-0.5, k + 1.0, k + 1.5, xb)
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
    and one 2F3 carrying the b-dependent part.  Terms are accumulated in
    log space with the same two-consecutive-terms stopping rule as the
    unrestricted chain's series.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
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
        for n in itertools.count():
            f_mid = _hyp_series((0.5,), (n + 1.0, n + 1.5), xa, "q10 term")
            f_low = _hyp_series((0.5,), (n + 0.5, n + 1.0), xa, "q10 term")
            f_high = _hyp_series((0.5,), (n + 1.5, n + 2.0), xa, "q10 term")
            f_b = _hyp_series((0.5, 1.0), (2.0, n + 1.5, n + 2.0), xb, "q10 term")
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

    total = _sum_series(terms(), "q10 series")
    return min(max(total / (2.0 * lam * (a + b)), 0.0), 1.0)


def _bessel_ratio_i1(z: float) -> float:
    """I_1(z)/z for z >= 0, with the removable point at zero -> 1/2."""
    if z < 1e-6:
        return 0.5 + z * z / 16.0
    return bessel_i(1, z) / z


def _kernel_m(g: float, u: float) -> float:
    """g^2 I_1(gu)/(gu); even in g and identically zero for g = 0."""
    if g == 0.0:
        return 0.0
    g = abs(g)
    return g * g * _bessel_ratio_i1(g * u)


def _companion(s: float, a: float, b: float) -> float:
    """The function convolved against the Bessel-difference kernel in q10.

    a(I0+I1)(as) plus b times (one plus the running integral of that term)
    plus the even-in-b primitive of b I1(bs)/s; equals 2*lam at s = 0.
    """
    ga = a * (bessel_i(0, a * s) + bessel_i(1, a * s))
    int_ga = a * s * hyp1f2(0.5, 1.5, 1.0, a * a * s * s / 4.0) + bessel_i(0, a * s) - 1.0
    mb = 0.5 * b * b * s * hyp1f2(0.5, 1.5, 2.0, b * b * s * s / 4.0)
    return ga + b * (1.0 + int_ga) + mb


def q10_integral(t: float, rates: Rates) -> float:
    """Quadrature route to the same origin-occupation probability as
    `q10_series`: adaptive integration of the convolution of the
    Bessel-difference kernel a^2 I1(a u)/(a u) - b^2 I1(b u)/(b u) with its
    companion function over [0, t].  The I1(z)/z factors are even in z and
    continue through zero with value 1/2.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 0.0
    lam = rates.lam
    a, b = rates.total, rates.diff

    def integrand(s: float) -> float:
        u = t - s
        return (_kernel_m(a, u) - _kernel_m(b, u)) * _companion(s, a, b)

    val, err = _quad(integrand, t)
    if not math.isfinite(val) or err > max(_QUAD_TOL * 100.0, abs(val) * 1e-6):
        raise ConvergenceError("q10 quadrature did not converge", val, 0)
    v = math.exp(-a * t) / (2.0 * lam * (a + b)) * val
    return min(max(v, 0.0), 1.0)


def _default_q_k0(k: int, rates: Rates):
    if k == 0:
        return lambda tau: q00(tau, rates)
    if k == 1:
        return lambda tau: q10_series(tau, rates)
    raise DomainError(
        f"no closed-form return probability for start {k}; supply q_k0 explicitly"
    )


def p_even(k: int, t: float, rates: Rates, q_k0=None) -> float:
    """Probability that the reflected chain sits in an even state at time t.

    Solves dP/dt = -2(lam+mu) P + lam q_{k,0}(t) + 2 mu with the
    definitional initial condition P(0) = 1 for even k and 0 for odd k:

        P(t) = mu/a + (P(0) - mu/a) e^(-2at) + lam * int_0^t e^(-2a(t-u)) q_{k,0}(u) du.

    `q_k0` supplies the return probability; by default the closed forms for
    k in {0, 1} are used, and any reentrant callable (for instance one
    backed by the uniformization oracle) may be injected for other starts.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    lam, mu = rates.lam, rates.mu
    a = rates.total
    if q_k0 is None:
        q_k0 = _default_q_k0(k, rates)
    c = (1.0 if _is_even(k) else 0.0) - mu / a
    if t == 0.0:
        return mu / a + c
    conv, _ = _quad(lambda u: math.exp(-2.0 * a * (t - u)) * q_k0(u), t)
    return mu / a + c * math.exp(-2.0 * a * t) + lam * conv


def r_mean(k: int, t: float, rates: Rates, q_k0=None) -> float:
    """Mean of the reflected chain at time t: k plus lam times the
    accumulated occupation of the origin (the boundary is the only state
    where up- and down-drift do not cancel)."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if q_k0 is None:
        q_k0 = _default_q_k0(k, rates)
    if t == 0.0:
        return float(k)
    occ, _ = _quad(q_k0, t)
    return k + rates.lam * occ


def r_variance(k: int, t: float, rates: Rates, q_k0=None) -> float:
    """Variance of the reflected chain at time t.

    2(lam-mu) int P_k - lam(2k+1) int q_{k,0} - lam^2 (int q_{k,0})^2 + 2 mu t.
    The double integral of P_k is flattened through Fubini so only single
    quadratures of the return probability remain:

        int_0^t P_k = mu/a t + c (1-e^(-2at))/(2a)
                      + lam/(2a) int_0^t q_{k,0}(u) (1 - e^(-2a(t-u))) du.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    lam, mu = rates.lam, rates.mu
    a = rates.total
    if q_k0 is None:
        q_k0 = _default_q_k0(k, rates)
    if t == 0.0:
        return 0.0
    occ, _ = _quad(q_k0, t)
    weighted, _ = _quad(lambda u: q_k0(u) * (1.0 - math.exp(-2.0 * a * (t - u))), t)
    c = (1.0 if _is_even(k) else 0.0) - mu / a
    int_p = mu / a * t + c * (1.0 - math.exp(-2.0 * a * t)) / (2.0 * a) + lam / (2.0 * a) * weighted
    return 2.0 * (lam - mu) * int_p - lam * (2 * k + 1) * occ - lam * lam * occ * occ + 2.0 * mu * t
