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
  integrals of the return probability that `_contour` takes, with `q00`,
  from one pass over the transform's contour, with no reach limit in t.

`q10_integral` is a convolution, which `_quad` integrates by nested
Clenshaw-Curtis rules whose weights are computed here, so only the standard
library is needed.  Their node set is symmetric, so both factors of the
integrand come from one evaluation per node, and each such evaluation is
one loop of three sums over the Bessel terms at x (`specfun._bessel_sums`):
I_0(x) and two sums weighted by tables that `_q10_weights` builds once per
grid from r alone, which carry the terms at |r| x too.  `_q10_grid` takes a
whole time grid i h from 0 from one composite rule of panels [p h, (p + 1) h], where every grid time
mirrors a node onto a node, so the grid evaluates each node once; the CLI
uses it for grids of up to _QUAD_MAX_PANELS steps.  The paper's 1F2 series for
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
import operator
import sys
from dataclasses import dataclass

from .specfun import (
    _CONTOUR,
    ConvergenceError,
    DomainError,
    Rates,
    SeriesOverflowError,
    _bessel_sums,
    _check_time,
    _hyp_series,
    _state,
    _state_text,
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

# below this lam/mu q10_series nears the 1e-7 reflected tolerance: its brackets sum
# terms of order 1 to a value of order lam/(lam + mu), so its errors grow like mu/lam.
# Against uniformization (mu t up to 45) its worst is 4.8e-9 at 3e-8, 1.3e-8 at 1e-8 and
# 1.5e-4 at 1e-12.  The quadrature's node weights cancel nothing (`_q10_weights`), and it
# stays within 6.4e-13 of uniformization at all three, but both routes refuse below
# the bound, so that the two, which `verify` checks against each other, share one domain
_Q10_MIN_RATIO = 3e-8
# past this (lam + mu) t both q10 routes refuse: I_0 leaves the float range at 713.9869
_Q10_REACH = 713.98
# absolute and relative tolerance of the quadrature: the returned rule's observed or
# predicted error is within it.  The prediction overestimates the q10 totals' error by
# only 2 to 10 times, so the tolerance sits 10 times below the 1e-10 they are held to
_QUAD_TOL = 1e-11
# lowest and highest order n of the nested Clenshaw-Curtis rules, each doubling the last;
# `_quad` starts higher on panels too wide for the lowest orders to resolve
_QUAD_MIN_ORDER = 4
_QUAD_MAX_ORDER = 512
# no total stops before its rule resolves the integrand's unit scale at the panel ends, where
# the q10 factors e^(-x) I(x) vary by O(1) within x < 1: the first node off an end,
# h sin^2(pi/(2n)), must lie within this of it.  Coarser, the differences are not yet
# geometric, and two rules may agree by chance: at (lam, mu) = (1.356, 0.231), tau = 326.8,
# d_16 = 7.6e-3 and d_32 = 2.4e-7 predicted 6e-13, yet the rule of order 32 was 2.7e-5 off;
# at (626, 3.6e-3) the rules of orders 4 and 8 on panels of width 19 agreed within 2.6e-11
# on a total they both missed by 2.2e-9
_QUAD_END_SPACING = 0.15
# most panels of one `_quad` rule that `cli reflect --method integral` takes for a grid from 0:
# the totals cost O(panels^2 n) products, which past it outweigh the nodes the grid shares
_QUAD_MAX_PANELS = 100


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


def _quad(f, h: float, panels: int, what: str) -> list[float]:
    """Convolutions int_0^(i h) k(i h - s) c(s) ds, i = 1..panels, by one composite rule of
    nested Clenshaw-Curtis panels [p h, (p + 1) h]; f(x) -> (k(x), c(x)).

    At order n, panel p takes f at x = p h + h sin^2(j pi/(2n)), the images of the
    nodes cos(j pi/n), j = 0..n; the values lie in flat lists, panel after panel,
    index l = p n + j, each shared panel end once.  Then i h - x_l is x_(i n - l), so
    total i sums W_l c(x_l) k(x_(i n - l)) over l = 0..i n, with weights (h/2) w_j
    (w_0 + w_n at an interior panel end), and every total reads the same values.
    Doubling n keeps every node, so each order evaluates f only at its new ones.
    All panels share the order; each total keeps its own stop test and stays at the
    first order that passes it: on a rule that resolves unit scale at the panel ends
    (_QUAD_END_SPACING), with d_n = |I_n - I_(n/2)| and
    tol = _QUAD_TOL absolute or relative to I_n, once d_n <= tol, or once
    d_n <= sqrt(tol) and d_n^3 <= tol d_(n/2)^2.  Every integrand here is entire,
    where Clenshaw-Curtis converges at least like rho^(-n), as fast as Gauss (Clenshaw
    & Curtis, Numer. Math. 2, 1960; Trefethen, SIAM Review 50, 2008), so doubling n
    squares the ratio of successive differences and d_n (d_n/d_(n/2))^2 is the next
    one; on the q10 integrands it errs high by about 2 to 10 times wherever the error
    stands above the rule's rounding.
    The totals cost O(panels^2 n) products.  Raises SeriesOverflowError at the first
    non-finite total, and ConvergenceError, with terms the number of nodes, when the
    rule of order _QUAD_MAX_ORDER leaves a total unresolved.
    """
    # the first order that resolves the panel ends (past _QUAD_MAX_ORDER if none does); no stop
    # test reads back further than the two rules below it, so the first rule is the coarser of
    # those and _QUAD_MIN_ORDER, and coarser ones are skipped: their nodes come with it
    resolving = _QUAD_MIN_ORDER
    while resolving <= _QUAD_MAX_ORDER and h * math.sin(0.5 * math.pi / resolving) ** 2 > _QUAD_END_SPACING:
        resolving *= 2
    n = min(max(_QUAD_MIN_ORDER, resolving // 4), _QUAD_MAX_ORDER)
    ks, cs = zip(*[f(x) for x in _panel_nodes(h, panels, _node_images(n))], f(panels * h))
    totals = [0.0] * panels
    previous, diffs = [None] * panels, [None] * panels
    pending = range(panels)
    while True:
        weights = _clenshaw_curtis_weights(n)
        end = weights[0]
        composite = [2.0 * end, *weights[1:n]] * panels
        composite[0] = end
        weighted = list(map(operator.mul, composite, cs))
        flat = panels * n  # the last flat index
        kr = ks[::-1]  # kr[flat - m] is k(x_m)
        left = []
        for i in pending:
            top = (i + 1) * n
            # the term at l = top has the end weight of the panel it closes, not w_0 + w_n
            total = 0.5 * h * (sum(map(operator.mul, weighted, kr[flat - top : flat])) + end * cs[top] * kr[flat])
            if not math.isfinite(total):
                raise SeriesOverflowError(f"{what} overflowed", total, flat + 1)
            if previous[i] is not None:
                last, diffs[i] = diffs[i], abs(total - previous[i])
                step, tol = diffs[i], max(_QUAD_TOL, _QUAD_TOL * abs(total))
                # products, not powers: float ** raises OverflowError where a product reads inf
                if n >= resolving and (step <= tol or (last is not None and step * step * step <= tol * last * last
                                                 and step <= math.sqrt(tol))):
                    totals[i] = total
                    continue
            previous[i] = total
            left.append(i)
        if not left:
            return totals
        if n == _QUAD_MAX_ORDER:
            raise ConvergenceError(f"{what} did not converge", previous[left[0]], flat + 1)
        pending, n = left, 2 * n
        new_ks, new_cs = zip(*[f(x) for x in _panel_nodes(h, panels, _node_images(n)[1::2])])
        ks, cs = _interleave(ks, new_ks), _interleave(cs, new_cs)


def _interleave(old, new) -> list[float]:
    """old[0], new[0], old[1], ..., new[-1], old[-1]: the values of a doubled rule, whose
    new nodes lie between the old ones."""
    merged = [0.0] * (len(old) + len(new))
    merged[::2], merged[1::2] = old, new
    return merged


@functools.cache
def _node_images(n: int) -> tuple[float, ...]:
    """sin^2(j pi/(2n)), j = 0..n-1: the images on [0, 1] of the nodes cos(j pi/n) of the
    rule of order n, less the last, which is the next panel's first."""
    return tuple(math.sin(0.5 * math.pi * j / n) ** 2 for j in range(n))


def _panel_nodes(h: float, panels: int, images) -> list[float]:
    """p h + h s for each image s on each panel p in turn: nodes of `_quad`'s composite rule."""
    return [p * h + h * s for p in range(panels) for s in images]


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
    Bromwich line.  A state n past the float range raises DomainError.
    """
    n = _state("n", n)
    if n < 0:
        raise DomainError(f"state must be >= 0, got {_state_text(n)}")
    if n > sys.float_info.max:  # psi2 ** n takes n as a float
        raise DomainError(f"state must lie in the float range, got {_state_text(n)}")
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


def q00(t: float, rates: Rates) -> float:
    """Probability of being back at the origin at time t, started there.

    The first of the three sums of `_contour` from start 0, the pass the
    moments take: 16 transform values at every t, no reach limit in t, and
    about 1e-13 absolute error.
    """
    _check_time(t)
    if rates.lam * t < 1e-17:  # q00 lies in [e^(-lam t), 1], so it rounds to 1
        return 1.0
    return min(max(_contour(0, t, rates)[0], 0.0), 1.0)


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
    One time is the one-panel grid of `_q10_grid`.
    """
    return _q10_grid(t, 1, rates)[0]


def _q10_grid(stop: float, steps: int, rates: Rates) -> list[float]:
    """`q10_integral` at the times stop i/steps, i = 1..steps, from one `_quad` rule
    of `steps` panels, so every time reads the same node values; `_q10_units`
    checks stop alone, since neither its reach nor its ratio bound tightens at
    earlier times.  Each value is within the quadrature tolerance of the one-time
    call, not bit-equal to it."""
    tau, r, rp = _q10_units(stop, rates, "q10 quadrature")
    if tau == 0.0:
        return [0.0] * steps
    # the terms at the largest node, tau, peak near m = tau/2 with width about sqrt(tau)/2, and
    # stop by m = tau/2 + 4 sqrt(tau) + 6 (measured over 0 <= tau <= 714)
    beta, kappa = _q10_weights(r, rp, 2.0 * rates.mu / rates.total, int(0.5 * tau + 5.0 * math.sqrt(tau)) + 8)

    def node(x: float) -> tuple[float, float]:
        s0, e, k = _bessel_sums(x, beta, kappa)
        share = math.exp(-x)
        scale = share / rp
        # (1 + r) S0 times the scale is S0 e^(-x)
        return 0.5 * (k * scale), s0 * share + x * (e * scale)

    return [min(max(v, 0.0), 1.0) for v in _quad(node, tau / steps, steps, "q10 quadrature")]


def _q10_weights(r: float, rp: float, rm: float, size: int) -> tuple[list[float], list[float]]:
    """The weights beta_m, kappa_m, m < size, under which the sums of T_m = (x^2/4)^m/(m!)^2
    give the q10 node, from r, rp = 1 + r and rm = 1 - r, each formed directly from the rates:
        beta_m = 1/(2(m+1)) + r/(2m+1) + rsq^(m+1)/(2(2m+1)(m+1)),
        kappa_m = (1 - rsq^(m+1))/(m+1),  rsq = r^2,
    so that sum T_m beta_m = E(x) = I_1(x)/x + r 1F2(1/2; 3/2, 1; x^2/4)
    + rsq/2 1F2(1/2; 3/2, 2; rsq x^2/4), the companion's bracket, and sum T_m kappa_m = K(x)
    = 2 I_1(x)/x - rsq 2 I_1(|r| x)/(|r| x), the kernel's; terms at |r| x are those at x
    times rsq^m.  Neither weight is formed as written, since both cancel as r nears -1 or 1:
    with P_m = sum_(i <= m) rsq^i, 1 - rsq^(m+1) = rp rm P_m, and the three terms of beta_m
    add up to rp^2 (2 rm sum_(i < m) P_i + P_m)/(2(2m+1)(m+1)), so every weight is a
    product and sum of positive numbers, and E and K cancel nothing at any r.
    """
    rsq, gap, square = r * r, rp * rm, rp * rp
    beta, kappa = [0.0] * size, [0.0] * size
    power = powers = 1.0  # rsq^m and P_m
    partial = 0.0  # the sum of P_i over i < m
    for m in range(size):
        kappa[m] = gap * powers / (m + 1)
        beta[m] = square * (2.0 * rm * partial + powers) / (2 * (2 * m + 1) * (m + 1))
        partial += powers
        power *= rsq
        powers += power
    return beta, kappa


def _contour(k: int, t: float, rates: Rates) -> tuple[float, float, float]:
    """q_{k,0}(t), int_0^t q_{k,0} and W(t) = int_0^t e^(-2a(t-u)) q_{k,0}(u) du, k in {0, 1}:
    one pass over the contour, each node reading pi_10 = `_pi1n`(s, 0) once (the first
    jump out of 0 gives pi_00 = (1 + lam pi_10)/(lam + s)) and sharing u = w pi among
    the three sums (1/t) Re u, Re u/z and Re (u/z) s/(s + 2a), 1/t inside each term.

    Below a t = 1e-17, where the nodes z/t head out of the float range, all three are
    their t -> 0 limits by q_{k,0}(u) = [k = 0] + mu u [k = 1] + O((a u)^2), exact in floats.
    """
    k = _state("k", k)
    _check_time(t)
    if k not in (0, 1):
        raise DomainError(f"no closed form for start {_state_text(k)}; "
                          f"the reflected chain's moments cover starts 0 and 1")
    lam, a = rates.lam, rates.total
    if a * t < 1e-17:
        occ = t if k == 0 else 0.5 * rates.mu * t * t
        return (1.0 if k == 0 else rates.mu * t), occ, occ
    q = occ = relaxed = 0.0
    for z, w in _CONTOUR:
        s = z / t
        pi = _pi1n(s, 0, rates)
        u = w * (pi if k else (1.0 + lam * pi) / (lam + s))
        q += u.real
        term = u / z  # (1/t) pi/s
        occ += term.real
        relaxed += (term * (s / (s + 2.0 * a))).real  # (1/t) pi/(s + 2a), forming no 2at to overflow
    q /= t
    if not (math.isfinite(q) and math.isfinite(occ) and math.isfinite(relaxed)):
        raise SeriesOverflowError(f"contour sum overflowed at t={t!r}", q + occ + relaxed, len(_CONTOUR))
    return q, occ, relaxed


def p_even(k: int, t: float, rates: Rates) -> float:
    """Probability that the reflected chain sits in an even state at time t.

    Solves dP/dt = -2(lam+mu) P + lam q_{k,0}(t) + 2 mu with the
    definitional initial condition P(0) = 1 for even k and 0 for odd k:

        P(t) = mu/a + (P(0) - mu/a) e^(-2at) + lam * int_0^t e^(-2a(t-u)) q_{k,0}(u) du,

    the last integral being the W(t) of `_contour`.
    """
    mu, a = rates.mu, rates.total
    _, _, relaxed = _contour(k, t, rates)
    c = (1.0 if k % 2 == 0 else 0.0) - mu / a
    return mu / a + c * math.exp(-2.0 * a * t) + rates.lam * relaxed


def r_mean(k: int, t: float, rates: Rates) -> float:
    """Mean of the reflected chain at time t from k in {0, 1}: k plus lam
    times the accumulated occupation of the origin (the boundary is the only
    state where up- and down-drift do not cancel)."""
    _, occ, _ = _contour(k, t, rates)
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
    _, occ, relaxed = _contour(k, t, rates)
    c = (1.0 if k % 2 == 0 else 0.0) - mu / a
    h, g = math.sqrt(4.0 * lam * (mu / a)) * math.sqrt(t), lam * occ
    rest = c * -math.expm1(-2.0 * a * t) / (2.0 * a) + lam / (2.0 * a) * (occ - relaxed)
    v = (h - g) * (h + g) + 2.0 * (lam - mu) * rest - g * (2 * k + 1)
    if not math.isfinite(v):
        raise SeriesOverflowError(f"r_variance at t={t!r} is out of the float range", v, 0)
    return k + g, v
