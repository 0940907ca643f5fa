"""Reference implementations the tests check the library against.

No production path calls these; each is an independent route to a value
the library computes another way.
"""

import itertools
import math

from altbd.bilateral import Rates
from altbd.specfun import SERIES_REL_TOL, _hyp_series, _sum_series


def _q00_series(t: float, rates: Rates) -> float:
    """q00 by a single series over k with two 1F2 factors per term, the
    reference that `q00`'s contour sum is checked against.

    Each term is assembled in log space around its a^(2k+1) scale (with the
    overall e^(-at) damping folded in), because both the power factors and
    the 1F2 values grow exponentially with t while the term itself stays
    bounded.  The factors 1 + r^(2k+1) and 1 - r^(2k+2), r = b/a, are formed
    as 1 +- |r|^m with 1 - |r|^m = -expm1(m log1p(-2 min(lam, mu)/a)), and
    the sum is divided by 2 lam, not a + b: nothing cancels when one rate is
    tiny.  Raises SeriesOverflowError once |b| t passes about 709.
    """
    a, b = rates.total, rates.diff
    xb = (0.5 * b * t) ** 2
    la = math.log(a)
    lt2 = math.log(t) - math.log(2.0)  # t/2 underflows at the least subnormal t
    # log |r|; at r = 0 (log1p(-1) raises) every power |r|^m, m >= 1, is 0
    log_r = math.log1p(-2.0 * min(rates.lam, rates.mu) / a) if b else -math.inf

    def one_minus(m):  # 1 - |r|^m
        return -math.expm1(m * log_r)

    def terms():
        for k in itertools.count():
            f1 = _hyp_series(-0.5, k + 0.5, k + 1.0, xb)
            f2 = _hyp_series(-0.5, k + 1.0, k + 1.5, xb)
            scale = math.exp(2 * k * lt2 - 2.0 * math.lgamma(k + 1.0) + (2 * k + 1) * la - a * t)
            c1 = 1.0 + math.exp((2 * k + 1) * log_r) if b > 0 else one_minus(2 * k + 1)
            c2 = t * a * one_minus(2 * k + 2) / (2.0 * (k + 1))
            yield scale * (c1 * f1 + c2 * f2)

    total = _sum_series(terms(), "q00 series", 0.5 * a * t)
    return min(max(total / (2.0 * rates.lam), 0.0), 1.0)


def _hyp2f3(b1: float, b2: float, x: float) -> float:
    """2F3(1/2, 1; 2, b1, b2; x) for x >= 0 by its own term recurrence, each term
    the last times x (1/2 + m)/((2 + m)(b1 + m)(b2 + m)) (the (1)_m of the upper
    parameter 1 cancels the m! of the series); stops as `_hyp_series` does."""
    term = total = 1.0
    small = 0
    for m in itertools.count():
        ratio = x * (0.5 + m) / ((2.0 + m) * (b1 + m) * (b2 + m))
        term *= ratio
        total += term
        if abs(term) <= SERIES_REL_TOL * abs(total) and ratio < 0.5:
            small += 1
            if small >= 2:
                return total
        else:
            small = 0


def _q10_series_direct(t: float, rates: Rates) -> float:
    """q10 by the paper's series with one kernel sum per value, the reference
    that `q10_series`'s sequences are checked against: three 1F2 and one 2F3
    per outer term, the 2F3 summed as written rather than through the
    contiguous identity `q10_series` uses, so O((a t)^2) work per call.  It
    keeps absolute units and the paper's divisor 2 lam (a + b), which
    `q10_series` rescales."""
    if t == 0.0:
        return 0.0
    a, b = rates.total, rates.diff
    norm = 2.0 * rates.lam * (a + b)
    xa = a * a * t * t / 4.0
    xb = b * b * t * t / 4.0
    la = math.log(a)
    lt = math.log(t)
    r = b / a

    def terms():
        f_low = _hyp_series(0.5, 0.5, 1.0, xa)
        for n in itertools.count():
            f_mid = _hyp_series(0.5, n + 1.0, n + 1.5, xa)
            f_high = _hyp_series(0.5, n + 1.5, n + 2.0, xa)
            f_b = _hyp2f3(n + 1.5, n + 2.0, xb)
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
            yield term
            f_low = f_high

    total = _sum_series(terms(), "q10 series", 0.5 * a * t)
    return min(max(total / norm, 0.0), 1.0)
