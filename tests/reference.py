"""Reference implementations the tests check the library against.

No production path calls these; each is an independent route to a value
the library computes another way.
"""

import itertools
import math

from altbd.bilateral import Rates
from altbd.specfun import _hyp_series, _sum_series


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
            f1 = _hyp_series(-0.5, k + 0.5, k + 1.0, xb, "q00 term")
            f2 = _hyp_series(-0.5, k + 1.0, k + 1.5, xb, "q00 term")
            scale = math.exp(2 * k * lt2 - 2.0 * math.lgamma(k + 1.0) + (2 * k + 1) * la - a * t)
            c1 = 1.0 + math.exp((2 * k + 1) * log_r) if b > 0 else one_minus(2 * k + 1)
            c2 = t * a * one_minus(2 * k + 2) / (2.0 * (k + 1))
            yield scale * (c1 * f1 + c2 * f2), 2 * k >= a * t

    total = _sum_series(terms(), "q00 series")
    return min(max(total / (2.0 * rates.lam), 0.0), 1.0)
