"""The cross-check battery behind `altbd verify`, kept as data: the table
`PAIR_CHECKS` of (name, check, tolerance) rows, run for each rate pair, and
the equal-rates `bessel_reduction` row.  Each check(rates) yields absolute
residuals, over inputs fixed inside it, between a closed form and a route
that does not pass through it (uniformization, Laplace inversion,
quadrature, a Bessel function, or an identity of the chain); a report row
carries their worst, which is NaN or infinite if any residual is, so a
closed form that returns NaN fails its row.

The bilateral checks read whole blocks, and each reads all its values at
one time through one `bilateral._blocks` call, which sums each distinct
series of an effective rate pair once (`rates` from an even start, the
swapped rates from an odd one): normalization each of its seven starts
over its own window k - r .. k + r per time, symmetry the `rates` block and
the swapped-rates block per time for its five clauses, Chapman-Kolmogorov
its row factors, column factors and direct values by time (0.3, 0.7, 0.6,
1.0 and 1.4), and the pointwise comparison with the oracle the rows from
starts 0 and 1 per time.  Only the Bessel reduction calls `transition_prob`
entry by entry, so the one-entry path stays under test too.  The symmetry
row tests the parity reduction of `bilateral._blocks` (an odd start without
its rate swap reads 0.27 at (1, 2)); a slip in the series itself, such as a
mis-indexed offset, enters both sides of every clause alike, and
`bilateral_moments_vs_oracle` catches it.
"""

from __future__ import annotations

import math

from . import bilateral, reflecting, specfun
from .bilateral import TransitionQuery
from .specfun import Rates, bessel_i

__all__ = ["DEFAULT_VERIFY_PAIRS", "PAIR_CHECKS", "run_verification"]

DEFAULT_VERIFY_PAIRS = ((1.0, 2.0), (2.0, 2.0), (2.0, 1.0))


def _p(k, n, t, rates):
    return bilateral.transition_prob(TransitionQuery(k, n, t), rates)


def _worst(residuals):
    """The largest residual, or NaN if any is NaN (max() would drop it)."""
    residuals = list(residuals)
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return max(residuals, default=0.0)


def _row_moments(states, probs):
    """Mean and variance of an oracle row."""
    m1 = float(probs @ states)
    m2 = float(probs @ (states.astype(float) ** 2))
    return m1, m2 - m1 * m1


def _reach(rates, t):
    """The reach r of the bilateral window (k - r, k + r), the same from every start k."""
    from . import oracle

    return oracle.default_window("bilateral", rates, 0, t)[1]


def _values(requests, t):
    """p_(k,n)(t) by (k, n) for each (starts, targets, rates) request, all read
    through one `bilateral._blocks` call."""
    blocks = bilateral._blocks(requests, t)
    return [
        {(k, n): p for k, row in zip(starts, rows) for n, p in zip(targets, row)}
        for (starts, targets, _), rows in zip(requests, blocks)
    ]


def normalization(rates):
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        r = _reach(rates, t)
        # each start's row over its own window k - r .. k + r, whose offsets, and so series, all
        # the starts of one parity share
        for (row,) in bilateral._blocks([((k,), range(k - r, k + r + 1), rates) for k in range(-3, 4)], t):
            yield abs(sum(row) - 1.0)


def symmetry(rates):
    # five-clause suite: reflections and translations by even/odd amounts,
    # plus the transpose; the transpose carries a rate swap exactly when the
    # two states have opposite parity (for equal parity it is the plain
    # reversibility transpose, a consequence of the even reflection)
    swapped = rates.swapped()
    span = range(-3, 4)
    for t in (0.5, 2.0):
        # every state the clauses read: 2 +- k at `rates`, 1 +- k at `swapped`
        p, q = _values([(range(-3, 6), range(-3, 6), rates), (range(-3, 5), range(-3, 5), swapped)], t)
        for k in span:
            for n in span:
                base = p[k, n]
                transpose = q[n, k] if (k + n) % 2 != 0 else p[n, k]
                yield abs(p[2 - k, 2 - n] - base)  # even reflection
                yield abs(q[1 - k, 1 - n] - base)  # odd reflection
                yield abs(transpose - base)  # transpose
                yield abs(p[2 + k, 2 + n] - base)  # even translation
                yield abs(q[1 + k, 1 + n] - base)  # odd translation


def chapman_kolmogorov(rates):
    pairs = ((0, 0), (0, 1), (-1, 2))
    starts, ends = (0, -1), (0, 1, 2)
    steps = tuple((t, s, _reach(rates, t + s)) for t, s in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7)))
    # the row factor at t, the column factor at s and the direct value at t + s of
    # every step, read per time: 0.3, 0.7, 0.6, 1.0 and 1.4
    requests = {}
    for t, s, r in steps:
        mids = range(min(starts) - r, max(starts) + r + 1)
        for time, block in ((t, (starts, mids)), (s, (mids, ends)), (t + s, (starts, ends))):
            requests.setdefault(time, []).append((*block, rates))
    p = {}
    for time, blocks in requests.items():
        for values in _values(blocks, time):
            p.update({(time, k, n): v for (k, n), v in values.items()})
    for t, s, r in steps:
        for k, n in pairs:
            total = sum(p[t, k, m] * p[s, m, n] for m in range(k - r, k + r + 1))
            yield abs(total - p[t + s, k, n])


def q10_triple_agreement(rates):
    from . import oracle

    for t in (0.5, 1.0, 2.0):
        series = reflecting.q10_series(t, rates)
        inverted = oracle.invert_laplace(lambda s: reflecting.pi_1n(s, 0, rates), t)
        yield abs(series - reflecting.q10_integral(t, rates))
        yield abs(series - inverted)


def origin_vs_oracle(rates):
    from . import oracle

    for t in (0.25, 1.0, 5.0):
        for k, closed in ((0, reflecting.q00), (1, reflecting.q10_series)):
            yield abs(closed(t, rates) - oracle.transient_distribution("reflected", rates, k, t)[1][0])


def bilateral_moments_vs_oracle(rates):
    # also covers transition_prob pointwise over the oracle's whole row: the
    # moments are closed forms of their own, and a slip that keeps the
    # symmetries leaves them untouched
    from . import oracle

    for t in (0.5, 2.0):
        rows = [(k, *oracle.transient_distribution("bilateral", rates, k, t)) for k in (0, 1)]
        blocks = bilateral._blocks([((k,), states.tolist(), rates) for k, states, _ in rows], t)
        for (k, states, probs), (closed,) in zip(rows, blocks):
            m1, var = _row_moments(states, probs)
            yield abs(bilateral.mean(k, t, rates) - m1)
            yield abs(bilateral.variance(k, t, rates) - var)
            for p, want in zip(closed, probs):
                yield abs(p - want)


def reflected_moments_vs_oracle(rates):
    from . import oracle

    for k in (0, 1):
        for t in (1.0, 2.0):
            m1, var = _row_moments(*oracle.transient_distribution("reflected", rates, k, t))
            yield abs(reflecting.r_mean(k, t, rates) - m1)
            yield abs(reflecting.r_variance(k, t, rates) - var)


def psi_product_vieta(rates):
    # Vieta's product and, relative, Vieta's sum of the biquadratic roots
    lam, mu = rates.lam, rates.mu
    for s in (0.1, 1.0, 10.0):
        r = reflecting.laplace_roots(s, rates)
        yield abs(r.psi1_sq * r.psi2_sq - 1.0)
        vieta_sum = ((lam + mu + s) ** 2 - lam * lam - mu * mu) / (lam * mu)
        yield abs(r.psi1_sq + r.psi2_sq - vieta_sum) / vieta_sum


def laplace_system_residual(rates):
    # on the real axis, and at the complex nodes s = z/t where the moments' contour sums evaluate the transform
    lam, mu = rates.lam, rates.mu
    for s in (0.1, 1.0, 10.0, *(z / t for t in (1e-3, 1.0, 1e3) for z, _ in specfun._CONTOUR)):
        pi = [reflecting._pi1n(s, n, rates) for n in range(5)]
        yield abs((lam + s) * pi[0] - mu * pi[1])
        yield abs((2 * mu + s) * pi[1] - 1.0 - lam * pi[2] - lam * pi[0])
        yield abs((2 * lam + s) * pi[2] - mu * pi[1] - mu * pi[3])
        yield abs((2 * mu + s) * pi[3] - lam * pi[4] - lam * pi[2])


def bessel_reduction():
    # equal rates 2: p_(0,n)(t) = e^(-4t) I_|n|(4t)
    for t in (0.5, 2.0, 5.0):
        for n in range(-10, 11):
            yield abs(math.exp(-4.0 * t) * bessel_i(abs(n), 4.0 * t) - _p(0, n, t, Rates(2.0, 2.0)))


# (name, check, tolerance), in report order
PAIR_CHECKS = (
    ("normalization", normalization, 1e-9),
    ("symmetry", symmetry, 1e-12),
    ("chapman_kolmogorov", chapman_kolmogorov, 1e-8),
    ("q10_triple_agreement", q10_triple_agreement, 1e-6),
    ("origin_vs_oracle", origin_vs_oracle, 1e-7),
    ("bilateral_moments_vs_oracle", bilateral_moments_vs_oracle, 1e-8),
    ("reflected_moments_vs_oracle", reflected_moments_vs_oracle, 1e-6),
    ("psi_product_vieta", psi_product_vieta, 1e-12),
    ("laplace_system_residual", laplace_system_residual, 1e-10),
)


def _row(name, lam, mu, residuals, tol):
    residual = _worst(residuals)
    return (name, lam, mu, residual, tol, "pass" if residual <= tol else "FAIL")


def run_verification(pairs=DEFAULT_VERIFY_PAIRS):
    """Run the battery; returns CSV-ready result rows.

    Each row is (check, lambda, mu, max_residual, tolerance, status): every
    `PAIR_CHECKS` row for each rate pair in turn, then `bessel_reduction`.
    """
    rows = [
        _row(name, lam, mu, check(Rates(lam, mu)), tol)
        for lam, mu in pairs
        for name, check, tol in PAIR_CHECKS
    ]
    return rows + [_row("bessel_reduction", 2.0, 2.0, bessel_reduction(), 1e-10)]
