"""The cross-check battery behind `altbd verify`, kept as data: the table
`PAIR_CHECKS` of (name, check, tolerance) rows, run for each rate pair, and
the equal-rates `bessel_reduction` row.  Each check(rates) yields absolute
residuals, over inputs fixed inside it, between a closed form and a route
that does not pass through it (uniformization, Laplace inversion,
quadrature, a Bessel function, or an identity of the chain); a report row
carries their worst, which is NaN or infinite if any residual is, so a
closed form that returns NaN fails its row.

Normalization, symmetry and Chapman-Kolmogorov read whole blocks from
`bilateral.transition_matrix`, which sums each distinct series of a block
once: one block per time over the seven starts of normalization, one at
`rates` and one at the swapped rates per time for the five symmetry
clauses, and one each for the row factor, the column factor and the direct
value of Chapman-Kolmogorov.  The pointwise comparison with the oracle's
row takes whole rows from `bilateral.transition_probs`.  Only the Bessel
reduction calls `transition_prob` entry by entry, so the one-entry path
stays under test too.
"""

from __future__ import annotations

import math

from . import bilateral, oracle, reflecting
from .bilateral import Rates, TransitionQuery
from .specfun import bessel_i

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
    return oracle.default_window("bilateral", rates, 0, t)[1]


def _block(starts, targets, t, rates):
    """p_(k,n)(t) by (k, n) for every start k and target n, from one `transition_matrix` block."""
    rows = bilateral.transition_matrix(starts, targets, t, rates)
    return {(k, n): p for k, row in zip(starts, rows) for n, p in zip(targets, row)}


def normalization(rates):
    starts = range(-3, 4)
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        r = _reach(rates, t)
        # row i holds start -3 + i over -3 - r .. 3 + r, so its window k - r .. k + r starts at column i
        rows = bilateral.transition_matrix(starts, range(starts[0] - r, starts[-1] + r + 1), t, rates)
        for i, row in enumerate(rows):
            yield abs(sum(row[i : i + 2 * r + 1]) - 1.0)


def symmetry(rates):
    # five-clause suite: reflections and translations by even/odd amounts,
    # plus the transpose; the transpose carries a rate swap exactly when the
    # two states have opposite parity (for equal parity it is the plain
    # reversibility transpose, a consequence of the even reflection)
    swapped = rates.swapped()
    span = range(-3, 4)
    for t in (0.5, 2.0):
        # every state the clauses read: 2 +- k at `rates`, 1 +- k at `swapped`
        p = _block(range(-3, 6), range(-3, 6), t, rates)
        q = _block(range(-3, 5), range(-3, 5), t, swapped)
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
    for t, s in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7)):
        r = _reach(rates, t + s)
        mids = range(min(starts) - r, max(starts) + r + 1)
        first, second = _block(starts, mids, t, rates), _block(mids, ends, s, rates)
        direct = _block(starts, ends, t + s, rates)
        for k, n in pairs:
            total = sum(first[k, m] * second[m, n] for m in range(k - r, k + r + 1))
            yield abs(total - direct[k, n])


def q10_triple_agreement(rates):
    for t in (0.5, 1.0, 2.0):
        series = reflecting.q10_series(t, rates)
        inverted = oracle.invert_laplace(lambda s: reflecting.pi_1n(s, 0, rates), t)
        yield abs(series - reflecting.q10_integral(t, rates))
        yield abs(series - inverted)


def origin_vs_oracle(rates):
    for t in (0.25, 1.0, 5.0):
        for k, closed in ((0, reflecting.q00), (1, reflecting.q10_series)):
            yield abs(closed(t, rates) - oracle.transient_distribution("reflected", rates, k, t)[1][0])


def bilateral_moments_vs_oracle(rates):
    # also covers transition_prob pointwise over the oracle's whole row: the
    # moments are closed forms of their own, and a slip that keeps the
    # symmetries leaves them untouched
    for k in (0, 1):
        for t in (0.5, 2.0):
            states, probs = oracle.transient_distribution("bilateral", rates, k, t)
            m1, var = _row_moments(states, probs)
            yield abs(bilateral.mean(k, t, rates) - m1)
            yield abs(bilateral.variance(k, t, rates) - var)
            for p, want in zip(bilateral.transition_probs(k, states.tolist(), t, rates), probs):
                yield abs(p - want)


def reflected_moments_vs_oracle(rates):
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
    for s in (0.1, 1.0, 10.0, *(z / t for t in (1e-3, 1.0, 1e3) for z, _ in reflecting._CONTOUR)):
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
