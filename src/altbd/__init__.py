"""Transient distributions, moments and cross-checking oracles for
birth-death chains whose jump rate alternates with the parity of the state,
on the full integer lattice and reflected at zero."""

from .specfun import ConvergenceError, DomainError, SeriesOverflowError, bessel_i, hyp1f2
from .bilateral import PgfPair, Rates, TransitionQuery, mean, pgf, transition_prob, variance
from .reflecting import (
    LaplaceRoots,
    laplace_roots,
    p_even,
    pi_1n,
    q00,
    q10_integral,
    q10_series,
    r_mean,
    r_variance,
)
from .oracle import (
    SimConfig,
    SimResult,
    TruncatedChain,
    WindowTooSmallError,
    default_window,
    invert_laplace,
    simulate,
    transient_distribution,
    uniformize,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "SeriesOverflowError",
    "bessel_i",
    "hyp1f2",
    "PgfPair",
    "Rates",
    "TransitionQuery",
    "mean",
    "pgf",
    "transition_prob",
    "variance",
    "LaplaceRoots",
    "laplace_roots",
    "p_even",
    "pi_1n",
    "q00",
    "q10_integral",
    "q10_series",
    "r_mean",
    "r_variance",
    "SimConfig",
    "SimResult",
    "TruncatedChain",
    "WindowTooSmallError",
    "default_window",
    "invert_laplace",
    "simulate",
    "transient_distribution",
    "uniformize",
]
