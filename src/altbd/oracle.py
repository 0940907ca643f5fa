"""Independent ground-truth engines for cross-checking the closed forms.

Three unrelated numerical routes live here so that no closed-form result is
ever validated against itself:

* `uniformize` - transient distributions as a Poisson mixture of powers of
  the uniformized jump operator, stepped as a three-diagonal numpy stencil,
  on a window no wider than the walk can reach: the lesser of the Poisson
  jump bound R of the sum and a displacement bound of order sqrt(R), past
  which at most eps/2 of the mass leaks (Azuma-Hoeffding);
* `simulate` - an exact event-driven simulator stepping all paths together
  as arrays, giving empirical distributions and moments with standard errors;
* `invert_laplace` - Euler-summation numerical inversion of a Laplace
  transform along the Bromwich line: one fixed table of nodes and weights,
  built at import and summed in plain Python, sharing no code with the
  contour sum of `reflecting` that the reflected closed forms use.

The oracles import no closed-form module: the rates, argument checks and
typed errors they share with the closed forms live in `specfun`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, Rates, SeriesOverflowError, WindowTooSmallError, _check_time, _state

__all__ = [
    "TruncatedChain",
    "SimConfig",
    "SimResult",
    "uniformize",
    "transient_distribution",
    "default_window",
    "simulate",
    "invert_laplace",
]

KINDS = ("bilateral", "reflected")


def _check_kind(kind: str) -> None:
    """Raise DomainError unless `kind` names one of the two chains."""
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class TruncatedChain:
    """A finite window [lo, hi] of one of the two chains.

    `kind` selects the generator: "bilateral" jumps both ways everywhere;
    "reflected" lives on the non-negative integers with state 0 jumping only
    upward (at rate lam, half its interior even-state exit rate).  Rows of
    the implied generator sum to zero except where truncation leaks mass.
    """

    kind: str
    lo: int
    hi: int
    rates: Rates

    def __post_init__(self):
        _check_kind(self.kind)
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _state(name, getattr(self, name)))
        if self.lo > self.hi:
            raise DomainError(f"empty window [{self.lo}, {self.hi}]")
        if self.kind == "reflected" and self.lo != 0:
            raise DomainError("reflected chains must be truncated at lo = 0")

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


@dataclass(frozen=True)
class SimConfig:
    """Path count, seed, and `horizon`, the latest sample time `simulate` accepts."""

    paths: int
    horizon: float
    seed: int = 0

    def __post_init__(self):
        for name in ("paths", "seed"):
            object.__setattr__(self, name, _state(name, getattr(self, name)))
        if self.paths < 1:
            raise DomainError(f"paths must be >= 1, got {self.paths}")
        if self.paths > 2**63 - 1:
            raise DomainError("paths must be at most 2**63 - 1, the largest count an int64 array can index")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")


@dataclass
class SimResult:
    """Empirical summary of a batch of simulated paths.

    `states` holds every state some path visited at a sample time, in
    increasing order.  `pmf[i, j]` is the estimated probability of
    `states[j]` at `times[i]`, and `pmf_se[i, j]` its binomial standard error;
    both are float arrays of shape (len(times), len(states)).  Mean and
    variance arrays line up with `times`, each with its standard error.
    """

    times: np.ndarray
    pmf: np.ndarray
    pmf_se: np.ndarray
    mean: np.ndarray
    mean_se: np.ndarray
    var: np.ndarray
    var_se: np.ndarray
    states: np.ndarray


def _uniformized_step(chain: TruncatedChain):
    """v -> vP, P = I + Q/Lambda three-diagonal on the window padded with one
    absorbing cell past each edge that can leak: both ends of the bilateral
    window, and the top end of the reflected one, whose state 0 does not
    step down.  The padded vector keeps its mass, and the pads hold what
    left the window; interior cells are stepped exactly as without them."""
    rates = chain.rates
    reflected = chain.kind == "reflected"
    states = np.arange(chain.lo if reflected else chain.lo - 1, chain.hi + 2)
    jump = np.where(states % 2 == 0, rates.lam, rates.mu) / uniformization_rate(rates)
    if not reflected:
        jump[0] = 0.0
    jump[-1] = 0.0
    stay = 1.0 - 2.0 * jump
    if reflected:
        stay[0] = 1.0 - jump[0]  # the zero state only jumps upward, at half its interior exit rate
    up, down = jump[:-1], jump[1:]  # P[i, i+1] from source state i, P[i+1, i] from source state i+1

    def step(v: np.ndarray) -> np.ndarray:
        w = stay * v
        w[1:] += up * v[:-1]
        w[:-1] += down * v[1:]
        return w

    return step


def uniformization_rate(rates: Rates) -> float:
    return 2.0 * max(rates.lam, rates.mu)


def default_window(kind: str, rates: Rates, k: int, t: float, eps: float = 1e-12) -> tuple[int, int]:
    """The window `uniformize` needs at (t, eps) from state k.

    Returns (k - r, k + r), or (0, k + r) on the reflected chain, with r the
    lesser of two reaches.  The jump reach R is the largest Poisson jump
    count whose weight the uniformization sum at (Lambda t, eps) applies; no
    walk of at most R jumps steps past it.  The displacement reach is
    d = ceil(sqrt(2 R ln(4/eps))), or 2d on the reflected chain: each
    uniformized step is -1, 0 or +1 with up and down equally likely, so the
    walk is a martingale and the Azuma-Hoeffding maximal inequality gives
    P(max_{j<=R} |S_j - k| >= d) <= 2 exp(-d^2/2R) = eps/2; the reflected
    walk is that martingale plus a Skorokhod regulator, so it stays below
    k + 2 max_j |S_j - k|.  At most eps/2 of the mass thus leaks past the
    window, and each entry differs from the untruncated row's by at most
    eps/2.  Raises DomainError unless 0 < eps < 1 and `kind` is one of KINDS.
    """
    _check_kind(kind)
    k = _state("k", k)
    _check_eps(eps)
    _check_time(t)
    left, weights = _poisson_weights(uniformization_rate(rates) * t, eps)
    jumps = left + weights.size - 1
    spread = math.ceil(math.sqrt(2.0 * jumps * math.log(4.0 / eps)))
    reach = min(jumps, 2 * spread if kind == "reflected" else spread)
    if kind == "reflected":
        return 0, k + reach
    return k - reach, k + reach


def _check_eps(eps: float) -> None:
    """Raise DomainError unless 0 < eps < 1 (NaN included)."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")


# the widest reach of the Poisson weights, so at most 2^25 + 1 of them: it is
# passed at Lambda t = 1.95e12, where `uniformize` could never take its steps
_MAX_WEIGHT_REACH = 2**24


def _poisson_reach(rate: float) -> float:
    """How far either side of the mode `_poisson_weights` builds its range."""
    return 12.0 * math.sqrt(rate) + 30.0


def _poisson_weights(rate: float, eps: float) -> tuple[int, np.ndarray]:
    """Poisson(rate) pmf on [left, left + len(weights)), each omitted tail below eps/4.

    Built outward from the mode by the ratio recurrence
    w(m+1) = w(m) rate/(m+1) and w(m-1) = w(m) m/rate on a range of 12
    standard deviations plus 30 either side, which bounds the tails far
    below eps, then trimmed and renormalized to sum to one (Fox & Glynn,
    CACM 31, 1988).  No term is formed as exp(m log rate - rate - log m!),
    whose rounding at high rates leaks more mass than eps allows.  Raises
    DomainError, before any array is built, where the reach passes
    _MAX_WEIGHT_REACH.
    """
    if rate == 0.0:
        return 0, np.ones(1)
    reach = _poisson_reach(rate)
    if not reach <= _MAX_WEIGHT_REACH:  # also at rate = inf
        raise DomainError(f"Poisson weights at Lambda t = {rate!r} are too many to build")
    mode, reach = int(rate), math.ceil(reach)
    lo = max(mode - reach, 0)
    down = np.cumprod(np.arange(mode, lo, -1) / rate)[::-1]
    up = np.cumprod(rate / np.arange(mode + 1, mode + reach + 1))
    w = np.concatenate((down, [1.0], up))
    cum = np.cumsum(w / w.sum())
    left = int(np.searchsorted(cum, eps / 4.0))
    right = int(np.searchsorted(cum, 1.0 - eps / 4.0))
    kept = w[left : right + 1]
    return lo + left, kept / kept.sum()


# uniformize's refusal thresholds.  A window of 2^22 states keeps each stepped vector
# within 32 MiB.  A state-step costs 3.4-5 ns on one Xeon core (windows of 1,000 to
# 3,000 states at t = 1000 and 10,000), so a refused run would take minutes at least
_MAX_WINDOW_STATES = 2**22
_MAX_STATE_STEPS = 3e10


def uniformize(chain: TruncatedChain, k: int, t: float, eps: float = 1e-12) -> np.ndarray:
    """Transient distribution of the truncated chain at time t, started at k.

    Poisson-mixes powers of the uniformized operator at rate
    Lambda = 2 max(lam, mu); the Poisson weights omit tails of at most eps/2
    in total and sum to one.  The mass that leaves the window is measured
    in absorbing cells just past its edges (`_uniformized_step`), and their
    Poisson-weighted mass above eps raises WindowTooSmallError.  Rounding
    drift of the stencil, about Lambda t 1e-16 in all, is not counted as
    leaked.  Returns the probability vector aligned with `chain.states`,
    the cells excluded.  Raises DomainError unless 0 < eps < 1, and, before
    any array is built, where the window has more than _MAX_WINDOW_STATES
    states or its states times the last step the Poisson weights can reach,
    Lambda t + `_poisson_reach`, pass _MAX_STATE_STEPS.
    """
    k = _state("k", k)
    _check_eps(eps)
    _check_time(t)
    if not (chain.lo <= k <= chain.hi):
        raise DomainError(f"initial state {k} outside window [{chain.lo}, {chain.hi}]")
    n = chain.hi - chain.lo + 1
    if n > _MAX_WINDOW_STATES:
        raise DomainError(
            f"window [{chain.lo}, {chain.hi}] has {n} states, past uniformize's cap of {_MAX_WINDOW_STATES}"
        )
    rate = uniformization_rate(chain.rates) * t
    steps = rate + _poisson_reach(rate)
    if not steps * n <= _MAX_STATE_STEPS:  # also at rate = inf
        raise DomainError(
            f"uniformize at Lambda t = {rate!r} takes up to {steps:.3g} Poisson steps of a {n}-state window, "
            f"{steps * n:.3g} state-steps, past its cap of {_MAX_STATE_STEPS:.0e}"
        )
    first = 0 if chain.kind == "reflected" else 1  # index of chain.lo past the low cell
    v = np.zeros(first + n + 1)
    v[first + k - chain.lo] = 1.0
    if t == 0.0:
        return v[first : first + n]
    step = _uniformized_step(chain)
    left, weights = _poisson_weights(rate, eps)
    for _ in range(left):
        v = step(v)
    acc = weights[0] * v
    for w in weights[1:]:
        v = step(v)
        acc = acc + w * v
    leaked = acc[:first].sum() + acc[-1]
    if leaked > eps:
        raise WindowTooSmallError(
            f"leaked mass {leaked:.3e} exceeds eps={eps:.3e} on window [{chain.lo}, {chain.hi}]"
        )
    return acc[first : first + n]


def transient_distribution(
    kind: str, rates: Rates, k: int, t: float, eps: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """(states, probabilities) at time t: one `uniformize` on `default_window`,
    so within eps/2 of the untruncated row entry by entry."""
    chain = TruncatedChain(kind, *default_window(kind, rates, k, t, eps), rates)
    probs = uniformize(chain, k, t, eps)  # first: it refuses a window too wide for `chain.states`
    return chain.states, probs


def _exit_rates(kind: str, rates: Rates, states: np.ndarray) -> np.ndarray:
    """Jump rate out of each state; the reflected zero state only steps up, at lam."""
    out = np.where(states % 2 == 0, 2.0 * rates.lam, 2.0 * rates.mu)
    if kind == "reflected":
        out[states == 0] = rates.lam
    return out


# simulate's refusal threshold on its expected jump count.  On one 2.1 GHz Xeon core the
# count advances about 1e5 a second for one path and 4e7 for 1e5 paths together, so a
# refused call would run for minutes at least
_MAX_JUMPS = 1e10


def _expected_jumps(rates: Rates, k: int, t: float) -> float:
    """Expected jump count of one bilateral path from k over [0, t], an upper bound
    for the reflected chain.

    Every bilateral step is +-1 and independent of the holding times, so the
    count is the displacement variance: (4 lam mu/a) t + c_k (1 - e^(-2at)),
    a = lam + mu, with c_k = lam (lam - mu)/a^2 for even k and mu (mu - lam)/a^2
    for odd k.  The reflected zero state exits at lam < 2 lam, so a reflected
    path coupled to a bilateral one holds at least as long and jumps at most
    as often.  Written out here, not taken from `bilateral.variance`, so the
    simulator shares no code with a closed form it checks.
    """
    lam, mu = rates.lam, rates.mu
    a = rates.total
    c = lam / a * ((lam - mu) / a) if k % 2 == 0 else mu / a * ((mu - lam) / a)
    # lam (mu/a) <= min(lam, mu), so no inf * 0 makes the count NaN
    return 4.0 * (lam * (mu / a)) * t + c * -math.expm1(-2.0 * a * t)


def simulate(
    kind: str, rates: Rates, k: int, cfg: SimConfig, sample_times
) -> SimResult:
    """Monte Carlo estimate of the chain's law at each sample time.

    Exact event-driven (Gillespie) simulation of all cfg.paths paths at
    once, drawn from one generator seeded with cfg.seed.  For each sample
    time in turn, every path whose next jump falls at or before it takes a
    +-1 step and draws its next exponential holding time, as arrays over
    those paths, until no path is due; the states then held are that time's
    sample.  The result is a pure function of the arguments.  A call whose
    expected jump count, paths times `_expected_jumps` at the last sample
    time, passes `_MAX_JUMPS` raises DomainError before any draw, as does
    a start k with |k| > 2**62, which the int64 state array cannot hold
    through the walk.
    """
    _check_kind(kind)
    k = _state("k", k)
    if kind == "reflected" and k < 0:
        raise DomainError("reflected chain starts at a non-negative state")
    # states are int64; a path from 2**62 needs over 4e18 jumps, far past _MAX_JUMPS, to wrap
    if abs(k) > 2**62:
        raise DomainError(f"k must lie in [-2**62, 2**62] for the int64 state array of simulate, got {k}")
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        raise DomainError("sample_times must be non-empty")
    if not np.all((times >= 0.0) & (times <= cfg.horizon)):  # NaN fails both
        raise DomainError("sample_times must lie in [0, horizon]")
    if np.any(np.diff(times) < 0.0):
        raise DomainError("sample_times must be nondecreasing")
    jumps = _expected_jumps(rates, k, float(times[-1])) * cfg.paths
    if jumps > _MAX_JUMPS:
        raise DomainError(
            f"simulate expects up to {jumps:.3g} jumps ((4 lam mu/a) t + c_k (1 - e^(-2at)) per path, "
            f"times paths, at the last sample time t={float(times[-1])!r}), past its cap of {_MAX_JUMPS:.0e}"
        )

    rng = np.random.default_rng(cfg.seed)
    state = np.full(cfg.paths, k, dtype=np.int64)
    next_jump = rng.standard_exponential(cfg.paths) / _exit_rates(kind, rates, state)
    samples = np.empty((cfg.paths, times.size), dtype=np.int64)
    for j, t in enumerate(times):
        due = np.flatnonzero(next_jump <= t)
        while due.size:
            moved = state[due] + 2 * rng.integers(0, 2, size=due.size) - 1
            if kind == "reflected":
                moved[moved < 0] = 1  # the zero state only steps up
            state[due] = moved
            next_jump[due] += rng.standard_exponential(due.size) / _exit_rates(kind, rates, moved)
            due = due[next_jump[due] <= t]
        samples[:, j] = state

    n = float(cfg.paths)
    mean = samples.mean(axis=0)
    centred = samples - mean
    m2 = (centred**2).mean(axis=0)
    m4 = (centred**4).mean(axis=0)
    var = m2 * n / max(n - 1.0, 1.0)
    mean_se = np.sqrt(var / n)
    var_se = np.sqrt(np.maximum(m4 - m2 * m2, 0.0) / n)

    states = np.unique(samples)
    counts = np.stack([np.bincount(np.searchsorted(states, samples[:, j]), minlength=states.size)
                       for j in range(times.size)])
    pmf = counts / n
    return SimResult(
        times=times,
        pmf=pmf,
        pmf_se=np.sqrt(pmf * (1.0 - pmf) / n),
        mean=mean,
        mean_se=mean_se,
        var=var,
        var_se=var_se,
        states=states,
    )


# Abate & Whitt's Euler rule of order M = 20 (ORSA J. Computing 7, 1995), built once:
# the 2M + 1 Bromwich nodes M ln(10)/3 + i pi k, k = 0..2M, with weights (-1)^k xi_k,
# where xi_0 = 1/2, xi_k = 1 up to k = M and xi_(M+j) = 2^-M sum_(i>=j) C(M, i), each
# exact in floats.  Discretization error about 10^(-0.6 M), roundoff amplification
# near 10^(M/3) machine epsilon
_EULER_TERMS = 20
_EULER_RULE = tuple(
    (complex(_EULER_TERMS * math.log(10.0) / 3.0, math.pi * k), (-1) ** k * xi)
    for k, xi in enumerate(
        [0.5, *[1.0] * _EULER_TERMS]
        + [sum(math.comb(_EULER_TERMS, i) for i in range(j, _EULER_TERMS + 1)) / 2**_EULER_TERMS
           for j in range(1, _EULER_TERMS + 1)]
    )
)


def invert_laplace(transform, t: float) -> float:
    """Euler-summation inversion of a Laplace transform at time t > 0.

    Implements the Abate-Whitt Euler scheme: a Bromwich-line trapezoid sum
    at abscissa M ln(10)/3 with alternating signs, binomially averaged over
    the last M partial sums, M = 20: 10^(M/3)/t times the sum over the
    (node, weight) pairs of `_EULER_RULE` of weight times
    Re transform(node/t).  The transform is called at 2M+1 Python complex
    points with positive real part.  Raises SeriesOverflowError, with terms
    the number of points, where the sum is not finite.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    total = float(10.0 ** (_EULER_TERMS / 3.0) / t * sum(w * transform(z / t).real for z, w in _EULER_RULE))
    if not math.isfinite(total):
        raise SeriesOverflowError(f"Laplace inversion overflowed at t={t!r}", total, len(_EULER_RULE))
    return total
