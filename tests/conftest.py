import numpy as np
import pytest
from hypothesis import settings

from altbd import Rates, bilateral, transient_distribution

# one profile for every property test: examples come from a fixed seed, so
# every run tries the same cases, and no per-example deadline applies, since
# a series or oracle evaluation may take longer than hypothesis's default
settings.register_profile("altbd", deadline=None, derandomize=True)
settings.load_profile("altbd")


@pytest.fixture
def rates_12():
    return Rates(1.0, 2.0)


@pytest.fixture
def rates_21():
    return Rates(2.0, 1.0)


@pytest.fixture
def rates_22():
    return Rates(2.0, 2.0)


def oracle_moments(kind, rates, k, t, eps=1e-12):
    """Mean and variance from the uniformization oracle."""
    states, probs = transient_distribution(kind, rates, k, t, eps)
    states = states.astype(float)
    m1 = float(probs @ states)
    m2 = float(probs @ states**2)
    return m1, m2 - m1 * m1


def oracle_prob(kind, rates, k, n, t, eps=1e-12):
    states, probs = transient_distribution(kind, rates, k, t, eps)
    idx = np.searchsorted(states, n)
    if idx >= states.size or states[idx] != n:
        return 0.0
    return float(probs[idx])


def mis_index_cross_parity(monkeypatch):
    """Shift every cross-parity offset up by one (an odd target sums
    S_(m+1) + S_(m+2) in place of S_m + S_(m+1)): a transcription slip in
    the closed form that the cross checks must catch."""
    series = bilateral._series
    monkeypatch.setattr(
        bilateral, "_series", lambda rate, x, d, t, a, c: series(rate, x, d + (c is None), t, a, c)
    )
