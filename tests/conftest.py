import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from altbd import Rates, bilateral, transient_distribution

# one profile for every property test: examples come from a fixed seed, so
# every run tries the same cases, and no per-example deadline applies, since
# a series or oracle evaluation may take longer than hypothesis's default
settings.register_profile("altbd", deadline=None, derandomize=True)
settings.load_profile("altbd")


def log_uniform(lo, hi):
    """Floats in [lo, hi], uniform in their logarithm."""
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


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
    the closed form that the cross checks must catch.  It is made where each
    target is reduced to its series key, which blocks, rows and single calls share."""
    key = bilateral._sum_key

    def shifted(d, same):
        m, same = key(d, same)
        return m + (not same), same

    monkeypatch.setattr(bilateral, "_sum_key", shifted)
