"""Machine-speed calibration: a fixed kernel timed alongside the benchmark's ops.

The machine this benchmark runs on is a few cores of a shared host, and its
speed drifts by up to half within minutes, for the benchmark and for every
other program alike (and its cores need not run at the same speed).  Wall
times taken minutes apart then differ by more than any change worth
gating.  So the harness times a fixed calibration kernel, a quantum, in the
same process as the work it measures, and rescales that work's times by
`REFERENCE_QUANTUM_S / mean quantum time`: the times reported are seconds at
the speed where one quantum takes REFERENCE_QUANTUM_S.  The quantum uses no
altbd code, so a change to altbd moves the rescaled times exactly as it
moves the wall times.

During a pass, `Sampler` runs a quantum from a SIGALRM handler every
INTERVAL_S of wall time, so the quanta sample the machine evenly over the
pass, inside long ops too, and the harness takes their time out of the ops'
latencies.  A set-up probe runs a block of quanta after it is ready.

The quantum mixes the kinds of work altbd does: a pure-Python float loop,
scipy.special Bessel calls and numpy arithmetic on short arrays, and one
scipy `quad` integral.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
from scipy import integrate, special

# a round figure for one quantum on a 2-vCPU "Intel(R) Xeon(R) Processor"
# machine, where it took 1.2 to 2.2 ms as the shared host's load changed
REFERENCE_QUANTUM_S = 2.0e-3
# wall time between two quanta of a pass (each takes about a twentieth of it)
INTERVAL_S = 0.04
# calibration time of a block: the warm-up, and each set-up probe's
BLOCK_S = 0.15

_X = np.linspace(0.1, 5.0, 64)


def _integrand(u: float) -> float:
    return math.exp(-u) * math.cos(3.0 * u)


def quantum() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += math.exp(-i * 1e-3) * math.cos(i)
    for k in range(40):
        s += float(special.ive(k % 9, _X).sum()) + float(np.exp(-_X * k).sum())
    s += integrate.quad(_integrand, 0.0, 10.0)[0]
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list[float]:
    """Quantum times, run one after another until they add up to `seconds`
    (at least one quantum)."""
    times = [quantum()]
    while sum(times) < seconds:
        times.append(quantum())
    return times


def scale(quanta: list[float]) -> float:
    """The factor that takes times measured alongside `quanta` to the
    reference speed."""
    return REFERENCE_QUANTUM_S * len(quanta) / sum(quanta)


class Sampler:
    """Runs a quantum every INTERVAL_S of wall time while active.

    `spent` is the handler's total time, which the caller subtracts from the
    latencies it measures.  Python runs the handler in the main thread
    between bytecodes, so no thread or process is started.  An inactive
    sampler runs nothing and leaves `quanta` empty.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.quanta: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.quanta.append(quantum())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if not self.active:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.quanta:  # a pass shorter than one interval
            self.quanta.append(quantum())
