"""Set-up probe: one fresh interpreter going from start to ready.

    python3 benches/probe.py <src-dir> <workload>

Imports altbd and altbd.cli, runs one small untimed op of each kind the
workload uses, then prints one JSON line with the import and warm-up
seconds.  `run.py` times the whole probe, interpreter start included, up
to that line.  The probe then runs a block of calibration quanta and
prints the speed scale that rescales its set-up time (see `speed.py`).
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import altbd  # noqa: E402
import altbd.cli  # noqa: E402

t1 = time.perf_counter()

import workloads  # noqa: E402

workloads.warm_up(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}), flush=True)

import speed  # noqa: E402

# the first quanta of a fresh interpreter run cold
print(speed.scale(speed.calibrate(speed.BLOCK_S)[3:]), flush=True)
