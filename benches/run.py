"""altbd benchmark: one closed-loop caller, one process, one thread.

    python3 benches/run.py --workload {verify,reflected-curves,long-horizon}
                           --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; altbd is imported from its `src`
directory.  The run

1. times five fresh interpreters from start to ready (import, then one
   small op of each kind) for `setup_s`;
2. generates the workload's op sequence from the seed and runs it, pass
   after pass, for about S seconds (at least one pass);
3. checks every result of every pass against an independent route;
4. prints every metric by name and unit, an environment record, and as the
   last line one JSON object: correct, attempted, failed and metrics.

The shared machine's speed drifts by up to half within minutes, so
every time in the end-to-end metrics is rescaled to a reference machine
speed, measured by a fixed calibration kernel run in the same process as
the work (see `speed.py`); the raw wall times are printed too.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run alternates untraced and traced passes and reports the per-module
metrics instead; the spans go to .bench_out/.  Exit code 0 means the run
completed (see `correct` for the checks); 2 means it could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# pinned before numpy loads, here and in every probe
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# per-module metrics by the last part of their name; the rest are ratios
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "p50_us": "us", "p90_us": "us", "paths_per_s": "1/s",
    "import_s": "s", "warmup_s": "s", "overhead_s": "s", "tail_pct": "%", "tail_ms": "ms",
    "samples": "count", "attempted": "count", "failed": "count",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def measure_setup(workload: str) -> list[dict]:
    """Start-to-ready seconds of SETUP_PROBES fresh interpreters, with their
    own import and warm-up split and the speed scale each measured once ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            scale = proc.stdout.read()
        if proc.returncode != 0 or not line or not scale:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        rec = json.loads(line)
        rec["ready_s"] = ready
        rec["scale"] = float(scale)
        samples.append(rec)
    return samples


def run_pass(ops, tracer=None):
    """Run the op sequence once, with calibration quanta sampled through it.

    Returns (seconds, records, scale): the ops' summed latency, per op
    (latency, result, error), and the factor that rescales this pass's
    times to the reference speed.  Latencies exclude the quanta.  A traced
    pass runs no quanta, so they add nothing to its spans, and its scale
    is 1 (its times stay raw).
    """
    import speed
    import workloads

    records = []
    with speed.Sampler(active=tracer is None) as sampler:
        for op in ops:
            span = tracer.open(f"op.{op.kind}") if tracer else None
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                result, error = workloads.EXECUTE[op.kind](op), None
            except Exception as exc:  # an op that raises is counted as failed, and the run goes on
                result, error = None, exc
            latency = time.perf_counter() - t0 - (sampler.spent - spent)
            if tracer:
                tracer.close(span)
            records.append((latency, result, error))
    scale = speed.scale(sampler.quanta) if sampler.quanta else 1.0
    return sum(rec[0] for rec in records), records, scale


def check_all(ops, passes, refs) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over every op of every pass."""
    import workloads

    attempted, failures = 0, []
    for records in passes:
        for op, (_, result, error) in zip(ops, records):
            attempted += 1
            fault = workloads.verdict(op, result, error, refs)
            if fault:
                failures.append(f"{op.label()}: {fault}")
    return attempted, len(failures), failures


def environment() -> dict:
    import click
    import numpy
    import scipy
    from importlib.metadata import version

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "altbd" / "__init__.py").is_file():
        print(f"altbd sources not found under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads
    from spans import Tracer, per_module, tail

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if not workloads.altbd.__file__.startswith(str(SRC)):
        print(f"imported altbd from {workloads.altbd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup = measure_setup(args.workload)
    workloads.warm_up(args.workload)
    speed.calibrate(speed.BLOCK_S)
    ops = workloads.generate(args.workload, args.seed)

    # traced runs alternate untraced and traced passes, so the overhead
    # compares passes taken under the same conditions.  A pass starts only
    # if, at the mean pass time so far, it ends within the measuring time.
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(ops))
        elapsed = time.perf_counter() - start
        if (traced or not tracer) and elapsed * (1 + 1 / (len(plain) + len(traced))) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = workloads.References()
    attempted, failed, failures = check_all(ops, [records for _, records, _ in plain + traced], refs)
    # times at the reference speed, pass by pass
    plain_s = [wall * k for wall, _, k in plain]
    latencies = [lat * k for _, records, k in plain for lat, _, _ in records]

    if tracer:
        sim_paths = sum(op.args["paths"] for op in ops if op.kind == "simulate")
        metrics = per_module(tracer.summary(), len(traced), workloads.CLI_KINDS, sim_paths)
        pct, value, samples = tail(latencies)
        metrics.update({
            "ops.tail_pct": pct,
            "ops.tail_ms": 1e3 * value,
            "ops.samples": samples,
            "setup.import_s": median(s["import_s"] for s in setup),
            "setup.warmup_s": median(s["warmup_s"] for s in setup),
            # raw wall times on both sides: traced passes run no quanta
            "trace.overhead_s": median(wall for wall, _, _ in traced) - median(wall for wall, _, _ in plain),
        })
        defects = workloads.known_defects(args.seed) if args.workload == "long-horizon" else []
        _, defect_records, _ = run_pass(defects)
        _, defects_failed, defect_failures = check_all(defects, [defect_records], refs)
        metrics["defects.attempted"] = len(defects)
        metrics["defects.failed"] = defects_failed
        for msg in defect_failures:
            print(f"known defect: {msg}")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(span_file)
        print(f"# {len(tracer.names)} spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": median(s["ready_s"] * s["scale"] for s in setup),
            "solve_s": median(plain_s),
            "op_p50_ms": 1e3 * median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }

    for msg in failures:
        print(f"FAILED {msg}")
    print(f"# raw wall time: setup {median(s['ready_s'] for s in setup):.4f} s, solve "
          f"{median(wall for wall, _, _ in plain):.4f} s; speed scale {median(k for _, _, k in plain):.4f}")
    print(f"# workload={args.workload} seed={args.seed} ops/pass={len(ops)} passes={len(plain)}"
          f"+{len(traced)} traced, attempted={attempted} failed={failed}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {_unit(name)}")
    print(f"# env {json.dumps(environment())}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
