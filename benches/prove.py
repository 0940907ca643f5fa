"""Repeat the benchmark over seeds and report each metric's spread.

    python3 benches/prove.py [--workloads W ...] [--seeds N] [--first-seed S]
                             [--seconds S] [--trace 0|1] [--record]

Runs `run.py` once per (workload, seed), in sequence, from the checkout
root.  For every metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With --record it writes the figures,
the environment record and the known-defect failures into
benches/baseline.json, under "end_to_end" or "per_layer" by --trace.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="write benches/baseline.json")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
              "workloads": {}}
    steady = True
    for workload in args.workloads:
        values, ok, env, defects = {}, True, None, []
        for seed in report["seeds"]:
            result, lines = run_once(workload, seed, args.seconds, args.trace)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            env = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# env ")), env)
            defects = [ln for ln in lines if ln.startswith("known defect: ")] or defects
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, q2, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[name] = {"median": median(vals), "q1": q1, "q3": q3, "spread": spread,
                             "unit": result["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag, steady = "  <-- above a third of its bound", False
            print(f"  {workload:17s} {name:40s} median {median(vals):.6g} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        report["workloads"][workload] = {"all_correct": ok, "metrics": summary}
        if defects:
            report["workloads"][workload]["known_defects"] = defects
        report["environment"] = env
    if args.record:
        path = BENCH_DIR / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline["per_layer" if args.trace else "end_to_end"] = report
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
