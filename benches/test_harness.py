"""Self-tests of the benchmark harness, kept out of the tier-1 suite.

    python3 -m pytest benches/test_harness.py -q
"""

import random
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import workloads  # noqa: E402
from altbd.specfun import ConvergenceError  # noqa: E402
from spans import Tracer, per_module, tail  # noqa: E402
from workloads import Op, References, verdict  # noqa: E402


def _mix(ops):
    # reflected-curves fixes each op's start state; long-horizon draws it
    return Counter((op.kind, op.lam, op.mu, op.args.get("method"), op.args.get("chain"),
                    op.args.get("start") if op.kind in ("reflect", "moments", "p_even") else None)
                   for op in ops)


@pytest.mark.parametrize("workload", ["reflected-curves", "long-horizon"])
def test_held_out_seed_has_the_same_op_mix(workload):
    a = workloads.generate(workload, 1)
    b = workloads.generate(workload, 987654)
    assert _mix(a) == _mix(b)
    assert [op.args for op in a] != [op.args for op in b]
    assert [op.args for op in a] == [op.args for op in workloads.generate(workload, 1)]


def test_strata_keep_their_sum_for_every_seed():
    draws = [workloads.strata(random.Random(s), 5, 10.0, 20.0, 9) for s in range(20)]
    assert {round(sum(v), 6) for v in draws} == {75.0}
    assert len({v[0] for v in draws}) == 20
    assert all(10.0 + 2.0 * i <= v[i] < 12.0 + 2.0 * i for v in draws for i in range(5))


def test_checker_flags_a_perturbed_value():
    op = Op("p_even", 1.0, 2.0, {"start": 1, "t": 2.0})
    value = workloads.EXECUTE["p_even"](op)
    refs = References()
    assert verdict(op, value, None, refs) is None
    assert verdict(op, value + 1e-6, None, refs) is not None


def test_checker_flags_a_perturbed_cli_row():
    op = Op("reflect", 2.0, 1.0, {"start": 0, "method": "series", "stop": 3.0, "count": 4})
    code, text = workloads.EXECUTE["reflect"](op)
    refs = References()
    assert verdict(op, (code, text), None, refs) is None
    lines = text.splitlines()
    t, q = lines[-1].split(",")
    lines[-1] = f"{t},{float(q) * (1 + 1e-5)!r}"
    assert verdict(op, (code, "\n".join(lines)), None, refs) is not None
    assert verdict(op, (3, text), None, refs) is not None


def test_checker_flags_a_raised_convergence_error():
    op = Op("q10_series", 1.0, 2.0, {"t": 100.0})
    err = ConvergenceError("q10 series did not converge", float("nan"), 10_000)
    assert "ConvergenceError" in verdict(op, None, err, References())


def test_known_defects_fail_at_the_first_of_them():
    op = workloads.known_defects(1)[0]
    with pytest.raises(ConvergenceError):
        workloads.EXECUTE[op.kind](op)


def test_verify_checker_wants_the_default_battery():
    header = "check,lambda,mu,max_residual,tolerance,status"
    rows = [f"{c},{lam},{mu},0,{tol},pass" for c, lam, mu, tol in sorted(workloads.VERIFY_ROWS)]
    op = Op("verify")
    assert verdict(op, (0, "\n".join([header, *rows])), None, References()) is None
    assert verdict(op, (0, "\n".join([header, *rows[1:]])), None, References()) is not None
    failing = rows[0].replace(",0,", ",1,", 1)
    assert verdict(op, (0, "\n".join([header, failing, *rows[1:]])), None, References()) is not None


def test_tracer_self_time_and_restore():
    from altbd import reflecting

    orig = reflecting.q00
    tracer = Tracer()
    tracer.install()
    try:
        assert reflecting.q00 is not orig
        reflecting.r_mean(0, 1.0, reflecting.Rates(1.0, 2.0))
    finally:
        tracer.uninstall()
    assert reflecting.q00 is orig
    summary = tracer.summary()
    m = per_module(summary, 1, workloads.CLI_KINDS, 0)
    assert m["reflecting.r_mean.calls"] == 1
    assert m["reflecting.q_evals_per_moment"] == m["reflecting.q00.calls"] > 0
    assert summary["reflecting.r_mean"]["self_s"] < sum(summary["reflecting.r_mean"]["durations"])


def test_tail_leaves_ten_samples_above():
    pct, value, n = tail([float(i) for i in range(100)])
    assert (pct, value, n) == (90.0, 89.0, 100)


def test_sampler_runs_quanta_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.quanta) >= 5
    assert sampler.spent >= sum(sampler.quanta)
    assert speed.scale([speed.REFERENCE_QUANTUM_S / 2] * 3) == pytest.approx(2.0)


def test_inactive_sampler_runs_nothing():
    with speed.Sampler(active=False) as sampler:
        time.sleep(0.1)
    assert sampler.quanta == [] and sampler.spent == 0.0
