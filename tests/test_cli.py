import gc
import io
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from altbd import bilateral, cli, oracle, reflecting, verify
from altbd.bilateral import Rates, TransitionQuery, transition_prob, transition_probs
from altbd.specfun import ConvergenceError
from altbd.verify import DEFAULT_VERIFY_PAIRS, PAIR_CHECKS

from conftest import mis_index_cross_parity, oracle_moments


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestProb:
    def test_grid_and_bounds(self, runner):
        result = runner.invoke(
            cli.main,
            ["prob", "--lambda", "1", "--mu", "2", "--from", "-2", "--to", "1", "--t", "0:5:101"],
        )
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["t", "p"]
        assert len(rows) == 101
        values = [float(r[1]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[0] == 0.0  # distinct states at t = 0

    def test_rate_swap_symmetry_row_by_row(self, runner):
        a = runner.invoke(
            cli.main,
            ["prob", "--lambda", "1", "--mu", "2", "--from", "-2", "--to", "1", "--t", "0:5:21"],
        )
        b = runner.invoke(
            cli.main,
            ["prob", "--lambda", "2", "--mu", "1", "--from", "1", "--to", "-2", "--t", "0:5:21"],
        )
        _, rows_a = parse_csv(a.output)
        _, rows_b = parse_csv(b.output)
        for ra, rb in zip(rows_a, rows_b):
            assert float(ra[1]) == pytest.approx(float(rb[1]), abs=1e-12)

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(cli.main, ["prob", "--lambda", "1", "--mu", "2"])
        assert result.exit_code == 2

    def test_decreasing_grid_rejected(self, runner):
        result = runner.invoke(
            cli.main,
            ["prob", "--lambda", "1", "--mu", "2", "--from", "0", "--to", "0", "--t", "5:1:10"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("option, value", [("--lambda", "-1"), ("--mu", "0"), ("--lambda", "nan"), ("--mu", "inf")])
    def test_invalid_rate_is_usage_error(self, runner, option, value):
        rates = {"--lambda": "1", "--mu": "2", option: value}
        result = runner.invoke(
            cli.main,
            ["prob", *(w for kv in rates.items() for w in kv), "--from", "0", "--to", "1", "--t", "0:1:3"],
        )
        assert result.exit_code == 2
        assert option in result.output and "strictly positive and finite" in result.output

    @pytest.mark.parametrize(
        "grid, message",
        [("0:1", "is not of the form"), ("0:1:1.5", "is not of the form"), ("0:1:0", "count must be >= 1")],
    )
    def test_malformed_grid_rejected(self, runner, grid, message):
        result = runner.invoke(
            cli.main, ["prob", "--lambda", "1", "--mu", "2", "--from", "0", "--to", "0", "--t", grid]
        )
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:1", "inf:inf:1"])
    def test_non_finite_grid_rejected(self, runner, grid):
        # a usage error before any numerics run, not a numpy warning followed
        # by a numeric failure
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                cli.main, ["reflect", "--lambda", "1", "--mu", "2", "--from", "0", "--t", grid]
            )
        assert result.exit_code == 2
        assert "times must be finite" in result.output
        assert "Warning" not in result.output
        assert not caught

    def test_numeric_failure_exit_code(self, runner):
        # at (lambda+mu)t = 60000 the series peaks past its 10,000-term cap
        result = runner.invoke(
            cli.main,
            ["prob", "--lambda", "1", "--mu", "2", "--from", "0", "--to", "0",
             "--t", "20000:20000:1"],
        )
        assert result.exit_code == 3
        assert "did not converge" in result.output

    def test_out_file(self, runner, tmp_path):
        dest = tmp_path / "table.csv"
        result = runner.invoke(
            cli.main,
            ["prob", "--lambda", "1", "--mu", "2", "--from", "0", "--to", "0",
             "--t", "0:1:3", "--out", str(dest)],
        )
        assert result.exit_code == 0
        assert dest.exists()
        header, rows = parse_csv(dest.read_text())
        assert header == ["t", "p"] and len(rows) == 3


@pytest.mark.parametrize(
    "start, stop, count",
    # the last step underflows to 0, where numpy scales i/(count - 1) by the span instead
    [(0.0, 5.0, 101), (0.5, 2.0, 4), (3.0, 3.0, 1), (0.0, 1e-323, 5)],
)
def test_grid_is_numpy_linspace(start, stop, count):
    assert cli._linspace(start, stop, count) == np.linspace(start, stop, count).tolist()


class TestPgf:
    def test_total_probability_at_unit_z(self, runner):
        result = runner.invoke(
            cli.main, ["pgf", "--lambda", "2", "--mu", "1", "--from", "1", "--z", "1.0", "--t", "0:3:7"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        for row in rows:
            assert float(row[3]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_z(self, runner):
        result = runner.invoke(
            cli.main, ["pgf", "--lambda", "2", "--mu", "1", "--from", "1", "--z", "-1", "--t", "0:3:7"]
        )
        assert result.exit_code == 2
        assert "--z" in result.output and "strictly positive and finite" in result.output


def _record_contour_calls(monkeypatch):
    """The list of (k, t) that every later reflecting._contour call appends to."""
    calls, contour = [], reflecting._contour

    def counted(k, t, rates):
        calls.append((k, t))
        return contour(k, t, rates)

    monkeypatch.setattr(reflecting, "_contour", counted)
    return calls


class TestMoments:
    def test_bilateral_mean_constant(self, runner):
        result = runner.invoke(
            cli.main,
            ["moments", "--lambda", "1.5", "--mu", "0.5", "--from", "-3", "--t", "0:4:9"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert all(float(r[1]) == -3.0 for r in rows)
        assert float(rows[0][2]) == 0.0  # variance vanishes at t = 0

    def test_reflected(self, runner):
        result = runner.invoke(
            cli.main,
            ["moments", "--process", "reflected", "--lambda", "1", "--mu", "2",
             "--from", "1", "--t", "0:2:3"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 0.0
        assert float(rows[-1][1]) > 1.0

    def test_reflected_past_the_series_reach(self, runner):
        # (lam+mu) t reaches 3000, far past the q-series' reach of about 690
        result = runner.invoke(
            cli.main,
            ["moments", "--process", "reflected", "--lambda", "1", "--mu", "2",
             "--from", "1", "--t", "0:1000:3"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [float(r[0]) for r in rows] == [0.0, 500.0, 1000.0]
        for t, m, var in rows:
            want_m, want_var = oracle_moments("reflected", bilateral.Rates(1.0, 2.0), 1, float(t))
            assert float(m) == pytest.approx(want_m, abs=1e-6)
            assert float(var) == pytest.approx(want_var, abs=1e-6)

    def test_reflected_one_contour_sum_per_point(self, runner, monkeypatch):
        # mean and variance share one _contour call per grid point, and
        # the rows are exactly those of r_mean and r_variance
        calls = _record_contour_calls(monkeypatch)
        args = ["moments", "--process", "reflected", "--lambda", "1", "--mu", "2", "--from", "1", "--t", "0:20:41"]
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        assert len(calls) == 41 and len(set(calls)) == 41
        rates = bilateral.Rates(1.0, 2.0)
        _, rows = parse_csv(result.output)
        for t, m, var in rows:
            assert m == cli._fmt(reflecting.r_mean(1, float(t), rates))
            assert var == cli._fmt(reflecting.r_variance(1, float(t), rates))

    def test_reflected_start_must_be_boundary_adjacent(self, runner):
        result = runner.invoke(
            cli.main,
            ["moments", "--process", "reflected", "--lambda", "1", "--mu", "2",
             "--from", "4", "--t", "0:2:3"],
        )
        assert result.exit_code == 2


class TestReflect:
    def test_q00_one_contour_sum_per_point(self, runner, monkeypatch):
        # q00 takes one _contour call per grid point past t = 0, where it returns 1
        # before the contour, and the rows are exactly those of q00
        calls = _record_contour_calls(monkeypatch)
        args = ["reflect", "--lambda", "1", "--mu", "2", "--from", "0", "--t", "0:20:41"]
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        assert len(calls) == 40 and len(set(calls)) == 40 and all(k == 0 and t > 0.0 for k, t in calls)
        rates = bilateral.Rates(1.0, 2.0)
        _, rows = parse_csv(result.output)
        assert len(rows) == 41
        for t, q in rows:
            assert q == cli._fmt(reflecting.q00(float(t), rates))

    def test_q00_initial_row(self, runner):
        result = runner.invoke(
            cli.main, ["reflect", "--lambda", "1", "--mu", "2", "--from", "0", "--t", "0:2:5"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0][1]) == 1.0

    def test_overflow_exit_code(self, runner):
        # q10_series refuses past (lam+mu) t = 713.98, where I_0 overflows; q00 has no such reach
        result = runner.invoke(
            cli.main, ["reflect", "--lambda", "1", "--mu", "2", "--from", "1", "--t", "240:240:1"]
        )
        assert result.exit_code == 3
        assert "overflowed" in result.output

    def test_integral_from_origin_is_usage_error(self, runner):
        result = runner.invoke(
            cli.main,
            ["reflect", "--lambda", "1", "--mu", "2", "--from", "0", "--t", "0:1:3", "--method", "integral"],
        )
        assert result.exit_code == 2
        assert "--from 1" in result.output

    def test_methods_agree(self, runner):
        out = {}
        for method in ("series", "integral"):
            result = runner.invoke(
                cli.main,
                ["reflect", "--lambda", "2", "--mu", "1", "--from", "1",
                 "--t", "0.5:2:4", "--method", method],
            )
            assert result.exit_code == 0
            _, rows = parse_csv(result.output)
            out[method] = [float(r[1]) for r in rows]
        assert np.allclose(out["series"], out["integral"], atol=1e-7)


    def test_integral_grid_from_zero_takes_one_rule(self, runner, monkeypatch):
        calls = []
        real = reflecting._q10_grid

        def counted(stop, steps, rates):
            calls.append((stop, steps))
            return real(stop, steps, rates)

        monkeypatch.setattr(reflecting, "_q10_grid", counted)
        result = runner.invoke(cli.main, ["reflect", "--lambda", "1", "--mu", "2", "--from", "1",
                                          "--t", "0:5:11", "--method", "integral"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert calls == [(5.0, 10)]
        assert float(rows[0][1]) == 0.0
        rates = Rates(1.0, 2.0)
        for t, q in rows:
            assert abs(float(q) - reflecting.q10_integral(float(t), rates)) <= 1e-10

    @pytest.mark.parametrize("grid", [f"0:1:{reflecting._QUAD_MAX_PANELS + 2}", "5:20:4"],
                             ids=["past-the-cap", "offset"])
    def test_integral_grid_prints_one_time_values(self, runner, grid):
        # a grid past the panel cap, or one that does not start at 0, takes each time alone
        result = runner.invoke(cli.main, ["reflect", "--lambda", "1", "--mu", "2", "--from", "1",
                                          "--t", grid, "--method", "integral"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        rates = Rates(1.0, 2.0)
        assert len(rows) == int(grid.split(":")[-1])
        for t, q in rows:
            assert q == format(reflecting.q10_integral(float(t), rates), ".17g")


class TestSimulate:
    ARGS = ["simulate", "--lambda", "1", "--mu", "2", "--from", "0",
            "--t", "0.5:1:2", "--paths", "400", "--seed", "33"]

    def test_empirical_pmf_sums_to_one(self, runner):
        result = runner.invoke(cli.main, self.ARGS)
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        by_time = {}
        for t, state, prob, se in rows:
            by_time.setdefault(t, 0.0)
            by_time[t] += float(prob)
        for total in by_time.values():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, runner):
        a = runner.invoke(cli.main, self.ARGS)
        b = runner.invoke(cli.main, self.ARGS)
        assert a.output == b.output

    def test_zero_paths_is_usage_error(self, runner):
        result = runner.invoke(
            cli.main,
            ["simulate", "--lambda", "1", "--mu", "2", "--from", "0", "--t", "0.5:1:2", "--paths", "0"],
        )
        assert result.exit_code == 2
        assert "--paths" in result.output

    def test_negative_seed_is_usage_error(self, runner):
        # refused by click before numpy sees the seed, as README's exit codes promise
        result = runner.invoke(cli.main, [*self.ARGS[:-1], "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_unbounded_run_is_refused(self, runner):
        # one path over t = 1e300 would never return; the jump bound refuses it (exit 3)
        result = runner.invoke(
            cli.main, ["simulate", "--lambda", "1", "--mu", "2", "--from", "0", "--t", "0:1e300:2", "--paths", "1"]
        )
        assert result.exit_code == 3
        assert "jumps" in result.output

    @pytest.mark.parametrize("process", ["bilateral", "reflected"])
    @pytest.mark.parametrize("start", [str(2**63 - 1), str(2**63)])
    def test_start_past_int64_is_refused(self, runner, process, start):
        # int64 path states would wrap silently; refused before any draw (exit 3)
        result = runner.invoke(
            cli.main, ["simulate", "--process", process, "--lambda", "1", "--mu", "2", "--from", start,
                       "--t", "0:1:2", "--paths", "100"]
        )
        assert result.exit_code == 3
        assert "int64 state array" in result.output

    def test_reflected_nonnegative_states(self, runner):
        result = runner.invoke(
            cli.main,
            ["simulate", "--process", "reflected", "--lambda", "1", "--mu", "2",
             "--from", "1", "--t", "0.5:2:2", "--paths", "300", "--seed", "1"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert min(int(r[1]) for r in rows) >= 0


def _p(k, n, t, rates):
    return transition_prob(TransitionQuery(k, n, t), rates)


def entrywise_normalization(rates):
    for k in range(-3, 4):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            lo, hi = oracle.default_window("bilateral", rates, k, t)
            yield abs(sum(transition_probs(k, range(lo, hi + 1), t, rates)) - 1.0)


def entrywise_symmetry(rates):
    swapped = rates.swapped()
    span = range(-3, 4)
    for t in (0.5, 2.0):
        for k in span:
            for n in span:
                base = _p(k, n, t, rates)
                transpose_rates = swapped if (k + n) % 2 != 0 else rates
                yield abs(_p(2 - k, 2 - n, t, rates) - base)
                yield abs(_p(1 - k, 1 - n, t, swapped) - base)
                yield abs(_p(n, k, t, transpose_rates) - base)
                yield abs(_p(2 + k, 2 + n, t, rates) - base)
                yield abs(_p(1 + k, 1 + n, t, swapped) - base)


def entrywise_chapman_kolmogorov(rates):
    for t, s in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7)):
        for k, n in ((0, 0), (0, 1), (-1, 2)):
            lo, hi = oracle.default_window("bilateral", rates, k, t + s)
            row = transition_probs(k, range(lo, hi + 1), t, rates)
            total = sum(p * _p(m, n, s, rates) for m, p in zip(range(lo, hi + 1), row))
            yield abs(total - _p(k, n, t + s, rates))


@pytest.mark.parametrize("lam, mu", DEFAULT_VERIFY_PAIRS)
@pytest.mark.parametrize(
    "check, entrywise",
    [
        (verify.normalization, entrywise_normalization),
        (verify.symmetry, entrywise_symmetry),
        (verify.chapman_kolmogorov, entrywise_chapman_kolmogorov),
    ],
    ids=["normalization", "symmetry", "chapman_kolmogorov"],
)
def test_block_checks_equal_entry_by_entry(lam, mu, check, entrywise):
    # the checks read whole transition_matrix blocks; the same residuals come
    # from one transition_prob call per entry (and one row per normalization
    # sum or first factor), in the same summation order.  A block check may
    # yield them in another order, and the report takes their worst.
    rates = Rates(lam, mu)
    assert sorted(check(rates)) == sorted(entrywise(rates))


class TestVerify:
    def test_single_pair_battery_passes(self):
        pairs = ((1.0, 2.0),)
        rows = cli.run_verification(pairs=pairs)
        # one row per PAIR_CHECKS entry and pair, in table order, then the
        # equal-rates Bessel reduction
        expected = [(name, lam, mu, tol) for lam, mu in pairs for name, _, tol in PAIR_CHECKS]
        expected.append(("bessel_reduction", 2.0, 2.0, 1e-10))
        assert [(r[0], r[1], r[2], r[4]) for r in rows] == expected
        assert all(len(r) == 6 and r[-1] == "pass" for r in rows)

    def test_mutated_offset_detected(self, monkeypatch):
        mis_index_cross_parity(monkeypatch)
        rows = cli.run_verification(pairs=((1.0, 2.0),))
        failing = {r[0] for r in rows if r[-1] == "FAIL"}
        assert failing  # the battery must notice a mis-transcribed offset
        assert "symmetry" in failing or "chapman_kolmogorov" in failing
        # the pointwise comparison with uniformization catches it too
        assert "bilateral_moments_vs_oracle" in failing

    def test_series_sums_per_run(self, monkeypatch):
        # each bilateral check reads its values at one time through one bilateral._blocks
        # call, which sums each distinct series of an effective rate pair once: 1,705 sums
        # on the default grid, against 2,757 with one pass per block and start parity
        summed = []
        row_sums = bilateral._row_sums
        monkeypatch.setattr(
            bilateral, "_row_sums", lambda keys, *scales: summed.append(len(set(keys))) or row_sums(keys, *scales)
        )
        cli.run_verification()
        assert sum(summed) <= 1705

    def test_odd_start_without_rate_swap_fails_symmetry(self, monkeypatch):
        # the parity reduction without its rate swap: an odd start k reads the row of
        # start k - 1 over targets n - 1 at the same rates.  The odd clauses compare
        # that with the swapped-rates block, so the symmetry row fails.  A mis-indexed
        # offset enters both sides alike and passes it; bilateral_moments_vs_oracle
        # catches that (test_mutated_offset_detected)
        exact = bilateral._blocks

        def unswapped(requests, t):
            requests = [(list(starts), list(targets), rates) for starts, targets, rates in requests]
            return [
                [
                    exact([([k - 1], [n - 1 for n in targets], rates)], t)[0][0] if k % 2 else row
                    for k, row in zip(starts, block)
                ]
                for (starts, targets, rates), block in zip(requests, exact(requests, t))
            ]

        monkeypatch.setattr(bilateral, "_blocks", unswapped)
        rows = {r[0]: r for r in cli.run_verification(pairs=((1.0, 2.0),))}
        assert rows["symmetry"][-1] == "FAIL"
        assert rows["symmetry"][3] > 0.1

    def test_cli_exit_codes(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_VERIFY_PAIRS", ((1.0, 2.0),))
        good = runner.invoke(cli.main, ["verify"])
        assert good.exit_code == 0
        mis_index_cross_parity(monkeypatch)
        bad = runner.invoke(cli.main, ["verify"])
        assert bad.exit_code == 4

    def test_nan_closed_form_fails(self, runner, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN residual must not be dropped on the way
        # to a row's worst residual; the NaN is injected in the route that
        # blocks, rows and single transition_prob calls share
        exact = bilateral._blocks

        def nan_at_origin(requests, t):
            requests = [(list(starts), list(targets), rates) for starts, targets, rates in requests]
            return [
                [
                    [math.nan if (k, n) == (0, 0) else p for n, p in zip(targets, row)]
                    for k, row in zip(starts, block)
                ]
                for (starts, targets, _), block in zip(requests, exact(requests, t))
            ]

        monkeypatch.setattr(bilateral, "_blocks", nan_at_origin)
        rows = {r[0]: r for r in cli.run_verification(pairs=((1.0, 2.0),))}
        for name in ("normalization", "symmetry", "chapman_kolmogorov"):
            assert math.isnan(rows[name][3])
            assert rows[name][-1] == "FAIL"
        monkeypatch.setattr(cli, "DEFAULT_VERIFY_PAIRS", ((1.0, 2.0),))
        assert runner.invoke(cli.main, ["verify"]).exit_code == 4

    @pytest.mark.parametrize("option", [["--tol", "1e-2"], ["--max-terms", "1"]])
    def test_series_truncation_not_settable(self, runner, option):
        result = runner.invoke(cli.main, ["verify", *option])
        assert result.exit_code == 2

    def test_csv_report_shape(self, runner, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "DEFAULT_VERIFY_PAIRS", ((2.0, 2.0),))
        dest = tmp_path / "report.csv"
        result = runner.invoke(cli.main, ["verify", "--out", str(dest)])
        assert result.exit_code == 0
        text = dest.read_text()
        assert "# grid=(2.0,2.0)\n" in text
        header, rows = parse_csv(text)
        assert header == ["check", "lambda", "mu", "max_residual", "tolerance", "status"]
        assert {r[0] for r in rows} >= {
            "normalization", "symmetry", "chapman_kolmogorov", "q10_triple_agreement",
            "psi_product_vieta", "bessel_reduction",
        }
        # the rows cover exactly the patched grid, not the grid at import time
        assert {(float(r[1]), float(r[2])) for r in rows} == {(2.0, 2.0)}


RATES = ["--lambda", "1", "--mu", "2"]


@pytest.mark.parametrize(
    "args, module, name",
    [
        (["prob", *RATES, "--from", "0", "--to", "1", "--t", "0:1:2"], bilateral, "transition_prob"),
        (["pgf", *RATES, "--from", "0", "--z", "0.5", "--t", "0:1:2"], bilateral, "pgf"),
        (["moments", *RATES, "--from", "0", "--t", "0:1:2"], bilateral, "mean"),
        (["reflect", *RATES, "--from", "0", "--t", "0:1:2"], reflecting, "q00"),
        (["simulate", *RATES, "--from", "0", "--t", "0:1:2", "--paths", "10"], oracle, "simulate"),
        (["verify"], cli, "run_verification"),
    ],
    ids=["prob", "pgf", "moments", "reflect", "simulate", "verify"],
)
def test_numeric_failure_is_exit_3(runner, monkeypatch, args, module, name):
    # every command's typed library error reaches the one boundary in cli.main
    def fail(*_args, **_kwargs):
        raise ConvergenceError("stub did not converge", 0.0, 0)

    monkeypatch.setattr(module, name, fail)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 3
    assert "numeric failure: stub did not converge" in result.output


@pytest.mark.parametrize(
    "args, code",
    [
        (["reflect", *RATES, "--from", "1", "--t", "0:1:2", "--method", "integral"], 0),
        (["reflect", "--lambda", "1e-12", "--mu", "1", "--from", "1", "--t", "0:1:3"], 3),
    ],
    ids=["stdout", "stderr"],
)
def test_in_process_runs_keep_no_streams(runner, args, code):
    # a caller that runs the commands in process, as CliRunner does, must get back every
    # stream a run captured its output in, or memory grows with each run
    def live_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    assert runner.invoke(cli.main, args).exit_code == code
    before = live_streams()
    for _ in range(5):
        assert runner.invoke(cli.main, args).exit_code == code
    assert live_streams() == before


class TestOutputFormat:
    @pytest.mark.parametrize(
        "args, head",
        [
            (["prob", *RATES, "--from", "0", "--to", "1", "--t", "0:1:2"],
             ["# altbd prob", "# lambda=1 mu=2 from=0 to=1", "t,p"]),
            (["pgf", *RATES, "--from", "1", "--z", "0.5", "--t", "0:1:2"],
             ["# altbd pgf", "# lambda=1 mu=2 from=1 z=0.5", "t,f_even,g_odd,total"]),
            (["moments", "--process", "reflected", *RATES, "--from", "1", "--t", "0:1:2"],
             ["# altbd moments", "# process=reflected lambda=1 mu=2 from=1", "t,mean,variance"]),
            (["reflect", *RATES, "--from", "1", "--t", "0:1:2", "--method", "integral"],
             ["# altbd reflect", "# lambda=1 mu=2 from=1 method=integral", "t,q"]),
            # q00 is a contour sum of its transform, whatever --method says
            (["reflect", *RATES, "--from", "0", "--t", "0:1:2"],
             ["# altbd reflect", "# lambda=1 mu=2 from=0 method=contour", "t,q"]),
        ],
        ids=["prob", "pgf", "moments", "reflect", "reflect-origin"],
    )
    def test_grid_table_head(self, runner, args, head):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[:3] == head
        assert [ln.split(",")[0] for ln in lines[3:]] == ["0", "1"]

    def test_comment_header_and_precision(self, runner):
        result = runner.invoke(
            cli.main,
            ["prob", "--lambda", "1", "--mu", "2", "--from", "0", "--to", "1", "--t", "0:1:2"],
        )
        lines = result.output.splitlines()
        assert lines[0].startswith("# altbd prob")
        assert any("lambda=1" in ln for ln in lines if ln.startswith("#"))
        _, rows = parse_csv(result.output)
        # full round-trip precision: value survives parse/format cycle
        v = float(rows[1][1])
        assert format(v, ".17g") == rows[1][1]
