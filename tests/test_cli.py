import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delaygame import build_grid, save_problem
from delaygame.cli import main
from conftest import (RANK_ONE_R2, golden_scalar_spec, matrix_spec,
                      wide_delay_spec, zero_cost_spec)


@pytest.fixture()
def wide_problem(tmp_path):
    path = tmp_path / "wide.json"
    save_problem(wide_delay_spec(), path)
    return path


@pytest.fixture()
def zero_problem(tmp_path):
    path = tmp_path / "zero.json"
    save_problem(zero_cost_spec(), path)
    return path


class TestSolve:
    def test_writes_artifacts(self, wide_problem, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--problem", str(wide_problem),
                     "--delta", "0.05", "--out", str(out)])
        assert code == 0
        for name in ("ladder.csv", "fields.csv", "gains.csv",
                     "metadata.json"):
            assert (out / name).is_file()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["grid"] == {"N": 19, "delta": 0.05, "d1": 4, "d2": 2}
        assert meta["problem"]["hash"].startswith("sha256:")
        profile = meta["rcond_profile"]
        assert [p["k"] for p in profile] == list(range(20))
        assert all(p["block"] in meta["rcond_min"] for p in profile)
        assert min(p["rcond"] for p in profile) == \
            min(meta["rcond_min"].values())
        captured = capsys.readouterr()
        assert "rcond" in captured.out

    def test_invalid_problem_exit_2(self, tmp_path, capsys):
        bad = dict(A=[[0.1]], Abar=[[0.0]], B1=[[1.0]], B1bar=[[0.0]],
                   B2=[[1.0]], B2bar=[[0.0]], Q1=[[1.0]], Q2=[[1.0]],
                   R1=[[0.0]], R2=[[1.0]], H1=[[1.0]], H2=[[1.0]],
                   h1=0.2, h2=0.1, T=1.0, x0=[1.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "R1 not positive definite" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        code = main(["solve", "--problem", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("case", ["missing-key", "invalid-json",
                                      "nan-entry", "two-violations"])
    def test_bad_problem_file_exit_2(self, wide_problem, tmp_path, capsys,
                                     case):
        data = json.loads(wide_problem.read_text())
        missing = {k: v for k, v in data.items() if k != "Q1"}
        text = {"missing-key": json.dumps(missing),
                "invalid-json": "{not json",
                "nan-entry": json.dumps(dict(data, A=[[float("nan")]])),
                "two-violations": json.dumps(dict(data, Q1=[[-1.0]],
                                                  R1=[[-1.0]]))}[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_incommensurate_delays_exit_2(self, wide_problem, tmp_path,
                                          capsys):
        data = json.loads(wide_problem.read_text())
        path = tmp_path / "incommensurate.json"
        path.write_text(json.dumps(dict(data, h1=np.pi / 10)))
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no common step" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_bad_flag_values_exit_1(self, wide_problem, tmp_path):
        assert main(["solve", "--problem", str(wide_problem),
                     "--delta", "-1", "--out", str(tmp_path / "o")]) == 1
        assert main(["simulate", "--problem", str(wide_problem),
                     "--paths", "0", "--out", str(tmp_path / "o")]) == 1

    # the last seven ask for arrays larger than numpy can index, so the
    # size check ends them before anything is allocated or printed
    @pytest.mark.parametrize("argv", [
        "solve --out {out}",
        "simulate --problem {problem} --paths abc --out {out}",
        "solve --problem {problem} --seed 1 --out {out}",
        "simulate --problem {problem} --paths 100000000000000000000 "
        "--out {out}",
        "verify --problem {problem} --paths 100000000000000000000 "
        "--out {out}",
        "solve --problem {problem} --delta 1e-30 --out {out}",
        "solve --problem {problem} --delta 1e-320 --out {out}",
        "convergence --problem {problem} --halvings 1100 --out {out}",
        "verify --problem {problem} --halvings 62 --out {out}",
        "convergence --problem {problem} --halvings 62 --out {out}"],
        ids=["problem-missing", "paths-not-int", "flag-not-read",
             "simulate-paths-too-many", "verify-paths-too-many",
             "delta-too-fine", "delta-step-count-overflow",
             "halvings-too-many", "verify-halvings-62",
             "convergence-halvings-62"])
    def test_usage_error_one_line(self, wide_problem, tmp_path, capsys,
                                  argv):
        code = main([a.format(problem=wide_problem, out=tmp_path / "o")
                     for a in argv.split()])
        out, err = capsys.readouterr()
        assert code == 1
        assert len(err.splitlines()) == 1 and "error:" in err
        assert out == ""

    def test_nan_delta_exit_1(self, wide_problem, tmp_path, capsys):
        code = main(["solve", "--problem", str(wide_problem),
                     "--delta", "nan", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "--delta must be positive\n"

    def test_overflowed_layer_exit_3(self, tmp_path, capsys):
        # I + delta*A stays finite but the layer below the horizon
        # overflows: the error names that layer, not the block that
        # reads it, in one line and without numpy warnings
        from dataclasses import replace
        path = tmp_path / "huge.json"
        save_problem(replace(golden_scalar_spec(), A=np.full((1, 1), 1e308)),
                     path)
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [
            "backward sweep: non-finite entry in layer k=199 (overflow)"]

    @pytest.mark.parametrize("key,value,line", [
        ("A", 1e3, "backward sweep: singular block 'gamma_check' at step "
                   "k=190 (rcond=5.333e-13)"),
        ("H1", 1e200, "backward sweep: singular block 'gamma_hat' at step "
                      "k=199 (rcond=0.000e+00)"),
        ("B1", 1e200, "backward sweep: singular block 'gamma_hat' at step "
                      "k=199 (rcond=0.000e+00)"),
        ("B2bar", 1e300, "backward sweep: singular block 'gamma_hat' at "
                         "step k=199 (rcond=0.000e+00)"),
        ("Q1", 1e308, "backward sweep: singular block 'gamma_hat' at step "
                      "k=198 (rcond=0.000e+00)"),
        ("H1", 1e308, "backward sweep: singular block 'gamma_hat' at step "
                      "k=199 (rcond=6.338e-19)")],
        ids=["near-singular", "no-finite-inverse", "B1-overflow",
             "B2bar-overflow", "Q1-overflow", "H1-overflow"])
    def test_singular_block_exit_3(self, tmp_path, capsys, key, value, line):
        # the sweep's gate reads the condition numbers of its one solve:
        # a block below RCOND_MIN, and one whose inverse overflows, are
        # each named with the step and the number np.linalg.cond gives.
        # A control map that overflows the control products, or a weight
        # near the float range, gives that one line and no numpy warning
        from dataclasses import replace
        path = tmp_path / "singular.json"
        save_problem(replace(golden_scalar_spec(),
                             **{key: np.full((1, 1), value)}), path)
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.splitlines() == [line]

    def test_huge_weight_solves_silently(self, tmp_path, capsys):
        # R1 = 1e308 is a valid weight: validation forms its symmetric
        # part without overflow and the sweep meets no non-finite number
        from dataclasses import replace
        path = tmp_path / "huge_r1.json"
        save_problem(replace(golden_scalar_spec(), R1=np.full((1, 1), 1e308)),
                     path)
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("key,value,extra", [
        ("T", True, {}), ("h1", True, {"T": 2.0}), ("A", [[True]], {}),
        ("x0", [True], {}), ("A", [["0.5"]], {}), ("T", "1.0", {}),
        ("x0", ["1.0"], {})],
        ids=["T", "h1", "A", "x0", "A_string", "T_string", "x0_string"])
    def test_boolean_entry_exit_2(self, tmp_path, capsys, key, value, extra):
        # json's true is not a number, nor is a string: numpy would read
        # them as 1.0 and as the number the string spells
        path = tmp_path / "boolean.json"
        save_problem(golden_scalar_spec(), path)
        data = dict(json.loads(path.read_text()), **extra)
        data[key] = value
        path.write_text(json.dumps(data))
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("cannot load problem: ")
        assert err.endswith(f"in keys: [{key!r}]\n")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("depth", [500, 100_000])
    def test_deeply_nested_entry_exit_2(self, tmp_path, capsys, depth):
        # a matrix nested past the recursion limit stops the entry check
        # (500 levels, a 1,230-byte file) or json itself (100,000 levels)
        path = tmp_path / "deep.json"
        save_problem(golden_scalar_spec(), path)
        data = dict(json.loads(path.read_text()), A="nested")
        path.write_text(json.dumps(data).replace(
            '"nested"', "[" * depth + "1.0" + "]" * depth))
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("cannot load problem: ")
        assert len(err.splitlines()) == 1

    def test_weight_without_cholesky_factor_exit_2(self, tmp_path, capsys):
        # validation takes the sweep's Cholesky factor, so a rank-1 weight
        # whose smallest eigenvalue computes positive is a validation error
        # that names it, not a factorization failure (exit 1)
        from dataclasses import replace
        path = tmp_path / "rank_one_r2.json"
        save_problem(replace(matrix_spec(), R2=RANK_ONE_R2), path)
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("validation: R2 symmetric pd: ")
        assert len(err.splitlines()) == 1

    def test_out_of_memory_exit_1(self, wide_problem, tmp_path, capsys,
                                  monkeypatch):
        # a --delta like 1e-9 asks numpy for petabytes; stand in for that
        # allocation instead of attempting it
        from delaygame import cli

        def allocate(*args):
            raise MemoryError("Unable to allocate 1.42 PiB for an array")

        monkeypatch.setattr(cli, "backward_sweep", allocate)
        code = main(["solve", "--problem", str(wide_problem),
                     "--delta", "0.05", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: out of memory: Unable to allocate 1.42 PiB "
                       "for an array\n")

    def test_other_value_error_keeps_traceback(self, wide_problem, tmp_path,
                                               monkeypatch):
        # oversized shapes are refused before the sweep, so a ValueError
        # is a fault of the program and propagates
        from delaygame import cli

        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "backward_sweep", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["solve", "--problem", str(wide_problem),
                  "--delta", "0.05", "--out", str(tmp_path / "o")])


class TestSimulate:
    def test_zero_cost_reports_zero(self, zero_problem, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--problem", str(zero_problem),
                     "--delta", "0.05", "--paths", "20", "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        costs = json.loads((out / "costs.json").read_text())
        assert costs["J1_mean"] == 0.0
        assert costs["J2_mean"] == 0.0
        assert (out / "trajectories.csv").is_file()

    def test_byte_identical_reruns(self, wide_problem, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["simulate", "--problem", str(wide_problem),
                         "--delta", "0.05", "--paths", "50", "--seed", "7",
                         "--out", str(out)])
            assert code == 0
            outs.append((out / "costs.json").read_bytes()
                        + (out / "trajectories.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_single_path_se_not_applicable(self, wide_problem, tmp_path):
        out = tmp_path / "one"
        code = main(["simulate", "--problem", str(wide_problem),
                     "--delta", "0.05", "--paths", "1", "--out", str(out)])
        assert code == 0
        costs = json.loads((out / "costs.json").read_text())
        assert costs["J1_se"] is None
        assert costs["n_paths"] == 1

    def test_trajectory_csv_shape(self, wide_problem, tmp_path):
        out = tmp_path / "t"
        main(["simulate", "--problem", str(wide_problem), "--delta", "0.05",
              "--paths", "3", "--out", str(out)])
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "path_id,k,t,x0,u1_0,u2_0,dW"
        assert len(lines) == 1 + 3 * 21

    def test_problem_file_untouched(self, wide_problem, tmp_path):
        before = wide_problem.read_bytes()
        main(["simulate", "--problem", str(wide_problem), "--delta", "0.05",
              "--paths", "5", "--out", str(tmp_path / "o")])
        assert wide_problem.read_bytes() == before

    def test_overflowed_cost_exit_3(self, tmp_path, capsys):
        # a huge but valid initial state overflows the path costs: one
        # line, no numpy warnings and no artifact with a non-finite number
        from dataclasses import replace
        path = tmp_path / "huge.json"
        save_problem(replace(golden_scalar_spec(), x0=np.array([1e200])),
                     path)
        out = tmp_path / "o"
        code = main(["simulate", "--problem", str(path), "--paths", "50",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "simulation: non-finite cost (overflow)"]
        assert not out.exists()


class TestVerify:
    def test_overflowed_statistic_exit_3(self, tmp_path, capsys):
        # a huge but valid initial state overflows the Monte Carlo
        # statistics: one line, no numpy warnings and no report
        from dataclasses import replace
        path = tmp_path / "huge.json"
        save_problem(replace(golden_scalar_spec(), x0=np.array([1e200])),
                     path)
        out = tmp_path / "v"
        code = main(["verify", "--problem", str(path), "--paths", "200",
                     "--halvings", "1", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("verification: non-finite statistic in ")
        assert captured.out == ""
        assert not (out / "verify_report.json").exists()

    def test_out_of_memory_in_paired_pass_exit_1(self, wide_problem,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        # a --paths that numpy can index but memory cannot hold fails in
        # the paired deviation pass, after five checks have run: none of
        # their lines may reach stdout
        from delaygame import verify

        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.3 PiB for an array")

        monkeypatch.setattr(verify, "nash_deviation_test", allocate)
        out = tmp_path / "v"
        code = main(["verify", "--problem", str(wide_problem),
                     "--delta", "0.05", "--paths", "200", "--halvings", "0",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: out of memory: Unable to allocate "
                                "21.3 PiB for an array\n")
        assert captured.out == ""
        assert not (out / "verify_report.json").exists()

    @staticmethod
    def _assert_verdicts_compare(report):
        """Every record's pass is the comparison of its own statistic and
        bound: a deviation margin must not fall below its bound, every
        other statistic must not exceed it."""
        for r in report["tests"]:
            if r["name"].startswith("nash_deviation_"):
                assert r["pass"] == (r["statistic"] >= r["bound"]), r
            else:
                assert r["pass"] == (r["statistic"] <= r["bound"]), r

    def test_zero_cost_all_pass(self, zero_problem, tmp_path):
        out = tmp_path / "v"
        code = main(["verify", "--problem", str(zero_problem),
                     "--delta", "0.05", "--paths", "200", "--halvings", "1",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"]

    def test_golden_all_pass(self, tmp_path):
        path = tmp_path / "golden.json"
        save_problem(golden_scalar_spec(), path)
        out = tmp_path / "v"
        code = main(["verify", "--problem", str(path), "--delta", "0.005",
                     "--paths", "1500", "--halvings", "1",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"]
        self._assert_verdicts_compare(report)
        names = {r["name"] for r in report["tests"]}
        assert "fbsde_martingale_projection" in names
        assert any(n.startswith("nash_deviation") for n in names)

    def test_single_path_exit_1(self, wide_problem, tmp_path, capsys):
        code = main(["verify", "--problem", str(wide_problem),
                     "--delta", "0.05", "--paths", "1",
                     "--out", str(tmp_path / "v")])
        assert code == 1
        assert "--paths >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command,halvings", [("verify", 1),
                                                  ("convergence", 2)])
    def test_halvings_reuse_base_sweep(self, zero_problem, tmp_path,
                                       monkeypatch, command, halvings):
        # the base grid is solved once; each halving adds one sweep
        from delaygame import cli
        calls = []
        original = cli.backward_sweep
        monkeypatch.setattr(cli, "backward_sweep",
                            lambda *a: calls.append(a) or original(*a))
        paths = ["--paths", "200"] if command == "verify" else []
        code = main([command, "--problem", str(zero_problem),
                     "--delta", "0.05", *paths,
                     "--halvings", str(halvings),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(calls) == halvings + 1

    def test_one_rollout_per_stepper(self, wide_problem, tmp_path,
                                     monkeypatch):
        # the base law steps twice over the (paths, seed) increments: alone
        # for the stationarity projection, and with its deviations in the
        # paired pass, whose 300 paths fit one block; the backward-equation
        # projection generates them again for the ladder stepper, and the
        # cross-representation check generates its own 256-path block for
        # each simulator. Every increment, streamed or drawn as a block,
        # comes from increment_rows
        from delaygame import cli, simulator
        draws, laws, steps = [], [], []
        rows = simulator.increment_rows
        monkeypatch.setattr(simulator, "increment_rows",
                            lambda grid, n, seed: draws.append((n, seed))
                            or rows(grid, n, seed))
        assemble = cli.assemble_gains
        monkeypatch.setattr(cli, "assemble_gains",
                            lambda *a: laws.append(assemble(*a)) or laws[-1])
        u_levels = simulator.GainStepper.u_levels
        monkeypatch.setattr(
            simulator.GainStepper, "u_levels",
            lambda self, k, win: steps.append((self.law, win.shape[-1]))
            or u_levels(self, k, win))
        main(["verify", "--problem", str(wide_problem), "--delta", "0.05",
              "--paths", "300", "--seed", "3", "--halvings", "0",
              "--out", str(tmp_path / "v")])
        (law,) = laws
        n_steps = build_grid(wide_delay_spec(), 0.05).N + 1
        assert sum(lw is law and p == 300 for lw, p in steps) == 2 * n_steps
        assert sorted(draws) == [(256, 3), (256, 3), (300, 3), (300, 3),
                                 (300, 3)]

    @pytest.mark.parametrize("halvings,skipped", [
        (0, ["riccati_ode_trend", "semigroup_trend", "z_factor_convergence"]),
        (1, ["z_factor_convergence"]),
        (2, []),
    ])
    def test_trend_checks_without_comparison_not_evaluated(
            self, tmp_path, capsys, halvings, skipped):
        # at delta 0.005 the golden lag gap is 2 (no coupling factors);
        # each halving doubles it
        path = tmp_path / "golden.json"
        save_problem(golden_scalar_spec(), path)
        out = tmp_path / "v"
        main(["verify", "--problem", str(path), "--delta", "0.005",
              "--paths", "50", "--halvings", str(halvings),
              "--out", str(out)])
        report = json.loads((out / "verify_report.json").read_text())
        assert report["not_evaluated"] == skipped
        assert [r["name"] for r in report["tests"]
                if not r["evaluated"]] == skipped
        for r in report["tests"]:
            if not r["evaluated"]:
                assert r["statistic"] == 0.0 and r["pass"]
        lines = capsys.readouterr().out.splitlines()
        assert sorted(line.split(":")[0] for line in lines
                      if "not evaluated (" in line) == skipped

    @staticmethod
    def _verify_drift_free(tmp_path, *flags):
        # without drift the backward ODE and the semigroup identity hold to
        # round-off on every grid, so their halving ratios compare noise
        from dataclasses import replace
        path = tmp_path / "drift_free.json"
        save_problem(replace(golden_scalar_spec(), A=np.zeros((1, 1))), path)
        out = tmp_path / "v"
        code = main(["verify", "--problem", str(path), "--delta", "0.005",
                     "--paths", "200", "--seed", "1", "--out", str(out),
                     *flags])
        return code, json.loads((out / "verify_report.json").read_text())

    @pytest.mark.parametrize("halvings", [1, 2])
    def test_roundoff_trends_not_evaluated(self, tmp_path, capsys, halvings):
        code, report = self._verify_drift_free(tmp_path, "--halvings",
                                               str(halvings))
        assert code == 0
        trends = ["riccati_ode_trend", "semigroup_trend"]
        assert [r["name"] for r in report["tests"]
                if r["name"] in trends and not r["evaluated"]] == trends
        lines = capsys.readouterr().out.splitlines()
        assert sorted(line.split(":")[0] for line in lines if
                      "not evaluated (every residual <= 1e-10)" in line) \
            == trends

    @pytest.mark.parametrize("series", [[1.0, np.nan], [1.0, 0.5, np.nan]])
    def test_nan_residual_in_trend_is_not_hidden(self, series):
        # a NaN anywhere in a halving series must reach the non-finite
        # exit: neither the ratio nor the round-off test may drop it
        from delaygame.cli import IDENTITY_TOL, _trend_ratio
        assert not np.isfinite(_trend_ratio(series))
        assert not np.max(series) <= IDENTITY_TOL

    def test_roundoff_trends_keep_mutation_failing(self, tmp_path):
        code, report = self._verify_drift_free(
            tmp_path, "--halvings", "1", "--debug-zero-layer", "50")
        assert code == 4
        assert not report["passed"]

    def test_mutated_ladder_exit_4(self, tmp_path):
        path = tmp_path / "golden.json"
        save_problem(golden_scalar_spec(), path)
        out = tmp_path / "v"
        code = main(["verify", "--problem", str(path), "--delta", "0.01",
                     "--paths", "300", "--halvings", "0",
                     "--debug-zero-layer", "50", "--out", str(out)])
        assert code == 4
        report = json.loads((out / "verify_report.json").read_text())
        assert not report["passed"]
        self._assert_verdicts_compare(report)

    @pytest.mark.parametrize("layer,in_range", [("-1", False), ("20", True),
                                                 ("21", False)])
    def test_zero_layer_range_checked_before_sweep(
            self, wide_problem, tmp_path, capsys, monkeypatch, layer,
            in_range):
        # layers 0..N+1 can be zeroed (N = 19 on the wide problem at delta
        # 0.05); any other is a usage error found before the backward sweep
        from delaygame import cli
        calls = []

        def sweep(*args):
            calls.append(args)
            raise SystemExit(99)

        monkeypatch.setattr(cli, "backward_sweep", sweep)
        code = main(["verify", "--problem", str(wide_problem),
                     "--delta", "0.05", "--debug-zero-layer", layer,
                     "--out", str(tmp_path / "v")])
        captured = capsys.readouterr()
        if in_range:
            assert code == 99 and len(calls) == 1
        else:
            assert code == 1 and calls == []
            assert captured.err == "--debug-zero-layer out of range\n"
        assert captured.out == ""


class TestConvergence:
    def test_report_written(self, wide_problem, tmp_path):
        out = tmp_path / "c"
        code = main(["convergence", "--problem", str(wide_problem),
                     "--delta", "0.05", "--halvings", "1",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "convergence.json").read_text())
        deltas = [r["delta"] for r in rows if "riccati_ode" in r]
        assert deltas == [0.05, 0.025]
        assert rows[1]["riccati_ode"] < rows[0]["riccati_ode"]

    @pytest.mark.parametrize("a", [1000.0, -3000.0])
    def test_overflowed_value_exit_3(self, tmp_path, capsys, a):
        # the no-delay oracle's Riccati pair overflows (to inf, or nan for
        # the negative drift): one line, no numpy warnings and no report
        from dataclasses import replace
        zero = np.zeros((1, 1))
        path = tmp_path / "fast.json"
        save_problem(replace(golden_scalar_spec(), A=np.full((1, 1), a),
                             Abar=zero, B1bar=zero, B2bar=zero), path)
        out = tmp_path / "c"
        code = main(["convergence", "--problem", str(path),
                     "--halvings", "1", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "convergence: non-finite value in no_delay_gain_gap (overflow)"]
        assert not out.exists()

    def test_no_delay_trend_on_increment_free_problem(self, tmp_path):
        from dataclasses import replace
        spec = replace(wide_delay_spec(), Abar=np.zeros((1, 1)),
                       B1bar=np.zeros((1, 1)), B2bar=np.zeros((1, 1)))
        path = tmp_path / "det.json"
        save_problem(spec, path)
        out = tmp_path / "c"
        code = main(["convergence", "--problem", str(path),
                     "--delta", "0.05", "--halvings", "1",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "convergence.json").read_text())
        gaps = [r["no_delay_gain_gap"] for r in rows
                if "no_delay_gain_gap" in r]
        assert len(gaps) == 2
        assert gaps[1] < gaps[0]


@pytest.mark.parametrize("argv,code,usage", [
    (["--help"], 0, "usage: delaygame [-h] {solve,simulate,verify,"),
    (["solve", "--help"], 0, "usage: delaygame solve [-h] --problem"),
    ([], 1, None)], ids=["help", "solve-help", "no-command"])
def test_help_and_missing_command(capsys, argv, code, usage):
    # help is printed on stdout with exit 0; a missing command is a usage
    # error: exit 1 and one stderr line, without the usage text (argparse
    # wraps the usage to the terminal's width, so whitespace is folded)
    assert main(argv) == code
    out, err = capsys.readouterr()
    if usage:
        assert " ".join(out.split()).startswith(usage)
        assert err == ""
    else:
        assert out == ""
        assert err == ("delaygame: error: the following arguments are "
                       "required: command\n")


@pytest.mark.parametrize("case", ["out_is_file", "out_below_file",
                                  "metadata_is_directory"])
def test_unwritable_out_exit_1(wide_problem, tmp_path, capsys, case):
    # an --out that cannot be written fails after the work is done: one
    # stderr line and exit 1, not a traceback; the artifacts written
    # before the failing one remain
    out, command = tmp_path / "out", "solve"
    if case == "out_is_file":
        out.write_text("")
    elif case == "out_below_file":
        (tmp_path / "file").write_text("")
        out, command = tmp_path / "file" / "sub", "verify"
    else:
        (out / "metadata.json").mkdir(parents=True)
    argv = [command, "--problem", str(wide_problem), "--delta", "0.05",
            "--out", str(out)]
    if command == "verify":
        argv += ["--paths", "50", "--halvings", "0"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot write output: ")
    assert captured.out == ""
    if case == "metadata_is_directory":
        for name in ("ladder.csv", "fields.csv", "gains.csv"):
            assert (out / name).stat().st_size > 0


def test_verify_and_convergence_read_one_study(tmp_path):
    # verify's trend statistics are the halving ratios of the columns that
    # convergence writes, bit for bit: both commands read one study
    from delaygame.cli import _trend_ratio
    path = tmp_path / "golden.json"
    save_problem(golden_scalar_spec(), path)
    flags = ["--problem", str(path), "--delta", "0.005", "--halvings", "2"]
    assert main(["verify", *flags, "--paths", "200",
                 "--out", str(tmp_path / "v")]) == 0
    assert main(["convergence", *flags, "--out", str(tmp_path / "c")]) == 0
    stats = {r["name"]: r["statistic"] for r in json.loads(
        (tmp_path / "v" / "verify_report.json").read_text())["tests"]}
    rows = [r for r in json.loads(
        (tmp_path / "c" / "convergence.json").read_text())
        if "riccati_ode" in r]
    assert len(rows) == 3
    column = {key: [r[key] for r in rows]
              for key in ("riccati_ode", "semigroup", "z_distance")}
    assert stats["riccati_ode_trend"] == _trend_ratio(column["riccati_ode"])
    assert stats["semigroup_trend"] == _trend_ratio(column["semigroup"])
    assert stats["z_factor_convergence"] == _trend_ratio(
        [v for v in column["z_distance"] if v > 0.0])


def test_benchmark_hooks_resolve():
    # perfbench/spans.py patches these names before every traced run,
    # perfbench/worker.py calls the two cli loaders and
    # perfbench/setup_probe.py calls cli.validate and
    # cli.SweepCoefficients.from_spec; a rename would otherwise show only
    # as a crash of the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = ([(module, attr) for module, attr, *_ in spans.SPANNED]
             + [(module, attr) for module, attr, *_ in spans.COUNTED]
             + [("delaygame.exports", attr) for attr in spans.EXPORTS]
             + list(spans.DRAWS)
             + [("delaygame.cli", "build_grid"),
                ("delaygame.cli", "load_problem"),
                ("delaygame.cli", "validate"),
                ("delaygame.cli", "SweepCoefficients.from_spec")])

    def resolves(module, attr):
        try:
            functools.reduce(getattr, attr.split("."),
                             importlib.import_module(module))
        except AttributeError:
            return False
        return True

    missing = [f"{module}.{attr}" for module, attr in names
               if not resolves(module, attr)]
    assert not missing


def test_benchmark_hooks_are_called(wide_problem, zero_problem, tmp_path,
                                    monkeypatch):
    # a name perfbench/spans.py wraps that no command calls any more gives
    # a trace that books its work elsewhere: small solve, simulate, verify
    # and convergence runs must call every spanned name and every export.
    # The convergence run is increment-free: discrete_engine.backward_sweep
    # is reached only through solve_ladder in its no-delay oracle
    from dataclasses import replace
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    calls = dict.fromkeys(
        [(module, attr) for module, attr, _ in spans.SPANNED]
        + [("delaygame.exports", attr) for attr in spans.EXPORTS], 0)

    def counting(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, attr in calls:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr,
                            counting((module, attr), getattr(owner, attr)))
    increment_free = tmp_path / "increment_free.json"
    save_problem(replace(wide_delay_spec(), Abar=0.0, B1bar=0.0, B2bar=0.0),
                 increment_free)
    for problem, *flags in (
            (wide_problem, "solve"),
            (wide_problem, "simulate", "--paths", "20"),
            (zero_problem, "verify", "--paths", "200", "--halvings", "1"),
            (increment_free, "convergence", "--halvings", "1")):
        code = main([*flags, "--problem", str(problem), "--delta", "0.05",
                     "--out", str(tmp_path / flags[0])])
        assert code == 0, flags
    assert [name for name, count in calls.items() if count < 1] == []


def test_readme_library_sketch_runs(monkeypatch):
    # the fenced block under "## Library sketch" runs as written, from the
    # repository root (it reads the golden problem by relative path)
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library sketch\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(root)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every command runs with any
    # import of scipy failing
    problem = tmp_path / "matrix.json"
    save_problem(matrix_spec(), problem)
    script = """
import json, sys
sys.modules["scipy"] = None
from delaygame.cli import main
common = ["--problem", sys.argv[1], "--delta", "0.05"]
codes = [main([command, *flags, *common, "--out", sys.argv[2] + command])
         for command, *flags in (
             ["solve"], ["simulate", "--paths", "200"],
             ["verify", "--paths", "200", "--halvings", "1"],
             ["convergence", "--halvings", "1"])]
print(json.dumps(codes))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script, str(problem),
                          str(tmp_path / "out_")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, 0, 0, 0]
