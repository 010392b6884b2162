"""The aggregation of scripts/bench.py, on canned perfbench/run.py output,
and the benchmark's own check of its workloads' artifacts."""

import importlib.util
import json
from pathlib import Path

import pytest

from delaygame import build_grid, load_problem
from delaygame.cli import main

ROOT = Path(__file__).resolve().parents[1]
_path = ROOT / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", _path)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def run_output(seed, wall, correct=True, traced=False):
    """The two lines run.py prints last: its context and its result."""
    context = {"workload": "verify-mc", "seed": seed, "nproc": 2,
               "src_lines": 2485, "runs": 3, "walls_s": [wall] * 3}
    if traced:
        metrics = {"cli.self_s": {"value": 0.85, "unit": "s"},
                   "discrete_engine.steps": {"value": 600, "unit": "count"},
                   "failed_frac": {"value": 0.0, "unit": "1"}}
    else:
        metrics = {"peak_rss_mb": {"value": 57.5 + seed, "unit": "MB"},
                   "setup_s": {"value": 0.1 * seed, "unit": "s"},
                   "wall_s": {"value": wall, "unit": "s"}}
    return ("context " + json.dumps(context, sort_keys=True) + "\n"
            + json.dumps({"correct": correct, "attempted": 3,
                          "failed": 0 if correct else 1,
                          "metrics": metrics}) + "\n")


def entry(correct=True):
    return bench.workload_entry(
        [(1, run_output(1, 1.40)), (2, run_output(2, 1.30, correct)),
         (3, run_output(3, 1.35))],
        (0, run_output(0, 1.5, traced=True)))


def test_workload_entry_medians_runs_and_trace():
    e = entry()
    assert e["medians"] == {"wall_s": 1.35, "setup_s": 0.2,
                            "peak_rss_mb": 59.5}
    assert [r["seed"] for r in e["runs"]] == [1, 2, 3]
    assert e["runs"][0] == {"seed": 1, "correct": True, "attempted": 3,
                            "failed": 0, "wall_s": 1.40, "setup_s": 0.1,
                            "peak_rss_mb": 58.5}
    assert e["traced"]["seed"] == 0 and e["traced"]["correct"] is True
    assert e["traced"]["metrics"]["discrete_engine.steps"] == {
        "value": 600, "unit": "count"}
    assert e["context"]["seed"] == 1     # the first run's


def test_report_top_level_and_correctness():
    report = bench.bench_report({"verify-mc": entry()}, "abc123", 10.0)
    assert report["commit"] == "abc123" and report["seconds"] == 10.0
    assert report["src_lines"] == 2485 and report["nproc"] == 2
    assert {"discrete_engine.lu_factor_calls",
            "discrete_engine.lu_solve_calls", "discrete_engine.cond_calls",
            "simulator.rollouts", "simulator.path_steps",
            "simulator.path_steps_per_s"} <= set(report["known_miscounts"])
    # a traced verify-mc measures these: its stationarity projection and
    # deviation margins run as the two functions perfbench spans
    assert not {"cli.self_s", "verify.stationarity_s",
                "verify.deviation_s"} & set(report["known_miscounts"])
    assert bench.all_correct(report)
    bad = bench.bench_report({"verify-mc": entry(correct=False)}, None, 1.0)
    assert not bench.all_correct(bad)
    assert bad["workloads"]["verify-mc"]["runs"][1]["failed"] == 1


def test_parse_run_reads_the_last_two_lines():
    context, result = bench.parse_run("warm-up note\n"
                                      + run_output(2, 1.3))
    assert context["seed"] == 2 and result["metrics"]["wall_s"]["value"] == 1.3
    with pytest.raises(ValueError):
        bench.parse_run('{"correct": true}\n')


def test_paired_entry_wins_differences_and_quartiles():
    # five pairs: the change is lower in wall_s in four, and its setup_s
    # ties once (a tie is no win)
    parent = [(101 + i, run_output(101 + i, wall))
              for i, wall in enumerate([1.0, 1.2, 1.1, 1.4, 1.3])]
    change = [(101 + i, run_output(101 + i, wall))
              for i, wall in enumerate([0.8, 1.3, 0.9, 1.0, 1.2])]
    e = bench.paired_entry(parent, change)
    wall = e["wall_s"]
    assert wall["parent"] == [1.0, 1.2, 1.1, 1.4, 1.3]
    assert wall["change"] == [0.8, 1.3, 0.9, 1.0, 1.2]
    assert wall["pairs"] == 5 and wall["wins"] == 4
    # paired differences -0.2, +0.1, -0.2, -0.4, -0.1: median -0.2
    assert wall["median_diff"] == pytest.approx(-0.2)
    # the parent's inclusive quartiles are 1.1 and 1.3, the differences'
    # -0.2 and -0.1
    assert wall["parent_iqr"] == pytest.approx(0.2)
    assert wall["diff_iqr"] == pytest.approx(0.1)
    # run_output gives both sides the same setup_s and peak_rss_mb per seed
    assert e["setup_s"]["wins"] == 0 and e["setup_s"]["median_diff"] == 0.0
    assert [r["seed"] for r in e["runs"]["change"]] == [101, 102, 103, 104,
                                                        105]


def test_paired_drift_widens_parent_iqr_not_diff_iqr():
    # the host slows down over the series: both sides drift together from
    # 0.6 s to 0.3 s while the change stays 0.1 s faster, give or take
    # 0.01 s. The parent's own spread hides the gain, the differences'
    # spread does not
    parent_walls = [0.60, 0.56, 0.52, 0.48, 0.44, 0.40, 0.36, 0.34, 0.32,
                    0.30]
    noise = [0.01, -0.01, 0.0, 0.005, -0.005, 0.01, -0.01, 0.0, 0.005,
             -0.005]
    parent = [(101 + i, run_output(101 + i, wall))
              for i, wall in enumerate(parent_walls)]
    change = [(101 + i, run_output(101 + i, wall - 0.1 + e))
              for i, (wall, e) in enumerate(zip(parent_walls, noise))]
    wall = bench.paired_entry(parent, change)["wall_s"]
    assert wall["wins"] == 10
    assert wall["median_diff"] == pytest.approx(-0.1)
    assert wall["parent_iqr"] > abs(wall["median_diff"]) > wall["diff_iqr"]
    assert wall["parent_iqr"] == pytest.approx(0.165)
    assert wall["diff_iqr"] == pytest.approx(0.01)


def test_paired_single_pair_and_correctness():
    one = bench.paired_entry([(101, run_output(101, 1.0))],
                             [(101, run_output(101, 1.0, correct=False))])
    assert one["wall_s"]["pairs"] == 1 and one["wall_s"]["wins"] == 0
    assert one["wall_s"]["parent_iqr"] == one["wall_s"]["diff_iqr"] == 0.0
    report = bench.bench_report({"verify-mc": entry()}, "abc123", 1.0)
    assert bench.all_correct(report)
    report["paired"] = {"against": "def456", "pairs": 1, "seeds": [101],
                        "workloads": {"verify-mc": one}}
    assert not bench.all_correct(report)


@pytest.mark.parametrize("name", ["solve-fine", "verify-mc"])
def test_workload_matches_benchmark_reference(name, tmp_path, monkeypatch):
    # the benchmark's command at seed 0, checked as perfbench/worker.py
    # checks each run: a value that drifts past the check's tolerance, or
    # a renamed verify line, fails here as well as in the benchmark.
    # workloads.py is imported from its folder; its dataclass needs a
    # module that sys.modules knows
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, check
    workload = WORKLOADS[name]
    problem = workload.problem_path(ROOT, tmp_path)
    out = tmp_path / "out"
    code = main(workload.argv(problem, out, 0))
    grid = build_grid(load_problem(problem), workload.delta)
    reference = json.loads((ROOT / "perfbench" / "reference.json")
                           .read_text(encoding="utf-8"))
    assert check(workload, out, code, 0, grid.N, reference) == []
