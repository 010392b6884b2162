"""The aggregation of scripts/bench.py, on canned perfbench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
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
    assert {"cli.self_s", "discrete_engine.lu_factor_calls",
            "discrete_engine.lu_solve_calls", "simulator.rollouts",
            "simulator.path_steps", "verify.stationarity_s",
            "verify.deviation_s"} <= set(report["known_miscounts"])
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
