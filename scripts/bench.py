"""Run the benchmark ladder and write one BENCH_<pr>.json.

Usage, from anywhere in a delaygame checkout:

    python3 scripts/bench.py --pr 22 --seconds 10

For each workload of perfbench (solve-fine, verify-mc, simulate-matrix)
it runs ``perfbench/run.py`` in a fresh process per run: three untraced
runs (seeds 1-3) and one traced run (seed 0). It times nothing itself:
every figure in the file is one that run.py printed. Per workload the
file holds each untraced run's ``wall_s``, ``setup_s`` and
``peak_rss_mb`` and their medians, the traced run's per-layer metrics,
every run's ``correct``, ``attempted`` and ``failed``, and the first
run's context. At top level it holds the git commit (``-dirty`` if the
checkout has uncommitted changes), ``--seconds``, the ``src/`` line
count and processor count of that context, and the per-layer metrics
that are known to misread. The file is written to the root of the
checkout; the script exits 1 if any run is not correct and 2 if run.py
fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve-fine", "verify-mc", "simulate-matrix")
UNTRACED_SEEDS = (1, 2, 3)
TRACED_SEED = 0
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# per-layer metrics that perfbench/spans.py does not measure as named
KNOWN_MISCOUNTS = {
    "cli.self_s": "holds verify's paired pass (stationarity projections "
                  "and deviation costs): no span opens around "
                  "verify.paired_law_checks",
    "discrete_engine.lu_factor_calls": "reads 0: the sweep solves with "
                                       "numpy.linalg.solve, spans.py counts "
                                       "scipy.linalg.lu_factor",
    "discrete_engine.lu_solve_calls": "reads 0: the sweep solves with "
                                      "numpy.linalg.solve, spans.py counts "
                                      "scipy.linalg.lu_solve",
    "simulator.rollouts": "undercounts: only draw_increments calls are "
                          "counted, not the rollouts that stream "
                          "increment_rows (paired pass, backward-equation "
                          "projection)",
    "simulator.path_steps": "undercounts, as simulator.rollouts",
    "verify.stationarity_s": "reads 0: verify runs the stationarity "
                             "projections in the paired pass",
    "verify.deviation_s": "reads 0: verify runs the deviation costs in the "
                          "paired pass",
}


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The context and the result of one run.py output: its last two
    lines, ``context {...}`` and the result object."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("context "):
        raise ValueError("run.py printed no context and result lines")
    return json.loads(lines[-2][len("context "):]), json.loads(lines[-1])


def _outcome(seed: int, result: dict) -> dict:
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def workload_entry(untraced, traced) -> dict:
    """One workload's entry from its untraced runs, a list of ``(seed,
    stdout)``, and its traced run, one ``(seed, stdout)``."""
    parsed = [(seed, *parse_run(stdout)) for seed, stdout in untraced]
    runs = [dict(_outcome(seed, result), **{
        name: result["metrics"][name]["value"] for name in END_TO_END})
        for seed, _, result in parsed]
    seed, stdout = traced
    _, result = parse_run(stdout)
    return {
        "runs": runs,
        "medians": {name: statistics.median(r[name] for r in runs)
                    for name in END_TO_END},
        "traced": dict(_outcome(seed, result), metrics=result["metrics"]),
        "context": parsed[0][1],
    }


def bench_report(entries: dict, commit: str | None, seconds: float) -> dict:
    """The BENCH file's object from the workload entries."""
    context = next(iter(entries.values()))["context"]
    return {"commit": commit, "seconds": seconds,
            "src_lines": context["src_lines"], "nproc": context["nproc"],
            "known_miscounts": KNOWN_MISCOUNTS, "workloads": entries}


def all_correct(report: dict) -> bool:
    return all(run["correct"] is True
               for entry in report["workloads"].values()
               for run in (*entry["runs"], entry["traced"]))


def _run(workload: str, seed: int, seconds: float, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def _commit() -> str | None:
    """HEAD's hash, suffixed ``-dirty`` when tracked files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=40"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, default=0,
                        help="writes BENCH_<pr>.json (default 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run.py's --seconds for every run (default 10)")
    args = parser.parse_args(argv)
    entries = {}
    try:
        for workload in WORKLOADS:
            untraced = [(seed, _run(workload, seed, args.seconds, 0))
                        for seed in UNTRACED_SEEDS]
            traced = (TRACED_SEED,
                      _run(workload, TRACED_SEED, args.seconds, 1))
            entries[workload] = workload_entry(untraced, traced)
            print(f"{workload}: median wall_s "
                  f"{entries[workload]['medians']['wall_s']:.3f} s")
    except (subprocess.CalledProcessError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = bench_report(entries, _commit(), args.seconds)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.name}")
    if not all_correct(report):
        print("bench: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
