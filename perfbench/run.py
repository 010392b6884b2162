"""Benchmark of the delaygame CLI: three workloads, end to end and per layer.

Usage, from the root of a delaygame checkout:

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 60 --trace 0

Each run is a closed loop of one command at a time, in one worker process
(perfbench/worker.py) that calls ``delaygame.cli.main(argv)`` in-process.
The worker repeats the command until ``--seconds`` are spent (at least three
times) and checks every run's artifacts against perfbench/reference.json.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time
of one command), ``setup_s`` (median set-up time over fresh interpreters,
see setup_probe.py) and ``peak_rss_mb`` (peak resident memory of the
worker). ``--trace 1`` alternates traced and untraced commands and reports
the per-layer metrics of spans.py (medians over the traced commands),
``bench.trace_overhead_s`` and ``failed_frac``; it also asserts that every
count repeats exactly and that traced and untraced commands write the same
bytes. The run context (versions, BLAS, grid, seed, src line count) is
printed on the line before the result, which is the last line: one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GOLDEN, MATRIX_FILE, WORKLOADS, write_matrix_problem

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# a run of the benchmark must end within 180 s
TIME_LIMIT_S = 170.0
COUNT_SUFFIXES = ("_calls", ".steps", ".sweeps", ".rollouts", ".path_steps",
                  ".bytes", ".checks", ".checks_failed")


def _python(args: list[str], cwd: Path, timeout: float) -> str:
    """Run a script of this directory in a fresh interpreter; its stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return proc.stdout


def measure_setup(root: Path, problem: Path, delta: float) -> float:
    """Median set-up time over fresh interpreters, after one untimed probe
    that fills the bytecode and file caches."""
    args = [str(HERE / "setup_probe.py"), str(root), str(problem), repr(delta)]
    _python(args, root, 60)
    return statistics.median(float(_python(args, root, 60).split()[-1])
                             for _ in range(SETUP_PROBES))


def layer_metrics(records: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer medians over traced records, and self-test failures."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    problems = []
    if len(traced) < 2 or not untraced:
        problems.append("self-test needs two traced runs and one untraced")
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        values = [r["layers"][name] for r in traced]
        if not name.endswith(COUNT_SUFFIXES):
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            problems.append(f"count {name} differs between runs: {values}")
    if untraced:
        metrics["bench.trace_overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced))
    return metrics, problems


UNITS = (("mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
         ("_frac", "1"), (".bytes", "B"))


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "delaygame" / "cli.py").is_file() or \
            not (root / GOLDEN).is_file():
        print("perfbench: run from the root of a delaygame checkout "
              "(src/delaygame and problems/ not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload.problem == MATRIX_FILE:
        write_matrix_problem(work / MATRIX_FILE)
    problem = workload.problem_path(root, work)

    setup_s = measure_setup(root, problem, workload.delta)
    config = work / "config.json"
    config.write_text(json.dumps({
        "root": str(root), "work": str(work), "workload": workload.name,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace}),
        encoding="utf-8")
    _python([str(HERE / "worker.py"), str(config)], root,
            TIME_LIMIT_S - (time.perf_counter() - started))
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    records = result["records"]

    failed = sum(1 for r in records if r["problems"])
    problems = [f"run {i}: {p}" for i, r in enumerate(records)
                for p in r["problems"]]
    if len({r["digest"] for r in records}) != 1:
        problems.append("runs wrote different artifacts")
    if args.trace:
        metrics, self_test = layer_metrics(records)
        problems += self_test
        metrics["failed_frac"] = failed / len(records)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in records),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    for r in records:
        if r["output"]:
            print(r["output"], file=sys.stderr)

    context = dict(result["context"], workload=workload.name, seed=args.seed,
                   nproc=os.cpu_count(), runs=len(records),
                   walls_s=[r["wall_s"] for r in records])
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
