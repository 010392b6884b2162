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

With ``--against REV [--pairs N]`` the file also holds a ``"paired"``
object: REV is extracted with ``git archive`` into ``.bench_work/``, and
each workload runs N untraced pairs, one run of each tree on the same
seed (seeds 101 on, which no other run uses), the tree that goes first
alternating from pair to pair. Per end-to-end metric it records both
sides' values, the pairs the change wins (a lower value), the median
paired difference (change minus REV), REV's quartile distance
(``parent_iqr``) and the quartile distance of the paired differences
(``diff_iqr``): a drift of the host's load during the series widens the
first but not the second. Both trees' ``src/`` lose their
``__pycache__`` first, so neither side's ``setup_s`` reads cached
bytecode. The script exits 2 if ``perfbench/`` differs between the two
trees: the workloads would differ too.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve-fine", "verify-mc", "simulate-matrix")
UNTRACED_SEEDS = (1, 2, 3)
TRACED_SEED = 0
PAIRED_SEED0 = 101
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# per-layer metrics that perfbench/spans.py does not measure as named
KNOWN_MISCOUNTS = {
    "discrete_engine.lu_factor_calls": "reads 0: the sweep solves with "
                                       "numpy.linalg.solve, spans.py counts "
                                       "scipy.linalg.lu_factor",
    "discrete_engine.lu_solve_calls": "reads 0: the sweep solves with "
                                      "numpy.linalg.solve, spans.py counts "
                                      "scipy.linalg.lu_solve",
    "discrete_engine.cond_calls": "reads 0: each sweep step's one "
                                  "numpy.linalg.solve also gives the blocks' "
                                  "condition numbers, spans.py counts "
                                  "numpy.linalg.cond",
    "simulator.rollouts": "undercounts: only draw_increments calls are "
                          "counted, not the passes that stream "
                          "increment_rows (the backward-equation and "
                          "stationarity projections, and each path block "
                          "of the deviation pass)",
    "simulator.path_steps": "undercounts, as simulator.rollouts",
    "simulator.path_steps_per_s": "reads low on verify-mc: "
                                  "simulator.rollout_s holds the deviation "
                                  "pass (the span around "
                                  "verify.paired_deviation_costs), whose "
                                  "streamed path steps are not counted",
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


def _runs(runs) -> list[dict]:
    """Each ``(seed, stdout)`` run's outcome and end-to-end metrics."""
    rows = []
    for seed, stdout in runs:
        _, result = parse_run(stdout)
        rows.append(dict(_outcome(seed, result), **{
            name: result["metrics"][name]["value"] for name in END_TO_END}))
    return rows


def workload_entry(untraced, traced) -> dict:
    """One workload's entry from its untraced runs, a list of ``(seed,
    stdout)``, and its traced run, one ``(seed, stdout)``."""
    runs = _runs(untraced)
    seed, stdout = traced
    _, result = parse_run(stdout)
    return {
        "runs": runs,
        "medians": {name: statistics.median(r[name] for r in runs)
                    for name in END_TO_END},
        "traced": dict(_outcome(seed, result), metrics=result["metrics"]),
        "context": parse_run(untraced[0][1])[0],
    }


def _iqr(values) -> float:
    """The distance between the inclusive quartiles (0.0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def paired_entry(parent, change) -> dict:
    """One workload's paired entry from each side's runs, two lists of
    ``(seed, stdout)`` in pair order. Every metric is lower-is-better."""
    runs = {"parent": _runs(parent), "change": _runs(change)}
    entry = {"runs": runs}
    for name in END_TO_END:
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        diffs = [b - a for a, b in zip(before, after)]
        entry[name] = {"parent": before, "change": after,
                       "pairs": len(before),
                       "wins": sum(d < 0 for d in diffs),
                       "median_diff": statistics.median(diffs),
                       "parent_iqr": _iqr(before), "diff_iqr": _iqr(diffs)}
    return entry


def bench_report(entries: dict, commit: str | None, seconds: float) -> dict:
    """The BENCH file's object from the workload entries."""
    context = next(iter(entries.values()))["context"]
    return {"commit": commit, "seconds": seconds,
            "src_lines": context["src_lines"], "nproc": context["nproc"],
            "known_miscounts": KNOWN_MISCOUNTS, "workloads": entries}


def all_correct(report: dict) -> bool:
    runs = [run for entry in report["workloads"].values()
            for run in (*entry["runs"], entry["traced"])]
    for entry in report.get("paired", {}).get("workloads", {}).values():
        runs += entry["runs"]["parent"] + entry["runs"]["change"]
    return all(run["correct"] is True for run in runs)


def _run(workload: str, seed: int, seconds: float, trace: int,
         root: Path = ROOT) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def extract(rev: str) -> tuple[str, Path]:
    """REV's commit hash and its tree, extracted under .bench_work/.
    Raises ValueError if REV is no commit or its perfbench/ differs."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                           rev + "^{commit}"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"{rev!r} is not a commit")
    commit = proc.stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", commit, "--", "perfbench"],
                      cwd=ROOT).returncode != 0:
        raise ValueError(f"perfbench/ differs from {rev}'s: the workloads "
                         f"would differ")
    tree = ROOT / ".bench_work" / "against"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return commit, tree


def paired_runs(workload: str, pairs: int, seconds: float,
                tree: Path) -> dict:
    """N alternating untraced pairs of one workload: REV's tree and this
    checkout on the same seed, REV first in even pairs."""
    runs = {ROOT: [], tree: []}
    for i in range(pairs):
        seed = PAIRED_SEED0 + i
        for root in ((tree, ROOT) if i % 2 == 0 else (ROOT, tree)):
            runs[root].append((seed, _run(workload, seed, seconds, 0, root)))
    return paired_entry(runs[tree], runs[ROOT])


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
    parser.add_argument("--against", metavar="REV",
                        help="also run paired runs against this commit")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload with --against (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    entries, paired = {}, {}
    try:
        if args.against is not None:
            against, tree = extract(args.against)
            for root in (ROOT, tree):
                for cache in list((root / "src").rglob("__pycache__")):
                    shutil.rmtree(cache)
        for workload in WORKLOADS:
            untraced = [(seed, _run(workload, seed, args.seconds, 0))
                        for seed in UNTRACED_SEEDS]
            traced = (TRACED_SEED,
                      _run(workload, TRACED_SEED, args.seconds, 1))
            entries[workload] = workload_entry(untraced, traced)
            print(f"{workload}: median wall_s "
                  f"{entries[workload]['medians']['wall_s']:.3f} s")
            if args.against is not None:
                paired[workload] = paired_runs(workload, args.pairs,
                                               args.seconds, tree)
                wall = paired[workload]["wall_s"]
                print(f"{workload}: wall_s lower in {wall['wins']} of "
                      f"{wall['pairs']} pairs, median paired difference "
                      f"{wall['median_diff']:+.3f} s (quartile distance: "
                      f"parent {wall['parent_iqr']:.3f} s, differences "
                      f"{wall['diff_iqr']:.3f} s)")
    except (subprocess.CalledProcessError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = bench_report(entries, _commit(), args.seconds)
    if args.against is not None:
        report["paired"] = {"against": against, "pairs": args.pairs,
                            "seeds": [PAIRED_SEED0 + i
                                      for i in range(args.pairs)],
                            "workloads": paired}
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
