"""Runs one workload's CLI command repeatedly in-process and records each run.

run.py starts this script in a fresh interpreter, so that the peak
resident memory it reports belongs to the process that ran the command.
Usage: ``python3 perfbench/worker.py <config.json>``; the config names the
checkout root, the work directory, the workload, seed, seconds and trace
flag. The records go to ``worker.json`` in the work directory.

With tracing on, runs alternate traced and untraced (traced first), so
that the overhead of tracing is measured on neighbouring runs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

MIN_RUNS = 3
# stop starting runs past this, whatever the minimum, so that a run of the
# benchmark ends within its time limit even when a command gets slow
HARD_LIMIT_S = 120.0


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _context(root: Path, grid, paths) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}},
        "grid": {"N": grid.N, "delta": grid.delta, "d1": grid.d1,
                 "d2": grid.d2, "gap": grid.d1 - grid.d2},
        "paths": paths,
        "src_lines": src_lines,
    }


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root, work = Path(cfg["root"]), Path(cfg["work"])
    sys.path.insert(0, str(root / "src"))
    import delaygame.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(
            (root / "src").resolve()):
        raise RuntimeError(f"delaygame imported from {cli.__file__}, "
                           f"not from the checkout")
    from spans import Tracer
    from workloads import WORKLOADS, check

    workload = WORKLOADS[cfg["workload"]]
    seed, seconds, trace = cfg["seed"], cfg["seconds"], cfg["trace"]
    reference = json.loads((Path(__file__).parent / "reference.json")
                           .read_text(encoding="utf-8"))
    # paths relative to the checkout root (the working directory), so that
    # artifacts naming the problem file are the same in every checkout
    work = work.relative_to(root)
    problem = workload.problem_path(Path(), work)
    out = work / "out"
    argv = workload.argv(problem, out, seed)
    grid = cli.build_grid(cli.load_problem(problem), workload.delta)

    # untimed warm-up on a coarse grid: lazy imports, first-call paths
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(workload.warmup_argv(problem, work / "warmup"))
    if code not in (0, 4):
        raise RuntimeError(f"warm-up exited {code}: {sink.getvalue()}")

    tracer = Tracer()
    records = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(records) % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        gc.collect()
        if traced:
            tracer.install()
        problems = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = tracer.run(cli.main, argv) if traced else cli.main(argv)
        except Exception as exc:        # a crash is a failed run, not ours
            code, problems = None, [f"raised {exc!r}"]
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if code is not None:
            problems = check(workload, out, code, seed, grid.N, reference)
        records.append({
            "traced": traced, "wall_s": wall, "exit": code,
            "problems": problems,
            "output": sink.getvalue()[-2000:] if problems else "",
            "digest": _digest(out) if out.is_dir() else None,
            "layers": tracer.summary(tracer.run_id) if traced else None,
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if elapsed + typical > HARD_LIMIT_S or (
                len(records) >= MIN_RUNS and elapsed + typical > seconds):
            break
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(work / "warmup", ignore_errors=True)
    if trace:
        tracer.dump(work / f"spans-seed{seed}.json")
    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "context": _context(root, grid, workload.paths),
    }
    (work / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
