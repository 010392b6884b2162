"""Records the reference values that the benchmark's output check compares.

Runs each workload's command untraced, in-process, for every seed listed
below, and writes perfbench/reference.json. Run it from the root of a
checkout, only at a commit whose outputs are known to be right:

    python3 perfbench/record_reference.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from workloads import MATRIX_FILE, WORKLOADS, cli_seed, extract, \
    write_matrix_problem

SEEDS = range(11)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import delaygame.cli as cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        work = Path(tmp)
        write_matrix_problem(work / MATRIX_FILE)
        for workload in WORKLOADS.values():
            entry = {"fixed": None, "seeds": {}}
            for seed in (SEEDS if workload.seeded else (0,)):
                out = work / f"{workload.name}-{seed}"
                argv = workload.argv(workload.problem_path(root, work), out,
                                     seed)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                got = extract(workload, out, code)
                if entry["fixed"] not in (None, got["fixed"]):
                    raise RuntimeError(f"{workload.name}: seed-independent "
                                       f"values changed with the seed")
                entry["fixed"] = got["fixed"]
                if workload.seeded:
                    entry["seeds"][str(cli_seed(seed))] = got["seeded"]
                print(f"{workload.name} seed {seed}: exit {code}",
                      file=sys.stderr)
            reference[workload.name] = entry
    (Path(__file__).parent / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
