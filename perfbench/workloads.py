"""Workload definitions and output checks for the delaygame benchmark.

Each workload is one ``delaygame`` CLI command run in-process through
``delaygame.cli.main(argv)``. The three commands stress different modules:

* ``solve-fine``: the backward sweep at gap 8, plus the solve exports;
* ``verify-mc``: the Monte Carlo verification suite (projections,
  deviation rollouts, step-halving re-solves), with no bulk writes;
* ``simulate-matrix``: an n=2 problem whose run is dominated by
  ``trajectories.csv``.

This module imports only the standard library and numpy, so the parent
process of the benchmark never imports the program under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN = "problems/golden_scalar.json"
MATRIX_FILE = "matrix_problem.json"

# Tolerances for comparing against values recorded at the reference commit.
# Deterministic values (fields, gains, deterministic verify statistics) may
# drift only by round-off when a computation is reordered; Monte Carlo
# statistics are differences of path means and get a wider relative band.
RTOL_EXACT = 1e-9
RTOL_MC = 1e-6
ATOL = 1e-12

# verify checks whose statistic is independent of the seed
DETERMINISTIC_CHECKS = ("terminal_exactness", "lag_truncation",
                        "gain_stationarity_identity", "riccati_ode_trend",
                        "semigroup_trend", "z_factor_convergence")
# checks whose statistic is round-off noise: only the verdict is compared
ROUNDOFF_CHECKS = ("gain_stationarity_identity",)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    problem: str            # relative to the checkout, or MATRIX_FILE
    delta: float
    paths: int | None
    halvings: int | None
    seeded: bool
    warmup: tuple[str, ...]  # cheap flags of the same command, run untimed

    def problem_path(self, root: Path, work: Path) -> Path:
        return work / MATRIX_FILE if self.problem == MATRIX_FILE \
            else root / self.problem

    def argv(self, problem: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command, "--problem", str(problem),
                "--delta", repr(self.delta), "--out", str(out)]
        if self.paths is not None:
            argv += ["--paths", str(self.paths)]
        if self.halvings is not None:
            argv += ["--halvings", str(self.halvings)]
        if self.seeded:
            argv += ["--seed", str(cli_seed(seed))]
        return argv

    def warmup_argv(self, problem: Path, out: Path) -> list[str]:
        return [self.command, "--problem", str(problem), "--out", str(out),
                *self.warmup]


WORKLOADS = {w.name: w for w in (
    Workload("solve-fine", "solve", GOLDEN, 0.00125, None, None, False,
             ("--delta", "0.005")),
    Workload("verify-mc", "verify", GOLDEN, 0.005, 10000, 1, True,
             ("--delta", "0.01", "--paths", "200", "--halvings", "1")),
    Workload("simulate-matrix", "simulate", MATRIX_FILE, 0.01, 2000, None,
             True, ("--delta", "0.05", "--paths", "50")),
)}


def cli_seed(seed: int) -> int:
    """The CLI takes an unsigned 64-bit seed."""
    return seed % 2 ** 64


def write_matrix_problem(path: Path) -> None:
    """The n = 2 problem with control dimensions 1 and 2, built exactly as
    ``tests/conftest.py::matrix_spec`` builds it, in the problem-file format."""
    rng = np.random.default_rng(0)
    A = 0.3 * rng.normal(size=(2, 2))
    Abar = 0.2 * rng.normal(size=(2, 2))
    B1 = rng.normal(size=(2, 1))
    B1bar = 0.3 * rng.normal(size=(2, 1))
    B2 = rng.normal(size=(2, 2))
    B2bar = 0.2 * rng.normal(size=(2, 2))
    q = rng.normal(size=(2, 2))
    Q = q.T @ q
    data = {"A": A, "Abar": Abar, "B1": B1, "B1bar": B1bar, "B2": B2,
            "B2bar": B2bar, "Q1": Q, "Q2": 0.5 * Q + 0.2 * np.eye(2),
            "R1": np.array([[1.0]]), "R2": 1.5 * np.eye(2),
            "H1": 0.4 * np.eye(2), "H2": 0.6 * np.eye(2)}
    data = {k: v.tolist() for k, v in data.items()}
    data.update(h1=0.2, h2=0.05, T=1.0, x0=[1.0, -0.5])
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# extraction of the compared values from a command's artifacts
# ---------------------------------------------------------------------------

def _csv_rows_at_t0(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            if not line.startswith("0.0,"):
                break
            yield dict(zip(header, line.rstrip("\n").split(",")))


def extract(workload: Workload, out: Path, exit_code: int) -> dict:
    """Values of one run that the check compares, grouped by whether they
    depend on the seed."""
    fixed: dict = {"exit_code": exit_code} if not workload.seeded else {}
    seeded: dict = {}
    if workload.command == "solve":
        for r in _csv_rows_at_t0(out / "fields.csv"):
            if r["kind"] == "P":
                fixed[f"P{r['player']}[{r['row']},{r['col']}]"] = \
                    float(r["value"])
        for r in _csv_rows_at_t0(out / "gains.csv"):
            fixed[f"{r['component']}({r['theta']})[{r['row']},{r['col']}]"] = \
                float(r["value"])
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        fixed["grid"] = meta["grid"]
    elif workload.command == "verify":
        report = json.loads((out / "verify_report.json").read_text(
            encoding="utf-8"))
        seeded["exit_code"] = exit_code
        for rec in report["tests"]:
            target = fixed if rec["name"] in DETERMINISTIC_CHECKS else seeded
            target[rec["name"]] = {"statistic": rec["statistic"],
                                   "pass": rec["pass"]}
    else:
        with open(out / "trajectories.csv", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            first = fh.readline().rstrip("\n").split(",")
        # at k = 0 every window entry holds x0, so the first row's state and
        # controls do not depend on the noise
        for name, value in zip(header, first):
            if name[0] in "xu":
                fixed[f"k0.{name}"] = float(value)
        costs = json.loads((out / "costs.json").read_text(encoding="utf-8"))
        seeded.update(J1_mean=costs["J1_mean"], J2_mean=costs["J2_mean"])
    return {"fixed": fixed, "seeded": seeded}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL


def _compare(name: str, got, ref, rtol: float, problems: list[str]) -> None:
    if isinstance(ref, dict) and "statistic" in ref:
        if got["pass"] != ref["pass"]:
            problems.append(f"{name}: verdict {got['pass']} != {ref['pass']}")
        elif name not in ROUNDOFF_CHECKS and \
                not _close(got["statistic"], ref["statistic"], rtol):
            problems.append(f"{name}: {got['statistic']!r} != "
                            f"{ref['statistic']!r}")
    elif isinstance(ref, float):
        if not _close(got, ref, rtol):
            problems.append(f"{name}: {got!r} != {ref!r}")
    elif got != ref:
        problems.append(f"{name}: {got!r} != {ref!r}")


def _line_count(path: Path) -> int:
    count = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            count += chunk.count(b"\n")
    return count


def check(workload: Workload, out: Path, exit_code: int, seed: int,
          n_last: int, reference: dict) -> list[str]:
    """Problems found in one run's artifacts; an empty list means correct.

    ``n_last`` is the grid's last step index N. Seed-independent values
    are always compared with the reference. Seeded values are compared
    when the reference has the seed; otherwise only the structure is
    checked: exit code 0 or 4, every deterministic check passes, costs are
    finite, one trajectory row per path and step.
    """
    expected_exit = (0, 4) if workload.command == "verify" else (0,)
    if exit_code not in expected_exit:
        return [f"exit code {exit_code}"]
    try:
        got = extract(workload, out, exit_code)
    except (OSError, KeyError, ValueError) as exc:
        return [f"artifacts unreadable: {exc!r}"]
    ref = reference[workload.name]
    problems: list[str] = []
    if set(got["fixed"]) != set(ref["fixed"]):
        problems.append("seed-independent values: keys differ")
    for name, value in ref["fixed"].items():
        if name in got["fixed"]:
            _compare(name, got["fixed"][name], value, RTOL_EXACT, problems)
    for name in DETERMINISTIC_CHECKS:
        rec = got["fixed"].get(name)
        if workload.command == "verify" and not (rec and rec["pass"]):
            problems.append(f"deterministic check {name} did not pass")
    ref_seeded = ref["seeds"].get(str(cli_seed(seed)))
    if ref_seeded is not None:
        if set(got["seeded"]) != set(ref_seeded):
            problems.append("seeded values: keys differ")
        for name, value in ref_seeded.items():
            if name in got["seeded"]:
                _compare(name, got["seeded"][name], value, RTOL_MC, problems)
    if workload.command == "simulate":
        for name in ("J1_mean", "J2_mean"):
            if not math.isfinite(got["seeded"][name]):
                problems.append(f"{name} is not finite")
        rows = _line_count(out / "trajectories.csv") - 1
        if rows != workload.paths * (n_last + 2):
            problems.append(f"trajectories.csv has {rows} rows, expected "
                            f"{workload.paths} x {n_last + 2}")
    return problems
