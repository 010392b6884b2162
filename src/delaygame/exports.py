"""Flat CSV exports and structured reports for analysis-tool consumption."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .continuous_limit import RiccatiFields
from .discrete_engine import RiccatiLadder
from .gains import FeedbackLaw
from .model import Grid
from .simulator import CostEstimate, Trajectory


def problem_hash(path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _matrix_rows(prefix, M):
    M = np.atleast_2d(M)
    for r in range(M.shape[0]):
        for c in range(M.shape[1]):
            yield (*prefix, r, c, repr(float(M[r, c])))


def export_ladder_csv(ladder: RiccatiLadder, path) -> None:
    """One row per matrix entry: (k, player, kind, lag_index, row, col, value).

    Closed-loop coefficients appear with players blank and their
    increment-free/increment parts as separate kinds.
    """
    rows = []
    for k in range(ladder.grid.N + 2):
        layer = ladder.layer(k)
        for i in range(2):
            rows.extend(_matrix_rows((k, i + 1, "Phat", ""), layer.phat[i]))
            for j in range(ladder.grid.d1 + 1):
                rows.extend(_matrix_rows((k, i + 1, "Phat_lag", j),
                                         layer.phat_lag[i][j]))
            for j in range(ladder.grid.d2 + 1):
                rows.extend(_matrix_rows((k, i + 1, "Ccheck_lag", j),
                                         layer.ccheck_lag[i][j]))
            rows.extend(_matrix_rows((k, i + 1, "Shat", ""), layer.shat[i]))
            rows.extend(_matrix_rows((k, i + 1, "Scheck", ""), layer.scheck[i]))
    for k in range(ladder.grid.N + 1):
        step = ladder.step(k)
        rows.extend(_matrix_rows((k, "", "M_const", ""), step.m_mat.const_part))
        rows.extend(_matrix_rows((k, "", "M_noise", ""), step.m_mat.noise_part))
        for m, mm in enumerate(step.mm, start=1):
            rows.extend(_matrix_rows((k, "", "Mm_const", m), mm.const_part))
            rows.extend(_matrix_rows((k, "", "Mm_noise", m), mm.noise_part))
        rows.extend(_matrix_rows((k, "", "H_const", ""), step.h_mat.const_part))
        rows.extend(_matrix_rows((k, "", "H_noise", ""), step.h_mat.noise_part))
    _write_rows(path, ("k", "player", "kind", "lag_index", "row", "col", "value"),
                rows)


def export_ladder_metadata(ladder: RiccatiLadder, path, problem_path=None,
                           extra=None) -> None:
    grid = ladder.grid
    # where along the grid solvability is weakest: each step's worst block
    profile = []
    for step in ladder.closed_loop:
        worst = min(step.rcond, key=step.rcond.get)
        profile.append({"k": step.k, "block": worst,
                        "rcond": step.rcond[worst]})
    meta = {
        "grid": {"N": grid.N, "delta": grid.delta, "d1": grid.d1, "d2": grid.d2},
        "rcond_min": ladder.rcond_min,
        "rcond_profile": profile,
        "provisional_below": grid.d1,
    }
    if problem_path is not None:
        meta["problem"] = {"path": str(problem_path),
                           "hash": problem_hash(problem_path)}
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_fields_csv(fields: RiccatiFields, path) -> None:
    rows = []
    for k, t in enumerate(fields.t):
        for i in range(2):
            rows.extend(_matrix_rows((repr(float(t)), "", i + 1, "P"),
                                     fields.P[i, k]))
            for j, theta in enumerate(fields.theta1):
                rows.extend(_matrix_rows((repr(float(t)), repr(float(theta)),
                                          i + 1, "Phat"), fields.phat[i, k, j]))
            for j, theta in enumerate(fields.theta2):
                rows.extend(_matrix_rows((repr(float(t)), repr(float(theta)),
                                          i + 1, "Ccheck"), fields.ccheck[i, k, j]))
            rows.extend(_matrix_rows((repr(float(t)), "", i + 1, "Shat"),
                                     fields.shat[i, k]))
            rows.extend(_matrix_rows((repr(float(t)), "", i + 1, "Scheck"),
                                     fields.scheck[i, k]))
    _write_rows(path, ("t", "theta", "player", "kind", "row", "col", "value"),
                rows)


def export_gains_csv(law: FeedbackLaw, path) -> None:
    rows = []
    for k, t in enumerate(law.t_samples):
        ts = repr(float(t))
        rows.extend(_matrix_rows((ts, "", "K1"), law.k1[k]))
        rows.extend(_matrix_rows((ts, "", "K2_h1"), law.k2_h1[k]))
        for j, theta in enumerate(law.theta_kernel):
            rows.extend(_matrix_rows((ts, repr(float(theta)), "K2_kernel"),
                                     law.k2_kernel[k, j]))
        rows.extend(_matrix_rows((ts, "", "K2_h2"), law.k2_h2[k]))
        rows.extend(_matrix_rows((ts, "", "Rt1"), law.rt1[k]))
        rows.extend(_matrix_rows((ts, "", "Rt2"), law.rt2[k]))
        rows.extend(_matrix_rows((ts, "", "O1"), law.o1[k]))
    _write_rows(path, ("t", "theta", "component", "row", "col", "value"), rows)


def export_trajectories_csv(traj: Trajectory, grid: Grid, path) -> None:
    n = traj.x.shape[2]
    d1c = traj.u1.shape[2]
    d2c = traj.u2.shape[2]
    header = (["path_id", "k", "t"]
              + [f"x{i}" for i in range(n)]
              + [f"u1_{i}" for i in range(d1c)]
              + [f"u2_{i}" for i in range(d2c)]
              + ["dW"])
    times = grid.times()
    rows = []
    for p in range(traj.n_paths):
        for k in range(grid.N + 2):
            xs = [repr(float(v)) for v in traj.x[k, p]]
            if k <= grid.N:
                u1s = [repr(float(v)) for v in traj.u1[k, p]]
                u2s = [repr(float(v)) for v in traj.u2[k, p]]
                dw = repr(float(traj.dw[k, p]))
            else:
                u1s = [""] * d1c
                u2s = [""] * d2c
                dw = ""
            rows.append([p, k, repr(float(times[k])), *xs, *u1s, *u2s, dw])
    _write_rows(path, header, rows)


def export_cost_report(est: CostEstimate, path) -> None:
    data = {
        "J1_mean": est.j1, "J1_se": est.j1_se,
        "J2_mean": est.j2, "J2_se": est.j2_se,
        "n_paths": est.n_paths, "seed": est.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_verification_report(records: list[dict], path) -> None:
    """One record per test: name, statistic, bound, pass."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tests": records,
                   "passed": all(r["pass"] for r in records)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
