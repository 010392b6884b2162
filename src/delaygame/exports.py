"""Flat CSV exports and structured reports for analysis-tool consumption."""

from __future__ import annotations

import hashlib
import json
from operator import add
from pathlib import Path

import numpy as np

from .continuous_limit import RiccatiFields
from .discrete_engine import RiccatiLadder, block_order
from .gains import FeedbackLaw
from .simulator import CostEstimate, Trajectory


def problem_hash(path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _text(values) -> list[str]:
    """Shortest round-trip text of every value, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_table(path, header, *tables) -> None:
    """One CSV file from a header and tables given as iterables of row
    text, every table in order. Each row is its fields joined by commas and
    ended by CRLF, as the csv module writes it: no field needs quoting,
    each being a number, an index, a fixed label or empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for chunks in tables:
            fh.writelines(chunks)


def write_json(path, data) -> None:
    """``data`` as strict JSON with sorted keys, indented by 2,
    newline-ended; a NaN or infinite value raises ``ValueError``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _entry_table(lead, parts):
    """The text of a table with one row per matrix entry, one string per
    outer index, so that only one outer index's text is held at a time.

    ``lead`` holds the text of the leading column, one per outer index a;
    ``parts`` lists ``(labels, stack)`` with ``stack`` of shape (len(lead),
    r, c). For every a, each part contributes its rows (a, *labels, row,
    col, value) in row-major entry order.
    """
    prefixes, blocks = [], []
    for labels, stack in parts:
        r, c = stack.shape[1:]
        head = "".join(f",{label}" for label in labels)
        prefixes += [f"{head},{i},{j}," for i in range(r) for j in range(c)]
        blocks.append(stack.reshape(len(lead), -1))
    for a, values in zip(lead, np.concatenate(blocks, axis=1)):
        # every row after the first opens with the line end of the one
        # before it and then the outer index
        yield (a + ("\r\n" + a).join(map(add, prefixes, _text(values)))
               + "\r\n")


def export_ladder_csv(ladder: RiccatiLadder, path) -> None:
    """One row per matrix entry: (k, player, kind, lag_index, row, col, value).

    Closed-loop coefficients appear with players blank and their
    increment-free/increment parts as separate kinds.
    """
    grid, gap = ladder.grid, ladder.gap
    layer_parts = []
    for i in range(2):
        layer_parts.append(((i + 1, "Phat", ""), ladder.phat[:, i]))
        layer_parts += [((i + 1, "Phat_lag", j), ladder.phat_lag[:, i, j])
                        for j in range(grid.d1 + 1)]
        layer_parts += [((i + 1, "Ccheck_lag", j), ladder.ccheck_lag[:, i, j])
                        for j in range(grid.d2 + 1)]
        layer_parts.append(((i + 1, "Shat", ""), ladder.shat[:, i]))
        layer_parts.append(((i + 1, "Scheck", ""), ladder.scheck[:, i]))
    kinds = ([("M", "")] + [("Mm", m) for m in range(1, gap)]
             + [("H", "")])
    step_parts = [(("", f"{kind}_{part}", lag), ladder.coef[:, l, p])
                  for l, (kind, lag) in enumerate(kinds)
                  for p, part in enumerate(("const", "noise"))]
    _write_table(path, ("k", "player", "kind", "lag_index", "row", "col",
                        "value"),
                 _entry_table([str(k) for k in range(grid.N + 2)],
                              layer_parts),
                 _entry_table([str(k) for k in range(grid.N + 1)],
                              step_parts))


def export_ladder_metadata(ladder: RiccatiLadder, path, problem_path,
                           extra: dict) -> None:
    """The grid, where solvability is weakest, the problem file's path and
    hash, then the entries of ``extra``."""
    grid = ladder.grid
    # where along the grid solvability is weakest: each step's worst block
    levels, names = zip(*block_order(ladder.gap))
    rcond = ladder.rcond[:, list(levels)]
    worst = rcond.argmin(axis=1)
    profile = [{"k": k, "block": names[w], "rcond": float(rcond[k, w])}
               for k, w in enumerate(worst.tolist())]
    meta = {
        "grid": {"N": grid.N, "delta": grid.delta, "d1": grid.d1, "d2": grid.d2},
        "rcond_min": ladder.rcond_min,
        "rcond_profile": profile,
        "provisional_below": grid.d1,
        "problem": {"path": str(problem_path),
                    "hash": problem_hash(problem_path)},
        **extra,
    }
    write_json(path, meta)


def export_fields_csv(fields: RiccatiFields, path) -> None:
    parts = []
    for i in range(2):
        parts.append((("", i + 1, "P"), fields.P[i]))
        parts += [((repr(float(theta)), i + 1, "Phat"), fields.phat[i, :, j])
                  for j, theta in enumerate(fields.theta1)]
        parts += [((repr(float(theta)), i + 1, "Ccheck"),
                   fields.ccheck[i, :, j])
                  for j, theta in enumerate(fields.theta2)]
        parts.append((("", i + 1, "Shat"), fields.shat[i]))
        parts.append((("", i + 1, "Scheck"), fields.scheck[i]))
    _write_table(path, ("t", "theta", "player", "kind", "row", "col", "value"),
                 _entry_table(_text(fields.t), parts))


def export_gains_csv(law: FeedbackLaw, path) -> None:
    parts = [(("", "K1"), law.k1), (("", "K2_h1"), law.k2_h1)]
    parts += [((repr(float(theta)), "K2_kernel"), law.k2_kernel[:, j])
              for j, theta in enumerate(law.theta_kernel)]
    parts += [(("", "K2_h2"), law.k2_h2), (("", "Rt1"), law.rt1),
              (("", "Rt2"), law.rt2), (("", "O1"), law.o1)]
    _write_table(path, ("t", "theta", "component", "row", "col", "value"),
                 _entry_table(_text(law.t_samples), parts))


def export_trajectories_csv(traj: Trajectory, path) -> None:
    """One row per path and step k = 0..N+1 of the trajectory's grid; the
    controls and the increment are blank at k = N+1. The text of one path
    is held at a time."""
    grid, n = traj.grid, traj.x.shape[2]
    header = (["path_id", "k", "t"] + [f"x{i}" for i in range(n)]
              + [f"u1_{i}" for i in range(traj.u1.shape[2])]
              + [f"u2_{i}" for i in range(traj.u2.shape[2])] + ["dW"])
    block = np.full((grid.N + 2, len(header)), "", dtype=object)
    block[:, 1] = [str(k) for k in range(grid.N + 2)]
    block[:, 2] = _text(grid.times())

    def paths():
        for p in range(traj.n_paths):
            block[:, 0] = str(p)
            block[:, 3:3 + n].flat = _text(traj.x[:, p])
            block[:-1, 3 + n:].flat = _text(np.concatenate(
                (traj.u1[:, p], traj.u2[:, p], traj.dw[:, p, None]), axis=1))
            yield "\r\n".join(map(",".join, block.tolist())) + "\r\n"

    _write_table(path, header, paths())


def export_cost_report(est: CostEstimate, path) -> None:
    write_json(path, {"J1_mean": est.j1, "J1_se": est.j1_se,
                      "J2_mean": est.j2, "J2_se": est.j2_se,
                      "n_paths": est.n_paths, "seed": est.seed})


def export_verification_report(records: list[dict], path) -> None:
    """One record per test: name, statistic, bound, pass, evaluated; the
    names of the checks that compared nothing are listed again under
    ``not_evaluated``."""
    write_json(path, {"tests": records,
                      "passed": all(r["pass"] for r in records),
                      "not_evaluated": [r["name"] for r in records
                                        if not r["evaluated"]]})
