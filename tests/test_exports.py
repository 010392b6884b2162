import tracemalloc

import numpy as np
import pytest

from delaygame import (assemble_gains, build_grid, extract_fields,
                       simulate_path_gains, solve_ladder)
from delaygame import exports
from conftest import golden_scalar_spec, matrix_spec
from oracles import (reference_fields_csv, reference_gains_csv,
                     reference_ladder_csv, reference_trajectories_csv)


def _artifacts(spec, delta, seed, n_paths):
    grid = build_grid(spec, delta)
    ladder = solve_ladder(spec, grid)
    fields = extract_fields(ladder)
    law = assemble_gains(fields, spec)
    traj = simulate_path_gains(law, spec, seed=seed, n_paths=n_paths)
    return grid, ladder, fields, law, traj


@pytest.fixture(scope="module")
def artifacts():
    # matrix: lag gap 3, so Mm rows in ladder.csv and interior K2_kernel rows
    # in gains.csv; golden: n = 1 and a single simulated path
    sets = {"matrix": _artifacts(matrix_spec(), 0.05, 7, 5),
            "golden": _artifacts(golden_scalar_spec(), 0.005, 3, 1)}
    grid = sets["matrix"][0]
    assert grid.d1 - grid.d2 == 3
    return sets


CASES = {
    "ladder.csv": (exports.export_ladder_csv, reference_ladder_csv,
                   lambda a: (a[1],)),
    "fields.csv": (exports.export_fields_csv, reference_fields_csv,
                   lambda a: (a[2],)),
    "gains.csv": (exports.export_gains_csv, reference_gains_csv,
                  lambda a: (a[3],)),
    "trajectories.csv": (exports.export_trajectories_csv,
                         reference_trajectories_csv,
                         lambda a: (a[4],)),
}


@pytest.mark.parametrize("problem,name", [
    *(pytest.param("matrix", name, id=name) for name in sorted(CASES)),
    *(pytest.param("golden", name, id=f"golden-{name}")
      for name in sorted(CASES))])
def test_csv_bytes_match_reference(artifacts, tmp_path, problem, name):
    export, reference, args = CASES[name]
    export(*args(artifacts[problem]), tmp_path / "got.csv")
    reference(*args(artifacts[problem]), tmp_path / "ref.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    if problem == "matrix" and name == "ladder.csv":
        assert b",Mm_const,2," in got and b",Mm_noise,1," in got
    if problem == "matrix" and name == "gains.csv":
        law = artifacts[problem][3]
        assert got.count(b",K2_kernel,") == 4 * np.prod(
            law.k2_kernel.shape[2:]) * len(law.t_samples)


def test_trajectory_text_held_one_path_at_a_time(artifacts, tmp_path):
    # the text of every row (about 9 times the arrays) is never held at once
    grid, _, _, law, _ = artifacts["matrix"]
    traj = simulate_path_gains(law, matrix_spec(), seed=7, n_paths=2000)
    arrays = sum(a.nbytes for a in (traj.x, traj.u1, traj.u2, traj.dw))
    tracemalloc.start()
    try:
        exports.export_trajectories_csv(traj, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_rejects_non_finite(tmp_path, value):
    # strict JSON: a non-finite number raises instead of being written
    # as NaN or Infinity
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        exports.write_json(path, {"statistic": value})
    assert b"NaN" not in path.read_bytes()
    assert b"Infinity" not in path.read_bytes()
