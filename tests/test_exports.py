import numpy as np
import pytest

from delaygame import (assemble_gains, build_grid, extract_fields,
                       simulate_path_gains, solve_ladder)
from delaygame import exports
from conftest import matrix_spec
from oracles import (reference_fields_csv, reference_gains_csv,
                     reference_ladder_csv, reference_trajectories_csv)


@pytest.fixture(scope="module")
def matrix_artifacts():
    # lag gap 3: Mm rows in ladder.csv, interior K2_kernel rows in gains.csv
    spec = matrix_spec()
    grid = build_grid(spec, 0.05)
    assert grid.d1 - grid.d2 == 3
    ladder = solve_ladder(spec, grid)
    fields = extract_fields(ladder)
    law = assemble_gains(fields, spec)
    traj = simulate_path_gains(law, spec, grid, seed=7, n_paths=5)
    return grid, ladder, fields, law, traj


CASES = {
    "ladder.csv": (exports.export_ladder_csv, reference_ladder_csv,
                   lambda a: (a[1],)),
    "fields.csv": (exports.export_fields_csv, reference_fields_csv,
                   lambda a: (a[2],)),
    "gains.csv": (exports.export_gains_csv, reference_gains_csv,
                  lambda a: (a[3],)),
    "trajectories.csv": (exports.export_trajectories_csv,
                         reference_trajectories_csv,
                         lambda a: (a[4], a[0])),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_reference(matrix_artifacts, tmp_path, name):
    export, reference, args = CASES[name]
    export(*args(matrix_artifacts), tmp_path / "got.csv")
    reference(*args(matrix_artifacts), tmp_path / "ref.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    if name == "ladder.csv":
        assert b",Mm_const,2," in got and b",Mm_noise,1," in got
    if name == "gains.csv":
        assert got.count(b",K2_kernel,") == 4 * np.prod(
            matrix_artifacts[3].k2_kernel.shape[2:]) * len(
            matrix_artifacts[3].t_samples)
