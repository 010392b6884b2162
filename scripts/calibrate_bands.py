"""Reproduce the measurements behind the pinned verification bands.

The package pins three constants (projection bands per unit step for the
backward-equation and stationarity tests, and the cross-representation
rate). This script re-measures them on the golden instance at a
step-halving pair, plus the mutation responses that keep the bands
non-vacuous. Pinned values carry roughly a 1.5x margin over the measured
rates. Next to the cross-representation rate it prints the two other
figures acceptance criterion 09 holds: the path gap under the ladder's
implied law (round-off) and the assembled-law gap's halving ratio.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from delaygame import (assemble_gains, build_grid, extract_fields,
                       load_problem, perturb_control, simulate_path_gains,
                       simulate_path_ladder, solve_ladder)
from delaygame import verify as vfy


def main():
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = load_problem(root / "problems" / "golden_scalar.json")
    print(f"pinned: FBSDE_BAND_C={vfy.FBSDE_BAND_C} "
          f"STATIONARITY_BAND_C={vfy.STATIONARITY_BAND_C} "
          f"CROSS_REP_C={vfy.CROSS_REP_C}")
    cross_prev = None
    for dt in (0.005, 0.0025):
        grid = build_grid(spec, dt)
        ladder = solve_ladder(spec, grid)
        law = assemble_gains(extract_fields(ladder), spec)
        fb = vfy.projection_net(
            vfy.fbsde_residual_test(ladder, spec, 10_000, seed=2), grid)
        st = vfy.projection_net(
            vfy.stationarity_residual_test(ladder, law, spec, 10_000, seed=2),
            grid)
        tl = simulate_path_ladder(ladder, spec.x0, seed=11, n_paths=64)
        tg = simulate_path_gains(law, spec, seed=11, n_paths=64)
        ti = simulate_path_gains(vfy.implied_law(ladder, spec), spec,
                                 seed=11, n_paths=64)
        cross = float(np.max(np.abs(tl.x - tg.x)))
        implied = max(float(np.max(np.abs(getattr(tl, a) - getattr(ti, a))))
                      for a in ("x", "u1", "u2"))
        print(f"delta={grid.delta}:")
        print(f"  backward-eq net/delta   {fb / grid.delta:8.4f}")
        print(f"  stationarity net/delta  {st / grid.delta:8.4f}")
        print(f"  cross-rep gap/delta     {cross / grid.delta:8.4f}")
        print(f"  implied-law path gap    {implied:8.1e}")
        if cross_prev is not None:
            print(f"  cross-rep halving ratio {cross / cross_prev:8.4f}")
        cross_prev = cross

    grid = build_grid(spec, 0.005)
    ladder = solve_ladder(spec, grid)
    law = assemble_gains(extract_fields(ladder), spec)
    mutated = perturb_control(law, 1, "gain_scale", 1.1)
    st_mut = vfy.projection_net(
        vfy.stationarity_residual_test(ladder, mutated, spec, 10_000, seed=2),
        grid)
    band = vfy.STATIONARITY_BAND_C * grid.delta
    print(f"10% gain mutation: stationarity net {st_mut:.4f} "
          f"= {st_mut / band:.1f}x band")
    corrupted = solve_ladder(spec, grid)
    vfy.zero_layer(corrupted, grid.N // 2)
    fb_mut = vfy.projection_net(
        vfy.fbsde_residual_test(corrupted, spec, 10_000, seed=2), grid)
    band = vfy.FBSDE_BAND_C * grid.delta
    print(f"zeroed-layer mutation: backward-eq net {fb_mut:.4f} "
          f"= {fb_mut / band:.0f}x band")


if __name__ == "__main__":
    main()
