"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines. Monte Carlo checks use frozen seeds, so outcomes are
reproducible. Band constants were calibrated once on the golden scalar
instance by step-halving pairs and are pinned in the package.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from delaygame import (GameSpec, assemble_gains, build_grid,
                       continuous_residuals, estimate_costs, extract_fields,
                       simulate_path_gains, simulate_path_ladder,
                       solve_ladder, perturb_control)
from delaygame.discrete_engine import SweepCoefficients
from delaygame import verify as vfy
from conftest import golden_scalar_spec, matrix_spec
from oracles import oracle_sweep, single_player_reduction_gap

GOLDEN_DELTA = 0.005          # N = 199, d1 = 4, d2 = 2 on the golden spec
PATHS = 10_000
SEED = 2026


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def golden_ladders():
    """Golden sweeps at delta = 0.005 / 2^m for m = 0..3."""
    spec = golden_scalar_spec()
    out = {}
    for m in range(4):
        grid = build_grid(spec, GOLDEN_DELTA / 2 ** m)
        out[m] = (grid, solve_ladder(spec, grid))
    return spec, out


def test_criterion_01_zero_cost_annihilation():
    spec = GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.8, B2bar=0.3,
                    Q1=0.0, Q2=0.0, R1=1.0, R2=1.2, H1=0.0, H2=0.0,
                    h1=4.0 / 101.0, h2=2.0 / 101.0, T=1.0, x0=[1.0])
    start = time.perf_counter()
    grid = build_grid(spec, 1.0 / 101.0)
    assert grid.N == 100
    ladder = solve_ladder(spec, grid)
    fields = extract_fields(ladder)
    law = assemble_gains(fields, spec)
    traj = simulate_path_gains(law, spec, seed=SEED, n_paths=64)
    est = estimate_costs(traj, spec)
    elapsed = time.perf_counter() - start

    ladder_zero = all(
        np.all(ladder.phat[k] == 0.0)
        and np.all(ladder.phat_lag[k] == 0.0)
        and np.all(ladder.ccheck_lag[k] == 0.0)
        for k in range(grid.N + 2))
    gains_zero = (np.all(law.k1 == 0.0) and np.all(law.k2_h1 == 0.0)
                  and np.all(law.k2_kernel == 0.0)
                  and np.all(law.k2_h2 == 0.0))
    controls_zero = np.all(traj.u1 == 0.0) and np.all(traj.u2 == 0.0)
    fields_zero = np.all(fields.P == 0.0) and np.all(fields.phat == 0.0)
    costs_zero = est.j1 == 0.0 and est.j2 == 0.0
    ok = (ladder_zero and gains_zero and controls_zero and fields_zero
          and costs_zero and elapsed < 1.0)
    _report(1, ok, f"zero-cost pipeline exactly zero, {elapsed:.3f}s at N=100")
    assert ladder_zero and fields_zero and gains_zero
    assert controls_zero and costs_zero
    assert elapsed < 1.0


def test_criterion_02_terminal_and_truncation_exactness(golden_ladders):
    spec, ladders = golden_ladders
    grid, ladder = ladders[0]
    term = grid.N + 1
    terminal_ok = (np.array_equal(ladder.phat[term][0], spec.H1)
                   and np.array_equal(ladder.phat[term][1], spec.H2)
                   and np.all(ladder.phat_lag[term] == 0.0)
                   and np.all(ladder.ccheck_lag[term] == 0.0))
    trunc_ok = True
    for lad_spec in (ladder, solve_ladder(matrix_spec(),
                                          build_grid(matrix_spec(), 0.05))):
        g = lad_spec.grid
        for k in range(g.N + 2):
            cut = g.N - k + 1
            if cut <= g.d1 and np.any(lad_spec.phat_lag[k][:, cut:] != 0.0):
                trunc_ok = False
            if cut <= g.d2 and np.any(lad_spec.ccheck_lag[k][:, cut:] != 0.0):
                trunc_ok = False
    _report(2, terminal_ok and trunc_ok,
            "terminal layer bitwise, beyond-horizon lags exactly zero")
    assert terminal_ok
    assert trunc_ok


def test_criterion_03_chain_matches_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    cases = [
        (GameSpec(A=0.1, Abar=0.1, B1=1.0, B1bar=1.0, B2=1.0, B2bar=1.0,
                  Q1=1.0, Q2=1.0, R1=1.0, R2=1.0, H1=0.5, H2=0.5,
                  h1=0.2, h2=0.1, T=0.6, x0=[1.0]), 0.1, 2, 1, 5),
        (GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.8, B2bar=0.3,
                  Q1=1.0, Q2=0.8, R1=1.0, R2=1.2, H1=0.5, H2=0.7,
                  h1=0.2, h2=0.05, T=1.0, x0=[1.0]), 0.05, 4, 1, 19),
    ]
    for spec, delta, d1, d2, N in cases:
        from delaygame import Grid
        grid = Grid(N=N, delta=delta, d1=d1, d2=d2)
        ladder = solve_ladder(spec, grid)
        _, step_by_k = oracle_sweep(
            spec.A, spec.Abar, spec.B1, spec.B1bar, spec.B2, spec.B2bar,
            spec.Q1, spec.Q2, spec.R1, spec.R2, spec.H1, spec.H2,
            delta, d1, d2, N)
        for k in range(N + 1):
            coef = ladder.coef[k]
            (mc, mn), mm, (hc, hn) = step_by_k[k]
            scale = max(1.0, float(np.max(np.abs(mn))))
            worst = max(worst,
                        float(np.max(np.abs(coef[0, 0] - mc))) / scale,
                        float(np.max(np.abs(coef[0, 1] - mn))) / scale,
                        float(np.max(np.abs(coef[-1, 0] - hc))) / scale,
                        float(np.max(np.abs(coef[-1, 1] - hn))) / scale)
            for m, (mmc, mmn) in enumerate(mm):
                worst = max(worst,
                            float(np.max(np.abs(coef[m + 1, 0] - mmc))) / scale,
                            float(np.max(np.abs(coef[m + 1, 1] - mmn))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(3, ok, f"lag gaps 1 and 3: chain vs closed forms, "
                   f"relative gap {worst:.2e}, {elapsed:.3f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_04_fbsde_martingale_residual(golden_ladders):
    # shrink factor measured on the mean over non-provisional steps of the
    # per-step worst projection: the per-run max is an extreme-value
    # statistic whose halving ratio wanders above 0.8 for some seeds,
    # while the profile mean concentrates at the expected 1/sqrt(2)
    spec, ladders = golden_ladders
    start = time.perf_counter()
    stats = {}
    for m in (0, 1):
        grid, ladder = ladders[m]
        rows = vfy.fbsde_residual_test(ladder, spec, n_paths=PATHS,
                                       seed=SEED)
        raw = rows[rows[:, 0] >= grid.d1, 1]
        within = (vfy.projection_net(rows, grid)
                  <= vfy.FBSDE_BAND_C * grid.delta)
        stats[m] = (within, float(np.mean(raw)))
    elapsed = time.perf_counter() - start
    within0, raw0 = stats[0]
    within1, raw1 = stats[1]
    ratio = raw1 / raw0
    in_band = within0 and within1
    ok = in_band and 0.4 <= ratio <= 0.8 and elapsed < 60.0
    _report(4, ok,
            f"net projections within {vfy.FBSDE_BAND_C}*delta + 3se at all "
            f"non-provisional steps; raw profile {raw0:.2e} -> {raw1:.2e} "
            f"(factor {ratio:.3f} in [0.4, 0.8]); {elapsed:.1f}s")
    assert in_band
    assert 0.4 <= ratio <= 0.8
    assert elapsed < 60.0


def test_criterion_05_continuous_residual_trends(golden_ladders):
    spec, ladders = golden_ladders
    coeffs = SweepCoefficients.from_spec(spec)
    ode, semi = [], []
    for m in range(4):
        grid, ladder = ladders[m]
        res = continuous_residuals(extract_fields(ladder), coeffs)
        ode.append(float(np.max(res["riccati_ode"])))
        semi.append(float(np.max(res["semigroup_check"])))
    monotone = all(b < a for a, b in zip(ode, ode[1:])) and \
        all(b < a for a, b in zip(semi, semi[1:]))

    drift_free = replace(spec, A=np.zeros((1, 1)))
    grid0 = build_grid(drift_free, GOLDEN_DELTA)
    res0 = continuous_residuals(extract_fields(solve_ladder(drift_free, grid0)),
                                SweepCoefficients.from_spec(drift_free))
    semi0 = float(np.max(res0["semigroup_check"]))
    ok = monotone and semi0 <= 1e-8
    _report(5, ok,
            f"backward-ODE residual {ode[0]:.2e}->{ode[-1]:.2e} and "
            f"semigroup residual {semi[0]:.2e}->{semi[-1]:.2e} decrease "
            f"monotonically over 3 halvings; drift-free semigroup "
            f"{semi0:.1e} <= 1e-8")
    assert monotone
    assert semi0 <= 1e-8


def test_criterion_06_stationarity_projections(golden_ladders):
    spec, ladders = golden_ladders
    grid, ladder = ladders[0]
    law = assemble_gains(extract_fields(ladder), spec)
    net = vfy.projection_net(vfy.stationarity_residual_test(
        ladder, law, spec, n_paths=PATHS, seed=SEED), grid)
    band = vfy.STATIONARITY_BAND_C * grid.delta
    mutated = perturb_control(law, 1, "gain_scale", 1.1)
    net_mut = vfy.projection_net(vfy.stationarity_residual_test(
        ladder, mutated, spec, n_paths=PATHS, seed=SEED), grid)
    ok = net <= band and net_mut >= 5.0 * band
    _report(6, ok,
            f"equilibrium net projections {net:.2e} within band {band:.2e}; "
            f"10% gain mutation reaches {net_mut:.2e} "
            f"({net_mut / band:.1f}x band, needs >= 5x)")
    assert net <= band
    assert net_mut >= 5.0 * band


def test_criterion_07_nash_deviation(golden_ladders):
    spec, ladders = golden_ladders
    grid, ladder = ladders[0]
    start = time.perf_counter()
    law = assemble_gains(extract_fields(ladder), spec)
    verdicts = vfy.nash_deviation_test(law, spec, n_paths=PATHS,
                                       seed=SEED)
    elapsed = time.perf_counter() - start
    assert len(verdicts) == 10
    all_pass = all(v.margin >= -3.0 * v.combined_se for v in verdicts)
    worst = min(v.margin + 3.0 * v.combined_se for v in verdicts)
    ok = all_pass and elapsed < 300.0
    _report(7, ok,
            f"10 unilateral deviations, {PATHS} common-noise paths: all "
            f"margins >= -3se (worst slack {worst:+.2e}); {elapsed:.1f}s")
    for v in verdicts:
        assert v.margin >= -3.0 * v.combined_se, v
    assert elapsed < 300.0


def test_criterion_08_reduction_oracles():
    single = GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.0,
                      B2bar=0.0, Q1=1.0, Q2=0.0, R1=1.0, R2=1.0,
                      H1=0.5, H2=0.0, h1=0.02, h2=0.01, T=1.0, x0=[1.0])
    grid = build_grid(single, GOLDEN_DELTA)
    gap_one_delay = single_player_reduction_gap(solve_ladder(single, grid),
                                                single)

    classical = GameSpec(A=0.2, Abar=0.0, B1=1.0, B1bar=0.0, B2=0.8,
                         B2bar=0.0, Q1=1.0, Q2=0.8, R1=1.0, R2=1.2,
                         H1=0.5, H2=0.7, h1=0.2, h2=0.1, T=1.0, x0=[1.0])
    gaps = vfy.no_delay_oracle(classical, deltas=(0.04, 0.02, 0.01, 0.005))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = gap_one_delay <= 1e-10 and monotone
    _report(8, ok,
            f"single-player degeneration vs one-delay oracle: {gap_one_delay:.1e} "
            f"(<= 1e-10); tiny-delay vs classical gains gap "
            f"{gaps[0]:.3e}->{gaps[-1]:.3e} monotone over 3 halvings")
    assert gap_one_delay <= 1e-10
    assert monotone


def _ladder_and_assembled_gap(spec, delta):
    """Ladder closed-loop paths and their max state gap to the gain-form
    simulator under the assembled law, with common noise."""
    grid = build_grid(spec, delta)
    ladder = solve_ladder(spec, grid)
    tl = simulate_path_ladder(ladder, spec.x0, seed=SEED, n_paths=256)
    tg = simulate_path_gains(assemble_gains(extract_fields(ladder), spec),
                             spec, seed=SEED, n_paths=256)
    return grid, ladder, tl, float(np.max(np.abs(tl.x - tg.x)))


def test_criterion_09_cross_representation():
    # The two closed-loop simulators represent one equilibrium under common
    # noise. Sharp form: the gain-form simulator driven by the ladder's own
    # window gains (verify.implied_law) reproduces the ladder's paths to
    # 1e-6. The assembled law goes through the continuous-time limit, which
    # discards the first-order step error, so it agrees only to O(delta)
    # (measured ~2*delta): it must stay within the calibrated CROSS_REP_C
    # bound and its gap must shrink at first order under step halving. See
    # the README section "Verification methodology and known limits".
    spec = golden_scalar_spec()
    grid, ladder, tl, assembled = _ladder_and_assembled_gap(spec, 1e-3)
    ti = simulate_path_gains(vfy.implied_law(ladder, spec), spec,
                             seed=SEED, n_paths=256)
    implied = [float(np.max(np.abs(getattr(tl, a) - getattr(ti, a))))
               for a in ("x", "u1", "u2")]
    assembled_coarse = _ladder_and_assembled_gap(spec, 2e-3)[-1]
    calibrated = vfy.CROSS_REP_C * grid.delta
    ratio = assembled / assembled_coarse
    sharp_ok = max(implied) <= 1e-6
    bound_ok = assembled <= calibrated
    rate_ok = ratio <= 0.6
    _report(9, sharp_ok and bound_ok and rate_ok,
            f"implied-law path gap (x, u1, u2) "
            f"{', '.join(f'{g:.1e}' for g in implied)} (<= 1e-6); assembled "
            f"gap {assembled:.3e} at delta=1e-3 (<= {calibrated:.1e}), "
            f"halving ratio {ratio:.3f} (<= 0.6)")
    assert sharp_ok, implied
    assert bound_ok, (assembled, calibrated)
    assert rate_ok, ratio


def test_criterion_10_z_factor_convergence():
    spec = golden_scalar_spec()
    dists = []
    for m in (0, 1, 2):
        delta = GOLDEN_DELTA / 2 ** m
        tiny = replace(spec, h1=4 * delta, h2=delta)
        grid = build_grid(tiny, delta)
        assert grid.d1 - grid.d2 == 3
        dists.append(vfy.z_factor_distances(solve_ladder(tiny, grid)))
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    ok = dists[0] > 0.0 and all(r <= 0.7 for r in ratios)
    _report(10, ok,
            f"level-coupling factor distance from identity "
            f"{dists[0]:.2e}->{dists[-1]:.2e}, halving ratios "
            f"{[f'{r:.2f}' for r in ratios]} (<= 0.7)")
    assert dists[0] > 0.0
    for r in ratios:
        assert r <= 0.7
