import numpy as np
import pytest
from dataclasses import replace

from delaygame import (GameSpec, assemble_gains, build_grid,
                       estimate_costs, extract_fields, path_costs,
                       perturb_control, simulate_path_gains,
                       simulate_path_ladder, solve_ladder)
from delaygame.simulator import (GainStepper, LadderStepper, _apply,
                                 draw_increments, increment_rows,
                                 initial_window, level_sums, paired_costs,
                                 paired_deviation_costs, rollout)
from delaygame.verify import DEVIATION_FAMILY, _deviation_laws
from conftest import wide_delay_spec, zero_cost_spec
from oracles import (mean_recursion, record_windows,
                     reference_ladder_window_step, reference_paired_costs,
                     reference_paired_rollout, reference_u2_levels)


@pytest.fixture(scope="module")
def wide_case():
    spec = wide_delay_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    law = assemble_gains(extract_fields(ladder), spec)
    return spec, grid, ladder, law


class TestDeterminism:
    def test_ladder_bitwise_repeatable(self, wide_case):
        spec, grid, ladder, law = wide_case
        a = simulate_path_ladder(ladder, spec.x0, seed=9, n_paths=8)
        b = simulate_path_ladder(ladder, spec.x0, seed=9, n_paths=8)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u2, b.u2)
        assert np.array_equal(a.dw, b.dw)

    def test_gains_bitwise_repeatable(self, wide_case):
        spec, grid, ladder, law = wide_case
        a = simulate_path_gains(law, spec, seed=9, n_paths=8)
        b = simulate_path_gains(law, spec, seed=9, n_paths=8)
        assert np.array_equal(a.x, b.x)

    def test_different_seeds_differ(self, wide_case):
        spec, grid, ladder, law = wide_case
        a = simulate_path_ladder(ladder, spec.x0, seed=9, n_paths=8)
        b = simulate_path_ladder(ladder, spec.x0, seed=10, n_paths=8)
        assert not np.array_equal(a.x, b.x)


class TestUncontrolledReductions:
    def test_zero_cost_is_uncontrolled_sde(self, zero_cost):
        spec, grid, ladder = zero_cost
        traj = simulate_path_ladder(ladder, spec.x0, seed=3, n_paths=6)
        assert np.all(traj.u1 == 0.0)
        assert np.all(traj.u2 == 0.0)
        # reproduce the Euler recursion by hand
        x = np.full((6, 1), 1.0)
        for k in range(grid.N + 1):
            x = (x + grid.delta * (x @ spec.A.T)
                 + traj.dw[k][:, None] * (x @ spec.Abar.T))
            np.testing.assert_allclose(traj.x[k + 1], x, atol=1e-13)

    def test_zero_cost_deterministic_power_growth(self):
        # with no increment map the uncontrolled path is the plain drift
        # power iteration
        spec = replace(zero_cost_spec(), Abar=np.zeros((1, 1)))
        grid = build_grid(spec, 0.05)
        ladder = solve_ladder(spec, grid)
        traj = simulate_path_ladder(ladder, spec.x0, seed=3, n_paths=2)
        expected = (1 + grid.delta * spec.A[0, 0]) ** (grid.N + 1)
        assert traj.x[-1][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_control_maps_mean_zero_controls(self):
        spec = replace(wide_delay_spec(), B2=np.zeros((1, 1)),
                       B2bar=np.zeros((1, 1)), Q2=np.zeros((1, 1)),
                       H2=np.zeros((1, 1)))
        grid = build_grid(spec, 0.05)
        ladder = solve_ladder(spec, grid)
        law = assemble_gains(extract_fields(ladder), spec)
        traj = simulate_path_gains(law, spec, seed=4, n_paths=5)
        assert np.all(traj.u2 == 0.0)


class TestWindow:
    def test_window_top_entry_is_state(self, wide_case):
        spec, grid, ladder, law = wide_case
        traj = simulate_path_ladder(ladder, spec.x0, seed=5, n_paths=4)
        windows, _ = record_windows(LadderStepper(ladder), spec.x0, 4, 5)
        for k in (0, 3, grid.N + 1):
            np.testing.assert_array_equal(windows[k][grid.d1], traj.x[k])

    @pytest.mark.parametrize("levels", [1, 2, 3, 9])
    def test_level_sums_match_termwise_expectation(self, levels):
        # level j: terms at levels l <= j read their own entry, finer
        # terms read the level-j entry; summed term by term in level order.
        # The end levels carry two terms each, as in the gain form. Windows
        # are paths-last, alone or stacked with their gains by slot.
        rng = np.random.default_rng(levels)
        term_levels = np.r_[0, np.arange(levels), levels - 1]
        for slots in ((), (4,)):
            win = rng.normal(size=slots + (levels + 2, 2, 5))
            gains = rng.normal(size=slots + (len(term_levels), 3, 2))
            known, tails = level_sums(win, term_levels, gains)
            assert known.shape == slots + (levels, 3, 5)
            assert tails.shape == slots + (levels, 3, 2)
            assert np.all(tails[..., -1, :, :] == 0.0)
            for s in np.ndindex(slots):
                for j in range(levels):
                    ref = np.zeros((3, 5))
                    for l, g in zip(term_levels, gains[s]):
                        ref = ref + g @ win[s][min(l, j)]
                    np.testing.assert_allclose(
                        known[s][j] + tails[s][j] @ win[s][j], ref,
                        rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", ["wide", "matrix_case"])
    def test_steps_sum_in_reference_order(self, case, request):
        # the batched steppers add the same terms in the same order as the
        # one-term-at-a-time references, so their output is bit-equal
        spec, grid, ladder = request.getfixturevalue(case)
        law = assemble_gains(extract_fields(ladder), spec)
        rng = np.random.default_rng(3)
        win = rng.normal(size=(grid.d1 + 1, 6, ladder.n))   # paths-first
        stacked = win.swapaxes(-1, -2)[None].copy()          # one slot
        dw_k = rng.normal(size=6)
        for k in (0, grid.N // 2, grid.N):
            _, _, new, diff = LadderStepper(ladder).step(k, stacked, dw_k)
            ref_new, ref_diff = reference_ladder_window_step(ladder, k, win,
                                                             dw_k)
            np.testing.assert_array_equal(new[0].swapaxes(-1, -2), ref_new)
            np.testing.assert_array_equal(diff[0].T, ref_diff)
            _, u2_lv = GainStepper(law, spec).u_levels(k, stacked)
            np.testing.assert_array_equal(
                u2_lv[0].swapaxes(-1, -2),
                reference_u2_levels(law, grid, k, win))

    def test_warmup_window_holds_initial_state(self, wide_case):
        spec, grid, ladder, law = wide_case
        windows, _ = record_windows(LadderStepper(ladder), spec.x0, 4, 5)
        assert np.all(windows[0] == spec.x0[0])

    def test_mean_propagation(self, wide_case):
        spec, grid, ladder, law = wide_case
        traj = simulate_path_ladder(ladder, spec.x0, seed=1,
                                    n_paths=20000)
        ref = mean_recursion(ladder, spec.x0)
        emp = traj.x.mean(axis=1)
        se = traj.x.std(axis=1) / np.sqrt(traj.n_paths)
        z = np.abs(emp - ref) / np.maximum(se, 1e-12)
        assert float(np.max(z[1:])) < 3.5

    def test_estimation_error_orthogonality(self, wide_case):
        # the residual x_k - E_j[x_k] decorrelates from level-j variables
        spec, grid, ladder, law = wide_case
        traj = simulate_path_ladder(ladder, spec.x0, seed=2, n_paths=10000)
        windows, _ = record_windows(LadderStepper(ladder), spec.x0, 10000, 2)
        k = grid.N
        for idx in (0, grid.d1 - 1):
            est = windows[k][idx]
            resid = (traj.x[k] - est).ravel()
            for z in (est.ravel(), est.ravel() ** 2):
                sd = resid.std() * z.std()
                if sd == 0.0:
                    continue
                corr = float(np.mean((resid - resid.mean())
                                     * (z - z.mean())) / sd)
                assert abs(corr) <= 3.0 / np.sqrt(traj.n_paths) + 0.02

    def test_gains_adaptedness_structural(self, wide_case):
        # controls must not read window entries finer than the player's
        # information lag: corrupt those entries and expect identical u
        spec, grid, ladder, law = wide_case
        stepper = GainStepper(law, spec)
        win = initial_window(spec.x0, 4, grid.d1)
        rng = np.random.default_rng(0)
        win += rng.normal(size=win.shape)
        k = grid.N // 2
        gap = grid.d1 - grid.d2
        u1, u2_lv = stepper.u_levels(k, win)
        corrupted = win.copy()
        corrupted[:, 1:] += 100.0       # finer than player 1's lag
        u1c, _ = stepper.u_levels(k, corrupted)
        np.testing.assert_array_equal(u1, u1c)
        corrupted = win.copy()
        corrupted[:, gap + 1:] += 100.0  # finer than player 2's lag
        _, u2c = stepper.u_levels(k, corrupted)
        np.testing.assert_array_equal(u2_lv[:, gap], u2c[:, gap])


class TestCosts:
    def test_zero_cost_is_zero(self, zero_cost):
        spec, grid, ladder = zero_cost
        est = estimate_costs(simulate_path_ladder(
            ladder, spec.x0, seed=7, n_paths=50), spec)
        assert est.j1 == 0.0 and est.j2 == 0.0

    def test_deterministic_terminal_cost(self):
        # frozen state: no drift, no noise, no control authority on the
        # cost: J_i = x0' H_i x0 / 2
        spec = GameSpec(A=0.0, Abar=0.0, B1=1.0, B1bar=0.0, B2=1.0,
                        B2bar=0.0, Q1=0.0, Q2=0.0, R1=1.0, R2=1.0,
                        H1=1.0, H2=1.0, h1=0.2, h2=0.1, T=1.0, x0=[0.5])
        grid = build_grid(spec, 0.05)
        ladder = solve_ladder(spec, grid)
        law = assemble_gains(extract_fields(ladder), spec)
        est = estimate_costs(simulate_path_gains(
            law, spec, seed=3, n_paths=64), spec)
        # the controlled equilibrium can only reduce the terminal cost
        assert est.j1 <= 0.5 * 0.25 + 1e-9

    def test_single_path_has_no_se(self, wide_case):
        spec, grid, ladder, law = wide_case
        est = estimate_costs(simulate_path_gains(
            law, spec, seed=3, n_paths=1), spec)
        assert est.j1_se is None and est.j2_se is None

    def test_common_seed_costs_repeatable(self, wide_case):
        spec, grid, ladder, law = wide_case
        a = estimate_costs(simulate_path_gains(
            law, spec, seed=11, n_paths=500), spec)
        b = estimate_costs(simulate_path_gains(
            law, spec, seed=11, n_paths=500), spec)
        assert (a.j1, a.j2) == (b.j1, b.j2)

    def test_controls_enter_cost(self, wide_case):
        spec, grid, ladder, law = wide_case
        c1, c2 = path_costs(simulate_path_gains(
            law, spec, seed=5, n_paths=400), spec)
        shifted = perturb_control(law, 1, "constant_shift", 0.5)
        d1, d2 = path_costs(simulate_path_gains(
            shifted, spec, seed=5, n_paths=400), spec)
        assert np.mean(d1) > np.mean(c1)

    def test_costs_match_stepwise_sum(self, matrix_case):
        # reference: left-endpoint rectangle rule accumulated step by step
        spec, grid, ladder = matrix_case
        traj = simulate_path_ladder(ladder, spec.x0, seed=6, n_paths=40)

        def quad(v, M):
            return np.einsum("pi,ij,pj->p", v, M, v)

        ref = []
        for Q, u, R, H in ((spec.Q1, traj.u1, spec.R1, spec.H1),
                           (spec.Q2, traj.u2, spec.R2, spec.H2)):
            c = np.zeros(traj.n_paths)
            for k in range(grid.N + 1):
                c += grid.delta * (quad(traj.x[k], Q) + quad(u[k], R))
            c += quad(traj.terminal, H)
            ref.append(0.5 * c)
        c1, c2 = path_costs(traj, spec)
        np.testing.assert_array_equal(c1, ref[0])
        np.testing.assert_array_equal(c2, ref[1])

    def test_golden_cost_band(self):
        # measured once at 1e4 paths (se ~0.04% of mean << the required
        # 2%) and stored as a band around the equilibrium costs
        from conftest import golden_scalar_spec
        spec = golden_scalar_spec()
        grid = build_grid(spec, 0.005)
        ladder = solve_ladder(spec, grid)
        law = assemble_gains(extract_fields(ladder), spec)
        est = estimate_costs(simulate_path_gains(
            law, spec, seed=2026, n_paths=10000), spec)
        assert est.j1_se < 0.02 * est.j1
        assert est.j2_se < 0.02 * est.j2
        assert est.j1 == pytest.approx(0.3758, abs=0.003)
        assert est.j2 == pytest.approx(0.2881, abs=0.003)


class TestPerturbations:
    def test_zero_magnitude_identity(self, wide_case):
        spec, grid, ladder, law = wide_case
        for kind in ("constant_shift", "gain_scale", "time_bump"):
            mag = 1.0 if kind == "gain_scale" else 0.0
            dev = perturb_control(law, 2, kind, mag)
            a = path_costs(simulate_path_gains(
                law, spec, seed=3, n_paths=100), spec)
            b = path_costs(simulate_path_gains(
                dev, spec, seed=3, n_paths=100), spec)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_constant_shift_adds_offset(self, wide_case):
        spec, grid, ladder, law = wide_case
        dev = perturb_control(law, 1, "constant_shift", 0.25)
        base = simulate_path_gains(law, spec, seed=2, n_paths=3)
        moved = simulate_path_gains(dev, spec, seed=2, n_paths=3)
        np.testing.assert_allclose(moved.u1[0], base.u1[0] + 0.25)

    def test_gain_scale_scales_only_target_player(self, wide_case):
        spec, grid, ladder, law = wide_case
        dev = perturb_control(law, 2, "gain_scale", 1.1)
        np.testing.assert_array_equal(dev.k1, law.k1)
        np.testing.assert_allclose(dev.k2_h2, 1.1 * law.k2_h2)
        np.testing.assert_allclose(dev.k2_kernel, 1.1 * law.k2_kernel)

    def test_time_bump_local_support(self, wide_case):
        spec, grid, ladder, law = wide_case
        dev = perturb_control(law, 1, "time_bump", 0.3)
        t = law.t_samples
        inside = (t >= 0.4 * t[-1]) & (t <= 0.6 * t[-1])
        assert np.all(dev.offset1[inside] == 0.3)
        assert np.all(dev.offset1[~inside] == 0.0)

    def test_base_law_untouched(self, wide_case):
        spec, grid, ladder, law = wide_case
        before = law.k2_h2.copy()
        perturb_control(law, 2, "gain_scale", 2.0)
        perturb_control(law, 2, "constant_shift", 1.0)
        np.testing.assert_array_equal(law.k2_h2, before)
        assert np.all(law.offset2 == 0.0)

    def test_unknown_kind_rejected(self, wide_case):
        spec, grid, ladder, law = wide_case
        with pytest.raises(ValueError):
            perturb_control(law, 1, "nonsense", 0.1)
        with pytest.raises(ValueError):
            perturb_control(law, 3, "gain_scale", 0.1)


class TestPairedDeviation:
    def test_zero_deviation_margin_is_zero(self, wide_case):
        spec, grid, ladder, law = wide_case
        (base,), (dev,) = paired_deviation_costs(law, [(1, law)], spec,
                                                 200, 9)
        np.testing.assert_array_equal(base, dev)

    def test_opponent_path_frozen(self, wide_case):
        # under a unilateral deviation, the opponent's realized control
        # must match the base run exactly (same noise), while the
        # deviating player's own control moves
        spec, grid, ladder, law = wide_case
        base = simulate_path_gains(law, spec, seed=13, n_paths=5)
        for player in (1, 2):
            dev_law = perturb_control(law, player, "constant_shift", 0.4)
            stepper = GainStepper(law, spec, [(player, dev_law)])
            (slot,) = stepper.dev_slots
            for k, _, u1, u2, _, _, _ in rollout(
                    stepper, spec.x0, draw_increments(grid, 5, 13)):
                own, opp = (u1, u2) if player == 1 else (u2, u1)
                np.testing.assert_array_equal(opp[slot], opp[0])
                assert not np.array_equal(own[slot], own[0])
                np.testing.assert_allclose(u2[0].T, base.u2[k], atol=1e-12)

    def test_streamed_rows_equal_block_draw(self, wide_case):
        spec, grid, ladder, law = wide_case
        block = (np.random.default_rng(21).standard_normal((grid.N + 1, 7))
                 * np.sqrt(grid.delta))
        rows = list(increment_rows(grid, 7, 21))
        assert len(rows) == grid.N + 1
        np.testing.assert_array_equal(np.array(rows), block)
        np.testing.assert_array_equal(draw_increments(grid, 7, 21), block)

    @staticmethod
    def _stacked_vs_reference(spec, grid, law, n_paths, seed):
        """The slot-stacked rollout and the per-law reference loop on the
        same increments, with the stacked arrays in the reference's layout:
        (law, step, ..., P, n), the base law first, then the deviations in
        family order."""
        devs = _deviation_laws(law, DEVIATION_FAMILY)
        stepper = GainStepper(law, spec, devs)
        order = np.r_[0, stepper.dev_slots]
        rec = {"win": [], "u1": [], "u2": [], "diff": []}
        for _, win, u1, u2, win_next, diff, _ in rollout(
                stepper, spec.x0, draw_increments(grid, n_paths, seed)):
            for name, a in (("win", win), ("u1", u1), ("u2", u2),
                            ("diff", diff)):
                rec[name].append(a[order].swapaxes(-1, -2))
        rec["win"].append(win_next[order].swapaxes(-1, -2))
        rec = {name: np.array(v).swapaxes(0, 1) for name, v in rec.items()}
        rec["own_base"], rec["own_dev"] = paired_costs(stepper, spec,
                                                       n_paths, seed)
        ref = reference_paired_rollout(law, devs, spec, grid,
                                       draw_increments(grid, n_paths, seed))
        return rec, ref

    def test_stacked_step_reproduces_per_law_loop(self, golden):
        # n = 1: every product is elementwise and every sum keeps the
        # reference's term order, so both players' deviations step
        # bit-identically to the per-law loop
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        rec, ref = self._stacked_vs_reference(spec, grid, law, 64, 4)
        for name in ("win", "u1", "u2", "diff", "own_base", "own_dev"):
            np.testing.assert_array_equal(rec[name], ref[name], err_msg=name)

    @pytest.mark.parametrize("case", ["wide", "matrix_case"])
    def test_stacked_step_matches_per_law_loop(self, case, request):
        # for n >= 2 the paths-last products may round differently from the
        # paths-first ones: at most 1e-12 relative, per path
        spec, grid, ladder = request.getfixturevalue(case)
        law = assemble_gains(extract_fields(ladder), spec)
        rec, ref = self._stacked_vs_reference(spec, grid, law, 64, 4)
        for name in ("win", "u1", "u2", "diff", "own_base", "own_dev"):
            scale = np.max(np.abs(ref[name]), axis=-1 if name.startswith(
                "own") else (-1, -3), keepdims=True)
            assert np.all(np.abs(rec[name] - ref[name]) <= 1e-12 * scale), \
                name

    @pytest.mark.parametrize("case", ["golden", "matrix_case"])
    def test_own_costs_equal_all_slot_sums(self, case, request):
        # the paired pass sums each player's costs only on the slots whose
        # own cost it returns; summing both players on every slot picks
        # out the same bits, for the scalar and the n = 2 problem
        spec, grid, ladder = request.getfixturevalue(case)
        law = assemble_gains(extract_fields(ladder), spec)
        stepper = GainStepper(law, spec,
                              _deviation_laws(law, DEVIATION_FAMILY))
        got = paired_costs(stepper, spec, 64, 4)
        ref = reference_paired_costs(stepper, spec, 64, 4)
        for name, g, r in zip(("own_base", "own_dev"), got, ref):
            np.testing.assert_array_equal(g, r, err_msg=name)

    def test_deviated_state_differs(self, wide_case):
        spec, grid, ladder, law = wide_case
        dev_law = perturb_control(law, 2, "constant_shift", 0.4)
        (base,), (dev,) = paired_deviation_costs(law, [(2, dev_law)], spec,
                                                 200, 9)
        assert float(np.mean(dev - base)) > 0.0


class TestApply:
    """``_apply`` on the operand shapes the steppers and projections pass
    it: elementwise with inner dimension 1, exactly the matmul's bits."""

    @pytest.mark.parametrize("m_shape,x_shape", [
        ((1, 1), (2, 1, 50)), ((2, 1, 1), (1, 50)), ((1, 1), (1, 50))],
        ids=["matrix-on-stack", "stack-on-matrix", "matrix-on-matrix"])
    def test_inner_dimension_one_is_the_matmul(self, m_shape, x_shape):
        rng = np.random.default_rng(3)
        m, x = rng.normal(size=m_shape), rng.normal(size=x_shape)
        np.testing.assert_array_equal(_apply(m, x), m @ x)

    def test_inner_dimension_two_is_the_matmul(self):
        rng = np.random.default_rng(4)
        m, x = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 50))
        np.testing.assert_array_equal(_apply(m, x), np.matmul(m, x))
        out = np.empty((2, 3, 50))
        assert _apply(m, x, out=out) is out
        np.testing.assert_array_equal(out, np.matmul(m, x))


class TestCrossRepresentation:
    def test_pathwise_gap_shrinks_linearly(self):
        spec = wide_delay_spec()
        gaps = []
        for dt in (0.05, 0.025, 0.0125):
            grid = build_grid(spec, dt)
            ladder = solve_ladder(spec, grid)
            law = assemble_gains(extract_fields(ladder), spec)
            tl = simulate_path_ladder(ladder, spec.x0, seed=11,
                                      n_paths=32)
            tg = simulate_path_gains(law, spec, seed=11, n_paths=32)
            gaps.append(float(np.max(np.abs(tl.x - tg.x))))
        assert gaps[1] < 0.75 * gaps[0]
        assert gaps[2] < 0.75 * gaps[1]

    def test_ladder_and_gain_costs_close(self, wide_case):
        spec, grid, ladder, law = wide_case
        a = estimate_costs(simulate_path_ladder(
            ladder, spec.x0, seed=3, n_paths=2000), spec)
        b = estimate_costs(simulate_path_gains(
            law, spec, seed=3, n_paths=2000), spec)
        assert abs(a.j1 - b.j1) < 0.05
        assert abs(a.j2 - b.j2) < 0.05
