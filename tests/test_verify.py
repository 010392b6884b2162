import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, reject, settings

from delaygame import (GameSpec, Grid, SingularGamma, assemble_gains,
                       build_grid, extract_fields, perturb_control,
                       simulate_path_ladder, solve_ladder)
from delaygame import simulate_path_gains
from delaygame import verify as vfy
from delaygame.simulator import GainStepper, LadderStepper
from conftest import (RANDOM_DELTA, RANDOM_SPECS, golden_scalar_spec,
                      wide_delay_spec, zero_cost_spec)
from oracles import (record_windows, reference_pathwise_costate,
                     reference_projection_stats, reference_test_variables,
                     single_player_reduction_gap)


@pytest.fixture(scope="module")
def wide_case():
    spec = wide_delay_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    law = assemble_gains(extract_fields(ladder), spec)
    return spec, grid, ladder, law


def _costates(ladder, windows, diff):
    """The costate pair along recorded paths: ``p[i, k]`` applies
    ``verify.costate_matrices`` to the step-(k+1) windows, ``q[i, k]`` the
    next layer's state coefficient to the increment coefficient of the
    state update; each (2, N+1, P, n), from paths-first ``windows`` (N+2,
    d1+1, P, n) and ``diff`` (N+1, P, n)."""
    win = windows[1:].swapaxes(-1, -2)      # (N+1, d1+1, n, P)
    steps, n_paths = len(win), win.shape[-1]
    p = vfy.costate_matrices(ladder) @ win.reshape(steps, -1, n_paths)
    q = diff[:, None] @ ladder.phat[1:].swapaxes(-1, -2)
    return (p.reshape(steps, 2, -1, n_paths).transpose(1, 0, 3, 2),
            q.swapaxes(0, 1))


class TestCostateReconstruct:
    def test_terminal_identity(self, wide_case):
        # at the last step the costate is the terminal weight applied to
        # the terminal state, exactly
        spec, grid, ladder, law = wide_case
        traj = simulate_path_ladder(ladder, spec.x0, seed=1, n_paths=16)
        p, q = _costates(ladder, *record_windows(LadderStepper(ladder),
                                                 spec.x0, 16, 1))
        for i, H in enumerate((spec.H1, spec.H2)):
            np.testing.assert_allclose(p[i, grid.N], traj.x[grid.N + 1] @ H.T,
                                       atol=1e-12)

    def test_zero_cost_costates_vanish(self, zero_cost):
        spec, grid, ladder = zero_cost
        p, q = _costates(ladder, *record_windows(LadderStepper(ladder),
                                                 spec.x0, 4, 1))
        assert np.all(p == 0.0)
        assert np.all(q == 0.0)

    def test_direct_formula_evaluation(self, wide_case):
        # independent straight-line evaluation of the layered formula on
        # the recorded windows
        spec, grid, ladder, law = wide_case
        traj = simulate_path_ladder(ladder, spec.x0, seed=6, n_paths=5)
        windows, diff = record_windows(LadderStepper(ladder), spec.x0, 5, 6)
        p, q = _costates(ladder, windows, diff)
        k = grid.N // 2
        gap = grid.d1 - grid.d2
        for i in range(2):
            ref = traj.x[k + 1] @ ladder.phat[k + 1][i].T
            for j in range(grid.d1 + 1):
                ref = ref + (windows[k + 1][j]
                             @ ladder.phat_lag[k + 1][i][j].T)
            for j in range(grid.d2 + 1):
                ref = ref + (windows[k + 1][gap + j]
                             @ ladder.ccheck_lag[k + 1][i][j].T)
            np.testing.assert_allclose(p[i, k], ref, atol=1e-13)


class TestFbsdeResidual:
    def test_zero_cost_exact(self, zero_cost):
        spec, grid, ladder = zero_cost
        rep = vfy.fbsde_residual_test(ladder, spec, n_paths=200, seed=1)
        assert rep.component("projection_raw").max <= 1e-14
        assert rep.component("projection_net").max <= \
            vfy.FBSDE_BAND_C * grid.delta

    def test_golden_within_band(self, golden):
        spec, grid, ladder = golden
        rep = vfy.fbsde_residual_test(ladder, spec, n_paths=4000,
                                      seed=2)
        assert rep.component("projection_net").max <= \
            vfy.FBSDE_BAND_C * grid.delta

    def test_mutated_ladder_detected(self, golden):
        spec, grid, _ = golden
        ladder = solve_ladder(spec, grid)
        vfy.zero_layer(ladder, grid.N // 2)
        rep = vfy.fbsde_residual_test(ladder, spec, n_paths=4000,
                                      seed=2)
        assert not rep.component("projection_net").max <= \
            vfy.FBSDE_BAND_C * grid.delta
        assert rep.component("projection_net").max >= \
            10.0 * vfy.FBSDE_BAND_C * grid.delta

    def test_provisional_reported_separately(self, golden):
        spec, grid, ladder = golden
        rep = vfy.fbsde_residual_test(ladder, spec, n_paths=500, seed=3)
        prov = rep.component("projection_provisional")
        # only projection_net enters the verdict, and it has no such step
        assert np.all(rep.component("projection_net").coord >= grid.d1)
        assert np.all(prov.coord < grid.d1)


class TestStationarityResidual:
    # the ladder's own controls, through the implied law that reproduces
    # the ladder stepper's paths
    def test_zero_cost_exact(self, zero_cost):
        spec, grid, ladder = zero_cost
        rep = vfy.stationarity_residual_test(
            ladder, vfy.implied_law(ladder, spec), spec, n_paths=200, seed=1)
        assert rep.component("projection_raw").max <= 1e-14

    def test_ladder_mode_within_band(self, golden):
        spec, grid, ladder = golden
        rep = vfy.stationarity_residual_test(
            ladder, vfy.implied_law(ladder, spec), spec, n_paths=4000, seed=2)
        assert rep.component("projection_net").max <= \
            vfy.STATIONARITY_BAND_C * grid.delta

    def test_law_mode_within_band(self, golden):
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        rep = vfy.stationarity_residual_test(ladder, law, spec, n_paths=4000,
                                             seed=2)
        assert rep.component("projection_net").max <= \
            vfy.STATIONARITY_BAND_C * grid.delta

    def test_gain_mutation_detected(self, golden):
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        mutated = perturb_control(law, 1, "gain_scale", 1.1)
        rep = vfy.stationarity_residual_test(ladder, mutated, spec,
                                             n_paths=4000, seed=2)
        band = vfy.STATIONARITY_BAND_C * grid.delta
        assert rep.component("projection_net").max >= 5.0 * band


def _case(name, request):
    """Spec, grid and ladder of a named case: golden at lag gap 2, the wide
    problem, or the n = 2 matrix problem at lag gap 3."""
    if name == "wide_case":
        return request.getfixturevalue(name)[:3]
    return request.getfixturevalue(name)


def _reference_rows(ladder, spec, grid, traj, stepper, kind):
    """Per-step ``(k, raw, se, net)`` of the backward-equation ("fbsde") or
    first-order-condition projections, from a paths-first batch and the
    windows and increment coefficients that ``stepper`` records on its
    paths, one player at a time."""
    windows, diff = record_windows(stepper, spec.x0, traj.n_paths, traj.seed)
    p = reference_pathwise_costate(ladder, np.arange(grid.N + 1),
                                   windows[1:])
    a_c = ladder.a_mat[0]
    rows = []
    for k in range(grid.N + 1):
        win = windows[k]
        if kind == "fbsde":
            if k == 0:
                continue
            Z = reference_test_variables(win, grid.d1)
            stats = [reference_projection_stats(
                p[k - 1, i] - (p[k, i] @ a_c + traj.dw[k][:, None]
                               * (p[k, i] @ spec.Abar))
                - grid.delta * (traj.x[k] @ q.T), Z)
                for i, q in enumerate((spec.Q1, spec.Q2))]
        else:
            stats = [reference_projection_stats(
                u[k] @ r + p[k, i] @ b
                + (diff[k] @ ladder.phat[k + 1, i].T) @ bbar,
                reference_test_variables(win, up_to))
                for i, (u, r, b, bbar, up_to) in enumerate((
                    (traj.u1, spec.R1, spec.B1, spec.B1bar, 1),
                    (traj.u2, spec.R2, spec.B2, spec.B2bar, ladder.gap + 1)))]
        rows.append((k, *np.max(stats, axis=0)))
    return np.array(rows).T


class TestPathsLastProjections:
    """The paths-last costate and projection statistics against the
    paths-first references, at 1e-12 of each quantity's scale."""

    CASES = pytest.mark.parametrize("case",
                                    ["golden", "wide_case", "matrix_case"])

    @staticmethod
    def _assert_rows(rep, rows, grid):
        ks, raws, ses, nets = rows
        gate = ks >= grid.d1
        scale = max(np.max(raws), np.max(ses))
        for name, mask, ref in (
                ("projection_raw", gate, raws[gate]),
                ("projection_se", gate, ses[gate]),
                ("projection_net", gate, np.maximum(nets[gate], 0.0)),
                ("projection_provisional", ~gate, raws[~gate])):
            comp = rep.component(name)
            np.testing.assert_array_equal(comp.coord, ks[mask])
            assert np.all(np.abs(comp.value - ref) <= 1e-12 * scale), name

    @CASES
    def test_costate_matches_reference(self, case, request):
        spec, grid, ladder = _case(case, request)
        windows, diff = record_windows(LadderStepper(ladder), spec.x0, 200, 6)
        p, _ = _costates(ladder, windows, diff)
        ref = reference_pathwise_costate(ladder, np.arange(grid.N + 1),
                                         windows[1:]).swapaxes(0, 1)
        assert np.all(np.abs(p - ref) <= 1e-12 * np.max(np.abs(ref)))

    @CASES
    def test_fbsde_rows_match_reference(self, case, request):
        spec, grid, ladder = _case(case, request)
        traj = simulate_path_ladder(ladder, spec.x0, seed=2, n_paths=1000)
        rep = vfy.fbsde_residual_test(ladder, spec, 1000, 2)
        self._assert_rows(rep, _reference_rows(
            ladder, spec, grid, traj, LadderStepper(ladder), "fbsde"), grid)

    @CASES
    @pytest.mark.parametrize("mode", ["ladder", "law"])
    def test_stationarity_rows_match_reference(self, case, mode, request):
        # "ladder" runs the ladder's controls through its implied law
        spec, grid, ladder = _case(case, request)
        law = (assemble_gains(extract_fields(ladder), spec) if mode == "law"
               else vfy.implied_law(ladder, spec))
        traj = simulate_path_gains(law, spec, seed=2, n_paths=1000)
        rep = vfy.stationarity_residual_test(ladder, law, spec, 1000, 2)
        self._assert_rows(rep, _reference_rows(
            ladder, spec, grid, traj, GainStepper(law, spec),
            "stationarity"), grid)

    def test_constant_residual_has_zero_se(self):
        # the two-pass standard error of a residual constant on the paths
        # (with an exact sum) is 0, so the net statistic is |mean|
        res = np.full((2, 1000), -0.375)
        raw, se, net = vfy._projection_stats(res, np.ones((3, 1000)))
        assert (raw, se, net) == (0.375, 0.0, 0.375)
        assert reference_projection_stats(res.T, np.ones((1000, 4))) == \
            (raw, se, net)


class TestNashDeviation:
    def test_default_family_passes_on_golden(self, golden):
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        verdicts = vfy.nash_deviation_test(law, spec, n_paths=3000,
                                           seed=5)
        assert len(verdicts) == 10
        failed = [v for v in verdicts
                  if not v.margin >= -3.0 * v.combined_se]
        assert not failed, failed

    def test_seed_robustness(self, golden):
        # disjoint seed streams move margins by less than 3 combined ses
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        devs = [(1, "constant_shift", 0.1), (2, "gain_scale", 1.1)]
        a = vfy.nash_deviation_test(law, spec, 3000, devs, seed=5)
        b = vfy.nash_deviation_test(law, spec, 3000, devs, seed=505)
        for va, vb in zip(a, b):
            tol = 3.0 * (va.combined_se + vb.combined_se) \
                + 3.0 * abs(va.se_base) * 2
            assert abs(va.margin - vb.margin) <= tol

    def test_anti_test_wrong_gain_loses(self, golden):
        # replacing the first player's gain by the single-player-optimal
        # gain for a different state weight must cost real money
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        wrong_spec = replace(spec, Q1=4.0 * spec.Q1)
        wrong_law = assemble_gains(
            extract_fields(solve_ladder(wrong_spec, grid)), wrong_spec)
        hybrid = replace(law, k1=wrong_law.k1.copy())
        (base,), (dev,) = vfy.paired_deviation_costs(law, [(1, hybrid)], spec,
                                                     3000, 5)
        margin = float(np.mean(dev - base))
        se = float(np.std(dev - base, ddof=1) / np.sqrt(3000))
        assert margin > 5.0 * se

    def test_batched_deviations_match_single_runs(self, wide_case,
                                                  monkeypatch):
        # the deviation windows advance side by side on one noise draw;
        # any coupling between them would move a batched verdict away
        # from its stand-alone run
        spec, grid, ladder, law = wide_case
        from delaygame import simulator
        draws = []
        original = simulator.increment_rows
        monkeypatch.setattr(simulator, "increment_rows",
                            lambda *a: draws.append(a) or original(*a))
        batched = vfy.nash_deviation_test(law, spec, 400, seed=8)
        assert len(batched) == 10 and len(draws) == 1
        devs = [(player, kind, mag) for player in (1, 2)
                for kind, mag in vfy.DEFAULT_DEVIATIONS]
        for dev, v in zip(devs, batched):
            (alone,) = vfy.nash_deviation_test(law, spec, 400, [dev],
                                               seed=8)
            assert alone == v

    def test_magnitude_zero_margin_zero(self, golden):
        spec, grid, ladder = golden
        law = assemble_gains(extract_fields(ladder), spec)
        verdicts = vfy.nash_deviation_test(
            law, spec, 500, [(1, "constant_shift", 0.0)], seed=3)
        assert verdicts[0].margin == 0.0
        assert verdicts[0].margin >= -3.0 * verdicts[0].combined_se


class TestPairedLawChecks:
    def test_matches_stand_alone_checks(self, wide_case):
        # the one paired pass gives the stand-alone stationarity projection
        # and deviation verdicts exactly
        spec, grid, ladder, law = wide_case
        rep, verdicts = vfy.paired_law_checks(ladder, law, spec, 400, 8)
        alone = vfy.stationarity_residual_test(ladder, law, spec, 400, 8)
        for a, b in zip(rep.components, alone.components):
            assert a.name == b.name
            np.testing.assert_array_equal(a.coord, b.coord)
            np.testing.assert_array_equal(a.value, b.value)
        assert verdicts == vfy.nash_deviation_test(law, spec, 400, seed=8)


class TestMatrixDeviationCase:
    """The n = 2 problem at delta 0.05 (lag gap 3), 1,000 paths, seed 5."""

    @staticmethod
    def _gain_scale_p1(verdicts):
        (v,) = [v for v in verdicts
                if v.player == 1 and v.description == "gain_scale +0.9"]
        return v

    def test_implied_law_lines_pass(self, matrix_case):
        # the discrete equilibrium the sweep solved: only noise may excuse
        # a deviation line here
        spec, grid, ladder = matrix_case
        verdicts = vfy.nash_deviation_test(vfy.implied_law(ladder, spec),
                                           spec, 1000, seed=5)
        assert len(verdicts) == 10
        failed = [v for v in verdicts
                  if not v.margin >= -3.0 * v.combined_se]
        assert not failed, failed
        assert self._gain_scale_p1(verdicts).margin == \
            pytest.approx(9.64e-4, rel=1e-3)

    def test_assembled_law_gain_scale_verdict(self, matrix_case):
        # the assembled continuous-limit law carries a first-order bias at
        # this coarse step: scaling player 1's gain by 0.9 lowers its own
        # cost beyond the -3 se bound (recorded verdict: FAIL)
        spec, grid, ladder = matrix_case
        law = assemble_gains(extract_fields(ladder), spec)
        v = self._gain_scale_p1(vfy.nash_deviation_test(law, spec, 1000,
                                                        seed=5))
        assert v.margin == pytest.approx(-1.048e-3, rel=1e-3)
        assert -3.0 * v.combined_se == pytest.approx(-4.58e-4, rel=1e-3)
        assert not v.margin >= -3.0 * v.combined_se


class TestImpliedLaw:
    def test_reproduces_ladder_paths_exactly(self, wide_case):
        spec, grid, ladder, law = wide_case
        from delaygame import simulate_path_gains
        disc = vfy.implied_law(ladder, spec)
        tl = simulate_path_ladder(ladder, spec.x0, seed=21, n_paths=6)
        tg = simulate_path_gains(disc, spec, seed=21, n_paths=6)
        np.testing.assert_allclose(tg.x, tl.x, atol=1e-12)
        np.testing.assert_allclose(tg.u1, tl.u1, atol=1e-12)
        np.testing.assert_allclose(tg.u2, tl.u2, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(spec=RANDOM_SPECS)
    def test_random_specs_reproduce_ladder_paths(self, spec):
        # each quantity to 1e-10 of its largest magnitude on random
        # well-posed games; a spec with a singular block is not drawn
        try:
            ladder = solve_ladder(spec, build_grid(spec, RANDOM_DELTA))
        except SingularGamma:
            reject()
        tl = simulate_path_ladder(ladder, spec.x0, seed=4, n_paths=16)
        tg = simulate_path_gains(vfy.implied_law(ladder, spec), spec,
                                 seed=4, n_paths=16)
        for name in ("x", "u1", "u2"):
            ref = getattr(tl, name)
            gap = np.max(np.abs(getattr(tg, name) - ref))
            assert gap <= 1e-10 * np.max(np.abs(ref)), name


class TestReductionOracles:
    def test_single_player_degeneration(self):
        spec = GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.0,
                        B2bar=0.0, Q1=1.0, Q2=0.0, R1=1.0, R2=1.0,
                        H1=0.5, H2=0.0, h1=0.2, h2=0.1, T=1.0, x0=[1.0])
        grid = build_grid(spec, 0.05)
        ladder = solve_ladder(spec, grid)
        assert single_player_reduction_gap(ladder, spec) <= 1e-10

    def test_single_player_matrix_case(self):
        rng = np.random.default_rng(5)
        A = 0.3 * rng.normal(size=(2, 2))
        Abar = 0.2 * rng.normal(size=(2, 2))
        B1 = rng.normal(size=(2, 1))
        B1bar = 0.2 * rng.normal(size=(2, 1))
        spec = GameSpec(A=A, Abar=Abar, B1=B1, B1bar=B1bar,
                        B2=np.zeros((2, 1)), B2bar=np.zeros((2, 1)),
                        Q1=np.eye(2), Q2=np.zeros((2, 2)), R1=[[1.0]],
                        R2=[[1.0]], H1=0.5 * np.eye(2),
                        H2=np.zeros((2, 2)), h1=0.2, h2=0.1, T=1.0,
                        x0=[1.0, 0.0])
        grid = build_grid(spec, 0.05)
        ladder = solve_ladder(spec, grid)
        assert single_player_reduction_gap(ladder, spec) <= 1e-10

    def test_classical_oracle_degenerates_to_lqr(self):
        # with the second player removed, the coupled system is the
        # standard backward matrix equation; compare against a fine
        # reference of itself and against control-free growth
        spec = GameSpec(A=0.3, Abar=0.0, B1=1.0, B1bar=0.0, B2=0.0,
                        B2bar=0.0, Q1=1.0, Q2=0.0, R1=1.0, R2=1.0,
                        H1=0.5, H2=0.0, h1=0.02, h2=0.01, T=1.0, x0=[1.0])
        t, K1, K2 = vfy.classical_game_gains(spec, 400)
        assert np.all(K2 == 0.0)
        # scalar steady check: the backward equation at the far end
        # approaches the stabilizing root of a^2 p... cross-check by
        # the invariance residual of the returned trajectory
        p = -K1[:, 0, 0]  # K1 = -B1 P1 / R1 = -P1
        dp = np.gradient(p, t)
        rhs = 2 * spec.A[0, 0] * p + 1.0 - p ** 2
        assert float(np.max(np.abs(dp + rhs)[5:-5])) < 2e-3

    def test_no_delay_gap_shrinks(self):
        # increment-free variant: tiny-delay gains approach the classical
        # no-delay coupled-game gains
        spec = GameSpec(A=0.2, Abar=0.0, B1=1.0, B1bar=0.0, B2=0.8,
                        B2bar=0.0, Q1=1.0, Q2=0.8, R1=1.0, R2=1.2,
                        H1=0.5, H2=0.7, h1=0.2, h2=0.1, T=1.0, x0=[1.0])
        rep = vfy.no_delay_oracle(spec, deltas=(0.05, 0.025, 0.0125))
        gaps = rep.component("gain_gap").value
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_no_delay_gap_zero_cost(self):
        spec = replace(zero_cost_spec(), Abar=np.zeros((1, 1)),
                       B1bar=np.zeros((1, 1)), B2bar=np.zeros((1, 1)))
        rep = vfy.no_delay_oracle(spec, deltas=(0.05, 0.025))
        assert np.all(rep.component("gain_gap").value <= 1e-12)


class TestZFactors:
    def test_zero_cost_factors_identity(self):
        spec = replace(zero_cost_spec(), h2=0.05)
        grid = Grid(N=19, delta=0.05, d1=4, d2=1)
        ladder = solve_ladder(spec, grid)
        assert vfy.z_factor_distances(ladder) == 0.0

    def test_gap_one_vacuous(self, wide_case):
        spec, grid, ladder, law = wide_case
        # lag gap two: no interior coupling factors exist
        assert all(len(ladder.zfactors[k]) == 0
                   for k in range(grid.N + 1))

    def test_gap_three_distance_shrinks(self):
        spec = golden_scalar_spec()
        ladders = []
        for m in (0, 1):
            delta = 0.005 / 2 ** m
            tiny = replace(spec, h1=4 * delta, h2=delta)
            grid = build_grid(tiny, delta)
            assert grid.d1 - grid.d2 == 3
            ladders.append(solve_ladder(tiny, grid))
        rep = vfy.z_factor_convergence(ladders)
        d0, d1_ = rep.component("identity_distance").value
        assert d0 > 0.0
        assert d1_ <= 0.7 * d0
