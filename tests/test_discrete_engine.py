import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from delaygame import (GameSpec, Grid, SingularGamma, SweepCoefficients,
                       assemble_blocks, build_grid, expectation_of_product,
                       solve_ladder)
from delaygame import discrete_engine
from delaygame.discrete_engine import (LAYER_FIELDS, RiccatiLadder, _rcond,
                                      riccati_step, solve_estimate_chain)
from conftest import RANDOM_DELTA, RANDOM_SPECS, matrix_spec, wide_delay_spec
from oracles import by_name, oracle_chain_sweep, oracle_sweep


class TestExpectationOfProduct:
    def test_deterministic_factors(self):
        C = np.array([[2.0, 1.0], [0.0, 3.0]])
        X = np.stack([np.eye(2), np.zeros((2, 2))])
        Y = np.stack([C, np.zeros((2, 2))])
        np.testing.assert_array_equal(expectation_of_product(X, Y, 0.3), C)

    def test_pure_noise_factors(self):
        X = np.stack([np.zeros((2, 2)), np.eye(2)])
        out = expectation_of_product(X, X, 0.1)
        np.testing.assert_allclose(out, 0.1 * np.eye(2))

    def test_cross_terms_vanish(self):
        rng = np.random.default_rng(1)
        A0, A1, B0, B1 = rng.normal(size=(4, 3, 3))
        X, Y = np.stack([A0, A1]), np.stack([B0, B1])
        out = expectation_of_product(X, Y, 0.25)
        np.testing.assert_allclose(out, A0 @ B0 + 0.25 * A1 @ B1)

    @settings(max_examples=25, deadline=None)
    @given(delta=st.floats(1e-4, 1.0), s=st.floats(-2.0, 2.0))
    def test_bilinear(self, delta, s):
        rng = np.random.default_rng(3)
        A0, A1, B0, B1 = rng.normal(size=(4, 2, 2))
        X, Y = np.stack([A0, A1]), np.stack([B0, B1])
        Xs = np.stack([s * A0, s * A1])
        np.testing.assert_allclose(
            expectation_of_product(Xs, Y, delta),
            s * expectation_of_product(X, Y, delta), atol=1e-12)


class TestAssembleBlocks:
    def test_zero_layers_give_identity_blocks(self, zero_cost):
        spec, grid, ladder = zero_cost
        n = ladder.n
        levels, _ = assemble_blocks(ladder, grid.N)
        eye = np.eye(2 * n)
        np.testing.assert_array_equal(levels[0], eye)
        np.testing.assert_array_equal(levels[-1], eye)
        for gm in levels[1:-1]:
            np.testing.assert_array_equal(gm, eye)
        np.testing.assert_array_equal(ladder.rhs[0, :, 2 * n:4 * n],
                                      np.zeros_like(eye))

    def test_terminal_scalar_block_by_hand(self):
        # unit maps, H_i = 1: every aggregate is 1 and the reduced
        # products are -1, so the coarse block is [[1.2, 2], [0.2, 3]]
        spec = GameSpec(A=0.0, Abar=0.0, B1=1.0, B1bar=1.0, B2=1.0,
                        B2bar=1.0, Q1=1.0, Q2=1.0, R1=1.0, R2=1.0,
                        H1=1.0, H2=1.0, h1=0.2, h2=0.1, T=1.0, x0=[1.0])
        grid = Grid(N=9, delta=0.1, d1=2, d2=1)
        ladder = RiccatiLadder(grid, SweepCoefficients.from_spec(spec))
        levels, _ = assemble_blocks(ladder, grid.N)
        np.testing.assert_allclose(levels[0],
                                   [[1.2, 2.0], [0.2, 3.0]])
        np.testing.assert_allclose(levels[-1],
                                   [[1.1, 1.0], [0.1, 2.0]])
        np.testing.assert_allclose(ladder.rhs[0, :, 2:4],
                                   [[-0.1, -1.0], [-0.1, -1.0]])

    def test_delta_to_zero_limit(self):
        # at delta = 0 only the increment-free state-coefficient terms
        # survive, in the right column of each block
        spec = wide_delay_spec()
        grid = Grid(N=9, delta=0.0, d1=2, d2=1)
        ladder = RiccatiLadder(grid, SweepCoefficients.from_spec(spec))
        coeffs = by_name(ladder.coeffs)
        levels, _ = assemble_blocks(ladder, grid.N)
        P1, P2 = ladder.phat[grid.N + 1]
        np.testing.assert_allclose(
            levels[0],
            np.block([[np.eye(1), -(coeffs.B21 @ P1 + coeffs.B22 @ P2)],
                      [np.zeros((1, 1)), np.eye(1) - coeffs.Bbar21 @ P1
                       - coeffs.Bbar22 @ P2]]))

    @staticmethod
    def _singular_terminal():
        # for admissible weights the product signs keep the closure blocks
        # away from singularity, so an artificial indefinite layer
        # (terminal weight -1 against a pure increment control map) is
        # needed to reach the guard: the coarse block's corner becomes
        # 1 - (-1)*(-1) = 0 exactly
        spec = GameSpec(A=0.0, Abar=0.0, B1=0.0, B1bar=1.0, B2=0.0,
                        B2bar=0.0, Q1=1.0, Q2=1.0, R1=1.0, R2=1.0,
                        H1=-1.0, H2=0.0, h1=0.2, h2=0.1, T=1.0, x0=[1.0])
        grid = Grid(N=9, delta=0.1, d1=2, d2=1)
        ladder = RiccatiLadder(grid, SweepCoefficients.from_spec(spec))
        return ladder, grid

    def test_singular_block_raises(self):
        # the gate runs on the chain's one solve, before any result of it
        # is used
        ladder, grid = self._singular_terminal()
        with pytest.raises(SingularGamma) as err:
            solve_estimate_chain(ladder, grid.N)
        assert err.value.k == grid.N
        assert err.value.which == "gamma_hat"

    def test_exactly_singular_block_named(self, monkeypatch):
        # an exactly zero pivot makes the solve raise LinAlgError: the
        # chain still names the block, from np.linalg.cond's numbers
        ladder, grid = self._singular_terminal()
        k = grid.N
        levels = assemble_blocks(ladder, k)[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(levels, ladder.rhs)
        assert list(_rcond(levels) == 0.0) == [True] + [False] * ladder.gap
        with pytest.raises(SingularGamma) as err:
            solve_estimate_chain(ladder, k)
        assert (err.value.k, err.value.which, err.value.rcond) == (
            k, "gamma_hat", 0.0)
        # the same for a finer block alone: zero gamma_check's first row
        real = assemble_blocks

        def zero_row(ladder, k):
            levels, products = real(ladder, k)
            levels[-1, 0] = 0.0
            return levels, products
        monkeypatch.setattr(discrete_engine, "assemble_blocks", zero_row)
        coeffs = SweepCoefficients.from_spec(wide_delay_spec())
        with pytest.raises(SingularGamma) as err:
            solve_estimate_chain(RiccatiLadder(grid, coeffs), k)
        assert (err.value.k, err.value.which, err.value.rcond) == (
            k, "gamma_check", 0.0)

    @pytest.mark.parametrize("case", ["golden", "matrix_case"])
    def test_rcond_equals_cond(self, case, request):
        # the condition numbers the chain takes from its one solve are
        # the reciprocals of np.linalg.cond(levels, 1), bit for bit, at
        # every step
        spec, grid, solved = request.getfixturevalue(case)
        ladder = RiccatiLadder(grid, SweepCoefficients.from_spec(spec))
        for f in LAYER_FIELDS:
            getattr(ladder, f)[:] = getattr(solved, f)
        for k in range(grid.N + 1):
            want = _rcond(assemble_blocks(ladder, k)[0])
            np.testing.assert_array_equal(solved.rcond[k], want)

    @pytest.mark.parametrize("case", ["golden", "matrix_case"])
    def test_products_and_constants_equal_direct_forms(self, case, request):
        # the chain reads the products assemble_blocks returns and the
        # constants the ladder keeps instead of forming them again: each
        # must equal its direct form bit for bit, and each product stacked
        # over player 2's aggregates must equal the product with each one
        # (S^1 enters gamma_hat, S^gap the state update)
        spec, grid, ladder = request.getfixturevalue(case)
        coeffs = by_name(SweepCoefficients.from_spec(spec))
        n, delta, k = ladder.n, grid.delta, grid.N - grid.d1
        S1 = ladder.shat[k + 1, 0]
        P1, P2 = ladder.phat[k + 1]
        S2 = ladder.agg[k + 1, 1]
        _, (b11, b21, b22, b12) = assemble_blocks(ladder, k)
        # each product is an (increment-free, increment) pair whose halves
        # are the products with the unpaired maps
        direct = {"b11": (coeffs.B11 @ S1, coeffs.Bbar11 @ S1),
                  "b21": (coeffs.B21 @ P1, coeffs.Bbar21 @ P1),
                  "b22": (coeffs.B22 @ P2, coeffs.Bbar22 @ P2)}
        for name, got in zip(direct, (b11, b21, b22)):
            assert got.shape == (2, n, n), name
            for half, want in zip(got, direct[name]):
                np.testing.assert_array_equal(half, want)
        assert b12.shape == (ladder.gap, 2, n, n)
        assert len(S2) == ladder.gap >= 2
        for m, S in enumerate(S2):
            np.testing.assert_array_equal(b12[m, 0], coeffs.B12 @ S)
            np.testing.assert_array_equal(b12[m, 1], coeffs.Bbar12 @ S)
        # the step's coarse-level coupling G is written into the one
        # right-hand side buffer [rhs_fixed | G | I_2n]
        g_block = ladder.rhs[0, :, 2 * n:4 * n]
        np.testing.assert_array_equal(
            g_block, np.block([[delta * b11[0], b21[0]],
                               [delta * b11[1], b21[1]]]))
        for m in range(ladder.gap + 1):
            np.testing.assert_array_equal(ladder.rhs[m, :, 2 * n:4 * n],
                                          g_block)
            np.testing.assert_array_equal(ladder.rhs[m, :, 4 * n:],
                                          np.eye(2 * n))

        rhs_fixed = np.empty((2 * n, 2 * n))
        rhs_fixed[:n, :n] = ladder.a_mat[0]
        rhs_fixed[n:, :n] = delta * ladder.a_mat[1]
        rhs_fixed[:n, n:] = delta * coeffs.B12
        rhs_fixed[n:, n:] = delta * coeffs.Bbar12
        np.testing.assert_array_equal(ladder.a_mat[0],
                                      np.eye(n) + delta * coeffs.A)
        np.testing.assert_array_equal(ladder.a_mat[1], coeffs.Abar)
        np.testing.assert_array_equal(ladder.rhs[0, :, :2 * n], rhs_fixed)
        np.testing.assert_array_equal(ladder.rhs[:, :, :2 * n],
                                      np.broadcast_to(rhs_fixed,
                                                      (ladder.gap + 1, 2 * n,
                                                       2 * n)))
        np.testing.assert_array_equal(ladder.delta_q, delta * coeffs.Q)


GOLDEN_DELTA = 0.1
GOLDEN_GRID = Grid(N=5, delta=GOLDEN_DELTA, d1=2, d2=1)


def golden_engine_spec():
    return GameSpec(A=0.1, Abar=0.1, B1=1.0, B1bar=1.0, B2=1.0, B2bar=1.0,
                    Q1=1.0, Q2=1.0, R1=1.0, R2=1.0, H1=0.5, H2=0.5,
                    h1=0.2, h2=0.1, T=0.6, x0=[1.0])


class TestRiccatiStepGolden:
    # frozen from the straight-line transliteration oracle (tests/oracles.py)
    LAYER_N = {
        "phat": 0.6105499999999999,
        "lag0": -0.009463133640552998,
        "clag0": -0.01987258064516129,
    }
    STEP_N = {"m_const": -0.017050691244239635,
              "m_noise": -0.1705069124423963,
              "h_const": -0.035806451612903224,
              "h_noise": -0.35806451612903223}
    LAYER_0 = {
        "phat": 1.0462534767699916,
        "lagP": [-0.014491795985497838, -0.013951492553830828,
                 -0.013253423516633176],
        "lagC": [-0.04524295547005093, -0.0412605564198762],
    }

    def test_layer_at_last_interior_step(self):
        spec = golden_engine_spec()
        ladder = solve_ladder(spec, GOLDEN_GRID)
        k = GOLDEN_GRID.N
        for i in range(2):   # players symmetric on this instance
            assert ladder.phat[k][i][0, 0] == pytest.approx(
                self.LAYER_N["phat"], rel=1e-12)
            assert ladder.phat_lag[k][i][0][0, 0] == pytest.approx(
                self.LAYER_N["lag0"], rel=1e-12)
            assert ladder.ccheck_lag[k][i][0][0, 0] == pytest.approx(
                self.LAYER_N["clag0"], rel=1e-12)
            assert np.all(ladder.phat_lag[k][i][1:] == 0.0)
            assert np.all(ladder.ccheck_lag[k][i][1:] == 0.0)
        (m_const, m_noise), (h_const, h_noise) = \
            ladder.coef[GOLDEN_GRID.N, [0, -1]]
        assert m_const[0, 0] == pytest.approx(
            self.STEP_N["m_const"], rel=1e-12)
        assert m_noise[0, 0] == pytest.approx(
            self.STEP_N["m_noise"], rel=1e-12)
        assert h_const[0, 0] == pytest.approx(
            self.STEP_N["h_const"], rel=1e-12)
        assert h_noise[0, 0] == pytest.approx(
            self.STEP_N["h_noise"], rel=1e-12)

    def test_full_sweep_reaches_golden_base_layer(self):
        spec = golden_engine_spec()
        ladder = solve_ladder(spec, GOLDEN_GRID)
        for i in range(2):
            assert ladder.phat[0][i][0, 0] == pytest.approx(
                self.LAYER_0["phat"], rel=1e-12)
            for j, ref in enumerate(self.LAYER_0["lagP"]):
                assert ladder.phat_lag[0][i][j][0, 0] == pytest.approx(
                    ref, rel=1e-12)
            for j, ref in enumerate(self.LAYER_0["lagC"]):
                assert ladder.ccheck_lag[0][i][j][0, 0] == pytest.approx(
                    ref, rel=1e-12)

    def test_terminal_step_formula_by_hand(self):
        # the layer below the horizon, with zero lag input:
        # Ahat' H Ahat + delta Abar' H Abar + delta Q
        spec = golden_engine_spec()
        ladder = solve_ladder(spec, GOLDEN_GRID)
        expected = 1.01 ** 2 * 0.5 + 0.1 * 0.1 * 0.5 * 0.1 + 0.1
        assert ladder.phat[GOLDEN_GRID.N][0][0, 0] == pytest.approx(
            expected, rel=1e-14)

    def test_zero_cost_layer_is_zero(self, zero_cost):
        spec, grid, ladder = zero_cost
        for k in range(grid.N + 2):
            assert np.all(ladder.phat[k] == 0.0)
            assert np.all(ladder.phat_lag[k] == 0.0)
            assert np.all(ladder.ccheck_lag[k] == 0.0)

    def test_terminal_with_zero_running_cost(self):
        spec = GameSpec(A=0.1, Abar=0.1, B1=1.0, B1bar=1.0, B2=1.0,
                        B2bar=1.0, Q1=0.0, Q2=0.0, R1=1.0, R2=1.0,
                        H1=0.5, H2=0.5, h1=0.2, h2=0.1, T=0.6, x0=[1.0])
        ladder = solve_ladder(spec, GOLDEN_GRID)
        expected = 1.01 ** 2 * 0.5 + 0.1 * 0.1 * 0.5 * 0.1
        assert ladder.phat[GOLDEN_GRID.N][0][0, 0] == pytest.approx(
            expected, rel=1e-14)


class TestChainAgainstClosedForms:
    """The chain solver must reproduce the closed-form coefficient
    displays wherever those are written out (lag gaps 1 and 3)."""

    def _compare(self, spec, grid, rtol=1e-10):
        ladder = solve_ladder(spec, grid)
        layer_by_k, step_by_k = oracle_sweep(
            spec.A, spec.Abar, spec.B1, spec.B1bar, spec.B2, spec.B2bar,
            spec.Q1, spec.Q2, spec.R1, spec.R2, spec.H1, spec.H2,
            grid.delta, grid.d1, grid.d2, grid.N)
        scale = max(1.0, np.max(np.abs(ladder.coef[:, 0, 1])))
        for k in range(grid.N + 1):
            coef = ladder.coef[k]
            (mc, mn), mm, (hc, hn) = step_by_k[k]
            for got, ref in ((coef[0, 0], mc),
                             (coef[0, 1], mn),
                             (coef[-1, 0], hc),
                             (coef[-1, 1], hn)):
                np.testing.assert_allclose(got, ref, atol=rtol * scale)
            for m, (mmc, mmn) in enumerate(mm):
                np.testing.assert_allclose(coef[m + 1, 0], mmc,
                                           atol=rtol * scale)
                np.testing.assert_allclose(coef[m + 1, 1], mmn,
                                           atol=rtol * scale)
        for k in range(grid.N + 2):
            ref = layer_by_k[k]
            for i in range(2):
                np.testing.assert_allclose(ladder.phat[k][i], ref.P[i],
                                           atol=rtol)
                for j in range(grid.d1 + 1):
                    np.testing.assert_allclose(ladder.phat_lag[k][i][j],
                                               ref.lagP[i][j], atol=rtol)

    def test_gap_one_scalar(self):
        self._compare(golden_engine_spec(), GOLDEN_GRID)

    def test_gap_three_scalar(self):
        spec = GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.8,
                        B2bar=0.3, Q1=1.0, Q2=0.8, R1=1.0, R2=1.2,
                        H1=0.5, H2=0.7, h1=0.2, h2=0.05, T=1.0, x0=[1.0])
        self._compare(spec, Grid(N=19, delta=0.05, d1=4, d2=1))

    def test_gap_three_matrix(self):
        spec = matrix_spec()
        self._compare(spec, Grid(N=19, delta=0.05, d1=4, d2=1))

    def test_zero_cost_chain_vanishes(self, zero_cost):
        spec, grid, ladder = zero_cost
        for k in range(grid.N + 1):
            coef = ladder.coef[k]
            assert np.all(coef[0, 0] == 0.0)
            assert np.all(coef[0, 1] == 0.0)
            assert np.all(coef[-1, 0] == 0.0)
            for mm in coef[1:-1]:
                assert np.all(mm[0] == 0.0)


# short horizons (two lag windows and a step) at lag gaps 2, 5, 8 and 16
CHAIN_GRIDS = {2: Grid(N=9, delta=0.05, d1=4, d2=2),
               5: Grid(N=21, delta=0.02, d1=10, d2=5),
               8: Grid(N=33, delta=0.0125, d1=16, d2=8),
               16: Grid(N=65, delta=0.00625, d1=32, d2=16)}


class TestChainAgainstReference:
    """The stacked chain must reproduce the per-(level, source level)
    reference chain of tests/oracles.py in every step field and layer."""

    @staticmethod
    def _close(got, ref, tol=1e-10):
        ref = np.asarray(ref)
        np.testing.assert_allclose(
            got, ref, rtol=0, atol=tol * max(1.0, float(np.max(np.abs(ref)))))

    @pytest.mark.parametrize("gap", sorted(CHAIN_GRIDS))
    @pytest.mark.parametrize("make_spec", [wide_delay_spec, matrix_spec],
                             ids=["scalar", "matrix"])
    def test_full_sweep(self, make_spec, gap):
        spec, grid = make_spec(), CHAIN_GRIDS[gap]
        ladder = solve_ladder(spec, grid)
        layer_by_k, step_by_k = oracle_chain_sweep(
            spec.A, spec.Abar, spec.B1, spec.B1bar, spec.B2, spec.B2bar,
            spec.Q1, spec.Q2, spec.R1, spec.R2, spec.H1, spec.H2,
            grid.delta, grid.d1, grid.d2, grid.N)
        for k in range(grid.N + 1):
            coef = ladder.coef[k]
            ((mc, mn), mm, (hc, hn)), u1, u2, zf = step_by_k[k]
            self._close(coef[0, 0], mc)
            self._close(coef[0, 1], mn)
            self._close(coef[-1, 0], hc)
            self._close(coef[-1, 1], hn)
            assert len(coef[1:-1]) == len(mm) == gap - 1
            for got, (mmc, mmn) in zip(coef[1:-1], mm):
                self._close(got[0], mmc)
                self._close(got[1], mmn)
            self._close(ladder.u1_gain[k], u1)
            self._close(ladder.u2_gain[k], np.stack(u2))
            assert len(ladder.zfactors[k]) == len(zf) == max(gap - 2, 0)
            for got, ref in zip(ladder.zfactors[k], zf):
                self._close(got, ref)
        for k in range(grid.N + 2):
            ref = layer_by_k[k]
            for i in range(2):
                self._close(ladder.phat[k][i], ref.P[i])
                self._close(ladder.phat_lag[k][i], np.stack(ref.lagP[i]))
                self._close(ladder.ccheck_lag[k][i], np.stack(ref.lagC[i]))
                self._close(ladder.shat[k][i], ref.Shat(i))
                self._close(ladder.scheck[k][i], ref.Scheck(i))
                for m in range(1, gap):
                    self._close(ladder.agg[k][i][m - 1], ref.Sm(i, m))

    def test_one_solve_per_step(self, monkeypatch):
        # one batched factor-and-solve call for every information level
        # and all their right-hand sides, which also gives the blocks'
        # condition numbers: no conditioning call
        spec, grid = matrix_spec(), CHAIN_GRIDS[8]
        ladder = solve_ladder(spec, grid)
        calls = {"solve": 0, "lu_factor": 0, "lu_solve": 0, "cond": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "solve")
        counted(scipy.linalg, "lu_factor")
        counted(scipy.linalg, "lu_solve")
        counted(np.linalg, "cond")
        k = grid.N - grid.d1
        solve_estimate_chain(ladder, k)
        assert calls == {"solve": 1, "lu_factor": 0, "lu_solve": 0, "cond": 0}


def _random_ladder(spec):
    """The sweep of ``spec`` on its grid nearest ``RANDOM_DELTA`` (0.05 for
    the matrix problem); a spec with a singular block is not drawn."""
    try:
        return solve_ladder(spec, build_grid(spec, RANDOM_DELTA))
    except SingularGamma:
        reject()


class TestSweepInvariants:
    @settings(max_examples=25, deadline=None)
    @given(spec=RANDOM_SPECS)
    @example(spec=matrix_spec())
    def test_terminal_layer_exact(self, spec):
        ladder = _random_ladder(spec)
        np.testing.assert_array_equal(ladder.phat[-1][0], spec.H1)
        np.testing.assert_array_equal(ladder.phat[-1][1], spec.H2)
        assert np.all(ladder.phat_lag[-1] == 0.0)
        assert np.all(ladder.ccheck_lag[-1] == 0.0)
        for i, H in enumerate((spec.H1, spec.H2)):
            for S in ladder.agg[-1][i]:
                np.testing.assert_array_equal(S, H)

    @pytest.mark.parametrize("at", ["terminal", "interior", "base"])
    def test_steps_write_only_their_own_slices(self, matrix_case, at):
        # a ladder that is NaN except layer k+1, copied from a solved one:
        # step k (with the estimate pairs the gains are read from after
        # the loop) and layer k must come out bit for bit, and every other
        # slice must stay NaN (a write to the wrong k would show)
        spec, grid, solved = matrix_case
        k = {"terminal": grid.N, "interior": grid.N - grid.d1,
             "base": 0}[at]
        coeffs = SweepCoefficients.from_spec(spec)
        ladder = RiccatiLadder(grid, coeffs)
        assert ladder.coeffs is coeffs
        steps = ("coef", "w_hat", "w_check", "coupling", "zfactors", "rcond")
        for f in LAYER_FIELDS + steps:
            getattr(ladder, f)[:] = np.nan
        for f in LAYER_FIELDS:
            getattr(ladder, f)[k + 1] = getattr(solved, f)[k + 1]
        solve_estimate_chain(ladder, k)
        riccati_step(ladder, k)
        for f, written in ([(f, (k, k + 1)) for f in LAYER_FIELDS]
                           + [(f, (k,)) for f in steps]):
            got, ref = getattr(ladder, f), getattr(solved, f)
            for j in written:
                np.testing.assert_array_equal(got[j], ref[j])
            others = np.delete(got, written, axis=0)
            assert np.isnan(others).all(), f

    @pytest.mark.parametrize("case", ["golden", "matrix_case"])
    def test_gains_equal_per_step_formula(self, case, request):
        # backward_sweep reads the implied controls out after its loop,
        # every step at once: each step's gains must equal the per-step
        # formula on that step's estimate pairs, bit for bit
        spec, grid, ladder = request.getfixturevalue(case)
        c = by_name(SweepCoefficients.from_spec(spec))
        n, delta = ladder.n, grid.delta
        for k in range(grid.N + 1):
            W00, Wc = ladder.w_hat[k], ladder.w_check[k]
            P1, P2 = ladder.phat[k + 1]
            u1 = -c.R1inv @ (c.B1.T @ (ladder.shat[k + 1, 0] @ W00[:n])
                             + c.B1bar.T @ (P1 @ W00[n:]) / delta)
            u2 = -c.R2inv @ (c.B2.T @ (ladder.scheck[k + 1, 1] @ Wc[:n]
                                       + ladder.coupling[k])
                             + c.B2bar.T @ (P2 @ Wc[n:] / delta))
            np.testing.assert_array_equal(ladder.u1_gain[k], u1)
            for l in range(ladder.gap + 1):
                np.testing.assert_array_equal(ladder.u2_gain[k, l],
                                              u2[:, l * n:(l + 1) * n])

    @settings(max_examples=25, deadline=None)
    @given(spec=RANDOM_SPECS)
    @example(spec=matrix_spec())
    def test_lag_truncation(self, spec):
        # every lag entry whose forward index k + j exceeds N is exactly 0
        ladder = _random_ladder(spec)
        k = np.arange(ladder.grid.N + 2)[:, None]
        for lag in (ladder.phat_lag, ladder.ccheck_lag):
            beyond = k + np.arange(lag.shape[2]) > ladder.grid.N
            assert beyond.any()
            assert np.all(lag.swapaxes(1, 2)[beyond] == 0.0)

    def test_closed_loop_mm_truncation(self, matrix_case):
        spec, grid, ladder = matrix_case
        for k in range(grid.N + 1):
            for m, mm in enumerate(ladder.coef[k, 1:-1], start=1):
                if k + m > grid.N:
                    assert np.all(mm[0] == 0.0)
                    assert np.all(mm[1] == 0.0)

    def test_aggregate_identity(self, matrix_case):
        spec, grid, ladder = matrix_case
        for k in range(0, grid.N + 2, 5):
            for i in range(2):
                expected = (ladder.phat[k][i]
                            + ladder.phat_lag[k][i].sum(axis=0)
                            + ladder.ccheck_lag[k][i].sum(axis=0))
                np.testing.assert_allclose(ladder.shat[k][i], expected,
                                           atol=1e-14)

    def test_bounded_layers(self, golden):
        spec, grid, ladder = golden
        worst = max(float(np.max(np.abs(ladder.phat[k])))
                    for k in range(grid.N + 2))
        assert worst < 1e6

    def test_player_relabel_symmetry(self):
        # swapping the players' cost/control data swaps the player index
        # in the purely index-symmetric recursions (state coefficient and
        # the transported second lag family)
        spec = wide_delay_spec()
        swapped = GameSpec(A=spec.A, Abar=spec.Abar,
                           B1=spec.B2, B1bar=spec.B2bar,
                           B2=spec.B1, B2bar=spec.B1bar,
                           Q1=spec.Q2, Q2=spec.Q1, R1=spec.R2, R2=spec.R1,
                           H1=spec.H2, H2=spec.H1, h1=spec.h1, h2=spec.h2,
                           T=spec.T, x0=spec.x0)
        grid = Grid(N=19, delta=0.05, d1=4, d2=2)
        base = solve_ladder(spec, grid)
        flip = solve_ladder(swapped, grid)
        # at the first step below the horizon the asymmetric couplings
        # have not yet entered either recursion branch
        k = grid.N
        np.testing.assert_allclose(base.phat[k][0],
                                   flip.phat[k][1], atol=1e-13)
        np.testing.assert_allclose(base.ccheck_lag[k][0][1:],
                                   flip.ccheck_lag[k][1][1:],
                                   atol=1e-13)

    def test_single_player_degeneration_zeroes_player_two(self):
        spec = GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.0,
                        B2bar=0.0, Q1=1.0, Q2=0.0, R1=1.0, R2=1.0,
                        H1=0.5, H2=0.0, h1=0.2, h2=0.1, T=1.0, x0=[1.0])
        grid = Grid(N=19, delta=0.05, d1=4, d2=2)
        ladder = solve_ladder(spec, grid)
        for k in range(grid.N + 2):
            assert np.all(ladder.phat[k][1] == 0.0)
            assert np.all(ladder.ccheck_lag[k] == 0.0)
        for k in range(grid.N + 1):
            assert np.all(ladder.coef[k, -1, 0] == 0.0)
            for mm in ladder.coef[k, 1:-1]:
                assert np.all(mm[0] == 0.0)
