import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings

import oracles
from delaygame import (GameSpec, ResidualComponent, ResidualReport,
                       SingularGain, assemble_gains, build_grid,
                       extract_fields, solve_ladder,
                       stationarity_identity_check)
from delaygame.errors import SingularGamma
from delaygame.gains import IDENTITY_TOL
from conftest import (RANDOM_DELTA, RANDOM_SPECS, REFERENCE_CASES, swept,
                      wide_delay_spec)


@pytest.fixture(scope="module")
def wide_law():
    spec = wide_delay_spec()
    grid = build_grid(spec, 0.05)
    fields = extract_fields(solve_ladder(spec, grid))
    return spec, grid, fields, assemble_gains(fields, spec)


class TestAssembleGains:
    def test_zero_cost_gains_vanish(self, zero_cost):
        spec, grid, ladder = zero_cost
        fields = extract_fields(ladder)
        law = assemble_gains(fields, spec)
        np.testing.assert_array_equal(law.k1, 0.0)
        np.testing.assert_array_equal(law.k2_h1, 0.0)
        np.testing.assert_array_equal(law.k2_kernel, 0.0)
        np.testing.assert_array_equal(law.k2_h2, 0.0)
        np.testing.assert_allclose(law.rt1, np.broadcast_to(spec.R1,
                                                            law.rt1.shape))
        np.testing.assert_allclose(law.rt2, np.broadcast_to(spec.R2,
                                                            law.rt2.shape))

    def test_zero_increment_maps_keep_plain_weights(self):
        spec = wide_delay_spec()
        spec0 = replace(spec, B1bar=np.zeros((1, 1)), B2bar=np.zeros((1, 1)))
        grid = build_grid(spec0, 0.05)
        fields = extract_fields(solve_ladder(spec0, grid))
        law = assemble_gains(fields, spec0)
        np.testing.assert_allclose(law.rt1,
                                   np.broadcast_to(spec0.R1, law.rt1.shape))
        np.testing.assert_allclose(law.rt2,
                                   np.broadcast_to(spec0.R2, law.rt2.shape))
        # the coarse-lag part of the second control exists only through
        # the increment-map coupling
        np.testing.assert_array_equal(law.k2_h1, 0.0)

    def test_gain_shapes_and_kernel_lattice(self, wide_law):
        spec, grid, fields, law = wide_law
        gap = grid.d1 - grid.d2
        assert law.k2_kernel.shape[1] == gap + 1
        np.testing.assert_allclose(law.theta_kernel,
                                   grid.delta * np.arange(gap + 1))
        assert law.k1.shape == (grid.N + 2, spec.d1c, spec.n)

    def test_first_gain_is_weighted_stationarity_offset(self, wide_law):
        spec, grid, fields, law = wide_law
        for k in (0, grid.N // 2, grid.N + 1):
            np.testing.assert_allclose(law.rt1[k] @ law.k1[k], -law.o1[k],
                                       atol=1e-13)

    def test_coarse_gain_reacts_to_first_player(self, wide_law):
        spec, grid, fields, law = wide_law
        for k in (1, grid.N):
            expected = -np.linalg.solve(
                law.rt2[k], spec.B2bar.T @ fields.P[1, k] @ spec.B1bar
                @ law.k1[k])
            np.testing.assert_allclose(law.k2_h1[k], expected, atol=1e-13)

    def test_matrix_case_asymmetry_recorded(self, matrix_case):
        spec, grid, ladder = matrix_case
        law = assemble_gains(extract_fields(ladder), spec)
        assert law.rt1_asymmetry >= 0.0
        assert law.rt2_rcond_min > 1e-8

    def test_scalar_effective_weight_symmetric(self, wide_law):
        spec, grid, fields, law = wide_law
        assert law.rt1_asymmetry <= 1e-12

    def test_singular_weight_raises(self):
        # solve with a valid spec, then assemble against a doctored
        # (invalid) R2 that cancels the increment-map quadratic form at
        # the terminal sample: rt2(T) = R2 + B2bar' H2 B2bar = 0
        spec = replace(wide_delay_spec(), B2bar=np.ones((1, 1)))
        grid = build_grid(spec, 0.05)
        fields = extract_fields(solve_ladder(spec, grid))
        doctored = replace(spec, R2=-float(spec.H2[0, 0]))
        with pytest.raises(SingularGain) as err:
            assemble_gains(fields, doctored)
        assert err.value.which == "rt2"
        assert err.value.t == pytest.approx(spec.T)

    @pytest.mark.parametrize("doctored,which", [
        ({"R1": -0.5}, "rt1"),
        ({"R1": -0.5, "R2": -0.7}, "rt2"),
    ], ids=["first-weight", "tie"])
    def test_singular_weight_named_at_first_sample(self, doctored, which):
        # orthogonal increment maps: B1bar' H1 B2bar = 0, so at T
        # rt1 = R1 + H1[0, 0] and rt2 = R2 + H2[1, 1]; the doctored
        # (invalid) weights make one or both vanish there, and at a tie the
        # second player's weight is named and never inverted
        eye = np.eye(2)
        spec = GameSpec(A=0.2 * eye, Abar=0.3 * eye, B1=[[1.0], [0.5]],
                        B1bar=[[1.0], [0.0]], B2=[[0.5], [0.8]],
                        B2bar=[[0.0], [1.0]], Q1=eye, Q2=0.8 * eye, R1=1.0,
                        R2=1.2, H1=0.5 * eye, H2=0.7 * eye, h1=0.2, h2=0.1,
                        T=1.0, x0=[1.0, -0.5])
        grid = build_grid(spec, 0.05)
        fields = extract_fields(solve_ladder(spec, grid))
        bad = replace(spec, **doctored)
        with pytest.raises(SingularGain) as err:
            assemble_gains(fields, bad)
        assert err.value.which == which
        assert err.value.t == pytest.approx(spec.T)
        with pytest.raises(ValueError) as ref:
            oracles.reference_gains(fields, bad)
        assert ref.value.args == (which, grid.N + 1)

    def test_monotone_gain_pressure(self):
        # doubling the first player's state weight does not reduce its
        # initial gain magnitude (sanity on the golden-style instance)
        spec = wide_delay_spec()
        grid = build_grid(spec, 0.05)
        law = assemble_gains(extract_fields(solve_ladder(spec, grid)), spec)
        spec2 = replace(spec, Q1=2.0 * spec.Q1)
        law2 = assemble_gains(extract_fields(solve_ladder(spec2, grid)), spec2)
        assert abs(law2.k1[0, 0, 0]) >= abs(law.k1[0, 0, 0])


class TestStationarityIdentity:
    def test_equilibrium_identity_holds(self, wide_law):
        spec, grid, fields, law = wide_law
        rep = stationarity_identity_check(law, fields, spec)
        assert rep.max <= IDENTITY_TOL
        assert rep.max <= 1e-12

    def test_matrix_case_identity_holds(self, matrix_case):
        spec, grid, ladder = matrix_case
        fields = extract_fields(ladder)
        law = assemble_gains(fields, spec)
        rep = stationarity_identity_check(law, fields, spec)
        assert rep.max <= IDENTITY_TOL, rep.max

    def test_zero_cost_identity_zero(self, zero_cost):
        spec, grid, ladder = zero_cost
        fields = extract_fields(ladder)
        law = assemble_gains(fields, spec)
        rep = stationarity_identity_check(law, fields, spec)
        assert rep.max == 0.0

    def test_perturbed_law_violates(self, wide_law):
        spec, grid, fields, law = wide_law
        bad = replace(law, k1=1.01 * law.k1)
        rep = stationarity_identity_check(bad, fields, spec)
        assert not rep.max <= IDENTITY_TOL
        assert rep.max >= 1e-3

    def test_nan_residual_fails(self, wide_law):
        spec, grid, fields, law = wide_law
        bad = replace(law, k1=np.full_like(law.k1, np.nan))
        rep = stationarity_identity_check(bad, fields, spec)
        assert not (rep.max <= IDENTITY_TOL)

    def test_report_max_keeps_a_later_nan(self):
        # the identity verdict compares this max: a NaN in any component,
        # not only the first, must reach it
        rep = ResidualReport("r", [
            ResidualComponent("a", np.arange(2.0), np.array([0.1, 0.2])),
            ResidualComponent("b", np.arange(1.0), np.array([np.nan]))])
        assert np.isnan(rep.max)
        assert not (rep.max <= IDENTITY_TOL)
        assert ResidualReport("empty").max == 0.0

    def test_provisional_range_flagged(self, wide_law):
        spec, grid, fields, law = wide_law
        assert law.provisional[:grid.d1].all()
        assert not law.provisional[grid.d1:].any()


@REFERENCE_CASES
class TestMatchesReferenceLoops:
    def test_gains(self, make_spec, delta):
        spec, grid, fields = swept(make_spec, delta)
        law = assemble_gains(fields, spec)
        for name, ref in oracles.reference_gains(fields, spec).items():
            assert np.max(np.abs(getattr(law, name) - ref)) <= 1e-15, name

    def test_stationarity_identity(self, make_spec, delta):
        spec, grid, fields = swept(make_spec, delta)
        law = assemble_gains(fields, spec)
        rep = stationarity_identity_check(law, fields, spec)
        r1, r2 = oracles.reference_identity_residuals(law, fields, spec)
        assert np.max(np.abs(rep.component("player1").value - r1)) <= 1e-15
        assert np.max(np.abs(rep.component("player2").value - r2)) <= 1e-15
        assert rep.max <= IDENTITY_TOL


@settings(max_examples=25, deadline=None)
@given(spec=RANDOM_SPECS)
def test_random_specs_match_reference(spec):
    # the state coefficient of a nonzero-sum game is not symmetric in
    # general (the matrix problem's is not); its terminal value is H
    grid = build_grid(spec, RANDOM_DELTA)
    try:
        fields = extract_fields(solve_ladder(spec, grid))
    except SingularGamma:
        return
    np.testing.assert_array_equal(fields.P[:, -1], [spec.H1, spec.H2])
    try:
        ref = oracles.reference_gains(fields, spec)
    except ValueError as exc:
        with pytest.raises(SingularGain) as err:
            assemble_gains(fields, spec)
        assert (err.value.which, err.value.t) == (exc.args[0],
                                                  fields.t[exc.args[1]])
        return
    law = assemble_gains(fields, spec)
    for name, value in ref.items():
        assert np.max(np.abs(getattr(law, name) - value)) <= 1e-15, name
    assert stationarity_identity_check(law, fields, spec).max <= IDENTITY_TOL
