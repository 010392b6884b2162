import numpy as np
import pytest

from delaygame import (build_grid, continuous_residuals, extract_fields,
                       invertibility_rcond, solve_ladder)
from delaygame.discrete_engine import SweepCoefficients
import oracles
from conftest import REFERENCE_CASES, golden_scalar_spec, swept, wide_delay_spec


@pytest.fixture(scope="module")
def wide_fields():
    spec = wide_delay_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    return spec, grid, ladder, extract_fields(ladder)


class TestExtractFields:
    def test_zero_cost_fields_vanish(self, zero_cost):
        spec, grid, ladder = zero_cost
        fields = extract_fields(ladder)
        assert np.all(fields.P == 0.0)
        assert np.all(fields.phat == 0.0)
        assert np.all(fields.ccheck == 0.0)
        assert np.all(fields.shat == 0.0)

    def test_terminal_sample(self, wide_fields):
        spec, grid, ladder, fields = wide_fields
        np.testing.assert_array_equal(fields.P[0, -1], spec.H1)
        np.testing.assert_array_equal(fields.P[1, -1], spec.H2)
        assert np.all(fields.phat[:, -1] == 0.0)
        assert np.all(fields.ccheck[:, -1] == 0.0)

    def test_kernel_rescale(self, wide_fields):
        spec, grid, ladder, fields = wide_fields
        k = grid.N // 2
        np.testing.assert_allclose(
            fields.phat[0, k, 1],
            ladder.layer(k).phat_lag[0][1] / grid.delta)

    def test_aggregates_match_quadrature(self, wide_fields):
        spec, grid, ladder, fields = wide_fields
        i, k = 1, 3
        trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
        shat = (fields.P[i, k]
                + trapezoid(fields.phat[i, k], dx=grid.delta, axis=0)
                + trapezoid(fields.ccheck[i, k], dx=grid.delta, axis=0))
        np.testing.assert_allclose(fields.shat[i, k], shat, atol=1e-14)

    def test_reduced_range_identity(self, wide_fields):
        # the fine-lag aggregate minus the state coefficient and second
        # kernel integral equals the first kernel integrated over the
        # outer lag range only
        spec, grid, ladder, fields = wide_fields
        gap = grid.d1 - grid.d2
        for i in range(2):
            lhs = (fields.scheck[i] - fields.P[i]
                   - fields.kernel2_integral(i))
            rhs = fields.kernel1_integral(i, lo_index=gap)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_resolution_refinement_converges(self):
        spec = golden_scalar_spec()
        prev = None
        diffs = []
        for m in (0, 1, 2, 3):
            grid = build_grid(spec, 0.005 / 2 ** m)
            fields = extract_fields(solve_ladder(spec, grid))
            stride = 2 ** m
            sampled = fields.P[:, ::stride]
            if prev is not None:
                diffs.append(float(np.max(np.abs(sampled - prev))))
            prev = sampled
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[1] / diffs[0] < 0.75
        assert diffs[2] / diffs[1] < 0.75

    def test_invertibility_rcond_reported(self, wide_fields):
        spec, grid, ladder, fields = wide_fields
        coeffs = SweepCoefficients.from_spec(spec)
        rc = invertibility_rcond(fields, coeffs)
        assert set(rc) == {"joint", "second"}
        assert rc["joint"].shape == fields.t.shape
        assert np.all(rc["joint"] > 1e-6)
        assert np.all(rc["second"] > 1e-6)


class TestContinuousResiduals:
    def test_zero_cost_residuals_vanish(self, zero_cost):
        spec, grid, ladder = zero_cost
        coeffs = SweepCoefficients.from_spec(spec)
        rep = continuous_residuals(extract_fields(ladder), coeffs,
                                   spec.Q1, spec.Q2)
        assert rep.max == 0.0

    def test_residual_halving_trend(self):
        # the backward ODE, both boundary identities, the free transport
        # branch, and the semigroup identity shrink ~linearly with the
        # step; the coupled transport branch of the printed limit system
        # levels off at the kernel-coupling floor and is only reported
        spec = golden_scalar_spec()
        coeffs = SweepCoefficients.from_spec(spec)
        names = ("riccati_ode", "boundary_hat", "boundary_check",
                 "transport_hat_free", "semigroup_check")
        series = {n: [] for n in names}
        for m in (0, 1, 2):
            grid = build_grid(spec, 0.005 / 2 ** m)
            rep = continuous_residuals(extract_fields(solve_ladder(spec, grid)),
                                       coeffs, spec.Q1, spec.Q2)
            for n in names:
                series[n].append(rep.component(n).max)
        for n in names:
            a, b, c = series[n]
            assert b < 0.75 * a, (n, series[n])
            assert c < 0.75 * b, (n, series[n])

    def test_semigroup_exact_when_drift_free(self):
        spec = wide_delay_spec()
        from dataclasses import replace
        spec0 = replace(spec, A=np.zeros((1, 1)))
        grid = build_grid(spec0, 0.05)
        coeffs = SweepCoefficients.from_spec(spec0)
        rep = continuous_residuals(extract_fields(solve_ladder(spec0, grid)),
                                   coeffs, spec0.Q1, spec0.Q2)
        assert rep.component("semigroup_check").max <= 1e-8

    def test_second_kernel_constant_when_drift_free(self):
        # with zero drift map the second kernel is constant along fixed
        # forward argument
        spec = wide_delay_spec()
        from dataclasses import replace
        spec0 = replace(spec, A=np.zeros((1, 1)))
        grid = build_grid(spec0, 0.05)
        fields = extract_fields(solve_ladder(spec0, grid))
        k, j = 4, 2
        np.testing.assert_allclose(fields.ccheck[0, k, j],
                                   fields.ccheck[0, k + j, 0], atol=1e-12)

    def test_report_component_lookup(self, wide_fields):
        spec, grid, ladder, fields = wide_fields
        coeffs = SweepCoefficients.from_spec(spec)
        rep = continuous_residuals(fields, coeffs, spec.Q1, spec.Q2)
        with pytest.raises(KeyError):
            rep.component("nonexistent")
        assert len(rep.components) == 6


@REFERENCE_CASES
class TestMatchesReferenceLoops:
    def test_closure_rcond(self, make_spec, delta):
        spec, grid, fields = swept(make_spec, delta)
        coeffs = SweepCoefficients.from_spec(spec)
        rc = invertibility_rcond(fields, coeffs)
        for name, ref in oracles.reference_closure_rcond(fields, coeffs).items():
            assert rc[name].shape == ref.shape
            assert np.max(np.abs(rc[name] - ref)) <= 1e-15, name

    def test_transport(self, make_spec, delta):
        spec, grid, fields = swept(make_spec, delta)
        coeffs = SweepCoefficients.from_spec(spec)
        rep = continuous_residuals(fields, coeffs, spec.Q1, spec.Q2)
        coupled, free = oracles.reference_transport_residuals(fields, coeffs)
        for name, ref in (("transport_hat_coupled", coupled),
                          ("transport_hat_free", free)):
            got = rep.component(name).value
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15, name
