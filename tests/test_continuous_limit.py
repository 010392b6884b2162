import numpy as np
import pytest
import scipy.linalg

from delaygame import (build_grid, continuous_residuals, extract_fields,
                       invertibility_rcond, solve_ladder)
from delaygame.continuous_limit import _expm
from delaygame.discrete_engine import SweepCoefficients
import oracles
from conftest import REFERENCE_CASES, golden_scalar_spec, swept, wide_delay_spec


@pytest.fixture(scope="module")
def wide_fields():
    spec = wide_delay_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    return spec, grid, ladder, extract_fields(ladder)


# Normwise relative gap allowed between the numpy exponential and scipy's.
# The two round differently while squaring, so the gap grows with the
# number of squarings: below 2e-16 where none is needed, at most 1.6e-12
# on the inputs below (1-norm up to 66). Against a 40-digit reference on
# random 3x3 inputs, the numpy version was the closer of the two.
EXPM_RTOL = 1e-11


def _normwise_gap(X, ref):
    return np.max(np.abs(X - ref)) / np.max(np.abs(ref))


class TestExpm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_matches_scipy_on_random_matrices(self, n, scale):
        rng = np.random.default_rng(10 * n + int(scale))
        for _ in range(20):
            M = scale * rng.normal(size=(n, n))
            assert (_normwise_gap(_expm(M), scipy.linalg.expm(M))
                    <= EXPM_RTOL)

    def test_large_norm_needs_squaring(self):
        M = np.array([[-20.0, 35.0], [-12.0, 6.0]])
        assert np.linalg.norm(M, 1) > 32     # at least five squarings
        assert _normwise_gap(_expm(M), scipy.linalg.expm(M)) <= EXPM_RTOL

    def test_zero_matrix_is_identity(self):
        np.testing.assert_array_equal(_expm(np.zeros((3, 3))), np.eye(3))
        np.testing.assert_array_equal(scipy.linalg.expm(np.zeros((3, 3))),
                                      np.eye(3))

    def test_nilpotent(self):
        # defective (one Jordan block), norm large enough to need squaring;
        # the series stops at N^2/2
        N = np.array([[0.0, 40.0, -7.0], [0.0, 0.0, 25.0], [0.0, 0.0, 0.0]])
        exact = np.eye(3) + N + N @ N / 2
        assert _normwise_gap(_expm(N), exact) <= 1e-15
        assert _normwise_gap(_expm(N), scipy.linalg.expm(N)) <= EXPM_RTOL

    def test_scalar_is_np_exp(self):
        values = np.random.default_rng(3).normal(scale=20.0, size=500)
        for v in values:
            M = np.array([[v]])
            np.testing.assert_array_equal(_expm(M), np.exp(M))
            np.testing.assert_array_equal(_expm(M), scipy.linalg.expm(M))


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
            ladder.phat_lag[k][0][1] / grid.delta)

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
                   - oracles.kernel2_integral(fields, i))
            rhs = oracles.kernel1_integral(fields, i, lo_index=gap)
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


@pytest.fixture(scope="module")
def golden_halving_residuals():
    """Every residual family on golden at delta = 0.005 / 2^m, m = 0..3:
    the two that ``continuous_residuals`` reports, then the boundary and
    transport identities of the oracles; each family's largest sample."""
    spec = golden_scalar_spec()
    coeffs = SweepCoefficients.from_spec(spec)
    series = {}
    for m in range(4):
        fields = extract_fields(solve_ladder(spec,
                                             build_grid(spec, 0.005 / 2 ** m)))
        res = dict(continuous_residuals(fields, coeffs))
        res["boundary_hat"], res["boundary_check"] = \
            oracles.reference_boundary_residuals(fields, coeffs)
        res["transport_hat_coupled"], res["transport_hat_free"] = \
            oracles.reference_transport_residuals(fields, coeffs)
        for name, v in res.items():
            series.setdefault(name, []).append(float(np.max(v)))
    return series


class TestContinuousResiduals:
    def test_zero_cost_residuals_vanish(self, zero_cost):
        spec, grid, ladder = zero_cost
        coeffs = SweepCoefficients.from_spec(spec)
        fields = extract_fields(ladder)
        res = continuous_residuals(fields, coeffs)
        families = (*res.values(),
                    *oracles.reference_boundary_residuals(fields, coeffs),
                    *oracles.reference_transport_residuals(fields, coeffs))
        assert max(np.max(v, initial=0.0) for v in families) == 0.0

    def test_residual_halving_trend(self, golden_halving_residuals):
        # the backward ODE, both boundary identities, the free transport
        # branch, and the semigroup identity shrink ~linearly with the
        # step; the coupled transport branch of the printed limit system
        # levels off at the kernel-coupling floor
        names = ("riccati_ode", "boundary_hat", "boundary_check",
                 "transport_hat_free", "semigroup_check")
        for n in names:
            a, b, c = golden_halving_residuals[n][:3]
            assert b < 0.75 * a, (n, golden_halving_residuals[n])
            assert c < 0.75 * b, (n, golden_halving_residuals[n])

    def test_coupled_transport_levels_off(self, golden_halving_residuals):
        # measured maxima 9.44e-3, 6.31e-3, 4.74e-3, 3.95e-3: halving
        # ratios 0.67, 0.75, 0.83 rise towards 1, where a residual that
        # shrinks linearly with the step halves (ratio ~0.5)
        series = golden_halving_residuals["transport_hat_coupled"]
        ratios = [b / a for a, b in zip(series, series[1:])]
        assert all(r > 0.6 for r in ratios), series
        assert ratios[0] < ratios[1] < ratios[2], series
        assert series[-1] > 3e-3, series

    def test_semigroup_exact_when_drift_free(self):
        spec = wide_delay_spec()
        from dataclasses import replace
        spec0 = replace(spec, A=np.zeros((1, 1)))
        grid = build_grid(spec0, 0.05)
        coeffs = SweepCoefficients.from_spec(spec0)
        res = continuous_residuals(extract_fields(solve_ladder(spec0, grid)),
                                   coeffs)
        assert np.max(res["semigroup_check"]) <= 1e-8

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
        res = continuous_residuals(fields, coeffs)
        with pytest.raises(KeyError):
            res["nonexistent"]
        assert set(res) == {"riccati_ode", "semigroup_check"}


@REFERENCE_CASES
class TestMatchesReferenceLoops:
    def test_closure_rcond(self, make_spec, delta):
        spec, grid, fields = swept(make_spec, delta)
        coeffs = SweepCoefficients.from_spec(spec)
        rc = invertibility_rcond(fields, coeffs)
        for name, ref in oracles.reference_closure_rcond(fields, coeffs).items():
            assert rc[name].shape == ref.shape
            assert np.max(np.abs(rc[name] - ref)) <= 1e-15, name

    def test_ode_and_semigroup(self, make_spec, delta):
        spec, grid, fields = swept(make_spec, delta)
        coeffs = SweepCoefficients.from_spec(spec)
        res = continuous_residuals(fields, coeffs)
        ode, semi = oracles.reference_ode_semigroup_residuals(fields, coeffs)
        for name, ref in (("riccati_ode", ode), ("semigroup_check", semi)):
            got = res[name]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15, name
