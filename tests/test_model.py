import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from delaygame import (GameSpec, IncommensurateDelays, SingularWeight,
                       SweepCoefficients, build_grid, load_problem,
                       save_problem, validate)
from conftest import (RANDOM_SPECS, RANK_ONE_R2, golden_scalar_spec,
                      matrix_spec, random_spec, wide_delay_spec)
from oracles import by_name, oracle_reduced


def scalar_spec(**overrides):
    base = dict(A=0.1, Abar=0.0, B1=1.0, B1bar=0.0, B2=1.0, B2bar=0.0,
                Q1=1.0, Q2=1.0, R1=1.0, R2=1.0, H1=1.0, H2=1.0,
                h1=0.2, h2=0.1, T=1.0, x0=[1.0])
    base.update(overrides)
    return GameSpec(**base)


class TestValidate:
    def test_scalar_spec_passes(self):
        report = validate(scalar_spec())
        assert report.passed, report.violations

    def test_zero_r1_fails_with_eigenvalue_evidence(self):
        report = validate(scalar_spec(R1=0.0))
        assert not report.passed
        joined = " ".join(report.violations)
        assert "R1 not positive definite" in joined
        assert "smallest eigenvalue" in joined

    def test_equal_delays_fail(self):
        report = validate(scalar_spec(h1=0.1, h2=0.1))
        assert not report.passed
        assert any("delays must satisfy h2 < h1" in v
                   for v in report.violations)

    def test_delay_exceeding_horizon_fails(self):
        assert not validate(scalar_spec(h1=1.5)).passed

    @pytest.mark.parametrize("overrides,rule", [
        ({"T": -1.0}, "h1 < T"), ({"h2": 0.0}, "h2 > 0")],
        ids=["negative-T", "zero-h2"])
    def test_delay_ordering_names_failed_rule(self, overrides, rule):
        # the message names the inequality that fails, not h2 < h1
        report = validate(scalar_spec(**overrides))
        [line] = [v for v in report.violations
                  if v.startswith("delay ordering")]
        assert f"delays must satisfy {rule} (" in line
        assert "h2 < h1 (" not in line

    def test_indefinite_q_fails(self):
        report = validate(matrix_spec())
        assert report.passed
        bad = GameSpec(**{**_spec_dict(matrix_spec()),
                          "Q1": [[1.0, 0.0], [0.0, -0.5]]})
        assert not validate(bad).passed

    def test_asymmetric_r_fails(self):
        bad = GameSpec(**{**_spec_dict(matrix_spec()),
                          "R2": [[1.0, 0.4], [0.0, 1.0]]})
        assert not validate(bad).passed

    def test_weight_without_cholesky_factor_fails(self):
        # the smallest eigenvalue computes positive, but the factor the
        # sweep takes does not exist
        bad = GameSpec(**{**_spec_dict(matrix_spec()), "R2": RANK_ONE_R2})
        [line] = validate(bad).violations
        assert line.startswith("R2 symmetric pd: R2 not positive definite")
        assert line.endswith(", no Cholesky factor)")

    def test_dimension_mismatch_reported(self):
        bad = GameSpec(**{**_spec_dict(matrix_spec()), "x0": [1.0]})
        report = validate(bad)
        assert not report.passed
        assert any("x0" in v for v in report.violations)

    def test_huge_weight_validates_without_warning(self):
        # the symmetric part is formed from halves: 0.5 * (M + M.T) would
        # overflow at 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(scalar_spec(R1=1e308))
        assert report.passed, report.violations

    @pytest.mark.parametrize("key,value,message", [
        ("A", [[[0.1]]], "A must be a matrix, got ndim=3"),
        ("x0", [[1.0]], "x0 must be a vector, got ndim=2")])
    def test_wrong_rank_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scalar_spec(**{key: value})

    def test_semidefinite_accepted(self):
        # numerically semi-definite terminal weight must pass
        report = validate(scalar_spec(H1=0.0))
        assert report.passed


def _spec_dict(spec):
    keys = ("A", "Abar", "B1", "B1bar", "B2", "B2bar", "Q1", "Q2",
            "R1", "R2", "H1", "H2", "h1", "h2", "T", "x0")
    return {k: getattr(spec, k) for k in keys}


class TestReduceCoefficients:
    """The reduced products that ``SweepCoefficients.from_spec`` forms."""

    def test_identity_case(self):
        red = by_name(SweepCoefficients.from_spec(scalar_spec(B1=1.0, R1=1.0)))
        assert red.B11[0, 0] == pytest.approx(-1.0)

    def test_zero_diffusion_map_annihilates(self):
        red = by_name(SweepCoefficients.from_spec(scalar_spec(B1bar=0.0)))
        assert red.B21[0, 0] == 0.0
        assert red.Bbar11[0, 0] == 0.0
        assert red.Bbar21[0, 0] == 0.0

    def test_scalar_product(self):
        red = by_name(SweepCoefficients.from_spec(scalar_spec(B1=2.0, R1=4.0)))
        assert red.B11[0, 0] == pytest.approx(-1.0)

    def test_transpose_pairing(self):
        red = by_name(SweepCoefficients.from_spec(matrix_spec()))
        np.testing.assert_allclose(red.B21.T, red.Bbar11, atol=1e-14)
        np.testing.assert_allclose(red.B22.T, red.Bbar12, atol=1e-14)

    def test_definiteness_of_own_products(self):
        red = by_name(SweepCoefficients.from_spec(matrix_spec()))
        for M in (red.B11, red.B12, red.Bbar21, red.Bbar22):
            sym = 0.5 * (M + M.T)
            assert np.max(np.abs(M - M.T)) < 1e-12
            assert np.max(np.linalg.eigvalsh(sym)) <= 1e-12

    def test_singular_weight_raises(self):
        with pytest.raises(SingularWeight):
            SweepCoefficients.from_spec(scalar_spec(R1=0.0))
        # an indefinite 2x2 weight (eigenvalues 3 and -1) for a player
        # with two controls
        spec = matrix_spec()
        with pytest.raises(SingularWeight):
            SweepCoefficients.from_spec(GameSpec(**{
                **_spec_dict(spec), "B1": spec.B2, "B1bar": spec.B2bar,
                "R1": [[1.0, 2.0], [2.0, 1.0]]}))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_homogeneous_in_r1(self, c):
        base = by_name(SweepCoefficients.from_spec(matrix_spec()))
        spec = matrix_spec()
        scaled = by_name(SweepCoefficients.from_spec(
            GameSpec(**{**_spec_dict(spec), "R1": c * spec.R1})))
        np.testing.assert_allclose(scaled.B11, base.B11 / c, rtol=1e-12)
        np.testing.assert_allclose(scaled.B21, base.B21 / c, rtol=1e-12)
        np.testing.assert_allclose(scaled.Bbar11, base.Bbar11 / c, rtol=1e-12)
        np.testing.assert_allclose(scaled.Bbar21, base.Bbar21 / c, rtol=1e-12)
        np.testing.assert_allclose(scaled.B12, base.B12, rtol=1e-12)

    @pytest.mark.parametrize("make_spec", [
        golden_scalar_spec, matrix_spec,
        lambda: random_spec(1, n=3, d1c=2, d2c=1, d2=1, gap=2, tail=3),
        lambda: random_spec(2, n=2, d1c=1, d2c=2, d2=2, gap=1, tail=1),
        lambda: random_spec(3, n=1, d1c=2, d2c=2, d2=1, gap=3, tail=6)],
        ids=["golden", "matrix", "random-n3", "random-n2", "random-n1"])
    def test_pair_layout(self, make_spec):
        # every slot holds the named map or product: the state and control
        # maps as the spec gives them, each reduced product as the oracle
        # forms it with plain inverses; increment-free half first
        spec = make_spec()
        c = SweepCoefficients.from_spec(spec)
        ref = oracle_reduced(spec.B1, spec.B1bar, spec.B2, spec.B2bar,
                             spec.R1, spec.R2)
        slots = {
            "a": (c.a, (spec.A, spec.Abar)),
            "b1": (c.b1, (spec.B1, spec.B1bar)),
            "b2": (c.b2, (spec.B2, spec.B2bar)),
            "maps11": (c.maps11, (ref["B11"], ref["Bb11"])),
            "maps12": (c.maps12, (ref["B12"], ref["Bb12"])),
            "maps2": (c.maps2, ((ref["B21"], ref["Bb21"]),
                                (ref["B22"], ref["Bb22"])))}
        for name, (got, want) in slots.items():
            want = np.array(want)
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                       err_msg=name)


class TestBuildGrid:
    def test_exact_divisibility(self):
        grid = build_grid(scalar_spec(h1=0.2, h2=0.1, T=1.0), 0.1)
        assert (grid.delta, grid.d1, grid.d2, grid.N) == (0.1, 2, 1, 9)

    def test_common_divisor_refinement(self):
        # largest common divisor of {0.3, 0.1, 1} not exceeding 0.07,
        # confirmed by the exhaustive search below
        grid = build_grid(scalar_spec(h1=0.3, h2=0.1, T=1.0), 0.07)
        assert grid.delta == pytest.approx(0.05, rel=1e-12)
        assert (grid.d1, grid.d2, grid.N) == (6, 2, 19)
        best = None
        for m in range(1, 2000):
            cand = 1.0 / m
            if cand > 0.07:
                continue
            if abs(round(0.3 / cand) * cand - 0.3) < 1e-9 and \
               abs(round(0.1 / cand) * cand - 0.1) < 1e-9:
                best = cand
                break
        assert grid.delta == pytest.approx(best, rel=1e-12)

    def test_irrational_ratio_raises(self):
        with pytest.raises(IncommensurateDelays):
            build_grid(scalar_spec(h1=math.pi / 10, h2=0.1, T=1.0), 0.01)

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            build_grid(scalar_spec(), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(d2=st.integers(1, 6), gap=st.integers(1, 6),
           extra=st.integers(1, 40), m=st.integers(1, 4))
    def test_lag_ordering_property(self, d2, gap, extra, m):
        # any commensurate triple yields 0 < d2 < d1 < N+1
        base = 0.05
        d1 = d2 + gap
        T = base * (d1 + extra)
        spec = scalar_spec(h1=base * d1, h2=base * d2, T=T)
        grid = build_grid(spec, base / m)
        assert 0 < grid.d2 < grid.d1 < grid.N + 1
        assert grid.d1 * grid.delta == pytest.approx(spec.h1, rel=1e-12)
        assert grid.d2 * grid.delta == pytest.approx(spec.h2, rel=1e-12)
        assert (grid.N + 1) * grid.delta == pytest.approx(T, rel=1e-12)
        assert grid.delta <= base / m + 1e-15


class TestProblemFiles:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=RANDOM_SPECS)
    @example(spec=matrix_spec())
    def test_round_trip(self, tmp_path, spec):
        path = tmp_path / "problem.json"
        save_problem(spec, path)
        loaded = load_problem(path)
        for key in ("A", "Abar", "B1", "B1bar", "B2", "B2bar",
                    "Q1", "Q2", "R1", "R2", "H1", "H2"):
            np.testing.assert_array_equal(getattr(loaded, key),
                                          getattr(spec, key))
        np.testing.assert_array_equal(loaded.x0, spec.x0)
        assert (loaded.h1, loaded.h2, loaded.T) == (spec.h1, spec.h2, spec.T)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1.0]]}')
        with pytest.raises(ValueError, match="missing keys"):
            load_problem(path)

    def test_golden_problem_file_matches_fixture(self, tmp_path):
        path = tmp_path / "golden.json"
        save_problem(golden_scalar_spec(), path)
        import json
        a = json.loads(path.read_text())
        import pathlib
        b = json.loads(pathlib.Path("problems/golden_scalar.json").read_text())
        assert a == b

    def test_immutability(self):
        spec = wide_delay_spec()
        with pytest.raises(ValueError):
            spec.A[0, 0] = 2.0
