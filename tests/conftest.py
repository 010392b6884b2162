import functools

import numpy as np
import pytest

from delaygame import GameSpec, build_grid, extract_fields, solve_ladder


def golden_scalar_spec() -> GameSpec:
    """The scalar instance used for calibrated Monte Carlo checks."""
    return GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.8, B2bar=0.3,
                    Q1=1.0, Q2=0.8, R1=1.0, R2=1.2, H1=0.5, H2=0.7,
                    h1=0.02, h2=0.01, T=1.0, x0=[1.0])


def wide_delay_spec() -> GameSpec:
    """Same coefficients with wide delays; cheap grids for unit tests."""
    return GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.8, B2bar=0.3,
                    Q1=1.0, Q2=0.8, R1=1.0, R2=1.2, H1=0.5, H2=0.7,
                    h1=0.2, h2=0.1, T=1.0, x0=[1.0])


def zero_cost_spec() -> GameSpec:
    return GameSpec(A=0.2, Abar=0.3, B1=1.0, B1bar=0.2, B2=0.8, B2bar=0.3,
                    Q1=0.0, Q2=0.0, R1=1.0, R2=1.2, H1=0.0, H2=0.0,
                    h1=0.2, h2=0.1, T=1.0, x0=[1.0])


def matrix_spec() -> GameSpec:
    """n = 2 with mixed control dimensions (d1c = 1, d2c = 2)."""
    rng = np.random.default_rng(0)
    A = 0.3 * rng.normal(size=(2, 2))
    Abar = 0.2 * rng.normal(size=(2, 2))
    B1 = rng.normal(size=(2, 1))
    B1bar = 0.3 * rng.normal(size=(2, 1))
    B2 = rng.normal(size=(2, 2))
    B2bar = 0.2 * rng.normal(size=(2, 2))
    q = rng.normal(size=(2, 2))
    Q = q.T @ q
    return GameSpec(A=A, Abar=Abar, B1=B1, B1bar=B1bar, B2=B2, B2bar=B2bar,
                    Q1=Q, Q2=0.5 * Q + 0.2 * np.eye(2), R1=[[1.0]],
                    R2=1.5 * np.eye(2), H1=0.4 * np.eye(2),
                    H2=0.6 * np.eye(2), h1=0.2, h2=0.05, T=1.0,
                    x0=[1.0, -0.5])


@functools.lru_cache(maxsize=None)
def swept(make_spec, delta):
    """Spec, grid and fields of one sweep, solved once per session."""
    spec = make_spec()
    grid = build_grid(spec, delta)
    return spec, grid, extract_fields(solve_ladder(spec, grid))


# grids on which the batched post-sweep routines are compared with the
# sample-by-sample references: golden at lag gaps 2, 8 and 16, the matrix
# problem at gaps 3 and 30
REFERENCE_CASES = pytest.mark.parametrize(
    "make_spec,delta",
    [(golden_scalar_spec, 0.005), (golden_scalar_spec, 0.00125),
     (golden_scalar_spec, 0.000625), (matrix_spec, 0.05),
     (matrix_spec, 0.005)],
    ids=["golden-gap2", "golden-gap8", "golden-gap16", "matrix-gap3",
         "matrix-gap30"])


@pytest.fixture(scope="session")
def golden():
    spec = golden_scalar_spec()
    grid = build_grid(spec, 0.005)
    ladder = solve_ladder(spec, grid)
    return spec, grid, ladder


@pytest.fixture(scope="session")
def wide():
    spec = wide_delay_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    return spec, grid, ladder


@pytest.fixture(scope="session")
def zero_cost():
    spec = zero_cost_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    return spec, grid, ladder


@pytest.fixture(scope="session")
def matrix_case():
    spec = matrix_spec()
    grid = build_grid(spec, 0.05)
    ladder = solve_ladder(spec, grid)
    return spec, grid, ladder
