import functools

import numpy as np
import pytest
from hypothesis import strategies as st

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


# a rank-1 control weight for ``matrix_spec``'s player 2: its smallest
# eigenvalue computes as +1.1e-16, yet it has no Cholesky factor
RANK_ONE_R2 = [[2.230336585515393, -1.8803276795182426],
               [-1.8803276795182426, 1.5852460141326314]]


# the step of every random spec: binary-exact, so the grid is exact
RANDOM_DELTA = 0.125


def random_spec(seed, n, d1c, d2c, d2, gap, tail) -> GameSpec:
    """A well-posed game on the step ``RANDOM_DELTA``: positive definite
    control weights, positive semi-definite state and terminal weights,
    delays of d2 and d2 + gap steps and a horizon ``tail`` steps longer."""
    rng = np.random.default_rng(seed)

    def gram(m, scale):
        q = rng.normal(size=(m, m))
        return scale * (q.T @ q)

    delta = RANDOM_DELTA
    return GameSpec(
        A=0.3 * rng.normal(size=(n, n)), Abar=0.2 * rng.normal(size=(n, n)),
        B1=rng.normal(size=(n, d1c)), B1bar=0.3 * rng.normal(size=(n, d1c)),
        B2=rng.normal(size=(n, d2c)), B2bar=0.3 * rng.normal(size=(n, d2c)),
        Q1=gram(n, 0.5), Q2=gram(n, 0.5),
        R1=gram(d1c, 0.2) + np.eye(d1c), R2=gram(d2c, 0.2) + np.eye(d2c),
        H1=gram(n, 0.3), H2=gram(n, 0.3),
        h1=(d2 + gap) * delta, h2=d2 * delta, T=(d2 + gap + tail) * delta,
        x0=np.ones(n))


# n 1-3, control dimensions 1-2, commensurate delays
RANDOM_SPECS = st.builds(
    random_spec, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
    d1c=st.integers(1, 2), d2c=st.integers(1, 2), d2=st.integers(1, 2),
    gap=st.integers(1, 3), tail=st.integers(1, 6))


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
