"""Continuous-time coefficient fields extracted from discrete ladders.

The lag-family entries rescale by 1/delta into kernel samples on the
lag-offset lattice; the state coefficients carry over directly. The
residual checks compare the extracted fields against two equations of the
limiting system: the backward matrix ODE and the semigroup form of the
second kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    _trapz = np.trapezoid
except AttributeError:  # numpy < 2
    _trapz = np.trapz

from .discrete_engine import RiccatiLadder, SweepCoefficients, _rcond
from .model import Grid


@dataclass
class RiccatiFields:
    """Time samples of the limiting coefficient system.

    ``phat[i, k, j]`` samples the first kernel at (t_k, theta_j) on the
    lag lattice theta_j = j*delta covering [0, h1]; ``ccheck`` likewise on
    [0, h2]. ``shat``/``scheck`` are recomputed from the kernels by
    trapezoidal quadrature (the latter integrating the first kernel only
    over [h1-h2, h1]).
    """

    grid: Grid
    P: np.ndarray            # (2, N+2, n, n)
    phat: np.ndarray         # (2, N+2, d1+1, n, n)
    ccheck: np.ndarray       # (2, N+2, d2+1, n, n)
    shat: np.ndarray         # (2, N+2, n, n)
    scheck: np.ndarray       # (2, N+2, n, n)

    @property
    def n(self) -> int:
        return self.P.shape[-1]

    @property
    def delta(self) -> float:
        return self.grid.delta

    @property
    def t(self) -> np.ndarray:
        return self.grid.times()

    @property
    def theta1(self) -> np.ndarray:
        return self.grid.delta * np.arange(self.grid.d1 + 1)

    @property
    def theta2(self) -> np.ndarray:
        return self.grid.delta * np.arange(self.grid.d2 + 1)


def extract_fields(ladder: RiccatiLadder) -> RiccatiFields:
    """Sample the fields from a finished ladder (1/delta kernel rescale)."""
    grid = ladder.grid
    gap = grid.d1 - grid.d2

    def by_player(stack):
        return np.ascontiguousarray(stack.swapaxes(0, 1))

    P = by_player(ladder.phat)
    phat = by_player(ladder.phat_lag) / grid.delta
    ccheck = by_player(ladder.ccheck_lag) / grid.delta
    ker2 = _trapz(ccheck, dx=grid.delta, axis=2)
    shat = P + _trapz(phat, dx=grid.delta, axis=2) + ker2
    scheck = P + _trapz(phat[:, :, gap:], dx=grid.delta, axis=2) + ker2
    return RiccatiFields(grid=grid, P=P, phat=phat, ccheck=ccheck,
                         shat=shat, scheck=scheck)


def _absmax(res: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix in a stack: (..., r, c) -> (...)."""
    return np.max(np.abs(res), axis=(-2, -1))


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005): M is halved s times to a 1-norm of at most 1,
    where a degree-18 Taylor polynomial is exact to e/19! ~ 2e-17, and the
    polynomial is squared s times. A 1-by-1 input takes ``np.exp``."""
    if M.shape == (1, 1):
        return np.exp(M)
    s = max(0, int(np.ceil(np.log2(np.linalg.norm(M, 1) or 1.0))))
    X = M / 2.0 ** s
    E = eye = np.eye(len(M))
    for j in range(18, 0, -1):      # Horner: I + X/1 (I + X/2 (I + ...))
        E = eye + (X / j) @ E
    for _ in range(s):
        E = E @ E
    return E


def invertibility_rcond(fields: RiccatiFields, coeffs: SweepCoefficients):
    """Reciprocal condition numbers of the two closure matrices per sample."""
    eye = np.eye(fields.n)
    P1, P2 = fields.P
    Bbar21, Bbar22 = coeffs.maps2[:, 1]
    return {"joint": _rcond(eye - Bbar21 @ P1 - Bbar22 @ P2),
            "second": _rcond(eye - Bbar22 @ P2)}


def continuous_residuals(fields: RiccatiFields,
                         coeffs: SweepCoefficients) -> dict[str, np.ndarray]:
    """The two residuals of the limiting equation system that the commands
    report, on the extracted fields: the backward ODE of the state
    coefficient (first-order backward difference in time) and the
    semigroup identity of the second kernel (matrix exponential by scaling
    and squaring). Returns each by name, every sample the worst over both
    players; ``verify`` and ``convergence`` read their step-halving trends.
    """
    grid = fields.grid
    d1, d2 = grid.d1, grid.d2
    delta = grid.delta
    A, Abar = coeffs.a
    n_t = grid.N + 2
    P, phat = fields.P, fields.phat

    # backward ODE of the state coefficient
    Pk = P[:, 1:]
    rhs = (A.T @ Pk + Pk @ A + Abar.T @ Pk @ Abar + coeffs.Q[:, None]
           + phat[:, 1:, d1] + fields.ccheck[:, 1:, d2])
    ode_v = _absmax((P[:, :-1] - Pk) / delta - rhs).max(axis=0)

    # semigroup identity of the second kernel
    sg_v = []
    for j in range(1, d2 + 1):
        exp_a = _expm(A * (j * delta))
        ref = exp_a.T @ fields.ccheck[:, j:, 0] @ exp_a
        sg_v.append(_absmax(fields.ccheck[:, :n_t - j, j] - ref).max(axis=0))

    return {"riccati_ode": ode_v, "semigroup_check": np.concatenate(sg_v)}
