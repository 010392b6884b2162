"""Continuous-time coefficient fields extracted from discrete ladders.

The lag-family entries rescale by 1/delta into kernel samples on the
lag-offset lattice; the state coefficients carry over directly. Residual
checks compare the extracted fields against the limiting equation system:
the backward matrix ODE, the two boundary identities, the two-branch
transport equation, and the semigroup form of the second kernel.
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
from .reports import ResidualComponent, ResidualReport


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
    return {"joint": _rcond(eye - coeffs.Bbar21 @ P1 - coeffs.Bbar22 @ P2),
            "second": _rcond(eye - coeffs.Bbar22 @ P2)}


def continuous_residuals(fields: RiccatiFields,
                         coeffs: SweepCoefficients) -> ResidualReport:
    """Residuals of the limiting equation system on the extracted fields.

    Components: the backward ODE of the state coefficient (first-order
    backward difference in time), both theta = 0 boundary identities, the
    transport equation on its coupled and free branches, and the
    semigroup identity of the second kernel (matrix exponential by
    scaling and squaring). The terminal sample is excluded from the
    boundary checks: the kernels jump to zero at the horizon. Every
    component is the worst over both players. ``verify`` reads only the
    step-halving trends of the ODE and semigroup components.
    """
    grid = fields.grid
    d1, d2 = grid.d1, grid.d2
    gap = d1 - d2
    delta = grid.delta
    A, Abar = coeffs.A, coeffs.Abar
    eye = np.eye(fields.n)
    t = fields.t
    n_t = len(t)
    P, phat, shat = fields.P, fields.phat, fields.shat

    # backward ODE of the state coefficient
    Pk = P[:, 1:]
    rhs = (A.T @ Pk + Pk @ A + Abar.T @ Pk @ Abar + coeffs.Q[:, None]
           + phat[:, 1:, d1] + fields.ccheck[:, 1:, d2])
    ode_v = _absmax((P[:, :-1] - Pk) / delta - rhs).max(axis=0)

    inv2_all = np.linalg.inv(eye - coeffs.Bbar22 @ P[1])

    # theta = 0 boundary identities (terminal sample excluded)
    sl = slice(0, n_t - 1)
    P1, P2 = P[0, sl], P[1, sl]
    inv2 = inv2_all[sl]
    S1, S2c = shat[0, sl], fields.scheck[1, sl]
    mix = (np.linalg.inv(eye - coeffs.Bbar21 @ P1 - coeffs.Bbar22 @ P2)
           @ (coeffs.Bbar11 @ S1 + coeffs.Bbar12 @ shat[1, sl] + Abar))
    Si, Sic, Pi = shat[:, sl], fields.scheck[:, sl], P[:, sl]
    rhs_h = ((Si @ coeffs.B11 + Abar.T @ Pi @ coeffs.Bbar11) @ S1
             + (Si @ coeffs.B21 + Abar.T @ Pi @ coeffs.Bbar21) @ P1 @ mix
             + (Si @ coeffs.B22 + Abar.T @ Pi @ coeffs.Bbar22) @ P2 @ inv2
             @ (coeffs.Bbar11 @ S1 + coeffs.Bbar21 @ P1 @ mix))
    bh_v = _absmax(phat[:, sl, 0] - rhs_h).max(axis=0)
    rhs_c = ((Sic @ coeffs.B12 + Abar.T @ Pi @ coeffs.Bbar12) @ S2c
             + (Sic @ coeffs.B22 + Abar.T @ Pi @ coeffs.Bbar22) @ P2 @ inv2
             @ (coeffs.Bbar12 @ S2c + Abar))
    bc_v = _absmax(fields.ccheck[:, sl, 0] - rhs_c).max(axis=0)

    # transport equation along fixed forward argument s = t + theta, on
    # lag offsets 1..d1 (axis 2), the first gap-1 of them on the coupled
    # branch; all per-sample factors evaluated one step forward in time
    nxt = slice(1, n_t)
    P2n, inv2n = P[1, nxt], inv2_all[nxt]
    S2cn = fields.scheck[1, nxt]
    ker_drift = coeffs.B12 + coeffs.B22 @ P2n @ inv2n @ coeffs.Bbar12
    ker_diff = coeffs.Bbar12 + coeffs.Bbar22 @ P2n @ inv2n @ coeffs.Bbar12
    h_drift = (coeffs.B12 @ S2cn
               + coeffs.B22 @ P2n @ inv2n @ (coeffs.Bbar12 @ S2cn + Abar))
    prev = phat[:, nxt, :d1]
    dt_term = (phat[:, :-1, 1:] - prev) / delta
    rhs = A.T @ prev + prev @ A
    tf_v = _absmax(dt_term[:, :, gap - 1:] - rhs[:, :, gap - 1:]).max(axis=(0, 2))
    c = slice(0, gap - 1)
    ker = phat[1, nxt, c]
    coupled = _absmax(dt_term[:, :, c] - (
        rhs[:, :, c] + (shat[:, nxt] @ ker_drift)[:, :, None] @ ker
        + (Abar.T @ P[:, nxt] @ ker_diff)[:, :, None] @ ker
        + prev[:, :, c] @ h_drift[:, None]))
    tc_t, tc_v = ((t[:-1], coupled.max(axis=(0, 2))) if gap > 1
                  else (np.zeros(0), np.zeros(0)))

    # semigroup identity of the second kernel
    sg_t, sg_v = [], []
    for j in range(1, d2 + 1):
        exp_a = _expm(A * (j * delta))
        ref = exp_a.T @ fields.ccheck[:, j:, 0] @ exp_a
        sg_t.append(t[:n_t - j])
        sg_v.append(_absmax(fields.ccheck[:, :n_t - j, j] - ref).max(axis=0))

    return ResidualReport(name="continuous-system", components=[
        ResidualComponent(name, ts, vs) for name, ts, vs in (
            ("riccati_ode", t[1:], ode_v),
            ("boundary_hat", t[sl], bh_v),
            ("boundary_check", t[sl], bc_v),
            ("transport_hat_coupled", tc_t, tc_v),
            ("transport_hat_free", t[:-1], tf_v),
            ("semigroup_check", np.concatenate(sg_t), np.concatenate(sg_v)))])
