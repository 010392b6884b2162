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
import scipy.linalg

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
    t: np.ndarray            # (N+2,)
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
    def theta1(self) -> np.ndarray:
        return self.grid.delta * np.arange(self.grid.d1 + 1)

    @property
    def theta2(self) -> np.ndarray:
        return self.grid.delta * np.arange(self.grid.d2 + 1)

    @property
    def provisional(self) -> np.ndarray:
        """Mask of samples below the proven range of the explicit solution."""
        return np.arange(len(self.t)) < self.grid.d1

    def kernel1_integral(self, i: int, lo_index: int = 0) -> np.ndarray:
        """Trapezoidal integral of the first kernel over theta >= lo_index*delta."""
        seg = self.phat[i, :, lo_index:]
        return _trapz(seg, dx=self.delta, axis=1)

    def kernel2_integral(self, i: int) -> np.ndarray:
        return _trapz(self.ccheck[i], dx=self.delta, axis=1)


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
    return RiccatiFields(grid=grid, t=grid.times(), P=P, phat=phat,
                         ccheck=ccheck, shat=shat, scheck=scheck)


def invertibility_rcond(fields: RiccatiFields, coeffs: SweepCoefficients):
    """Reciprocal condition numbers of the two closure matrices per sample."""
    r = coeffs.reduced
    n = fields.n
    eye = np.eye(n)
    out = {"joint": np.zeros(len(fields.t)), "second": np.zeros(len(fields.t))}
    for k in range(len(fields.t)):
        joint = eye - r.Bbar21 @ fields.P[0, k] - r.Bbar22 @ fields.P[1, k]
        second = eye - r.Bbar22 @ fields.P[1, k]
        for name, M in (("joint", joint), ("second", second)):
            out[name][k] = _rcond(M)
    return out


def continuous_residuals(fields: RiccatiFields, coeffs: SweepCoefficients,
                         Q1: np.ndarray, Q2: np.ndarray,
                         tolerance: float | None = None) -> ResidualReport:
    """Residuals of the limiting equation system on the extracted fields.

    Components: the backward ODE of the state coefficient (first-order
    backward difference in time), both theta = 0 boundary identities, the
    transport equation on its coupled and free branches, and the
    semigroup identity of the second kernel (matrix exponential by
    scaling and squaring). The terminal sample is excluded from the
    boundary checks: the kernels jump to zero at the horizon.
    """
    grid = fields.grid
    n = fields.n
    d1, d2 = grid.d1, grid.d2
    gap = d1 - d2
    delta = grid.delta
    A, Abar = coeffs.A, coeffs.Abar
    r = coeffs.reduced
    q_mats = (np.asarray(Q1, dtype=float), np.asarray(Q2, dtype=float))
    eye = np.eye(n)
    n_t = len(fields.t)

    def absmax(res):
        # res: (..., samples, n, n) -> per-sample max over matrix entries
        return np.max(np.abs(res), axis=(-2, -1))

    # backward ODE of the state coefficient, batched over samples
    ode_v = np.zeros(n_t - 1)
    for i in range(2):
        Pk = fields.P[i, 1:]
        rhs = (A.T @ Pk + Pk @ A + Abar.T @ Pk @ Abar + q_mats[i]
               + fields.phat[i, 1:, d1] + fields.ccheck[i, 1:, d2])
        res = (fields.P[i, :-1] - Pk) / delta - rhs
        ode_v = np.maximum(ode_v, absmax(res))
    ode_t = fields.t[1:]

    # batched closure inverses
    inv2_all = np.linalg.inv(eye - r.Bbar22 @ fields.P[1])
    invj_all = np.linalg.inv(eye - r.Bbar21 @ fields.P[0]
                             - r.Bbar22 @ fields.P[1])

    # theta = 0 boundary identities (terminal sample excluded)
    sl = slice(0, n_t - 1)
    P1, P2 = fields.P[0, sl], fields.P[1, sl]
    inv2, invj = inv2_all[sl], invj_all[sl]
    S1, S2 = fields.shat[0, sl], fields.shat[1, sl]
    S2c = fields.scheck[1, sl]
    mix = invj @ (r.Bbar11 @ S1 + r.Bbar12 @ S2 + Abar)
    bh_v = np.zeros(n_t - 1)
    bc_v = np.zeros(n_t - 1)
    for i in range(2):
        Si, Sic = fields.shat[i, sl], fields.scheck[i, sl]
        Pi = fields.P[i, sl]
        rhs_h = ((Si @ r.B11 + Abar.T @ Pi @ r.Bbar11) @ S1
                 + (Si @ r.B21 + Abar.T @ Pi @ r.Bbar21) @ P1 @ mix
                 + (Si @ r.B22 + Abar.T @ Pi @ r.Bbar22) @ P2 @ inv2
                 @ (r.Bbar11 @ S1 + r.Bbar21 @ P1 @ mix))
        bh_v = np.maximum(bh_v, absmax(fields.phat[i, sl, 0] - rhs_h))
        rhs_c = ((Sic @ r.B12 + Abar.T @ Pi @ r.Bbar12) @ S2c
                 + (Sic @ r.B22 + Abar.T @ Pi @ r.Bbar22) @ P2 @ inv2
                 @ (r.Bbar12 @ S2c + Abar))
        bc_v = np.maximum(bc_v, absmax(fields.ccheck[i, sl, 0] - rhs_c))
    bh_t = bc_t = fields.t[sl]

    # transport equation along fixed forward argument s = t + theta;
    # all per-sample factors evaluated one step forward in time
    nxt = slice(1, n_t)
    P2n, inv2n = fields.P[1, nxt], inv2_all[nxt]
    S2cn = fields.scheck[1, nxt]
    ker_drift = r.B12 + r.B22 @ P2n @ inv2n @ r.Bbar12
    ker_diff = r.Bbar12 + r.Bbar22 @ P2n @ inv2n @ r.Bbar12
    h_drift = r.B12 @ S2cn + r.B22 @ P2n @ inv2n @ (r.Bbar12 @ S2cn + Abar)
    tc_v = np.zeros(n_t - 1)
    tf_v = np.zeros(n_t - 1)
    any_coupled = gap > 1
    for j in range(1, d1 + 1):
        for i in range(2):
            prev = fields.phat[i, nxt, j - 1]
            dt_term = (fields.phat[i, :-1, j] - prev) / delta
            rhs = A.T @ prev + prev @ A
            if j < gap:
                Si = fields.shat[i, nxt]
                Pi = fields.P[i, nxt]
                ker = fields.phat[1, nxt, j - 1]
                rhs = (rhs + Si @ ker_drift @ ker
                       + Abar.T @ Pi @ ker_diff @ ker + prev @ h_drift)
                tc_v = np.maximum(tc_v, absmax(dt_term - rhs))
            else:
                tf_v = np.maximum(tf_v, absmax(dt_term - rhs))
    tc_t = tf_t = fields.t[:-1]
    if not any_coupled:
        tc_t, tc_v = np.zeros(0), np.zeros(0)

    # semigroup identity of the second kernel
    sg_t, sg_vals = [], []
    for j in range(1, d2 + 1):
        exp_a = scipy.linalg.expm(A * (j * delta))
        span = n_t - j
        ref = exp_a.T @ fields.ccheck[:, j:, 0] @ exp_a
        res = absmax(fields.ccheck[:, :span, j] - ref).max(axis=0)
        sg_t.append(fields.t[:span])
        sg_vals.append(res)
    sg_t = np.concatenate(sg_t) if sg_t else np.zeros(0)
    sg_v = np.concatenate(sg_vals) if sg_vals else np.zeros(0)

    def comp(name, ts, vs):
        return ResidualComponent(name, np.asarray(ts, dtype=float),
                                 np.asarray(vs, dtype=float))

    return ResidualReport(
        name="continuous-system",
        components=[
            comp("riccati_ode", ode_t, ode_v),
            comp("boundary_hat", bh_t, bh_v),
            comp("boundary_check", bc_t, bc_v),
            comp("transport_hat_coupled", tc_t, tc_v),
            comp("transport_hat_free", tf_t, tf_v),
            comp("semigroup_check", sg_t, sg_v),
        ],
        tolerance=tolerance,
    )
