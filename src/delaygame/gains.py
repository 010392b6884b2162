"""State-estimate feedback Nash equilibrium assembled from the fields.

Player 1 acts on the estimate at its own information lag through a single
gain; player 2's control combines a gain on the coarser (player-1) lag, a
kernel density over the lag gap, and a gain on its own lag. Assembly is
triangular: the second player's effective weight comes first, then the
first player's weight and stationarity offset, then back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .continuous_limit import RiccatiFields, _trapz
from .discrete_engine import RCOND_MIN, _rcond
from .errors import SingularGain
from .model import GameSpec
from .reports import ResidualComponent, ResidualReport


@dataclass
class FeedbackLaw:
    """Time-sampled equilibrium gains plus optional additive control offsets.

    ``k2_kernel[k, j]`` is the kernel density at (t_k, theta_j) on the lag
    gap lattice; consumers integrate it with trapezoidal weights.
    ``offset1``/``offset2`` are deterministic additive controls (zero at
    equilibrium; control perturbations live here). Gains for t below the
    larger delay are computed but flagged provisional.
    """

    t_samples: np.ndarray          # (n_t,)
    theta_kernel: np.ndarray       # (gap+1,)
    rt1: np.ndarray                # (n_t, d1c, d1c)
    rt2: np.ndarray                # (n_t, d2c, d2c)
    o1: np.ndarray                 # (n_t, d1c, n)
    k1: np.ndarray                 # (n_t, d1c, n)
    k2_h1: np.ndarray              # (n_t, d2c, n)
    k2_kernel: np.ndarray          # (n_t, gap+1, d2c, n)
    k2_h2: np.ndarray              # (n_t, d2c, n)
    provisional: np.ndarray        # (n_t,) bool
    rt1_asymmetry: float = 0.0
    rt2_rcond_min: float = 1.0
    rt1_rcond_min: float = 1.0
    offset1: np.ndarray = field(default=None)
    offset2: np.ndarray = field(default=None)

    def __post_init__(self):
        n_t = len(self.t_samples)
        if self.offset1 is None:
            self.offset1 = np.zeros((n_t, self.k1.shape[1]))
        if self.offset2 is None:
            self.offset2 = np.zeros((n_t, self.k2_h2.shape[1]))

    @property
    def n_t(self) -> int:
        return len(self.t_samples)

    @property
    def gap_points(self) -> int:
        return self.k2_kernel.shape[1]

    def kernel_weights(self, delta: float) -> np.ndarray:
        """Trapezoidal quadrature weights on the kernel lattice."""
        w = np.full(self.gap_points, delta)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def assemble_gains(fields: RiccatiFields, spec: GameSpec) -> FeedbackLaw:
    """Compute every gain component from the fields, sample by sample.

    The second player's effective weight is inverted first (the first
    player's weight depends on it); a numerically singular weight at any
    sample raises :class:`SingularGain`. The kernel integral in the
    stationarity offset uses trapezoidal quadrature on the field lattice.
    The first player's effective weight is not symmetrized; its worst
    asymmetry is recorded instead.
    """
    grid = fields.grid
    gap = grid.d1 - grid.d2
    n_t = len(fields.t)
    n = fields.n
    d1c, d2c = spec.d1c, spec.d2c
    B1, B1b = spec.B1, spec.B1bar
    B2, B2b = spec.B2, spec.B2bar
    A_bar = spec.Abar

    law = FeedbackLaw(
        t_samples=fields.t.copy(),
        theta_kernel=grid.delta * np.arange(gap + 1),
        rt1=np.zeros((n_t, d1c, d1c)), rt2=np.zeros((n_t, d2c, d2c)),
        o1=np.zeros((n_t, d1c, n)), k1=np.zeros((n_t, d1c, n)),
        k2_h1=np.zeros((n_t, d2c, n)),
        k2_kernel=np.zeros((n_t, gap + 1, d2c, n)),
        k2_h2=np.zeros((n_t, d2c, n)),
        provisional=fields.provisional.copy(),
    )

    asym = 0.0
    rc2_min, rc1_min = 1.0, 1.0
    for k in range(n_t):
        P1, P2 = fields.P[0, k], fields.P[1, k]
        rt2 = spec.R2 + B2b.T @ P2 @ B2b
        rc2 = _rcond(rt2)
        rc2_min = min(rc2_min, rc2)
        if rc2 < RCOND_MIN:
            raise SingularGain(fields.t[k], "rt2", rc2)
        rt2_inv = np.linalg.inv(rt2)

        cross12 = B1b.T @ P1 @ B2b          # d1c x d2c
        cross21 = B2b.T @ P2 @ B1b          # d2c x d1c
        rt1 = spec.R1 + B1b.T @ P1 @ B1b - cross12 @ rt2_inv @ cross21
        asym = max(asym, float(np.max(np.abs(rt1 - rt1.T))) if rt1.size else 0.0)
        rc1 = _rcond(rt1)
        rc1_min = min(rc1_min, rc1)
        if rc1 < RCOND_MIN:
            raise SingularGain(fields.t[k], "rt1", rc1)

        ker_int = _trapz(fields.phat[1, k, :gap + 1], dx=grid.delta, axis=0)
        o2 = (B2.T @ fields.scheck[1, k] + B2b.T @ P2 @ A_bar
              + B2.T @ ker_int)
        o1 = (B1.T @ fields.shat[0, k] + B1b.T @ P1 @ A_bar
              - cross12 @ rt2_inv @ o2)
        k1 = -np.linalg.solve(rt1, o1)
        law.rt1[k], law.rt2[k], law.o1[k], law.k1[k] = rt1, rt2, o1, k1
        law.k2_h1[k] = -rt2_inv @ cross21 @ k1
        for j in range(gap + 1):
            law.k2_kernel[k, j] = -rt2_inv @ (B2.T @ fields.phat[1, k, j])
        law.k2_h2[k] = -rt2_inv @ (B2.T @ fields.scheck[1, k]
                                   + B2b.T @ P2 @ A_bar)

    law.rt1_asymmetry = asym
    law.rt2_rcond_min = rc2_min
    law.rt1_rcond_min = rc1_min
    return law


def stationarity_identity_check(law: FeedbackLaw, fields: RiccatiFields,
                                spec: GameSpec,
                                tolerance: float = 1e-10) -> ResidualReport:
    """Coefficient-matching residuals of the two stationarity displays.

    Substitutes the assembled gains back into both players' first-order
    conditions, treating each estimate symbol (coarse lag, kernel lattice
    points, fine lag) as free, and matches coefficient matrices. Residuals
    are relative to the control-weight scale.
    """
    grid = fields.grid
    delta = grid.delta
    n_t = law.n_t
    B1, B1b = spec.B1, spec.B1bar
    B2, B2b = spec.B2, spec.B2bar
    A_bar = spec.Abar
    w = law.kernel_weights(delta)
    scale1 = max(float(np.max(np.abs(spec.R1))), 1.0)
    scale2 = max(float(np.max(np.abs(spec.R2))), 1.0)

    r1_v = np.zeros(n_t)
    r2_v = np.zeros(n_t)
    for k in range(n_t):
        P1, P2 = fields.P[0, k], fields.P[1, k]
        k2_sum = (law.k2_h1[k] + law.k2_h2[k]
                  + np.tensordot(w, law.k2_kernel[k], axes=(0, 0)))
        res1 = ((spec.R1 + B1b.T @ P1 @ B1b) @ law.k1[k]
                + B1.T @ fields.shat[0, k] + B1b.T @ P1 @ A_bar
                + B1b.T @ P1 @ B2b @ k2_sum)
        r1_v[k] = float(np.max(np.abs(res1))) / scale1

        rt2 = law.rt2[k]
        worst = 0.0
        res_h1 = rt2 @ law.k2_h1[k] + B2b.T @ P2 @ B1b @ law.k1[k]
        worst = max(worst, float(np.max(np.abs(res_h1))))
        for j in range(law.gap_points):
            res_ker = rt2 @ law.k2_kernel[k, j] + B2.T @ fields.phat[1, k, j]
            worst = max(worst, float(np.max(np.abs(res_ker))))
        res_h2 = (rt2 @ law.k2_h2[k] + B2.T @ fields.scheck[1, k]
                  + B2b.T @ P2 @ A_bar)
        worst = max(worst, float(np.max(np.abs(res_h2))))
        r2_v[k] = worst / scale2

    return ResidualReport(
        name="gain-stationarity",
        components=[
            ResidualComponent("player1", law.t_samples.copy(), r1_v),
            ResidualComponent("player2", law.t_samples.copy(), r2_v),
        ],
        tolerance=tolerance,
    )
