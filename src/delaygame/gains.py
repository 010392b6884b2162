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

from .continuous_limit import RiccatiFields, _absmax, _trapz
from .discrete_engine import RCOND_MIN, _rcond
from .errors import SingularGain
from .model import GameSpec, Grid
from .reports import ResidualComponent, ResidualReport

# The stationarity identity holds to round-off on every grid, so its
# residual is compared with this; trend checks whose residuals all sit at
# or below it compare noise, not a trend.
IDENTITY_TOL = 1e-10


@dataclass
class FeedbackLaw:
    """Equilibrium gains sampled on ``grid``'s times, plus optional
    additive control offsets. The sample times ``t_samples``, the kernel
    lattice ``theta_kernel`` and the ``provisional`` mask are read from
    the grid.

    ``k2_kernel[k, j]`` is the kernel density at (t_k, theta_j) on the lag
    gap lattice; consumers integrate it with trapezoidal weights.
    ``offset1``/``offset2`` are deterministic additive controls (zero at
    equilibrium; control perturbations live here). Gains for t below the
    larger delay are computed but flagged provisional.
    """

    grid: Grid
    rt1: np.ndarray                # (n_t, d1c, d1c)
    rt2: np.ndarray                # (n_t, d2c, d2c)
    o1: np.ndarray                 # (n_t, d1c, n)
    k1: np.ndarray                 # (n_t, d1c, n)
    k2_h1: np.ndarray              # (n_t, d2c, n)
    k2_kernel: np.ndarray          # (n_t, gap+1, d2c, n)
    k2_h2: np.ndarray              # (n_t, d2c, n)
    rt1_asymmetry: float = 0.0
    rt2_rcond_min: float = 1.0
    rt1_rcond_min: float = 1.0
    offset1: np.ndarray = field(default=None)
    offset2: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.offset1 is None:
            self.offset1 = np.zeros((self.n_t, self.k1.shape[1]))
        if self.offset2 is None:
            self.offset2 = np.zeros((self.n_t, self.k2_h2.shape[1]))

    @property
    def n_t(self) -> int:
        return self.grid.N + 2

    @property
    def t_samples(self) -> np.ndarray:
        return self.grid.times()

    @property
    def theta_kernel(self) -> np.ndarray:
        return self.grid.delta * np.arange(self.gap_points)

    @property
    def provisional(self) -> np.ndarray:
        return np.arange(self.n_t) < self.grid.d1

    @property
    def gap_points(self) -> int:
        return self.k2_kernel.shape[1]

    def kernel_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights on the kernel lattice."""
        w = np.full(self.gap_points, self.grid.delta)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def effective_gains(law: FeedbackLaw):
    """Total state gains when every estimate collapses to the state itself:
    player 2's coarse-lag, kernel and fine-lag parts aggregate."""
    w = law.kernel_weights()
    k2 = law.k2_h1 + law.k2_h2 + np.tensordot(law.k2_kernel, w, axes=(1, 0))
    return law.k1, k2


def _first_below(rc: np.ndarray) -> int:
    """First index with rc below RCOND_MIN; len(rc) if there is none."""
    bad = np.flatnonzero(rc < RCOND_MIN)
    return int(bad[0]) if bad.size else len(rc)


def assemble_gains(fields: RiccatiFields, spec: GameSpec) -> FeedbackLaw:
    """Compute every gain component from the fields, on all samples at once.

    The second player's effective weight is inverted first (the first
    player's weight depends on it). :class:`SingularGain` names the first
    sample with a numerically singular weight, the second player's first
    at a tie; a singular second weight is never inverted. The kernel
    integral in the stationarity offset uses trapezoidal quadrature on the
    field lattice. The first player's effective weight is not symmetrized;
    its worst asymmetry is recorded instead.
    """
    grid = fields.grid
    gap = grid.d1 - grid.d2
    B1, B1b = spec.B1, spec.B1bar
    B2, B2b = spec.B2, spec.B2bar
    P1, P2 = fields.P

    rt2 = spec.R2 + B2b.T @ P2 @ B2b
    rc2 = _rcond(rt2)
    ok = _first_below(rc2)
    neg_inv2 = -np.linalg.inv(rt2[:ok])
    cross12 = B1b.T @ P1[:ok] @ B2b
    cross21 = B2b.T @ P2[:ok] @ B1b
    rt1 = spec.R1 + B1b.T @ P1[:ok] @ B1b + cross12 @ neg_inv2 @ cross21
    rc1 = _rcond(rt1)
    bad1 = _first_below(rc1)
    if bad1 < ok:
        raise SingularGain(fields.t[bad1], "rt1", rc1[bad1])
    if ok < len(rt2):
        raise SingularGain(fields.t[ok], "rt2", rc2[ok])

    kernel = fields.phat[1, :, :gap + 1]
    h2 = B2.T @ fields.scheck[1] + B2b.T @ P2 @ spec.Abar
    o2 = h2 + B2.T @ _trapz(kernel, dx=grid.delta, axis=1)
    o1 = (B1.T @ fields.shat[0] + B1b.T @ P1 @ spec.Abar
          + cross12 @ neg_inv2 @ o2)
    k1 = -np.linalg.solve(rt1, o1)
    return FeedbackLaw(
        grid=grid, rt1=rt1, rt2=rt2, o1=o1, k1=k1,
        k2_h1=neg_inv2 @ cross21 @ k1,
        k2_kernel=neg_inv2[:, None] @ (B2.T @ kernel),
        k2_h2=neg_inv2 @ h2,
        rt1_asymmetry=float(np.max(np.abs(rt1 - rt1.swapaxes(1, 2)),
                                   initial=0.0)),
        rt2_rcond_min=float(np.min(rc2, initial=1.0)),
        rt1_rcond_min=float(np.min(rc1, initial=1.0)),
    )


def stationarity_identity_check(law: FeedbackLaw, fields: RiccatiFields,
                                spec: GameSpec) -> ResidualReport:
    """Coefficient-matching residuals of the two stationarity displays.

    Substitutes the assembled gains back into both players' first-order
    conditions, treating each estimate symbol (coarse lag, kernel lattice
    points, fine lag) as free, and matches coefficient matrices. Residuals
    are relative to the control-weight scale; ``verify`` compares the
    report's max with ``IDENTITY_TOL``.
    """
    B1, B1b = spec.B1, spec.B1bar
    B2, B2b = spec.B2, spec.B2bar
    P1, P2 = fields.P
    _, k2_sum = effective_gains(law)
    res1 = ((spec.R1 + B1b.T @ P1 @ B1b) @ law.k1
            + B1.T @ fields.shat[0] + B1b.T @ P1 @ spec.Abar
            + B1b.T @ P1 @ B2b @ k2_sum)
    rt2 = law.rt2
    # player 2's coarse-lag, kernel-lattice and fine-lag terms on axis 1
    res2 = np.concatenate([
        (rt2 @ law.k2_h1 + B2b.T @ P2 @ B1b @ law.k1)[:, None],
        rt2[:, None] @ law.k2_kernel + B2.T @ fields.phat[1, :, :law.gap_points],
        (rt2 @ law.k2_h2 + B2.T @ fields.scheck[1]
         + B2b.T @ P2 @ spec.Abar)[:, None]], axis=1)
    scale1 = max(float(np.max(np.abs(spec.R1))), 1.0)
    scale2 = max(float(np.max(np.abs(spec.R2))), 1.0)
    return ResidualReport(
        name="gain-stationarity",
        components=[
            ResidualComponent("player1", law.t_samples,
                              _absmax(res1) / scale1),
            ResidualComponent("player2", law.t_samples,
                              _absmax(res2).max(axis=1) / scale2),
        ],
    )
