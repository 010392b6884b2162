"""Backward sweep for the layered matrix recursion with two delay lags.

Working backward from the terminal weights, each step k

  * assembles four 2n-by-2n block systems from the next layer's aggregates,
  * solves the chain of conditional-expectation pairs level by level
    (coarsest information first, each level's right-hand side augmented by
    the already-solved levels), and
  * substitutes the solved pairs back to express the state update as

        x_{k+1} = A_k x_k + M_k E_{k-d1-1}[x_k]
                  + sum_m Mm_k E_{k-d1-1+m}[x_k] + H_k E_{k-d2-1}[x_k],

    with every coefficient affine in the Brownian increment, then
  * advances the layer matrices one step back.

All expectations over the increment use exactly the first two moments
(E[dw] = 0, E[dw^2] = delta); higher moments are deliberately dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularGamma
from .model import GameSpec, Grid, ReducedCoefficients, reduce_coefficients

# A block system counts as singular when its reciprocal condition number
# drops below this.
RCOND_MIN = 1e-12


@dataclass(frozen=True)
class AffineMatrix:
    """Matrix-valued affine function of the increment: X(dw) = const + dw*noise."""

    const_part: np.ndarray
    noise_part: np.ndarray

    @property
    def shape(self):
        return self.const_part.shape

    def __call__(self, dw: float) -> np.ndarray:
        return self.const_part + dw * self.noise_part

    @staticmethod
    def zeros(shape) -> "AffineMatrix":
        return AffineMatrix(np.zeros(shape), np.zeros(shape))


def expectation_of_product(X: AffineMatrix, Y: AffineMatrix, delta: float) -> np.ndarray:
    """E[X(dw) Y(dw)] for an increment with mean 0 and variance delta.

    Cross terms carry E[dw] = 0 and vanish; the quadratic term carries
    E[dw^2] = delta. Moments beyond the second are dropped, matching the
    truncation used throughout the sweep.
    """
    return (X.const_part @ Y.const_part
            + delta * (X.noise_part @ Y.noise_part))


@dataclass
class RiccatiLayer:
    """Per-step layer of the backward recursion.

    ``phat[i]`` is the state coefficient; ``phat_lag[i][j]`` (j = 0..d1)
    and ``ccheck_lag[i][j]`` (j = 0..d2) are the lag-family entries whose
    forward index is k + j; lag entries with k + j > N are identically
    zero. ``shat``/``sm``/``scheck`` are the information aggregates: sums
    of phat and the lag families from lag offsets 0 / m-1 / (d1-d2)-1.
    Player index i is 0-based (player 1 -> 0).
    """

    k: int
    phat: np.ndarray          # (2, n, n)
    phat_lag: np.ndarray      # (2, d1+1, n, n)
    ccheck_lag: np.ndarray    # (2, d2+1, n, n)
    shat: np.ndarray          # (2, n, n)
    scheck: np.ndarray        # (2, n, n)
    sm: np.ndarray            # (2, gap-1, n, n), S^m stored at index m-1
    provisional: bool = False

    @property
    def n(self) -> int:
        return self.phat.shape[-1]


@dataclass
class GammaBlocks:
    """The 2n-by-2n block families of one chain step, with conditioning info."""

    gamma_hat: np.ndarray
    gamma_m: list[np.ndarray]     # index m-1 holds the level-m block, m = 1..gap-1
    gamma_check: np.ndarray
    g_block: np.ndarray
    rcond: dict[str, float]

    @property
    def rcond_min(self) -> float:
        return min(self.rcond.values())


@dataclass
class ClosedLoopStep:
    """Noise-affine coefficients advancing x_k to x_{k+1}.

    ``mm[m-1]`` multiplies the estimate at information level k-d1-1+m and
    is zero once m >= d1-d2 or k+m > N. ``u1_gain`` / ``u2_gain`` recover
    the controls implied by the closed loop as gains on the estimate
    window (u2_gain[l] acts on level k-d1-1+l). ``zfactors`` are the
    level-coupling operators that tend to the identity as delta -> 0.
    """

    k: int
    a_mat: AffineMatrix
    m_mat: AffineMatrix
    mm: tuple[AffineMatrix, ...]
    h_mat: AffineMatrix
    u1_gain: np.ndarray             # (d1c, n)
    u2_gain: np.ndarray             # (gap+1, d2c, n)
    zfactors: tuple[np.ndarray, ...] = ()
    rcond: dict[str, float] = field(default_factory=dict)


@dataclass
class RiccatiLadder:
    """Every layer (k = 0..N+1) and closed-loop step (k = 0..N) of a sweep.

    Layers below k = d1 are computed (the simulation warm-up needs them)
    but flagged provisional; verification treats them separately.
    """

    grid: Grid
    layers: list[RiccatiLayer]
    closed_loop: list[ClosedLoopStep]
    rcond_min: dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.layers[-1].n

    @property
    def gap(self) -> int:
        return self.grid.d1 - self.grid.d2

    def layer(self, k: int) -> RiccatiLayer:
        return self.layers[k]

    def step(self, k: int) -> ClosedLoopStep:
        return self.closed_loop[k]


@dataclass(frozen=True)
class SweepCoefficients:
    """Everything the sweep consumes: state maps, reduced products, and the
    control-map data needed to read the implied controls back out."""

    A: np.ndarray
    Abar: np.ndarray
    reduced: ReducedCoefficients
    B1: np.ndarray
    B1bar: np.ndarray
    B2: np.ndarray
    B2bar: np.ndarray
    R1inv: np.ndarray
    R2inv: np.ndarray

    @staticmethod
    def from_spec(spec: GameSpec) -> "SweepCoefficients":
        return SweepCoefficients(
            A=spec.A, Abar=spec.Abar,
            reduced=reduce_coefficients(spec),
            B1=spec.B1, B1bar=spec.B1bar, B2=spec.B2, B2bar=spec.B2bar,
            R1inv=np.linalg.inv(spec.R1), R2inv=np.linalg.inv(spec.R2),
        )


def terminal_layer(H1: np.ndarray, H2: np.ndarray, grid: Grid) -> RiccatiLayer:
    """Layer at k = N+1: state coefficients equal the terminal weights,
    every lag entry zero, every aggregate equal to the state coefficient."""
    n = H1.shape[0]
    gap = grid.d1 - grid.d2
    phat = np.stack([np.asarray(H1, dtype=float), np.asarray(H2, dtype=float)])
    return RiccatiLayer(
        k=grid.N + 1,
        phat=phat,
        phat_lag=np.zeros((2, grid.d1 + 1, n, n)),
        ccheck_lag=np.zeros((2, grid.d2 + 1, n, n)),
        shat=phat.copy(),
        scheck=phat.copy(),
        sm=np.repeat(phat[:, None], gap - 1, axis=1) if gap > 1
        else np.zeros((2, 0, n, n)),
    )


def _rcond(M: np.ndarray):
    """Reciprocal 1-norm condition number of M (a scalar), or of each
    matrix in a stack of them (an array); 0 where singular."""
    c = np.linalg.cond(M, 1)
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(c) & (c != 0.0), 1.0 / c, 0.0)[()]


def assemble_blocks(layer_next: RiccatiLayer, coeffs: SweepCoefficients,
                    delta: float, k: int | None = None) -> GammaBlocks:
    """Build the four block families from the next layer's aggregates.

    Raises :class:`SingularGamma` when any block is numerically singular,
    i.e. the explicit-solution hypothesis fails at this step/resolution.
    """
    r = coeffs.reduced
    n = layer_next.n
    eye = np.eye(n)
    S1h, S2h = layer_next.shat
    P1, P2 = layer_next.phat
    # player 2's aggregates of levels m = 1..gap-1, then of the last level
    S2 = np.concatenate([layer_next.sm[1], layer_next.scheck[1][None]])
    gap = len(S2)

    # level 0 holds gamma_hat, level m the block gamma_m{m}, level gap
    # gamma_check; the finer levels differ only in their S^2 aggregate
    levels = np.empty((gap + 1, 2 * n, 2 * n))
    levels[0, :n, :n] = eye - delta * (r.B11 @ S1h + r.B12 @ S2h)
    levels[0, :n, n:] = -(r.B21 @ P1 + r.B22 @ P2)
    levels[0, n:, :n] = -delta * (r.Bbar11 @ S1h + r.Bbar12 @ S2h)
    levels[0, n:, n:] = eye - r.Bbar21 @ P1 - r.Bbar22 @ P2
    levels[1:, :n, :n] = eye - delta * (r.B12 @ S2)
    levels[1:, :n, n:] = -(r.B22 @ P2)
    levels[1:, n:, :n] = -delta * (r.Bbar12 @ S2)
    levels[1:, n:, n:] = eye - r.Bbar22 @ P2
    g_block = np.block([
        [delta * (r.B11 @ S1h), r.B21 @ P1],
        [delta * (r.Bbar11 @ S1h), r.Bbar21 @ P1],
    ])

    rc = _rcond(levels)
    rcond = {"gamma_hat": rc[0], "gamma_check": rc[gap]}
    for m in range(1, gap):
        rcond[f"gamma_m{m}"] = rc[m]
    where = k if k is not None else layer_next.k
    for which, value in rcond.items():
        if value < RCOND_MIN:
            raise SingularGamma(where, which, value)
    return GammaBlocks(levels[0], list(levels[1:gap]), levels[gap], g_block,
                       rcond)


def _row_apply(top: np.ndarray, bot: np.ndarray, W: np.ndarray, n: int) -> np.ndarray:
    """Apply the 1x2 block row [top, bot] to a stacked (2n, c) column."""
    return top @ W[:n] + bot @ W[n:]


def _column_blocks(X: np.ndarray, n: int) -> np.ndarray:
    """View of the (r, c*n) array X as its c column blocks, shape (c, r, n)."""
    return X.reshape(len(X), -1, n).swapaxes(0, 1)


def solve_estimate_chain(layer_next: RiccatiLayer, coeffs: SweepCoefficients,
                         delta: float, k: int) -> ClosedLoopStep:
    """Back-substitution chain producing the closed-loop step at index k.

    Solves the estimate pair at the coarsest information level through
    ``gamma_hat``, then each finer level m through its own block (the
    right-hand side gaining the coarse-level coupling plus the kernel
    coupling of already-solved levels), the last level through
    ``gamma_check``; substitutes everything back into the state update.
    Each level is factored once and solved once, for all its right-hand
    sides together.
    """
    r = coeffs.reduced
    n = layer_next.n
    gap = layer_next.phat_lag.shape[1] - layer_next.ccheck_lag.shape[1]

    blocks = assemble_blocks(layer_next, coeffs, delta, k)
    levels = [blocks.gamma_hat, *blocks.gamma_m, blocks.gamma_check]
    S1h = layer_next.shat[0]
    P1, P2 = layer_next.phat
    S2c = layer_next.scheck[1]
    # lag entries of player 2 at the next layer, offsets 0..gap-2, that
    # enter both the kernel couplings and the mid-level state terms
    lag2 = layer_next.phat_lag[1]

    a_hat = np.eye(n) + delta * coeffs.A
    rhs_base = np.vstack([a_hat, delta * coeffs.Abar])
    # kernel coupling [delta B12; delta Bbar12] of an already-solved level
    kcol = np.vstack([delta * r.B12, delta * r.Bbar12])

    # W[m][:, l*n:(l+1)*n]: (2n, n) dependence of the level-m estimate pair
    # on the level-l estimate of the previous state; zero for l > m.
    # R = sum_{0 < j < m} lag2[j-1] @ W[j][:n]: the kernel coupling that
    # the levels solved so far feed into level m.
    W = np.zeros((gap + 1, 2 * n, (gap + 1) * n))
    R = np.zeros((n, (gap + 1) * n))
    zfactors = []
    for m in range(gap + 1):
        # right-hand sides: the couplings to levels l < m, the state
        # column and, on levels 2..gap-1, the zfactor coupling columns
        acc = kcol @ R[:, :m * n]
        if m > 0:
            acc[:, :n] += blocks.g_block @ W[0][:, :n]
        with_z = 2 <= m < gap
        rhs = np.hstack([acc, rhs_base, kcol] if with_z else [acc, rhs_base])
        # one factorization and one multi-column solve (LAPACK gesv); not
        # scipy's lu_solve, whose multi-column getrs hands these tiny
        # solves to the OpenBLAS thread pool and can stall for milliseconds
        sol = np.linalg.solve(levels[m], rhs)
        W[m][:, :(m + 1) * n] = sol[:, :(m + 1) * n]
        if with_z:
            inner = sol[:, (m + 1) * n:]
            z = np.eye(2 * n)
            z[:n, :n] += lag2[m - 1] @ inner[:n]
            z[n:, :n] += lag2[m - 1] @ inner[n:]
            zfactors.append(z)
        if 0 < m < gap:
            R += lag2[m - 1] @ W[m][:n]

    # state-update coefficients, affine in the increment, for every
    # source level l at once (column block l)
    Wc = W[gap]
    const = (delta * (r.B12 @ R)
             + _row_apply(delta * (r.B12 @ S2c), r.B22 @ P2, Wc, n))
    noise = (r.Bbar12 @ R
             + _row_apply(r.Bbar12 @ S2c, r.Bbar22 @ P2 / delta, Wc, n))
    W00 = W[0][:, :n]
    const[:, :n] += _row_apply(delta * (r.B11 @ S1h), r.B21 @ P1, W00, n)
    noise[:, :n] += _row_apply(r.Bbar11 @ S1h, r.Bbar21 @ P1 / delta, W00, n)
    coeff = [AffineMatrix(c, e) for c, e in
             zip(_column_blocks(const, n), _column_blocks(noise, n))]

    # controls implied by the solved estimate pairs, as window gains
    u1_gain = -coeffs.R1inv @ (
        coeffs.B1.T @ (S1h @ W00[:n])
        + coeffs.B1bar.T @ (P1 @ W00[n:]) / delta)
    u2 = -coeffs.R2inv @ (coeffs.B2.T @ (S2c @ Wc[:n] + R)
                          + coeffs.B2bar.T @ (P2 @ Wc[n:] / delta))
    u2_gain = np.ascontiguousarray(_column_blocks(u2, n))

    return ClosedLoopStep(
        k=k,
        a_mat=AffineMatrix(a_hat, coeffs.Abar.copy()),
        m_mat=coeff[0],
        mm=tuple(coeff[1:gap]),
        h_mat=coeff[gap],
        u1_gain=u1_gain,
        u2_gain=u2_gain,
        zfactors=tuple(zfactors),
        rcond=blocks.rcond,
    )


def riccati_step(layer_next: RiccatiLayer, closed_loop: ClosedLoopStep,
                 coeffs: SweepCoefficients, Q1: np.ndarray, Q2: np.ndarray,
                 delta: float) -> RiccatiLayer:
    """Advance the layer one step back using the closed-loop coefficients.

    The lag families shift by one offset per step: offset m at the new
    layer reads offset m-1 at the next layer, with the coupled branch
    active only for 0 < m < d1-d2.
    """
    n = layer_next.n
    d1 = layer_next.phat_lag.shape[1] - 1
    d2 = layer_next.ccheck_lag.shape[1] - 1
    gap = d1 - d2
    k = layer_next.k - 1

    a_hat = np.eye(n) + delta * coeffs.A
    a_bar = coeffs.Abar
    q_mats = (np.asarray(Q1, dtype=float), np.asarray(Q2, dtype=float))
    M, H = closed_loop.m_mat, closed_loop.h_mat
    mm = AffineMatrix(
        np.array([x.const_part for x in closed_loop.mm]).reshape(-1, n, n),
        np.array([x.noise_part for x in closed_loop.mm]).reshape(-1, n, n))

    phat = np.empty((2, n, n))
    phat_lag = np.zeros((2, d1 + 1, n, n))
    ccheck_lag = np.zeros((2, d2 + 1, n, n))

    # const-part tails sum(Mm[j], j >= m) + H + A_hat, m = 1..gap-1, used
    # by the coupled branch
    tails = a_hat + H.const_part + np.cumsum(mm.const_part[::-1], axis=0)[::-1]

    for i in range(2):
        P_next = layer_next.phat[i]
        phat[i] = (a_hat.T @ P_next @ a_hat
                   + delta * (a_bar.T @ P_next @ a_bar)
                   + a_hat.T @ (layer_next.phat_lag[i][d1]
                                + layer_next.ccheck_lag[i][d2]) @ a_hat
                   + delta * q_mats[i])
        left = AffineMatrix(a_hat.T @ layer_next.shat[i], a_bar.T @ P_next)
        phat_lag[i][0] = expectation_of_product(left, M, delta)
        # coupled branch, batched over offsets m = 1..gap-1
        left_m = AffineMatrix(a_hat.T @ layer_next.sm[i], a_bar.T @ P_next)
        phat_lag[i][1:gap] = (expectation_of_product(left_m, mm, delta)
                              + a_hat.T @ layer_next.phat_lag[i][:gap - 1]
                              @ tails)
        # free-branch transport of both lag families, batched over offsets
        phat_lag[i][gap:] = a_hat.T @ layer_next.phat_lag[i][gap - 1:d1] @ a_hat
        left_h = AffineMatrix(a_hat.T @ layer_next.scheck[i], a_bar.T @ P_next)
        ccheck_lag[i][0] = expectation_of_product(left_h, H, delta)
        if d2 >= 1:
            ccheck_lag[i][1:] = a_hat.T @ layer_next.ccheck_lag[i][:d2] @ a_hat

    # aggregates from suffix sums of the first lag family: index j holds
    # phat + sum(phat_lag[j:]) + sum(ccheck_lag), so j = 0 is shat (and
    # S^1), j = m-1 is S^m and j = gap-1 is scheck
    suffix = np.cumsum(phat_lag[:, ::-1], axis=1)[:, ::-1]
    agg = phat[:, None] + suffix[:, :gap] + ccheck_lag.sum(axis=1)[:, None]

    return RiccatiLayer(k=k, phat=phat, phat_lag=phat_lag,
                        ccheck_lag=ccheck_lag, shat=agg[:, 0].copy(),
                        scheck=agg[:, gap - 1].copy(), sm=agg[:, :gap - 1],
                        provisional=k < d1)


def backward_sweep(coeffs: SweepCoefficients, grid: Grid,
                   Q1: np.ndarray, Q2: np.ndarray,
                   H1: np.ndarray, H2: np.ndarray) -> RiccatiLadder:
    """Run the full recursion from the terminal layer down to k = 0.

    Layers with k < d1 fall outside the explicit solution's proven range;
    they are still produced (the forward simulation needs its warm-up
    window) but marked provisional.
    """
    layers: list[RiccatiLayer | None] = [None] * (grid.N + 2)
    steps: list[ClosedLoopStep | None] = [None] * (grid.N + 1)
    layers[grid.N + 1] = terminal_layer(np.asarray(H1, dtype=float),
                                        np.asarray(H2, dtype=float), grid)
    rcond_min: dict[str, float] = {}
    for k in range(grid.N, -1, -1):
        step = solve_estimate_chain(layers[k + 1], coeffs, grid.delta, k)
        for which, rc in step.rcond.items():
            rcond_min[which] = min(rcond_min.get(which, np.inf), rc)
        layers[k] = riccati_step(layers[k + 1], step, coeffs, Q1, Q2, grid.delta)
        steps[k] = step
    return RiccatiLadder(grid=grid, layers=layers, closed_loop=steps,
                         rcond_min=rcond_min)


def solve_ladder(spec: GameSpec, grid: Grid) -> RiccatiLadder:
    """Convenience wrapper: reduce the spec's coefficients and sweep."""
    coeffs = SweepCoefficients.from_spec(spec)
    return backward_sweep(coeffs, grid, spec.Q1, spec.Q2, spec.H1, spec.H2)
