"""Backward sweep for the layered matrix recursion with two delay lags.

Working backward from the terminal weights, each step k

  * assembles four 2n-by-2n block systems from the next layer's aggregates,
  * solves the chain of conditional-expectation pairs (one batched solve
    for every information level, then a scan over the levels, coarsest
    first, carrying the coupling of the already-solved levels), and
  * substitutes the solved pairs back to express the state update as

        x_{k+1} = A_k x_k + M_k E_{k-d1-1}[x_k]
                  + sum_m Mm_k E_{k-d1-1+m}[x_k] + H_k E_{k-d2-1}[x_k],

    with every coefficient affine in the Brownian increment, then
  * advances the layer matrices one step back.

All expectations over the increment use exactly the first two moments
(E[dw] = 0, E[dw^2] = delta); higher moments are deliberately dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import SingularGamma
from .model import GameSpec, Grid, ReducedCoefficients, reduce_coefficients

# A block system counts as singular when its reciprocal condition number
# drops below this.
RCOND_MIN = 1e-12


def expectation_of_product(X: np.ndarray, Y: np.ndarray,
                           delta: float) -> np.ndarray:
    """E[X(dw) Y(dw)] for an increment with mean 0 and variance delta.

    ``X`` and ``Y`` are noise-affine matrices stored as (const, noise)
    pairs on axis -3: X(dw) = X[..., 0, :, :] + dw * X[..., 1, :, :];
    leading axes broadcast. Cross terms carry E[dw] = 0 and vanish; the
    quadratic term carries E[dw^2] = delta. Moments beyond the second are
    dropped, matching the truncation used throughout the sweep.
    """
    return (X[..., 0, :, :] @ Y[..., 0, :, :]
            + delta * (X[..., 1, :, :] @ Y[..., 1, :, :]))


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


LAYER_FIELDS = ("phat", "phat_lag", "ccheck_lag", "shat", "scheck", "sm")


def block_order(gap: int) -> list[tuple[int, str]]:
    """(information level, block name) in reporting order: gamma_hat,
    gamma_check, then gamma_m1..gamma_m{gap-1}. Singularity checks and
    ties between equally conditioned blocks follow this order."""
    return ([(0, "gamma_hat"), (gap, "gamma_check")]
            + [(m, f"gamma_m{m}") for m in range(1, gap)])


@dataclass
class GammaBlocks:
    """The 2n-by-2n block families of one chain step, with conditioning info.

    ``levels[m]`` is the block of information level m: gamma_hat at 0,
    gamma_m{m} at 0 < m < gap, gamma_check at gap; ``rcond`` is indexed
    the same way.
    """

    levels: np.ndarray        # (gap+1, 2n, 2n)
    g_block: np.ndarray
    rcond: np.ndarray         # (gap+1,)


@dataclass
class ClosedLoopStep:
    """Noise-affine coefficients advancing x_k to x_{k+1}, one step's slice
    of the ladder's closed-loop stacks (see :class:`RiccatiLadder`)."""

    coef: np.ndarray          # (gap+1, 2, n, n)
    u1_gain: np.ndarray       # (d1c, n)
    u2_gain: np.ndarray       # (gap+1, d2c, n)
    zfactors: np.ndarray      # (max(gap-2, 0), 2n, 2n)
    rcond: np.ndarray         # (gap+1,)


@dataclass
class RiccatiLadder:
    """Every layer (k = 0..N+1) and closed-loop step (k = 0..N) of a sweep,
    stacked on a leading k axis.

    Layer stacks: ``phat`` (N+2, 2, n, n), ``phat_lag`` (N+2, 2, d1+1, n,
    n), ``ccheck_lag`` (N+2, 2, d2+1, n, n), ``shat``/``scheck`` (N+2, 2,
    n, n) and ``sm`` (N+2, 2, gap-1, n, n), as described by
    :class:`RiccatiLayer`. Closed loop:

        x_{k+1} = a(dw) x_k + sum_l coef[k, l](dw) E_{k-d1-1+l}[x_k],

    with every coefficient affine in the increment, stored as (const,
    noise) pairs: ``a_mat`` (2, n, n) is I + delta*A, Abar at every k, and
    ``coef`` (N+1, gap+1, 2, n, n) holds M at source level l = 0, Mm at
    0 < l < gap (zero once k + l > N) and H at l = gap. ``u1_gain`` (N+1,
    d1c, n) and ``u2_gain`` (N+1, gap+1, d2c, n) recover the implied
    controls as gains on the estimate window (``u2_gain[k, l]`` acts on
    level k-d1-1+l). ``zfactors`` (N+1, max(gap-2, 0), 2n, 2n) are the
    level-coupling operators that tend to the identity as delta -> 0, and
    ``rcond`` (N+1, gap+1) the reciprocal condition number of each level's
    block. Layers below k = d1 are computed (the simulation warm-up needs
    them) but flagged provisional; verification treats them separately.
    """

    grid: Grid
    a_mat: np.ndarray
    phat: np.ndarray
    phat_lag: np.ndarray
    ccheck_lag: np.ndarray
    shat: np.ndarray
    scheck: np.ndarray
    sm: np.ndarray
    coef: np.ndarray
    u1_gain: np.ndarray
    u2_gain: np.ndarray
    zfactors: np.ndarray
    rcond: np.ndarray

    @staticmethod
    def empty(grid: Grid, a_mat: np.ndarray, layer: RiccatiLayer,
              step: ClosedLoopStep) -> "RiccatiLadder":
        """Uninitialized stacks for the layers and steps of ``grid``,
        shaped like the given layer and step."""
        def stack(x, count):
            return np.empty((count,) + x.shape)
        return RiccatiLadder(
            grid, a_mat,
            **{f: stack(getattr(layer, f), grid.N + 2) for f in LAYER_FIELDS},
            **{f.name: stack(getattr(step, f.name), grid.N + 1)
               for f in fields(step)})

    @property
    def n(self) -> int:
        return self.a_mat.shape[-1]

    @property
    def gap(self) -> int:
        return self.grid.d1 - self.grid.d2

    def layer(self, k: int) -> RiccatiLayer:
        """Layer k as views into the stacks (writes go through)."""
        return RiccatiLayer(k, *(getattr(self, f)[k] for f in LAYER_FIELDS),
                            provisional=k < self.grid.d1)

    def set_layer(self, k: int, layer: RiccatiLayer) -> None:
        for f in LAYER_FIELDS:
            getattr(self, f)[k] = getattr(layer, f)

    def set_step(self, k: int, step: ClosedLoopStep) -> None:
        for f in fields(step):
            getattr(self, f.name)[k] = getattr(step, f.name)

    @property
    def rcond_min(self) -> dict[str, float]:
        """Worst reciprocal condition number of each block over all steps."""
        worst = self.rcond.min(axis=0)
        return {name: float(worst[m]) for m, name in block_order(self.gap)}


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
        sm=np.repeat(phat[:, None], gap - 1, axis=1),
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
    g_block = np.empty((2 * n, 2 * n))
    g_block[:n, :n] = delta * (r.B11 @ S1h)
    g_block[:n, n:] = r.B21 @ P1
    g_block[n:, :n] = delta * (r.Bbar11 @ S1h)
    g_block[n:, n:] = r.Bbar21 @ P1

    rc = _rcond(levels)
    # step k reads layer k+1
    where = k if k is not None else layer_next.k - 1
    for m, which in block_order(gap):
        if rc[m] < RCOND_MIN:
            raise SingularGamma(where, which, rc[m])
    return GammaBlocks(levels, g_block, rc)


def _row_apply(top: np.ndarray, bot: np.ndarray, W: np.ndarray, n: int) -> np.ndarray:
    """Apply the 1x2 block row [top, bot] to a stacked (2n, c) column."""
    return top @ W[:n] + bot @ W[n:]


def _column_blocks(X: np.ndarray, n: int) -> np.ndarray:
    """View of the (r, c*n) array X as its c column blocks, shape (c, r, n)."""
    return X.reshape(len(X), -1, n).swapaxes(0, 1)


def solve_estimate_chain(layer_next: RiccatiLayer, coeffs: SweepCoefficients,
                         delta: float, k: int) -> ClosedLoopStep:
    """Back-substitution chain producing the closed-loop step at index k.

    Each information level's estimate pair is linear in its right-hand
    side, so one batched solve over the level blocks (``gamma_hat``, the
    ``gamma_m{m}``, ``gamma_check``) gives every level m its response C_m
    to the state column, Y_m to the kernel coupling of already-solved
    levels and Z_m to the coarse-level coupling. The coupling that the
    solved levels feed into finer ones then follows as a scan of gap-1
    n-by-n product steps, coarsest level first; the coarsest and the last
    level's estimate pairs are substituted back into the state update.
    """
    r = coeffs.reduced
    n = layer_next.n
    blocks = assemble_blocks(layer_next, coeffs, delta, k)
    gap = len(blocks.levels) - 1
    S1h = layer_next.shat[0]
    P1, P2 = layer_next.phat
    S2c = layer_next.scheck[1]
    # lag entries of player 2 at the next layer, offsets 0..gap-2, that
    # enter both the kernel couplings and the mid-level state terms
    lag2 = layer_next.phat_lag[1][:gap - 1]

    # right-hand sides shared by every level: the state column, the kernel
    # coupling [delta B12; delta Bbar12] and the coarse-level coupling.
    # One LAPACK gesv per level in one call (scipy's lu_solve hands tiny
    # multi-column solves to the OpenBLAS thread pool and can stall); b is
    # broadcast to 3-D because numpy < 2 reads a 2-D b as a vector stack.
    rhs = np.empty((2 * n, 4 * n))
    rhs[:n, :n] = np.eye(n) + delta * coeffs.A
    rhs[n:, :n] = delta * coeffs.Abar
    rhs[:n, n:2 * n] = delta * r.B12
    rhs[n:, n:2 * n] = delta * r.Bbar12
    rhs[:, 2 * n:] = blocks.g_block
    sol = np.linalg.solve(blocks.levels,
                          np.broadcast_to(rhs, (gap + 1,) + rhs.shape))
    C, Y, Z = sol[..., :n], sol[..., n:2 * n], sol[..., 2 * n:]
    W00 = C[0]

    # The level-m estimate pair depends on the level-l estimate of the
    # previous state through Y_m R (plus Z_m W00 on l = 0) for l < m and
    # C_m for l = m, where R = sum_{0 < j < m} lag2[j-1] @ W_j[:n] is the
    # coupling of the levels solved so far (column block l).
    top = lag2 @ sol[1:gap, :n]
    T = top[..., n:2 * n]
    E = top[..., 2 * n:] @ W00
    R = np.zeros((n, (gap + 1) * n))
    for m in range(1, gap):
        R += T[m - 1] @ R
        R[:, :n] += E[m - 1]
        R[:, m * n:(m + 1) * n] = top[m - 1, :, :n]
    Wc = Y[gap] @ R
    Wc[:, :n] += Z[gap] @ W00
    Wc[:, gap * n:] = C[gap]
    # level-coupling operators of levels 2..gap-1
    zfactors = np.tile(np.eye(2 * n), (max(gap - 2, 0), 1, 1))
    zfactors[:, :n, :n] += T[1:]
    zfactors[:, n:, :n] += lag2[1:] @ Y[2:gap, n:]

    # state-update coefficients, affine in the increment, for every
    # source level l at once (column block l)
    const = (delta * (r.B12 @ R)
             + _row_apply(delta * (r.B12 @ S2c), r.B22 @ P2, Wc, n))
    noise = (r.Bbar12 @ R
             + _row_apply(r.Bbar12 @ S2c, r.Bbar22 @ P2 / delta, Wc, n))
    const[:, :n] += _row_apply(delta * (r.B11 @ S1h), r.B21 @ P1, W00, n)
    noise[:, :n] += _row_apply(r.Bbar11 @ S1h, r.Bbar21 @ P1 / delta, W00, n)

    # controls implied by the solved estimate pairs, as window gains
    u1_gain = -coeffs.R1inv @ (
        coeffs.B1.T @ (S1h @ W00[:n])
        + coeffs.B1bar.T @ (P1 @ W00[n:]) / delta)
    u2 = -coeffs.R2inv @ (coeffs.B2.T @ (S2c @ Wc[:n] + R)
                          + coeffs.B2bar.T @ (P2 @ Wc[n:] / delta))

    return ClosedLoopStep(
        coef=np.stack([_column_blocks(const, n), _column_blocks(noise, n)],
                      axis=1),
        u1_gain=u1_gain,
        u2_gain=_column_blocks(u2, n),
        zfactors=zfactors,
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
    q_mats = np.stack([np.asarray(Q1, dtype=float),
                       np.asarray(Q2, dtype=float)])
    coef = closed_loop.coef
    P_next = layer_next.phat
    lag_next = layer_next.phat_lag
    cc_next = layer_next.ccheck_lag
    phat_lag = np.empty((2, d1 + 1, n, n))
    ccheck_lag = np.empty((2, d2 + 1, n, n))

    # every expression below carries the leading player axis
    phat = (a_hat.T @ P_next @ a_hat
            + delta * (a_bar.T @ P_next @ a_bar)
            + a_hat.T @ (lag_next[:, d1] + cc_next[:, d2]) @ a_hat
            + delta * q_mats)

    # const-part tails sum(Mm[j], j >= m) + H + A_hat, m = 1..gap-1, used
    # by the coupled branch
    tails = (a_hat + coef[gap, 0]
             + np.cumsum(coef[gap - 1:0:-1, 0], axis=0)[::-1])

    # the left factors a_hat' S + dw a_bar' P_next of the three lag-entry
    # products, one (const, noise) pair per aggregate S
    left = np.empty((2, gap + 1, 2, n, n))
    left[:, 0, 0] = a_hat.T @ layer_next.shat
    left[:, 1:gap, 0] = a_hat.T @ layer_next.sm
    left[:, gap, 0] = a_hat.T @ layer_next.scheck
    left[:, :, 1] = (a_bar.T @ P_next)[:, None]
    products = expectation_of_product(left, coef, delta)
    phat_lag[:, 0] = products[:, 0]
    # coupled branch, batched over offsets m = 1..gap-1
    phat_lag[:, 1:gap] = (products[:, 1:gap]
                          + a_hat.T @ lag_next[:, :gap - 1] @ tails)
    # free-branch transport of both lag families, batched over offsets
    phat_lag[:, gap:] = a_hat.T @ lag_next[:, gap - 1:d1] @ a_hat
    ccheck_lag[:, 0] = products[:, gap]
    ccheck_lag[:, 1:] = a_hat.T @ cc_next[:, :d2] @ a_hat

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
    n = coeffs.A.shape[0]
    a_mat = np.stack([np.eye(n) + grid.delta * coeffs.A, coeffs.Abar])
    layer = terminal_layer(np.asarray(H1, dtype=float),
                           np.asarray(H2, dtype=float), grid)
    for k in range(grid.N, -1, -1):
        step = solve_estimate_chain(layer, coeffs, grid.delta, k)
        if k == grid.N:
            ladder = RiccatiLadder.empty(grid, a_mat, layer, step)
            ladder.set_layer(k + 1, layer)
        ladder.set_step(k, step)
        layer = riccati_step(layer, step, coeffs, Q1, Q2, grid.delta)
        ladder.set_layer(k, layer)
    return ladder


def solve_ladder(spec: GameSpec, grid: Grid) -> RiccatiLadder:
    """Convenience wrapper: reduce the spec's coefficients and sweep."""
    coeffs = SweepCoefficients.from_spec(spec)
    return backward_sweep(coeffs, grid, spec.Q1, spec.Q2, spec.H1, spec.H2)
