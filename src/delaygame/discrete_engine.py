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

Step k's functions take ``(ladder, coeffs, k)``: they read layer k+1 of
the one ``RiccatiLadder`` of the sweep straight from its stacks and write
step k and layer k in place.

All expectations over the increment use exactly the first two moments
(E[dw] = 0, E[dw^2] = delta); higher moments are deliberately dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLayer, SingularGamma, SingularWeight
from .model import GameSpec, Grid

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


LAYER_FIELDS = ("phat", "phat_lag", "ccheck_lag", "agg")


def block_order(gap: int) -> list[tuple[int, str]]:
    """(information level, block name) in reporting order: gamma_hat,
    gamma_check, then gamma_m1..gamma_m{gap-1}. Singularity checks and
    ties between equally conditioned blocks follow this order."""
    return ([(0, "gamma_hat"), (gap, "gamma_check")]
            + [(m, f"gamma_m{m}") for m in range(1, gap)])


@dataclass(frozen=True)
class SweepCoefficients:
    """Everything the sweep consumes: the state maps, the control-map data
    that reads the implied controls back out, both players' running and
    terminal cost weights stacked on a leading player axis (``Q`` and
    ``H``, (2, n, n)) and the eight n-by-n reduced products
    ``B11 = -B1 R1^{-1} B1'``, ``B21 = -B1 R1^{-1} B1bar'``,
    ``Bbar11 = -B1bar R1^{-1} B1'``, ``Bbar21 = -B1bar R1^{-1} B1bar'``
    and their player-2 counterparts (so ``B21' = Bbar11``)."""

    A: np.ndarray
    Abar: np.ndarray
    B1: np.ndarray
    B1bar: np.ndarray
    B2: np.ndarray
    B2bar: np.ndarray
    R1inv: np.ndarray
    R2inv: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    B11: np.ndarray
    B12: np.ndarray
    B21: np.ndarray
    B22: np.ndarray
    Bbar11: np.ndarray
    Bbar12: np.ndarray
    Bbar21: np.ndarray
    Bbar22: np.ndarray

    @staticmethod
    def from_spec(spec: GameSpec) -> "SweepCoefficients":
        """Factor each control weight once (Cholesky) and form the products.

        Raises :class:`SingularWeight` if R1 or R2 has no Cholesky factor,
        which signals an invalid spec slipped past validation.
        """
        def weight_solves(R, drift, noise):
            # R^{-1} M' = Li' (Li M') with Li the inverse Cholesky factor
            try:
                Li = np.linalg.inv(np.linalg.cholesky(R))
            except np.linalg.LinAlgError as exc:
                raise SingularWeight(
                    f"control weight factorization failed: {exc}") from exc
            return Li.T @ (Li @ drift.T), Li.T @ (Li @ noise.T)

        r1_b1t, r1_b1bart = weight_solves(spec.R1, spec.B1, spec.B1bar)
        r2_b2t, r2_b2bart = weight_solves(spec.R2, spec.B2, spec.B2bar)
        return SweepCoefficients(
            A=spec.A, Abar=spec.Abar,
            B1=spec.B1, B1bar=spec.B1bar, B2=spec.B2, B2bar=spec.B2bar,
            R1inv=np.linalg.inv(spec.R1), R2inv=np.linalg.inv(spec.R2),
            Q=np.stack([spec.Q1, spec.Q2]), H=np.stack([spec.H1, spec.H2]),
            B11=-spec.B1 @ r1_b1t, B12=-spec.B2 @ r2_b2t,
            B21=-spec.B1 @ r1_b1bart, B22=-spec.B2 @ r2_b2bart,
            Bbar11=-spec.B1bar @ r1_b1t, Bbar12=-spec.B2bar @ r2_b2t,
            Bbar21=-spec.B1bar @ r1_b1bart, Bbar22=-spec.B2bar @ r2_b2bart,
        )


class RiccatiLadder:
    """Every layer (k = 0..N+1) and closed-loop step (k = 0..N) of a sweep,
    stacked on a leading k axis: the only storage the sweep writes. Step
    k's functions take ``(ladder, coeffs, k)``, read layer k+1 and write
    step k and layer k in place.

    Layer stacks, player index i 0-based (player 1 -> 0): ``phat[k, i]``
    (N+2, 2, n, n) is the state coefficient; ``phat_lag[k, i, j]`` (N+2,
    2, d1+1, n, n) and ``ccheck_lag[k, i, j]`` (N+2, 2, d2+1, n, n) are
    the lag-family entries whose forward index is k + j, identically zero
    when k + j > N. ``agg[k, i, m-1]`` (N+2, 2, gap, n, n) is the
    information aggregate S^m (m = 1..gap): phat plus the first lag family
    from offset m-1 on plus the whole second family. ``shat`` (S^1) and
    ``scheck`` (S^gap) are read-only views of it. Layers below k = d1 fall
    outside the explicit solution's proven range: they are computed (the
    simulation warm-up needs them) but provisional, and verification
    treats them separately. Closed loop:

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
    block.

    The constructor allocates every stack and writes the terminal layer
    k = N+1: state coefficients equal the terminal weights ``coeffs.H``,
    every lag entry is zero and every aggregate equals the state
    coefficient. The other slices are left uninitialized for the sweep to
    fill.
    """

    def __init__(self, grid: Grid, coeffs: SweepCoefficients):
        n, gap = coeffs.A.shape[0], grid.d1 - grid.d2
        layers, steps = (grid.N + 2, 2), (grid.N + 1,)
        self.grid = grid
        self.a_mat = np.stack([np.eye(n) + grid.delta * coeffs.A,
                               coeffs.Abar])
        self.phat = np.empty(layers + (n, n))
        self.phat_lag = np.empty(layers + (grid.d1 + 1, n, n))
        self.ccheck_lag = np.empty(layers + (grid.d2 + 1, n, n))
        self.agg = np.empty(layers + (gap, n, n))
        self.shat, self.scheck = self.agg[:, :, 0], self.agg[:, :, -1]
        self.shat.flags.writeable = self.scheck.flags.writeable = False
        self.coef = np.empty(steps + (gap + 1, 2, n, n))
        self.u1_gain = np.empty(steps + (coeffs.B1.shape[1], n))
        self.u2_gain = np.empty(steps + (gap + 1, coeffs.B2.shape[1], n))
        self.zfactors = np.empty(steps + (max(gap - 2, 0), 2 * n, 2 * n))
        self.rcond = np.empty(steps + (gap + 1,))
        self.phat[-1] = coeffs.H
        self.phat_lag[-1] = 0.0
        self.ccheck_lag[-1] = 0.0
        self.agg[-1] = self.phat[-1][:, None]

    @property
    def n(self) -> int:
        return self.a_mat.shape[-1]

    @property
    def gap(self) -> int:
        return self.grid.d1 - self.grid.d2

    def finite(self, k: int) -> bool:
        """Whether every entry of layer k is finite."""
        return all(np.isfinite(getattr(self, f)[k]).all()
                   for f in LAYER_FIELDS)

    @property
    def rcond_min(self) -> dict[str, float]:
        """Worst reciprocal condition number of each block over all steps."""
        worst = self.rcond.min(axis=0)
        return {name: float(worst[m]) for m, name in block_order(self.gap)}


def _rcond(M: np.ndarray):
    """Reciprocal 1-norm condition number of M (a scalar), or of each
    matrix in a stack of them (an array); 0 where singular."""
    c = np.linalg.cond(M, 1)
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(c) & (c != 0.0), 1.0 / c, 0.0)[()]


def assemble_blocks(ladder: RiccatiLadder, coeffs: SweepCoefficients,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """The block families of step k, built from layer k+1's aggregates:
    ``levels`` (gap+1, 2n, 2n), the block of information level m at
    index m (gamma_hat at 0, gamma_m{m} at 0 < m < gap, gamma_check at
    gap), and the coarse-level coupling ``g_block`` (2n, 2n). Writes each
    level's reciprocal condition number to ``ladder.rcond[k]``.

    Raises :class:`SingularGamma` when any block is numerically singular,
    i.e. the explicit-solution hypothesis fails at this step/resolution,
    and :class:`NonFiniteLayer` instead when layer k+1 holds an inf or nan
    entry (the recursion overflowed before this step).
    """
    n, delta = ladder.n, ladder.grid.delta
    eye = np.eye(n)
    S1h, S2h = ladder.shat[k + 1]
    P1, P2 = ladder.phat[k + 1]
    # player 2's aggregates S^1..S^gap, one per finer level
    S2 = ladder.agg[k + 1, 1]
    gap = len(S2)

    # level 0 holds gamma_hat, level m the block gamma_m{m}, level gap
    # gamma_check; the finer levels differ only in their S^2 aggregate
    levels = np.empty((gap + 1, 2 * n, 2 * n))
    levels[0, :n, :n] = eye - delta * (coeffs.B11 @ S1h + coeffs.B12 @ S2h)
    levels[0, :n, n:] = -(coeffs.B21 @ P1 + coeffs.B22 @ P2)
    levels[0, n:, :n] = -delta * (coeffs.Bbar11 @ S1h + coeffs.Bbar12 @ S2h)
    levels[0, n:, n:] = eye - coeffs.Bbar21 @ P1 - coeffs.Bbar22 @ P2
    levels[1:, :n, :n] = eye - delta * (coeffs.B12 @ S2)
    levels[1:, :n, n:] = -(coeffs.B22 @ P2)
    levels[1:, n:, :n] = -delta * (coeffs.Bbar12 @ S2)
    levels[1:, n:, n:] = eye - coeffs.Bbar22 @ P2
    g_block = np.empty((2 * n, 2 * n))
    g_block[:n, :n] = delta * (coeffs.B11 @ S1h)
    g_block[:n, n:] = coeffs.B21 @ P1
    g_block[n:, :n] = delta * (coeffs.Bbar11 @ S1h)
    g_block[n:, n:] = coeffs.Bbar21 @ P1

    rc = ladder.rcond[k] = _rcond(levels)
    for m, which in block_order(gap):
        if rc[m] < RCOND_MIN:
            if not ladder.finite(k + 1):
                raise NonFiniteLayer(k + 1)
            raise SingularGamma(k, which, rc[m])
    return levels, g_block


def _row_apply(top: np.ndarray, bot: np.ndarray, W: np.ndarray, n: int) -> np.ndarray:
    """Apply the 1x2 block row [top, bot] to a stacked (2n, c) column."""
    return top @ W[:n] + bot @ W[n:]


def _column_blocks(X: np.ndarray, n: int) -> np.ndarray:
    """View of the (r, c*n) array X as its c column blocks, shape (c, r, n)."""
    return X.reshape(len(X), -1, n).swapaxes(0, 1)


def solve_estimate_chain(ladder: RiccatiLadder, coeffs: SweepCoefficients,
                         k: int) -> None:
    """Back-substitution chain writing the closed-loop step k of ``ladder``
    (``coef``, ``u1_gain``, ``u2_gain``, ``zfactors``, and ``rcond`` through
    ``assemble_blocks``) from its layer k+1.

    Each information level's estimate pair is linear in its right-hand
    side, so one batched solve over the level blocks (``gamma_hat``, the
    ``gamma_m{m}``, ``gamma_check``) gives every level m its response C_m
    to the state column, Y_m to the kernel coupling of already-solved
    levels and Z_m to the coarse-level coupling. The coupling that the
    solved levels feed into finer ones then follows as a scan of gap-1
    n-by-n product steps, coarsest level first; the coarsest and the last
    level's estimate pairs are substituted back into the state update.
    """
    n, gap, delta = ladder.n, ladder.gap, ladder.grid.delta
    levels, g_block = assemble_blocks(ladder, coeffs, k)
    S1h = ladder.shat[k + 1, 0]
    P1, P2 = ladder.phat[k + 1]
    S2c = ladder.scheck[k + 1, 1]
    # lag entries of player 2 at the next layer, offsets 0..gap-2, that
    # enter both the kernel couplings and the mid-level state terms
    lag2 = ladder.phat_lag[k + 1, 1, :gap - 1]

    # right-hand sides shared by every level: the state column, the kernel
    # coupling [delta B12; delta Bbar12] and the coarse-level coupling.
    # One LAPACK gesv per level in one call; b is broadcast to 3-D because
    # numpy < 2 reads a 2-D b as a vector stack.
    rhs = np.empty((2 * n, 4 * n))
    rhs[:n, :n] = ladder.a_mat[0]
    rhs[n:, :n] = delta * ladder.a_mat[1]
    rhs[:n, n:2 * n] = delta * coeffs.B12
    rhs[n:, n:2 * n] = delta * coeffs.Bbar12
    rhs[:, 2 * n:] = g_block
    sol = np.linalg.solve(levels,
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
    zfactors = ladder.zfactors[k]
    zfactors[:] = np.eye(2 * n)
    zfactors[:, :n, :n] += T[1:]
    zfactors[:, n:, :n] += lag2[1:] @ Y[2:gap, n:]

    # state-update coefficients, affine in the increment, for every
    # source level l at once (column block l)
    const = (delta * (coeffs.B12 @ R)
             + _row_apply(delta * (coeffs.B12 @ S2c), coeffs.B22 @ P2,
                          Wc, n))
    noise = (coeffs.Bbar12 @ R
             + _row_apply(coeffs.Bbar12 @ S2c, coeffs.Bbar22 @ P2 / delta,
                          Wc, n))
    const[:, :n] += _row_apply(delta * (coeffs.B11 @ S1h),
                               coeffs.B21 @ P1, W00, n)
    noise[:, :n] += _row_apply(coeffs.Bbar11 @ S1h,
                               coeffs.Bbar21 @ P1 / delta, W00, n)
    ladder.coef[k, :, 0] = _column_blocks(const, n)
    ladder.coef[k, :, 1] = _column_blocks(noise, n)

    # controls implied by the solved estimate pairs, as window gains
    ladder.u1_gain[k] = -coeffs.R1inv @ (
        coeffs.B1.T @ (S1h @ W00[:n])
        + coeffs.B1bar.T @ (P1 @ W00[n:]) / delta)
    u2 = -coeffs.R2inv @ (coeffs.B2.T @ (S2c @ Wc[:n] + R)
                          + coeffs.B2bar.T @ (P2 @ Wc[n:] / delta))
    ladder.u2_gain[k] = _column_blocks(u2, n)


def riccati_step(ladder: RiccatiLadder, coeffs: SweepCoefficients,
                 k: int) -> None:
    """Write layer k of ``ladder`` from its layer k+1 and closed-loop step k.

    The lag families shift by one offset per step: offset m at the new
    layer reads offset m-1 at the next layer, with the coupled branch
    active only for 0 < m < d1-d2.
    """
    n, d1, d2, gap = ladder.n, ladder.grid.d1, ladder.grid.d2, ladder.gap
    delta = ladder.grid.delta
    a_hat, a_bar = ladder.a_mat
    coef = ladder.coef[k]
    P_next = ladder.phat[k + 1]
    lag_next = ladder.phat_lag[k + 1]
    cc_next = ladder.ccheck_lag[k + 1]
    phat = ladder.phat[k]
    phat_lag = ladder.phat_lag[k]
    ccheck_lag = ladder.ccheck_lag[k]

    # every expression below carries the leading player axis
    phat[:] = (a_hat.T @ P_next @ a_hat
               + delta * (a_bar.T @ P_next @ a_bar)
               + a_hat.T @ (lag_next[:, d1] + cc_next[:, d2]) @ a_hat
               + delta * coeffs.Q)

    # const-part tails sum(Mm[j], j >= m) + H + A_hat, m = 1..gap-1, used
    # by the coupled branch
    tails = (a_hat + coef[gap, 0]
             + np.cumsum(coef[gap - 1:0:-1, 0], axis=0)[::-1])

    # the left factors a_hat' S + dw a_bar' P_next of the three lag-entry
    # products, one (const, noise) pair per aggregate S: S^1 for the
    # coarsest product, then S^1..S^gap
    left = np.empty((2, gap + 1, 2, n, n))
    left[:, 1:, 0] = a_hat.T @ ladder.agg[k + 1]
    left[:, 0, 0] = left[:, 1, 0]
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

    # aggregates from suffix sums of the first lag family: index m-1 holds
    # S^m = phat + sum(phat_lag[m-1:]) + sum(ccheck_lag)
    suffix = np.cumsum(phat_lag[:, ::-1], axis=1)[:, ::-1]
    ladder.agg[k] = (phat[:, None] + suffix[:, :gap]
                     + ccheck_lag.sum(axis=1)[:, None])


def backward_sweep(coeffs: SweepCoefficients, grid: Grid) -> RiccatiLadder:
    """Run the full recursion from the terminal layer down to k = 0.

    Layers with k < d1 are still produced, as provisional layers (see
    :class:`RiccatiLadder`). An overflow inside the loop is not
    warned about: the next step's block gate names the layer it reached
    (:class:`NonFiniteLayer`), and layer 0, which no block reads, is
    checked once at the end.
    """
    ladder = RiccatiLadder(grid, coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.N, -1, -1):
            solve_estimate_chain(ladder, coeffs, k)
            riccati_step(ladder, coeffs, k)
    if not ladder.finite(0):
        raise NonFiniteLayer(0)
    return ladder


def solve_ladder(spec: GameSpec, grid: Grid) -> RiccatiLadder:
    """Convenience wrapper: reduce the spec's coefficients and sweep."""
    return backward_sweep(SweepCoefficients.from_spec(spec), grid)
