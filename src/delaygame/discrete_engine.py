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

Step k's functions take ``(ladder, k)``: they read layer k+1 of the one
``RiccatiLadder`` of the sweep straight from its stacks and write step k
and layer k in place. The ladder also keeps the coefficients it was
built from.

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
    """Everything the sweep consumes, formed once per problem. Each map and
    each reduced product is an (increment-free, increment) pair on axis 0:

    * ``a`` = [A; Abar], ``b1`` = [B1; B1bar], ``b2`` = [B2; B2bar], the
      state and control maps of the dt and dw parts of the dynamics;
    * ``R1inv``, ``R2inv``, the inverse control weights, which read the
      implied controls back out;
    * ``Q`` and ``H`` (2, n, n), both players' running and terminal cost
      weights on a leading player axis;
    * the reduced products, each map read through its player's weight:
      ``maps11`` = [B11; Bbar11] with ``B11 = -B1 R1^{-1} B1'`` and
      ``Bbar11 = -B1bar R1^{-1} B1'``; ``maps2`` (2, 2, n, n) =
      [[B21; Bbar21], [B22; Bbar22]] with ``B21 = -B1 R1^{-1} B1bar'``
      and ``Bbar21 = -B1bar R1^{-1} B1bar'`` (so ``B21' = Bbar11``);
      ``maps12`` = [B12; Bbar12] and B22, Bbar22 are the player-2
      counterparts.
    """

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    R1inv: np.ndarray
    R2inv: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    maps11: np.ndarray
    maps12: np.ndarray
    maps2: np.ndarray

    @staticmethod
    def from_spec(spec: GameSpec) -> "SweepCoefficients":
        """Factor each control weight once (Cholesky) and form the products.

        Raises :class:`SingularWeight` if R1 or R2 has no Cholesky factor,
        which signals an invalid spec slipped past validation.
        """
        def reduced(R, b):
            # -b R^{-1} M' with R^{-1} M' = Li' (Li M') and Li the inverse
            # Cholesky factor, for M the drift and the noise map of b
            try:
                Li = np.linalg.inv(np.linalg.cholesky(R))
            except np.linalg.LinAlgError as exc:
                raise SingularWeight(
                    f"control weight factorization failed: {exc}") from exc
            return [-b @ (Li.T @ (Li @ M.T)) for M in b]

        b1 = np.stack([spec.B1, spec.B1bar])
        b2 = np.stack([spec.B2, spec.B2bar])
        maps11, maps21 = reduced(spec.R1, b1)
        maps12, maps22 = reduced(spec.R2, b2)
        return SweepCoefficients(
            a=np.stack([spec.A, spec.Abar]), b1=b1, b2=b2,
            R1inv=np.linalg.inv(spec.R1), R2inv=np.linalg.inv(spec.R2),
            Q=np.stack([spec.Q1, spec.Q2]), H=np.stack([spec.H1, spec.H2]),
            maps11=maps11, maps12=maps12, maps2=np.stack([maps21, maps22]))


class RiccatiLadder:
    """Every layer (k = 0..N+1) and closed-loop step (k = 0..N) of a sweep,
    stacked on a leading k axis: the only storage the sweep writes. It
    keeps the ``coeffs`` it was built from. Step k's functions take
    ``(ladder, k)``, read layer k+1 and write step k and layer k in place.

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
    0 < l < gap (zero once k + l > N) and H at l = gap. ``w_hat`` (N+1,
    2n, n) and ``w_check`` (N+1, 2n, (gap+1)n) are the solved estimate
    pairs of the coarsest and the finest level (column block l for source
    level l), and ``coupling`` (N+1, n, (gap+1)n) is what the levels
    between feed into the finest. From them ``backward_sweep`` reads the
    implied controls out after its loop, as gains on the estimate window:
    ``u1_gain`` (N+1, d1c, n) and ``u2_gain`` (N+1, gap+1, d2c, n)
    (``u2_gain[k, l]`` acts on level k-d1-1+l). ``zfactors`` (N+1,
    max(gap-2, 0), 2n, 2n) are the level-coupling operators that tend to
    the identity as delta -> 0, and ``rcond`` (N+1, gap+1) the reciprocal
    condition number of each level's block.

    The constructor allocates every stack, writes the terminal layer
    k = N+1 (state coefficients ``coeffs.H``, lag entries zero, every
    aggregate equal to the state coefficient) and forms what every step
    shares, the constants that depend on the grid: ``delta_q`` = delta
    ``coeffs.Q`` and ``rhs`` (gap+1, 2n, 6n), every level's right-hand
    side: one buffer [a_mat[0], delta B12; delta a_mat[1], delta Bbar12 |
    G | I_2n] whose coarse-level coupling G ``assemble_blocks`` writes at
    each step.
    """

    def __init__(self, grid: Grid, coeffs: SweepCoefficients):
        n, gap, delta = coeffs.a.shape[-1], grid.d1 - grid.d2, grid.delta
        layers, steps = (grid.N + 2, 2), (grid.N + 1,)
        self.grid, self.coeffs, self.n, self.gap = grid, coeffs, n, gap
        self.a_mat = np.stack([np.eye(n) + delta * coeffs.a[0], coeffs.a[1]])
        self.a_t = self.a_mat.swapaxes(1, 2)
        self.delta_q = delta * coeffs.Q
        # (delta, 1) scales and (1, delta) divides a pair's two halves
        self.scale = np.array([delta, 1.0])[:, None, None]
        self.divisor = self.scale[::-1]
        # the identity's block columns as pairs, off-diagonal -0.0 so that
        # -0.0 - y is -y bit for bit, signed zeros included
        self.eye_cols = np.full((2, 2, n, n), -0.0)
        self.eye_cols[0, 0] = self.eye_cols[1, 1] = np.eye(n)
        self.eye2 = np.eye(2 * n)
        rhs = np.zeros((2, n, 3, 2, n))
        self.g_pairs = rhs[:, :, 1]
        rhs = rhs.reshape(2 * n, 6 * n)
        rhs[:, :2 * n] = np.block([[self.a_mat[0], delta * coeffs.maps12[0]],
                                   [delta * self.a_mat[1],
                                    delta * coeffs.maps12[1]]])
        rhs[:, 4 * n:] = self.eye2
        # numpy < 2 reads a 2-D b as a vector stack, so b is 3-D
        self.rhs = np.broadcast_to(rhs, (gap + 1,) + rhs.shape)
        self.left = np.empty((2, gap + 1, 2, n, n))
        # the aggregate S^max(l, 1) that level l's lag-entry product reads
        self.level_agg = np.maximum(np.arange(gap + 1) - 1, 0)
        self.phat = np.empty(layers + (n, n))
        self.phat_lag = np.empty(layers + (grid.d1 + 1, n, n))
        self.ccheck_lag = np.empty(layers + (grid.d2 + 1, n, n))
        self.agg = np.empty(layers + (gap, n, n))
        self.shat, self.scheck = self.agg[:, :, 0], self.agg[:, :, -1]
        self.shat.flags.writeable = self.scheck.flags.writeable = False
        self.coef = np.empty(steps + (gap + 1, 2, n, n))
        self.w_hat = np.empty(steps + (2 * n, n))
        self.w_check = np.empty(steps + (2 * n, (gap + 1) * n))
        self.coupling = np.empty(steps + (n, (gap + 1) * n))
        self.u1_gain = np.empty(steps + (coeffs.b1.shape[-1], n))
        self.u2_gain = np.empty(steps + (gap + 1, coeffs.b2.shape[-1], n))
        self.zfactors = np.empty(steps + (max(gap - 2, 0), 2 * n, 2 * n))
        self.rcond = np.empty(steps + (gap + 1,))
        self.phat[-1] = coeffs.H
        self.phat_lag[-1] = 0.0
        self.ccheck_lag[-1] = 0.0
        self.agg[-1] = self.phat[-1][:, None]

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


def assemble_blocks(ladder: RiccatiLadder, k: int) -> tuple[np.ndarray, tuple]:
    """The block families of step k, built from layer k+1's aggregates:
    ``levels`` (gap+1, 2n, 2n), the block of information level m at
    index m (gamma_hat at 0, gamma_m{m} at 0 < m < gap, gamma_check at
    gap), and the products they are built from, each formed once as an
    (increment-free, increment) pair: with player 1's coarsest aggregate
    ``S1 = shat[k+1, 0]``, the state coefficients ``P1, P2 = phat[k+1]``
    and player 2's aggregates ``S2 = agg[k+1, 1]``, ``b11`` = [B11;
    Bbar11] S1, ``b21`` = [B21; Bbar21] P1, ``b22`` = [B22; Bbar22] P2
    and ``b12`` (gap, 2, n, n), [B12; Bbar12] S^m at index m-1, the pairs
    read from ``ladder.coeffs``. The coarse-level coupling is written into
    ``ladder.rhs``.
    The blocks are not checked here: ``solve_estimate_chain`` gates them
    on the condition numbers its one solve gives.
    """
    n, gap, delta = ladder.n, ladder.gap, ladder.grid.delta
    coeffs = ladder.coeffs
    b11 = coeffs.maps11 @ ladder.shat[k + 1, 0]
    b21, b22 = coeffs.maps2 @ ladder.phat[k + 1, :, None]
    b12 = coeffs.maps12 @ ladder.agg[k + 1, 1, :, None]

    # levels[m, i, :, j] is block (i, j) of level m: level 0 holds
    # gamma_hat, level m the block gamma_m{m}, level gap gamma_check; the
    # finer levels differ only in their S^2 aggregate
    levels = np.empty((gap + 1, 2, n, 2, n))
    left, right = ladder.eye_cols
    levels[0, :, :, 0] = left - delta * (b11 + b12[0])
    levels[0, 0, :, 1] = -(b21[0] + b22[0])
    levels[0, 1, :, 1] = right[1] - b21[1] - b22[1]
    levels[1:, :, :, 0] = left - delta * b12
    levels[1:, :, :, 1] = right - b22
    ladder.g_pairs[:, :, 0] = delta * b11
    ladder.g_pairs[:, :, 1] = b21
    return levels.reshape(gap + 1, 2 * n, 2 * n), (b11, b21, b22, b12)


def _singular(ladder: RiccatiLadder, levels: np.ndarray, k: int):
    """The error of step k when its blocks fail the gate: the first block,
    in ``block_order``, below ``RCOND_MIN`` by ``_rcond``, unless layer
    k+1 overflowed."""
    if not ladder.finite(k + 1):
        return NonFiniteLayer(k + 1)
    rc = _rcond(levels)
    m, which = next((m, which) for m, which in block_order(ladder.gap)
                    if rc[m] < RCOND_MIN)
    return SingularGamma(k, which, rc[m])


def solve_estimate_chain(ladder: RiccatiLadder, k: int) -> None:
    """Back-substitution chain writing the closed-loop step k of ``ladder``
    (``coef``, the estimate pairs, ``zfactors`` and ``rcond``) from its
    layer k+1.

    Each information level's estimate pair is linear in its right-hand
    side, so one batched solve over the level blocks (``gamma_hat``, the
    ``gamma_m{m}``, ``gamma_check``) gives every level m its response C_m
    to the state column, Y_m to the kernel coupling of already-solved
    levels, Z_m to the coarse-level coupling, and its block's inverse,
    from which the blocks' 1-norm condition numbers follow as
    ``np.linalg.cond(levels, 1)`` computes them. Before any solution is
    used, :class:`SingularGamma` is raised when a block is numerically
    singular (the explicit-solution hypothesis fails at this step and
    resolution), :class:`NonFiniteLayer` when layer k+1 overflowed. The
    coupling that the solved levels feed into finer ones then follows as
    a scan of gap-1 n-by-n product steps, coarsest level first; the
    coarsest and the last level's estimate pairs are substituted back
    into the state update.
    """
    n, gap = ladder.n, ladder.gap
    levels, (b11, b21, b22, b12) = assemble_blocks(ladder, k)
    try:
        sol = np.linalg.solve(levels, ladder.rhs)
    except np.linalg.LinAlgError:     # an exactly zero pivot
        raise _singular(ladder, levels, k) from None
    rc = ladder.rcond[k] = 1.0 / (np.linalg.norm(levels, 1, axis=(-2, -1))
                                  * np.linalg.norm(sol[..., 4 * n:], 1,
                                                   axis=(-2, -1)))
    if not np.minimum.reduce(rc) >= RCOND_MIN:
        raise _singular(ladder, levels, k)
    C, Y, Z = sol[..., :n], sol[..., n:2 * n], sol[..., 2 * n:4 * n]
    W00 = C[0]
    # lag entries of player 2 at the next layer, offsets 0..gap-2, that
    # enter both the kernel couplings and the mid-level state terms
    lag2 = ladder.phat_lag[k + 1, 1, :gap - 1]

    # The level-m estimate pair depends on the level-l estimate of the
    # previous state through Y_m R (plus Z_m W00 on l = 0) for l < m and
    # C_m for l = m, where R = sum_{0 < j < m} lag2[j-1] @ W_j[:n] is the
    # coupling of the levels solved so far (column block l); R is still
    # zero at m = 1, so that product is skipped
    top = lag2 @ sol[1:gap, :n, :4 * n]
    T = top[..., n:2 * n]
    E = top[..., 2 * n:] @ W00
    R = ladder.coupling[k]
    R[:] = 0.0
    R_blocks = R.reshape(n, gap + 1, n)
    for m, (Tm, Em, Fm) in enumerate(zip(T, E, top[..., :n]), start=1):
        if m > 1:
            R += Tm @ R
        R_blocks[:, 0] += Em
        R_blocks[:, m] = Fm
    ladder.w_hat[k] = W00
    Wc = np.matmul(Y[gap], R, out=ladder.w_check[k])
    Wc[:, :n] += Z[gap] @ W00
    Wc[:, gap * n:] = C[gap]
    # level-coupling operators of levels 2..gap-1
    zfactors = ladder.zfactors[k]
    zfactors[:] = ladder.eye2
    zfactors[:, :n, :n] += T[1:]
    zfactors[:, n:, :n] += lag2[1:] @ Y[2:gap, n:]

    # state-update coefficients, affine in the increment, as (const,
    # noise) pairs for every source level l at once (column block l)
    scale, divisor = ladder.scale, ladder.divisor
    pair = (scale * (ladder.coeffs.maps12 @ R)
            + ((scale * b12[-1]) @ Wc[:n] + (b22 / divisor) @ Wc[n:]))
    pair[..., :n] += (scale * b11) @ W00[:n] + (b21 / divisor) @ W00[n:]
    ladder.coef[k] = pair.reshape(2, n, gap + 1, n).transpose(2, 0, 1, 3)


def riccati_step(ladder: RiccatiLadder, k: int) -> None:
    """Write layer k of ``ladder`` from its layer k+1 and closed-loop step k.

    The lag families shift by one offset per step: offset m at the new
    layer reads offset m-1 at the next layer, with the coupled branch
    active only for 0 < m < d1-d2.
    """
    d1, d2, gap = ladder.grid.d1, ladder.grid.d2, ladder.gap
    delta = ladder.grid.delta
    a_hat, a_bar = ladder.a_mat
    a_hat_t, a_bar_t = ladder.a_t
    coef = ladder.coef[k]
    P_next = ladder.phat[k + 1]
    lag_next = ladder.phat_lag[k + 1]
    cc_next = ladder.ccheck_lag[k + 1]
    phat = ladder.phat[k]
    phat_lag = ladder.phat_lag[k]
    ccheck_lag = ladder.ccheck_lag[k]

    # every expression below carries the leading player axis
    abar_p = a_bar_t @ P_next
    phat[:] = (a_hat_t @ P_next @ a_hat
               + delta * (abar_p @ a_bar)
               + a_hat_t @ (lag_next[:, d1] + cc_next[:, d2]) @ a_hat
               + ladder.delta_q)

    # const-part tails sum(Mm[j], j >= m) + H + A_hat, m = 1..gap-1, used
    # by the coupled branch
    tails = (a_hat + coef[gap, 0]
             + np.add.accumulate(coef[gap - 1:0:-1, 0], axis=0)[::-1])

    # the left factors a_hat' S + dw a_bar' P_next of the three lag-entry
    # products, one (const, noise) pair per aggregate S: S^1 for the
    # coarsest product, then S^1..S^gap
    left = ladder.left
    left[:, :, 0] = a_hat_t @ ladder.agg[k + 1][:, ladder.level_agg]
    left[:, :, 1] = abar_p[:, None]
    products = expectation_of_product(left, coef, delta)
    phat_lag[:, 0] = products[:, 0]
    # coupled branch, batched over offsets m = 1..gap-1
    phat_lag[:, 1:gap] = (products[:, 1:gap]
                          + a_hat_t @ lag_next[:, :gap - 1] @ tails)
    # free-branch transport of both lag families, batched over offsets
    phat_lag[:, gap:] = a_hat_t @ lag_next[:, gap - 1:d1] @ a_hat
    ccheck_lag[:, 0] = products[:, gap]
    ccheck_lag[:, 1:] = a_hat_t @ cc_next[:, :d2] @ a_hat

    # aggregates from suffix sums of the first lag family: index m-1 holds
    # S^m = phat + sum(phat_lag[m-1:]) + sum(ccheck_lag)
    suffix = np.add.accumulate(phat_lag[:, ::-1], axis=1)[:, ::-1]
    ladder.agg[k] = (phat[:, None] + suffix[:, :gap]
                     + np.add.reduce(ccheck_lag, axis=1)[:, None])


def implied_gains(ladder: RiccatiLadder) -> None:
    """Write ``u1_gain`` and ``u2_gain`` of every step at once from the
    estimate pairs the chain stored and the layers one step ahead."""
    n, gap, delta = ladder.n, ladder.gap, ladder.grid.delta
    coeffs = ladder.coeffs
    (B1, B1bar), (B2, B2bar) = coeffs.b1, coeffs.b2
    W00, Wc = ladder.w_hat, ladder.w_check
    P1, P2 = ladder.phat[1:, 0], ladder.phat[1:, 1]
    ladder.u1_gain[:] = -coeffs.R1inv @ (
        B1.T @ (ladder.shat[1:, 0] @ W00[:, :n])
        + B1bar.T @ (P1 @ W00[:, n:]) / delta)
    u2 = -coeffs.R2inv @ (
        B2.T @ (ladder.scheck[1:, 1] @ Wc[:, :n] + ladder.coupling)
        + B2bar.T @ (P2 @ Wc[:, n:] / delta))
    ladder.u2_gain[:] = u2.reshape(len(u2), -1, gap + 1, n).swapaxes(1, 2)


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
            solve_estimate_chain(ladder, k)
            riccati_step(ladder, k)
        implied_gains(ladder)
    if not ladder.finite(0):
        raise NonFiniteLayer(0)
    return ladder


def solve_ladder(spec: GameSpec, grid: Grid) -> RiccatiLadder:
    """Convenience wrapper: reduce the spec's coefficients and sweep."""
    return backward_sweep(SweepCoefficients.from_spec(spec), grid)
