"""Closed-loop simulation with a sliding window of state estimates.

A path batch carries, at step k, the window of conditional expectations
E_j[x_k] for information levels j = k-d1-1 .. k-1; the top entry is x_k
itself (the state is measurable at level k-1). Window propagation is the
exact conditional expectation of the simulated recursion: entries at
levels that cannot see the new increment advance with the coefficients'
increment-free parts, inner estimates coarsen by the tower property, and
the top entry advances with the realized increment. Before the warm-up
has filled, negative levels collapse to the deterministic mean, so every
entry starts at x0.

Both closed-loop representations share this machinery: the ladder form
advances the state by the solved recursion coefficients, the gain form by
an Euler step of the controlled equation with the law's gains applied to
the window (kernel integrated by trapezoid on its lattice). The gain
stepper runs a base law and its unilateral deviations side by side in
stacked window slots. ``rollout`` is the one time-stepping loop, for
every stepper.

Inside the steppers every array is slot-stacked and paths-last: windows
(slots, d1+1, n, P), controls (slots, c, P), so a gain applies to a whole
batch as one ``(c, n) @ (n, P)`` product (an elementwise product when the
inner dimension is 1). ``Trajectory`` records the base slot paths-first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .discrete_engine import RiccatiLadder
from .gains import FeedbackLaw
from .model import GameSpec, Grid

# Byte budget of a path block's stacked windows in paired_deviation_costs,
# at slots·(d1+1)·n·8 bytes per path: 3 blocks of 3,392 paths for the
# golden problem at δ 0.005 and 10,000 paths. Block widths are multiples of
# 64 paths: those kept every per-path cost bit-identical to the one-block
# run for n = 1, 2 and 3, where widths of 8, 250 or 1,000 paths moved n >= 2
# costs by up to 7.7e-16 relative (the matmul kernels round differently).
BLOCK_BYTES = 1_500_000


@dataclass
class Trajectory:
    """Batch of simulated paths on a common grid.

    ``x[k]`` is the state at step k (shape (paths, n)); ``u1``/``u2`` and
    the increments ``dw`` cover steps 0..N.
    """

    grid: Grid
    seed: int
    x: np.ndarray                    # (N+2, P, n)
    u1: np.ndarray                   # (N+1, P, d1c)
    u2: np.ndarray                   # (N+1, P, d2c)
    dw: np.ndarray                   # (N+1, P)

    @property
    def n_paths(self) -> int:
        return self.x.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.x[-1]


def increment_rows(grid: Grid, n_paths: int, seed: int):
    """The batch's Brownian increments one step at a time: row k, (P,), is
    row k of ``draw_increments``' block, bit for bit."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(grid.delta)
    for _ in range(grid.N + 1):
        yield rng.standard_normal(n_paths) * scale


def draw_increments(grid: Grid, n_paths: int, seed: int) -> np.ndarray:
    """All Brownian increments for a batch as one (N+1, P) block."""
    dw = np.empty((grid.N + 1, n_paths))
    for k, row in enumerate(increment_rows(grid, n_paths, seed)):
        dw[k] = row
    return dw


def initial_window(x0: np.ndarray, n_paths: int, d1: int,
                   slots: int = 1) -> np.ndarray:
    """Warm-up window, (slots, d1+1, n, P): every level of every slot holds
    the (deterministic) initial state."""
    win = np.empty((slots, d1 + 1, len(x0), n_paths))
    win[:] = np.asarray(x0, dtype=float)[:, None]
    return win


def _apply(m: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """``m @ x`` on paths-last operands. With inner dimension 1 it is the
    elementwise product, bit-identical to the matmul and faster."""
    if m.shape[-1] == 1:
        return np.multiply(m, x, out=out)
    return np.matmul(m, x, out=out)


def level_sums(win: np.ndarray, levels: np.ndarray, gains: np.ndarray):
    """Known part and finer-gain tail of a window sum, for every level.

    Term t applies ``gains[..., t, :, :]`` to window level ``levels[t]``
    (ascending, starting at 0). Given level j, the terms at levels <= j
    read their own entries and every finer entry coarsens to ``win[j]``
    (tower property):

        E[sum_t gains[t] @ win[levels[t]] | level j]
            = known[j] + tails[j] @ win[j]

    ``win`` is (..., d1+1, n, P) and ``gains`` (..., T, c, n), with
    broadcasting leading (slot) axes. Returns ``known`` (..., L+1, c, P)
    and ``tails`` (..., L+1, c, n) for j = 0..L, each summed in term order;
    ``known[L]`` is the realized sum and ``tails[L]`` is zero.
    """
    j = np.arange(levels[-1] + 1)
    known = np.empty(np.broadcast_shapes(win.shape[:-3], gains.shape[:-3])
                     + (len(levels), gains.shape[-2], win.shape[-1]))
    for t, level in enumerate(levels):     # running sum over the terms
        _apply(gains[..., t, :, :], win[..., level, :, :],
               out=known[..., t, :, :])
        if t:
            known[..., t, :, :] += known[..., t - 1, :, :]
    finer = (levels > j[:, None])[:, :, None, None]
    tails = np.where(finer, gains[..., None, :, :, :], 0.0).sum(axis=-3)
    return known[..., np.searchsorted(levels, j, side="right") - 1, :, :], \
        tails


def _add_by_level(entries: np.ndarray, per_level: np.ndarray) -> None:
    """Add to the window entries at levels 1..d1 (axis -3 of ``entries``)
    a per-level array's value at the level each entry's conditional
    expectation saturates at: entry level j reads level min(j, gap) of
    ``per_level`` (axis -3, levels 0..gap)."""
    gap = per_level.shape[-3] - 1
    entries[..., :gap - 1, :, :] += per_level[..., 1:gap, :, :]
    entries[..., gap - 1:, :, :] += per_level[..., gap:, :, :]


def _top_entry(new: np.ndarray, d1: int, dw_k: np.ndarray,
               diff: np.ndarray) -> None:
    """The state entry: the advanced finest estimate plus the realized
    increment times the increment coefficient."""
    np.multiply(dw_k, diff, out=new[:, d1])
    new[:, d1] += new[:, d1 - 1]


class LadderStepper:
    """Advances a window batch by the solved closed-loop recursion."""

    slots = 1

    def __init__(self, ladder: RiccatiLadder):
        self.ladder = ladder
        self.grid = ladder.grid
        self.gap = ladder.gap
        self.term_levels = np.arange(self.gap + 1)

    def step(self, k: int, win: np.ndarray, dw_k: np.ndarray):
        """Returns (u1, u2, new window, diffusion coefficient of the update).

        Entry at level j advances with increment-free coefficients and the
        window sum's expectation at level j; the top entry adds the
        realized increment times the increment parts.
        """
        lad, d1, gap = self.ladder, self.grid.d1, self.gap
        u1 = _apply(lad.u1_gain[k], win[:, 0])
        u2 = _apply(lad.u2_gain[k], win[:, :gap + 1]).sum(axis=-3)
        a_c, a_n = lad.a_mat
        coef = lad.coef[k]
        known, tails = level_sums(win, self.term_levels, coef[:, 0])
        trans = np.repeat(a_c[None], d1, axis=0)
        _add_by_level(trans, tails)
        new = np.empty_like(win)
        _apply(trans, win[:, 1:], out=new[:, :d1])
        _add_by_level(new[:, :d1], known)
        del known
        # the state's own term first, then the levels in order
        diff = _apply(a_n, win[:, d1])
        for term in _apply(coef[:, 1], win[:, :gap + 1]).swapaxes(0, 1):
            diff += term
        _top_entry(new, d1, dw_k, diff)
        return u1, u2, new, diff


class GainStepper:
    """Advances a base gain law and ``(player, dev_law)`` deviations from it
    side by side, by an Euler step of the controlled equation.

    Every law has a window slot, (1+D, d1+1, n, P), and controls and
    increment coefficients are stacked by slot; the laws' gains and offsets
    are stacked on the same slot axis. Slot 0 is the base law, then player
    2's deviations, then player 1's (``dev_slots`` maps each deviation to
    its slot). A unilateral deviation holds the opponent to its equilibrium
    CONTROL process, not its feedback rule: in a deviation slot the
    opponent's controls are the base slot's. So player 2's control levels
    are computed for the leading ``u2_slots`` slots only, and player 1's
    control for the base and player-1 slots only.
    """

    def __init__(self, law: FeedbackLaw, spec: GameSpec, deviations=()):
        players = np.array([player for player, _ in deviations], dtype=int)
        if np.any((players != 1) & (players != 2)):
            raise ValueError("player must be 1 or 2")
        order = np.argsort(players == 1, kind="stable")
        self.players = players
        self.dev_slots = np.empty(len(players), dtype=int)
        self.dev_slots[order] = np.arange(1, len(players) + 1)
        laws = [law] + [deviations[i][1] for i in order]
        self.law = law
        self.slots = len(laws)
        self.u2_slots = 1 + int(np.sum(players == 2))
        self.spec = spec
        self.grid = law.grid
        self.gap = self.grid.d1 - self.grid.d2
        # player 2's gain terms by window level: coarse lag, kernel, fine lag
        self.term_levels = np.r_[0, np.arange(self.gap + 1), self.gap]
        weights = law.kernel_weights()
        u2_laws = laws[:self.u2_slots]
        self.k1 = np.stack([lw.k1 for lw in laws], axis=1)
        self.offset1 = np.stack([lw.offset1 for lw in laws], axis=1)[..., None]
        self.k2 = np.stack([np.concatenate(
            [lw.k2_h1[:, None], weights[:, None, None] * lw.k2_kernel,
             lw.k2_h2[:, None]], axis=1) for lw in u2_laws], axis=1)
        self.offset2 = np.stack([lw.offset2 for lw in u2_laws],
                                axis=1)[:, :, None, :, None]

    def u_levels(self, k: int, win: np.ndarray):
        """Controls and their conditional expectations per window level.

        Returns ``(u1, u2_lv)``: ``u1`` (1+D, d1c, P) is every slot's
        realized first control (measurable already at the coarsest level,
        so constant across levels); ``u2_lv[s, l]`` (u2_slots, gap+1, d2c,
        P) is E[u2 | level l] in slot s for the saturating level index
        l = 0..gap, and ``u2_lv[:, gap]`` is the realized control.
        """
        gap, s2 = self.gap, self.u2_slots
        u1 = np.empty((self.slots, self.k1.shape[-2], win.shape[-1]))
        for own in (slice(1), slice(s2, None)):    # base, player-1 slots
            _apply(self.k1[k, own], win[own, 0], out=u1[own])
            u1[own] += self.offset1[k, own]
        u1[1:s2] = u1[0]
        u2_lv, tails = level_sums(win[:s2], self.term_levels, self.k2[k])
        u2_lv += self.offset2[k]
        u2_lv[:, :gap] += _apply(tails[:, :gap], win[:s2, :gap])
        return u1, u2_lv

    def step(self, k: int, win: np.ndarray, dw_k: np.ndarray):
        """Returns (u1, u2, new window, diffusion coefficient of the update),
        every one stacked by slot."""
        spec, d1, gap, s2 = self.spec, self.grid.d1, self.gap, self.u2_slots
        u1, u2_lv = self.u_levels(k, win)
        u2 = np.empty(u1.shape[:1] + u2_lv.shape[-2:])
        u2[:s2] = u2_lv[:, gap]
        u2[s2:] = u2_lv[0, gap]
        # entries 1..d1 advance one level down: A x + B1 u1 + B2 E[u2 | the
        # entry's level], times delta, plus the entry itself. The u2 levels
        # are the slot's own, or, in a player-1 deviation slot, the base
        # slot's.
        new = np.empty_like(win)
        head = new[:, :d1]
        _apply(spec.A, win[:, 1:], out=head)
        head += _apply(spec.B1, u1)[:, None]
        u2_drift = _apply(spec.B2, u2_lv)
        _add_by_level(head[:s2], u2_drift)
        _add_by_level(head[s2:], u2_drift[0])
        del u2_drift
        head *= self.grid.delta
        head += win[:, 1:]
        diff = _apply(spec.Abar, win[:, d1])
        diff += _apply(spec.B1bar, u1)
        diff += _apply(spec.B2bar, u2)
        _top_entry(new, d1, dw_k, diff)
        return u1, u2, new, diff


def rollout(stepper, x0: np.ndarray, dw):
    """Step a path batch through the grid on the given increments.

    ``dw`` is the (N+1, P) block or any iterable of its rows (such as
    ``increment_rows``). Yields ``(k, win, u1, u2, win_next, diff, dw_k)``
    for k = 0..N, stacked by slot and paths-last: the window at step k,
    the realized controls, the window at step k+1, the increment
    coefficient of the state update and the step's increment row (P,).
    Every Monte Carlo consumer reads its paths from this one loop.
    """
    for k, dw_k in enumerate(dw):
        if k == 0:
            win = initial_window(x0, len(dw_k), stepper.grid.d1,
                                 stepper.slots)
        u1, u2, win_next, diff = stepper.step(k, win, dw_k)
        yield k, win, u1, u2, win_next, diff, dw_k
        win = win_next
        del u1, u2, diff    # not held while the next step is computed


def _run(stepper, x0: np.ndarray, seed: int, n_paths: int) -> Trajectory:
    grid = stepper.grid
    dw = draw_increments(grid, n_paths, seed)
    n_steps = grid.N + 1
    x = np.empty((n_steps + 1, n_paths, len(x0)))
    for k, win, u1, u2, win_next, _, _ in rollout(stepper, x0, dw):
        # the base slot, as views in the paths-first layout
        u1, u2 = u1[0].T, u2[0].T
        if k == 0:
            u1s = np.empty((n_steps,) + u1.shape)
            u2s = np.empty((n_steps,) + u2.shape)
        x[k], u1s[k], u2s[k] = win[0, grid.d1].T, u1, u2
    x[n_steps] = win_next[0, grid.d1].T
    return Trajectory(grid=grid, seed=seed, x=x, u1=u1s, u2=u2s, dw=dw)


def simulate_path_ladder(ladder: RiccatiLadder, x0, seed: int,
                         n_paths: int = 1) -> Trajectory:
    """Simulate the explicit closed-loop recursion; controls are the ones
    the recursion implies, read back through the window gains."""
    return _run(LadderStepper(ladder), np.asarray(x0, dtype=float),
                seed, n_paths)


def simulate_path_gains(law: FeedbackLaw, spec: GameSpec, seed: int = 0,
                        n_paths: int = 1) -> Trajectory:
    """Euler simulation of the controlled equation under the feedback law,
    from the spec's initial state."""
    return _run(GainStepper(law, spec), spec.x0, seed, n_paths)


def _quad(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v' M v per path for paths-last ``v`` (..., n, P). With n = 1 it is
    the elementwise product, bit-identical to the einsum and faster (the
    rule of ``_apply``)."""
    if M.shape[-1] == 1:
        return ((v * M) * v)[..., 0, :]
    return np.einsum("...ip,ij,...jp->...p", v, M, v)


def path_costs(traj: Trajectory,
               spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-path quadratic costs of both players along a simulated batch.

    Rectangle rule in time (left endpoints), matching the Euler order;
    the running cost is summed over the steps in time order.
    """
    def cost(Q, u, R, H):
        run = _quad(traj.x[:-1].swapaxes(-1, -2), Q)
        run += _quad(u.swapaxes(-1, -2), R)
        run *= traj.grid.delta
        return 0.5 * (run.sum(axis=0) + _quad(traj.terminal.T, H))

    return (cost(spec.Q1, traj.u1, spec.R1, spec.H1),
            cost(spec.Q2, traj.u2, spec.R2, spec.H2))


def paired_deviation_costs(base_law: FeedbackLaw, deviations,
                           spec: GameSpec, n_paths: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each deviating player's per-path costs (D, P) under the base pair and
    under its ``(player, dev_law)`` deviation, from one paired rollout of a
    ``GainStepper`` on one noise draw, so each margin's standard error
    comes from paired differences. Running costs are summed in time order,
    as in ``path_costs``. Only the costs returned are summed: both players'
    on the base slot, player 2's on its deviation slots ``1..u2_slots-1``
    and player 1's on the slots after them.

    The paths run in blocks, one after another, each through the whole
    horizon on its own columns of the one increment stream (regenerated
    per block), so a stacked window holds at most ``BLOCK_BYTES``, or 64
    paths if one path's window is larger.
    """
    stepper = GainStepper(base_law, spec, deviations)
    weights = ((spec.Q1, spec.R1, spec.H1), (spec.Q2, spec.R2, spec.H2))
    s2, grid = stepper.u2_slots, stepper.grid
    own_slots = ((0, slice(1)), (0, slice(s2, None)), (1, slice(s2)))
    own = stepper.players - 1
    base, dev = np.empty((2, len(own), n_paths))
    d1, delta = grid.d1, grid.delta
    per_path = stepper.slots * (d1 + 1) * len(spec.x0) * 8
    width = max(64, BLOCK_BYTES // per_path // 64 * 64)
    for a in range(0, n_paths, width):
        cols = slice(a, min(a + width, n_paths))
        sums = np.zeros((2, stepper.slots, cols.stop - a))    # player, slot
        for _, win, *u, win_next, _, _ in rollout(
                stepper, spec.x0,
                (row[cols] for row in increment_rows(grid, n_paths, seed))):
            for i, s in own_slots:
                q, r, _ = weights[i]
                sums[i, s] += delta * (_quad(win[s, d1], q)
                                       + _quad(u[i][s], r))
            del win, u    # not held while the next step is computed
        for i, s in own_slots:
            sums[i, s] += _quad(win_next[s, d1], weights[i][2])
        base[:, cols] = 0.5 * sums[own, 0]
        dev[:, cols] = 0.5 * sums[own, stepper.dev_slots]
    return base, dev


@dataclass(frozen=True)
class CostEstimate:
    j1: float
    j1_se: float | None
    j2: float
    j2_se: float | None
    n_paths: int
    seed: int


def mean_se(samples: np.ndarray) -> tuple[float, float | None]:
    """Monte Carlo mean of per-path samples (P,) and its standard error,
    None below two paths."""
    n_paths = len(samples)
    return float(np.mean(samples)), (
        float(np.std(samples, ddof=1) / np.sqrt(n_paths))
        if n_paths >= 2 else None)


def estimate_costs(traj: Trajectory, spec: GameSpec) -> CostEstimate:
    """Monte Carlo mean and standard error of both players' costs."""
    (j1, j1_se), (j2, j2_se) = map(mean_se, path_costs(traj, spec))
    return CostEstimate(j1=j1, j1_se=j1_se, j2=j2, j2_se=j2_se,
                        n_paths=traj.n_paths, seed=traj.seed)


PERTURBATION_KINDS = ("constant_shift", "gain_scale", "time_bump")


def perturb_control(base: FeedbackLaw, player: int, kind: str,
                    magnitude: float) -> FeedbackLaw:
    """A unilaterally modified law; the altered control still reads only
    window entries at (or coarser than) that player's information lag.

    ``constant_shift`` adds the magnitude to every control component at
    all times, ``gain_scale`` multiplies the player's gains, ``time_bump``
    adds the magnitude on the middle fifth of the horizon.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    law = replace(base, **{name: getattr(base, name).copy() for name in (
        "k1", "k2_h1", "k2_kernel", "k2_h2", "offset1", "offset2")})
    if kind == "gain_scale":
        for gain in ((law.k1,) if player == 1
                     else (law.k2_h1, law.k2_kernel, law.k2_h2)):
            gain *= magnitude
    else:
        t = law.t_samples
        mask = ((t >= 0.4 * t[-1]) & (t <= 0.6 * t[-1])
                if kind == "time_bump" else slice(None))
        (law.offset1 if player == 1 else law.offset2)[mask] += magnitude
    return law
