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
the window (kernel integrated by trapezoid on its lattice). A paired
stepper runs a base gain law and its unilateral deviations side by side
in stacked window slots. ``rollout`` is the one time-stepping loop, for
every stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .discrete_engine import RiccatiLadder
from .gains import FeedbackLaw
from .model import GameSpec, Grid


@dataclass
class Trajectory:
    """Batch of simulated paths on a common grid.

    ``x[k]`` is the state at step k (shape (paths, n)); ``u1``/``u2`` and
    the increments ``dw`` cover steps 0..N; ``diff[k]`` records the
    increment coefficient of the state update (needed to reconstruct the
    second costate component). ``windows[k]`` holds the estimate window at
    step k when recording was requested.
    """

    grid: Grid
    seed: int
    x: np.ndarray                    # (N+2, P, n)
    u1: np.ndarray                   # (N+1, P, d1c)
    u2: np.ndarray                   # (N+1, P, d2c)
    dw: np.ndarray                   # (N+1, P)
    diff: np.ndarray                 # (N+1, P, n)
    windows: np.ndarray | None = None  # (N+2, d1+1, P, n)

    @property
    def n_paths(self) -> int:
        return self.x.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.x[-1]


def draw_increments(grid: Grid, n_paths: int, seed: int) -> np.ndarray:
    """All Brownian increments for a batch, one deterministic block draw."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.N + 1, n_paths)) * np.sqrt(grid.delta)


def initial_window(x0: np.ndarray, n_paths: int, d1: int,
                   slots: tuple = ()) -> np.ndarray:
    """Warm-up window: every level holds the (deterministic) initial state.
    ``slots`` prefixes the shape for a stepper that stacks several windows."""
    win = np.empty(slots + (d1 + 1, n_paths, len(x0)))
    win[:] = np.asarray(x0, dtype=float)
    return win


def level_sums(win: np.ndarray, levels: np.ndarray, gains: np.ndarray):
    """Known part and finer-gain tail of a window sum, for every level.

    Term t applies ``gains[t]`` to window level ``levels[t]`` (ascending,
    starting at 0). Given level j, the terms at levels <= j read their own
    entries and every finer entry coarsens to ``win[j]`` (tower property):

        E[sum_t win[levels[t]] @ gains[t].T | level j]
            = known[j] + win[j] @ tails[j].T

    Returns ``known`` (L+1, P, c) and ``tails`` (L+1, c, n) for j = 0..L,
    each summed in term order; ``known[L]`` is the realized sum and
    ``tails[L]`` is zero.
    """
    j = np.arange(levels[-1] + 1)
    known = win[levels] @ gains.swapaxes(1, 2)
    for t in range(1, len(known)):      # running sum; cumsum is slower here
        known[t] += known[t - 1]
    finer = (levels > j[:, None])[:, :, None, None]
    tails = np.where(finer, gains, 0.0).sum(axis=1)
    return known[np.searchsorted(levels, j, side="right") - 1], tails


def _entry_levels(grid: Grid) -> np.ndarray:
    """For the window entries at levels 1..d1, the level their conditional
    expectation of a window sum saturates at (the lag gap)."""
    return np.minimum(np.arange(1, grid.d1 + 1), grid.d1 - grid.d2)


class LadderStepper:
    """Advances a window batch by the solved closed-loop recursion."""

    slots = ()

    def __init__(self, ladder: RiccatiLadder):
        self.ladder = ladder
        self.grid = ladder.grid
        self.gap = ladder.gap
        self.levels = _entry_levels(self.grid)
        self.term_levels = np.arange(self.gap + 1)

    def controls(self, k: int, win: np.ndarray):
        lad = self.ladder
        u1 = win[0] @ lad.u1_gain[k].T
        u2 = (win[:self.gap + 1] @ lad.u2_gain[k].swapaxes(1, 2)).sum(axis=0)
        return u1, u2

    def step(self, k: int, win: np.ndarray, dw_k: np.ndarray):
        """Returns (u1, u2, new window, diffusion coefficient of the update).

        Entry at level j advances with increment-free coefficients and the
        window sum's expectation at level j; the top entry adds the
        realized increment times the increment parts.
        """
        u1, u2 = self.controls(k, win)
        d1, lv = self.grid.d1, self.levels
        a_c, a_n = self.ladder.a_mat
        coef = self.ladder.coef[k]
        known, tails = level_sums(win, self.term_levels, coef[:, 0])
        new = np.empty_like(win)
        new[:d1] = win[1:] @ (a_c + tails[lv]).swapaxes(1, 2) + known[lv]
        # the state's own term first, then the levels in order
        diff = sum(win[:self.gap + 1] @ coef[:, 1].swapaxes(1, 2),
                   win[d1] @ a_n.T)
        new[d1] = new[d1 - 1] + dw_k[:, None] * diff
        return u1, u2, new, diff


class GainStepper:
    """Advances a window batch by an Euler step under the feedback law."""

    slots = ()

    def __init__(self, law: FeedbackLaw, spec: GameSpec, grid: Grid):
        self.law = law
        self.spec = spec
        self.grid = grid
        self.gap = grid.d1 - grid.d2
        self.weights = law.kernel_weights(grid.delta)
        self.levels = _entry_levels(grid)
        # player 2's gain terms by window level: coarse lag, kernel, fine lag
        self.term_levels = np.r_[0, np.arange(self.gap + 1), self.gap]

    def u_levels(self, k: int, win: np.ndarray):
        """Controls and their conditional expectations per window level.

        Returns ``(u1, u2_lv)`` where ``u1`` is the realized first control
        (measurable already at the coarsest level, so constant across
        levels) and ``u2_lv[l]`` is E[u2 | level l] for the saturating
        level index l = 0..gap; ``u2_lv[gap]`` is the realized control.
        """
        law, gap = self.law, self.gap
        u1 = win[0] @ law.k1[k].T + law.offset1[k]
        gains = np.concatenate([law.k2_h1[k][None],
                                self.weights[:, None, None] * law.k2_kernel[k],
                                law.k2_h2[k][None]])
        known, tails = level_sums(win, self.term_levels, gains)
        u2_lv = known + law.offset2[k]
        u2_lv[:gap] += win[:gap] @ tails[:gap].swapaxes(1, 2)
        return u1, u2_lv

    def controls(self, k: int, win: np.ndarray):
        u1, u2_lv = self.u_levels(k, win)
        return u1, u2_lv[self.gap]

    def advance_with(self, win: np.ndarray, dw_k: np.ndarray,
                     u1: np.ndarray, u2_lv: np.ndarray):
        """Euler update of every window entry under given control levels."""
        spec, grid = self.spec, self.grid
        d1, gap = grid.d1, self.gap
        new = np.empty_like(win)
        u1_drift = u1 @ spec.B1.T
        u2_drift = u2_lv @ spec.B2.T           # (gap+1, P, n)
        base = win[1:] @ spec.A.T              # (d1, P, n)
        new[:d1] = win[1:] + grid.delta * (base + u1_drift
                                           + u2_drift[self.levels])
        x = win[d1]
        u2 = u2_lv[gap]
        drift = base[d1 - 1] + u1_drift + u2_drift[gap]
        diff = x @ spec.Abar.T + u1 @ spec.B1bar.T + u2 @ spec.B2bar.T
        new[d1] = x + grid.delta * drift + dw_k[:, None] * diff
        return new, diff

    def step(self, k: int, win: np.ndarray, dw_k: np.ndarray):
        u1, u2_lv = self.u_levels(k, win)
        return (u1, u2_lv[self.gap], *self.advance_with(win, dw_k, u1, u2_lv))


class PairedStepper:
    """Advances a base gain law and ``(player, dev_law)`` deviations from it
    side by side: the window stacks slot 0 for the base law and one slot
    per deviation, (1+D, d1+1, P, n), and controls and increment
    coefficients are stacked by slot. A unilateral deviation holds the
    opponent to its equilibrium CONTROL process, not its feedback rule: in
    a deviation slot the opponent's control is the base slot's."""

    def __init__(self, base_law: FeedbackLaw, deviations, spec: GameSpec,
                 grid: Grid):
        if any(player not in (1, 2) for player, _ in deviations):
            raise ValueError("player must be 1 or 2")
        self.grid = grid
        self.players = [player for player, _ in deviations]
        self.steppers = [GainStepper(law, spec, grid) for law
                         in [base_law] + [law for _, law in deviations]]
        self.slots = (len(self.steppers),)

    def step(self, k: int, win: np.ndarray, dw_k: np.ndarray):
        base, gap = self.steppers[0], self.steppers[0].gap
        u1_b, u2_b = base.u_levels(k, win[0])
        u1 = np.empty(self.slots + u1_b.shape)
        u2 = np.empty(self.slots + u2_b[gap].shape)
        new, diff = np.empty_like(win), np.empty_like(win[:, 0])
        for slot, player in enumerate(self.players, 1):
            u1_d, u2_d = self.steppers[slot].u_levels(k, win[slot])
            u1_d, u2_d = (u1_d, u2_b) if player == 1 else (u1_b, u2_d)
            new[slot], diff[slot] = self.steppers[slot].advance_with(
                win[slot], dw_k, u1_d, u2_d)
            u1[slot], u2[slot] = u1_d, u2_d[gap]
        new[0], diff[0] = base.advance_with(win[0], dw_k, u1_b, u2_b)
        u1[0], u2[0] = u1_b, u2_b[gap]
        return u1, u2, new, diff


def rollout(stepper, x0: np.ndarray, dw: np.ndarray):
    """Step a path batch through the grid on the given increments.

    Yields ``(k, win, u1, u2, win_next, diff)`` for k = 0..N: the window
    at step k, the realized controls, the window at step k+1 and the
    increment coefficient of the state update. Every Monte Carlo consumer
    reads its paths from this one loop.
    """
    win = initial_window(x0, dw.shape[1], stepper.grid.d1, stepper.slots)
    for k in range(stepper.grid.N + 1):
        u1, u2, win_next, diff = stepper.step(k, win, dw[k])
        yield k, win, u1, u2, win_next, diff
        win = win_next
        del u1, u2, diff    # not held while the next step is computed


def _run(stepper, x0: np.ndarray, seed: int, n_paths: int,
         record_windows: bool) -> Trajectory:
    grid = stepper.grid
    dw = draw_increments(grid, n_paths, seed)
    n_steps = grid.N + 1
    x = np.empty((n_steps + 1, n_paths, len(x0)))
    diff = np.empty((n_steps, n_paths, len(x0)))
    windows = (np.empty((n_steps + 1, grid.d1 + 1, n_paths, len(x0)))
               if record_windows else None)
    for k, win, u1, u2, win_next, diff_k in rollout(stepper, x0, dw):
        if k == 0:
            u1s = np.empty((n_steps,) + u1.shape)
            u2s = np.empty((n_steps,) + u2.shape)
        x[k], u1s[k], u2s[k], diff[k] = win[grid.d1], u1, u2, diff_k
        if windows is not None:
            windows[k] = win
    x[n_steps] = win_next[grid.d1]
    if windows is not None:
        windows[n_steps] = win_next
    return Trajectory(grid=grid, seed=seed, x=x, u1=u1s, u2=u2s, dw=dw,
                      diff=diff, windows=windows)


def simulate_path_ladder(ladder: RiccatiLadder, grid: Grid, x0, seed: int,
                         n_paths: int = 1,
                         record_windows: bool = False) -> Trajectory:
    """Simulate the explicit closed-loop recursion; controls are the ones
    the recursion implies, read back through the window gains."""
    return _run(LadderStepper(ladder), np.asarray(x0, dtype=float),
                seed, n_paths, record_windows)


def simulate_path_gains(law: FeedbackLaw, spec: GameSpec, grid: Grid,
                        x0=None, seed: int = 0, n_paths: int = 1,
                        record_windows: bool = False) -> Trajectory:
    """Euler simulation of the controlled equation under the feedback law."""
    x0 = spec.x0 if x0 is None else np.asarray(x0, dtype=float)
    return _run(GainStepper(law, spec, grid), x0, seed, n_paths,
                record_windows)


def mean_recursion(ladder: RiccatiLadder, x0) -> np.ndarray:
    """Deterministic mean propagation: the increment-free parts of the
    closed-loop coefficients applied to the running mean."""
    x0 = np.asarray(x0, dtype=float)
    const = ladder.coef[:, :, 0]
    totals = (ladder.a_mat[0] + const[:, 0] + const[:, 1:-1].sum(axis=1)
              + const[:, -1])
    out = np.empty((len(totals) + 1, len(x0)))
    out[0] = x0
    for k, total in enumerate(totals):
        out[k + 1] = total @ out[k]
    return out


def _quad(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ij,...j->...", v, M, v)


def path_costs(traj: Trajectory,
               spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-path quadratic costs of both players along a simulated batch.

    Rectangle rule in time (left endpoints), matching the Euler order;
    the running cost is summed over the steps in time order.
    """
    def cost(Q, u, R, H):
        run = _quad(traj.x[:-1], Q)
        run += _quad(u, R)
        run *= traj.grid.delta
        return 0.5 * (run.sum(axis=0) + _quad(traj.terminal, H))

    return (cost(spec.Q1, traj.u1, spec.R1, spec.H1),
            cost(spec.Q2, traj.u2, spec.R2, spec.H2))


def paired_costs(stepper: PairedStepper, spec: GameSpec, dw: np.ndarray,
                 observe=None) -> tuple[np.ndarray, np.ndarray]:
    """Roll a paired stepper out on ``dw``, calling ``observe`` with every
    step; per deviation (D, P), the deviating player's own cost under the
    base pair and under its deviation. Running costs are summed in time
    order, as in ``path_costs``."""
    weights = ((spec.Q1, spec.R1, spec.H1), (spec.Q2, spec.R2, spec.H2))
    sums = np.zeros((2, len(stepper.steppers), dw.shape[1]))  # player, slot
    d1, delta = stepper.grid.d1, stepper.grid.delta
    for step in rollout(stepper, spec.x0, dw):
        _, win, *u, win_next, _ = step
        for i, (q, r, _) in enumerate(weights):
            sums[i] += delta * (_quad(win[:, d1], q) + _quad(u[i], r))
        if observe is not None:
            observe(*step)
        del step, win, u    # not held while the next step is computed
    for i, (_, _, h) in enumerate(weights):
        sums[i] += _quad(win_next[:, d1], h)
    own = np.array(stepper.players, dtype=int) - 1
    return 0.5 * sums[own, 0], 0.5 * sums[own, np.arange(1, len(own) + 1)]


def paired_deviation_costs(base_law: FeedbackLaw, deviations,
                           spec: GameSpec, grid: Grid, n_paths: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each deviating player's per-path costs (D, P) under the base pair and
    under its ``(player, dev_law)`` deviation, from one paired rollout on
    one noise draw, so each margin's standard error comes from paired
    differences."""
    return paired_costs(PairedStepper(base_law, deviations, spec, grid),
                        spec, draw_increments(grid, n_paths, seed))


@dataclass(frozen=True)
class CostEstimate:
    j1: float
    j1_se: float | None
    j2: float
    j2_se: float | None
    n_paths: int
    seed: int


def estimate_costs(traj: Trajectory, spec: GameSpec) -> CostEstimate:
    """Monte Carlo mean and standard error of both players' costs."""
    n_paths = traj.n_paths

    def mean_se(c):
        return float(np.mean(c)), (float(np.std(c, ddof=1) / np.sqrt(n_paths))
                                   if n_paths >= 2 else None)

    (j1, j1_se), (j2, j2_se) = map(mean_se, path_costs(traj, spec))
    return CostEstimate(j1=j1, j1_se=j1_se, j2=j2, j2_se=j2_se,
                        n_paths=n_paths, seed=traj.seed)


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
