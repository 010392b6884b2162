"""Oracles and residual tests for every computable claim of the theory.

Conditional-expectation identities are tested by martingale projection:
a residual that should vanish under conditioning at level s is paired
with test variables measurable at level s (the constant and the window
entries the solution actually uses); the identity holds iff every
projection vanishes up to Monte Carlo noise plus a step-size-calibrated
systematic allowance. The no-delay reduction oracle (the classical
coupled game, by RK4) is implemented here from first principles,
independent of the production sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .discrete_engine import LAYER_FIELDS, RiccatiLadder, solve_ladder
from .gains import FeedbackLaw, assemble_gains, effective_gains
from .continuous_limit import extract_fields
from .model import GameSpec, Grid, build_grid
from . import simulator
from .simulator import (GainStepper, LadderStepper, _apply, draw_increments,
                        mean_se, paired_costs, paired_deviation_costs,
                        perturb_control, rollout, simulate_path_gains,
                        simulate_path_ladder)

# A projection's net statistic |mean| - 3*se is compared with C*delta; C
# calibrated once on the golden scalar instance by a step-halving pair (see
# tests/test_acceptance.py): measured net/delta was 0.005 for the
# backward-equation projections and 2.32..2.38 for the law-mode
# stationarity projections, and a corrupted ladder or a 10% gain mutation
# overshoots C*delta by far more than the required factors.
FBSDE_BAND_C = 0.05
STATIONARITY_BAND_C = 3.0
# Path-wise gap between the two closed-loop representations, per unit step
# (measured ~2.0 per unit step on the golden instance).
CROSS_REP_C = 4.0


@dataclass
class DeviationVerdict:
    """Cost estimates of one unilateral control deviation under common
    noise: ``margin`` is the deviating player's cost increase and
    ``combined_se`` its paired standard error."""

    player: int
    description: str
    j_base: float
    se_base: float
    j_dev: float
    se_dev: float
    margin: float
    combined_se: float


def costate_matrices(ladder: RiccatiLadder) -> np.ndarray:
    """The layer-(k+1) costate formula of every step as one matrix,
    (N+1, 2n, (d1+1)·n): row block i is player i, column block j the
    step-(k+1) window level j, holding ``phat_lag[k+1][i][j]``, plus
    ``ccheck_lag[k+1][i][j-gap]`` on the finest d2+1 levels, plus
    ``phat[k+1][i]`` on the state level d1. Step k's costates are this
    matrix applied to the level-major paths-last window, (2n, P)."""
    gap, n = ladder.gap, ladder.n
    cm = ladder.phat_lag[1:].swapaxes(-3, -2).copy()   # (N+1, 2, n, d1+1, n)
    cm[..., gap:, :] += ladder.ccheck_lag[1:].swapaxes(-3, -2)
    cm[..., -1, :] += ladder.phat[1:]
    return cm.reshape(len(cm), 2 * n, -1)


def _projection_stats(res: np.ndarray, rows: np.ndarray):
    """max |E[res x Z]|, the matching max standard error and the max of
    |mean| - 3 se, for paths-last residuals ``res`` (r, P) and test
    variables Z: the constant and the ``rows`` (m, P). The standard error
    is the two-pass one, so a residual that is constant on the paths gives
    se = 0 (exactly, when its sum over the paths is exact)."""
    n_paths = res.shape[-1]
    prod = np.empty((len(res), 1 + len(rows), n_paths))
    prod[:, 0] = res
    np.multiply(res[:, None], rows, out=prod[:, 1:])
    mean = prod.mean(axis=-1, keepdims=True)
    prod -= mean
    prod *= prod
    se = np.sqrt(prod.sum(axis=-1) / (n_paths - 1)) / np.sqrt(n_paths)
    mean = np.abs(mean[..., 0])
    return float(np.max(mean)), float(np.max(se)), \
        float(np.max(mean - 3.0 * se))


def projection_net(rows: np.ndarray, grid: Grid) -> float:
    """The verdict statistic of per-step ``(k, raw, se, net)`` projection
    rows: the worst positive part of the net statistic over the steps at
    or past d1 (0.0 when there are none); a NaN there propagates."""
    ks, nets = rows[:, 0], rows[:, 3]
    return float(np.max(np.maximum(nets[ks >= grid.d1], 0.0), initial=0.0))


def fbsde_residual_test(ladder: RiccatiLadder, spec: GameSpec,
                        n_paths: int, seed: int) -> np.ndarray:
    """Martingale projections of the backward-equation residual.

    Along simulated closed-loop paths, the residual
    ``p_{k-1} - A_k' p_k - delta*Q x_k`` must be orthogonal to every
    variable measurable one step back; it is projected on the constant
    and the step-k window components. Returns one row ``(k, raw, se,
    net)`` per step k >= 1, with net = ``|mean| - 3 se``; ``verify``
    compares ``projection_net`` of the rows, which reads no step below
    d1, with ``FBSDE_BAND_C * delta``. Both players' residuals are
    projected together.
    """
    grid = ladder.grid
    cm = costate_matrices(ladder)
    a_t, abar_t = ladder.a_mat[0].T, spec.Abar.T
    q_mats = np.stack([spec.Q1, spec.Q2])
    rows = []    # (k, raw, se, net)
    p_prev = None
    for k, win, _, _, win_next, _, dw_k in rollout(
            LadderStepper(ladder), spec.x0,
            simulator.increment_rows(grid, n_paths, seed)):
        win = win[0]
        p_k = (cm[k] @ win_next[0].reshape(-1, n_paths)).reshape(
            2, -1, n_paths)
        if p_prev is not None:
            res = (p_prev - (_apply(a_t, p_k) + dw_k * _apply(abar_t, p_k))
                   - grid.delta * _apply(q_mats, win[grid.d1]))
            rows.append((k, *_projection_stats(
                res.reshape(-1, n_paths), win.reshape(-1, n_paths))))
        p_prev = p_k
    return np.array(rows)


def _stationarity_row(ladder: RiccatiLadder, spec: GameSpec, cm: np.ndarray,
                      step):
    """A rollout step's worst ``(k, raw, se, net)`` projection of both
    players' first-order-condition residuals, read off its base slot;
    ``cm`` is ``costate_matrices(ladder)``."""
    k, win, u1, u2, win_next, diff = step[0], *(a[0] for a in step[1:-1])
    n_paths = win.shape[-1]
    p_k = (cm[k] @ win_next.reshape(-1, n_paths)).reshape(2, -1, n_paths)
    q_k = _apply(ladder.phat[k + 1], diff)
    stats = [_projection_stats(
        _apply(r_mat.T, u) + _apply(b_mat.T, p_k[i])
        + _apply(bbar_mat.T, q_k[i]),
        win[:z_upto + 1].reshape(-1, n_paths))
        for i, (u, r_mat, b_mat, bbar_mat, z_upto) in enumerate((
            (u1, spec.R1, spec.B1, spec.B1bar, 1),
            (u2, spec.R2, spec.B2, spec.B2bar, ladder.gap + 1)))]
    return (k, *np.max(stats, axis=0))


def stationarity_residual_test(ladder: RiccatiLadder, law: FeedbackLaw,
                               spec: GameSpec, n_paths: int,
                               seed: int) -> np.ndarray:
    """Projections of each player's first-order-condition residual.

    ``R_i u_i + B_i' p_i + B_ibar' q_i`` is projected on the player's own
    admissible test variables (constant plus window entries at or coarser
    than that player's information lag), along paths and controls that
    follow the feedback law; one row ``(k, raw, se, net)`` per step.
    """
    cm = costate_matrices(ladder)
    return np.array([_stationarity_row(ladder, spec, cm, step)
                     for step in rollout(GainStepper(law, spec), spec.x0,
                                         draw_increments(ladder.grid, n_paths,
                                                         seed))])


DEFAULT_DEVIATIONS = (
    ("constant_shift", 0.1), ("constant_shift", -0.1),
    ("gain_scale", 0.9), ("gain_scale", 1.1), ("time_bump", 0.1),
)
# the default family: every DEFAULT_DEVIATIONS entry for both players
DEVIATION_FAMILY = tuple((player, kind, mag) for player in (1, 2)
                         for kind, mag in DEFAULT_DEVIATIONS)


def implied_law(ladder: RiccatiLadder, spec: GameSpec) -> FeedbackLaw:
    """The ladder's implied window gains wrapped as a feedback law.

    Reproduces the explicit closed loop exactly under the Euler stepper
    (interior window gains are divided by the kernel quadrature weights so
    the trapezoid recombines them unchanged). Useful as the discrete-level
    equilibrium reference in deviation tests.
    """
    grid, gap, n = ladder.grid, ladder.gap, ladder.n
    n_t, d1c, d2c = grid.N + 2, spec.d1c, spec.d2c
    law = FeedbackLaw(
        grid=grid,
        rt1=np.broadcast_to(spec.R1, (n_t, d1c, d1c)).copy(),
        rt2=np.broadcast_to(spec.R2, (n_t, d2c, d2c)).copy(),
        o1=np.zeros((n_t, d1c, n)), k1=np.zeros((n_t, d1c, n)),
        k2_h1=np.zeros((n_t, d2c, n)), k2_h2=np.zeros((n_t, d2c, n)),
        k2_kernel=np.zeros((n_t, gap + 1, d2c, n)),
    )
    weights = law.kernel_weights()
    law.k1[:-1] = ladder.u1_gain
    law.o1[:-1] = -spec.R1 @ ladder.u1_gain
    law.k2_h1[:-1] = ladder.u2_gain[:, 0]
    law.k2_h2[:-1] = ladder.u2_gain[:, gap]
    law.k2_kernel[:-1, 1:gap] = (ladder.u2_gain[:, 1:gap]
                                 / weights[1:gap, None, None])
    # the sample past the last step repeats the last step's gains
    for gain in (law.k1, law.k2_h1, law.k2_h2, law.k2_kernel):
        gain[-1] = gain[-2]
    return law


def _deviation_laws(law: FeedbackLaw, deviations):
    return [(player, perturb_control(law, player, kind, mag))
            for player, kind, mag in deviations]


def _verdicts(deviations, own_base, own_dev) -> list[DeviationVerdict]:
    return [DeviationVerdict(player, f"{kind} {mag:+g}", *mean_se(base),
                             *mean_se(dev), *mean_se(dev - base))
            for (player, kind, mag), base, dev
            in zip(deviations, own_base, own_dev)]


def nash_deviation_test(law: FeedbackLaw, spec: GameSpec, n_paths: int,
                        deviations=None,
                        seed: int = 0) -> list[DeviationVerdict]:
    """Monte Carlo deviation margins with common random numbers.

    Each deviation is unilateral: the opponent's control process stays at
    its base realization (paired simulation on common noise), and the
    margin's standard error comes from the paired per-path differences.
    """
    if deviations is None:
        deviations = DEVIATION_FAMILY
    return _verdicts(deviations, *paired_deviation_costs(
        law, _deviation_laws(law, deviations), spec, n_paths, seed))


def paired_law_checks(ladder: RiccatiLadder, law: FeedbackLaw,
                      spec: GameSpec, n_paths: int, seed: int):
    """``stationarity_residual_test(ladder, law, ...)`` and
    ``nash_deviation_test`` on the same seed from one paired rollout: the
    stationarity rows read the base slot, the own costs every slot."""
    cm = costate_matrices(ladder)
    rows = []

    def observe(*step):
        rows.append(_stationarity_row(ladder, spec, cm, step))

    stepper = GainStepper(law, spec, _deviation_laws(law, DEVIATION_FAMILY))
    own = paired_costs(stepper, spec, n_paths, seed, observe)
    return np.array(rows), _verdicts(DEVIATION_FAMILY, *own)


# ---------------------------------------------------------------------------
# the no-delay reduction oracle, implemented independently of the
# production sweep
# ---------------------------------------------------------------------------

def classical_game_gains(spec: GameSpec, n_steps: int):
    """Open-loop coupled Riccati pair of the no-delay LQ game, by RK4.

    Backward system: -dPi/dt = A'Pi + Pi A + Qi - Pi (S1 P1 + S2 P2) with
    Si = Bi Ri^{-1} Bi' and Pi(T) = Hi; gains Ki = -Ri^{-1} Bi' Pi.
    Intended for reductions with increment-free control maps.
    """
    n = spec.n
    S1 = spec.B1 @ np.linalg.solve(spec.R1, spec.B1.T)
    S2 = spec.B2 @ np.linalg.solve(spec.R2, spec.B2.T)
    A = spec.A

    def rhs(P):
        P1, P2 = P
        mix = S1 @ P1 + S2 @ P2
        d1 = A.T @ P1 + P1 @ A + spec.Q1 - P1 @ mix
        d2 = A.T @ P2 + P2 @ A + spec.Q2 - P2 @ mix
        return np.stack([d1, d2])

    h = spec.T / n_steps
    P = np.stack([np.asarray(spec.H1, dtype=float),
                  np.asarray(spec.H2, dtype=float)])
    out = np.empty((n_steps + 1, 2, n, n))
    out[n_steps] = P
    for k in range(n_steps, 0, -1):
        k1 = rhs(P)
        k2 = rhs(P + 0.5 * h * k1)
        k3 = rhs(P + 0.5 * h * k2)
        k4 = rhs(P + h * k3)
        P = P + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k - 1] = P
    t = np.linspace(0.0, spec.T, n_steps + 1)
    K1 = np.einsum("ij,tjk->tik", -np.linalg.solve(spec.R1, spec.B1.T), out[:, 0])
    K2 = np.einsum("ij,tjk->tik", -np.linalg.solve(spec.R2, spec.B2.T), out[:, 1])
    return t, K1, K2


def no_delay_oracle(spec: GameSpec, deltas) -> np.ndarray:
    """Gap between tiny-delay equilibrium gains and the classical no-delay
    coupled-game gains, per resolution (delays shrink with the step:
    h1 = 2*delta, h2 = delta)."""
    gaps = []
    for delta in deltas:
        tiny = dc_replace(spec, h1=2 * delta, h2=delta)
        grid = build_grid(tiny, delta)
        ladder = solve_ladder(tiny, grid)
        law = assemble_gains(extract_fields(ladder), tiny)
        k1_eff, k2_eff = effective_gains(law)
        t, K1c, K2c = classical_game_gains(spec, grid.N + 1)
        gaps.append(max(float(np.max(np.abs(k1_eff - K1c))),
                        float(np.max(np.abs(k2_eff - K2c)))))
    return np.array(gaps)


def z_factor_distances(ladder: RiccatiLadder) -> float:
    """Worst distance from identity of the chain's level-coupling factors
    past the provisional range."""
    z = ladder.zfactors[ladder.grid.d1:]
    return float(np.max(np.abs(z - np.eye(z.shape[-1])), initial=0.0))


def z_factor_convergence(ladders) -> np.ndarray:
    """Identity distances of the level-coupling factors per resolution."""
    return np.array([z_factor_distances(lad) for lad in ladders])


def zero_layer(ladder: RiccatiLadder, k: int) -> None:
    """Corrupt one layer in place: the mutation the residual tests must
    catch (bounds that a corrupted sweep still satisfies would be vacuous)."""
    for name in LAYER_FIELDS:
        getattr(ladder, name)[k] = 0.0


def cross_representation_gap(ladder: RiccatiLadder, law: FeedbackLaw,
                             spec: GameSpec, n_paths: int,
                             seed: int) -> float:
    """Max path-wise state gap between the two closed-loop simulators
    under common noise."""
    tl = simulate_path_ladder(ladder, spec.x0, seed=seed, n_paths=n_paths)
    tg = simulate_path_gains(law, spec, seed=seed, n_paths=n_paths)
    return float(np.max(np.abs(tl.x - tg.x)))
