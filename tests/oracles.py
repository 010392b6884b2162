"""Independent straight-line oracles for the backward recursion.

Everything here is written directly from the displayed formulas, in a
deliberately different style from the package code: plain matrix inverses
instead of factorizations, explicit python sums, and the closed-form
coefficient displays (available for lag gaps 1 and 3) instead of the
back-substitution chain. For other gaps, ``chain_step`` solves the chain
one (level, source level) pair at a time through explicit inverses. Tests
compare the two implementations. The reference window steps sum one
term at a time in a fixed order (state term first, then the levels
upward), on paths-first windows and one law at a time (the opponent's
control levels of a deviation copied from the base law), as an exact
check on the slot-stacked, paths-last steppers; the reference paired
costs sum both players' costs on every slot, as an exact check on the
paired pass, which sums only the costs it returns. The reference CSV
writers format one row at a time through the csv module, as a
byte-level check on the vectorized exporters. The reference costate and
projection statistics work on paths-first arrays, one player at a time,
as a check on the paths-last projection tests. The reference gain assembly,
stationarity identity, closure conditioning, backward-ODE and semigroup
residuals (with scipy's matrix exponential) and transport residuals at the
end walk the time samples (and lag offsets) one at a time, as a check on
the batched post-sweep expressions. The boundary identities among them,
batched, and the transport residuals are checks that no command runs, as
are the reduction oracles after them (the one-delay single-player sweep,
the deterministic mean recursion and the kernel integrals of the fields).
``record_windows`` is not an oracle: it reads the estimate windows off the
production rollout for the tests that check them.
"""

import csv

import numpy as np
import scipy.linalg

from delaygame.simulator import (_quad, draw_increments, increment_rows,
                                 rollout)

_trapz = getattr(np, "trapezoid", getattr(np, "trapz", None))


def lift(P):
    """Block-diagonal lift diag(P, P) used by the kernel couplings."""
    return np.kron(np.eye(2), P)


def oracle_reduced(B1, B1bar, B2, B2bar, R1, R2):
    R1i = np.linalg.inv(np.atleast_2d(np.asarray(R1, float)))
    R2i = np.linalg.inv(np.atleast_2d(np.asarray(R2, float)))
    B1 = np.atleast_2d(np.asarray(B1, float))
    B1bar = np.atleast_2d(np.asarray(B1bar, float))
    B2 = np.atleast_2d(np.asarray(B2, float))
    B2bar = np.atleast_2d(np.asarray(B2bar, float))
    return {
        "B11": -B1 @ R1i @ B1.T, "B12": -B2 @ R2i @ B2.T,
        "B21": -B1 @ R1i @ B1bar.T, "B22": -B2 @ R2i @ B2bar.T,
        "Bb11": -B1bar @ R1i @ B1.T, "Bb12": -B2bar @ R2i @ B2.T,
        "Bb21": -B1bar @ R1i @ B1bar.T, "Bb22": -B2bar @ R2i @ B2bar.T,
    }


class OracleLayer:
    def __init__(self, n, d1, d2, H1, H2):
        self.n, self.d1, self.d2 = n, d1, d2
        self.P = [np.array(H1, float).reshape(n, n),
                  np.array(H2, float).reshape(n, n)]
        self.lagP = [[np.zeros((n, n)) for _ in range(d1 + 1)] for _ in range(2)]
        self.lagC = [[np.zeros((n, n)) for _ in range(d2 + 1)] for _ in range(2)]

    def Shat(self, i):
        out = self.P[i].copy()
        for j in range(self.d1 + 1):
            out = out + self.lagP[i][j]
        for j in range(self.d2 + 1):
            out = out + self.lagC[i][j]
        return out

    def Sm(self, i, m):
        out = self.P[i].copy()
        for j in range(m - 1, self.d1 + 1):
            out = out + self.lagP[i][j]
        for j in range(self.d2 + 1):
            out = out + self.lagC[i][j]
        return out

    def Scheck(self, i):
        return self.Sm(i, self.d1 - self.d2)


def oracle_blocks(layer, red, delta):
    n = layer.n
    I = np.eye(n)
    S1, S2 = layer.Shat(0), layer.Shat(1)
    P1, P2 = layer.P
    S2c = layer.Scheck(1)
    gap = layer.d1 - layer.d2
    Ghat = np.block([
        [I - delta * red["B11"] @ S1 - delta * red["B12"] @ S2,
         -(red["B21"] @ P1 + red["B22"] @ P2)],
        [-delta * (red["Bb11"] @ S1 + red["Bb12"] @ S2),
         I - red["Bb21"] @ P1 - red["Bb22"] @ P2]])
    Gm = {}
    for m in range(1, gap):
        S2m = layer.Sm(1, m)
        Gm[m] = np.block([
            [I - delta * red["B12"] @ S2m, -red["B22"] @ P2],
            [-delta * red["Bb12"] @ S2m, I - red["Bb22"] @ P2]])
    Gcheck = np.block([
        [I - delta * red["B12"] @ S2c, -red["B22"] @ P2],
        [-delta * red["Bb12"] @ S2c, I - red["Bb22"] @ P2]])
    G = np.block([
        [delta * red["B11"] @ S1, red["B21"] @ P1],
        [delta * red["Bb11"] @ S1, red["Bb21"] @ P1]])
    return Ghat, Gm, Gcheck, G


def closed_form_step(layer, red, A, Abar, delta):
    """Coefficients via the closed-form displays; gap must be 1 or 3.

    For gap 3 the pairing follows the worked back-substitution: the
    identity factor rides with the deepest mid level and the nontrivial
    coupling factor with the shallowest.
    """
    n = layer.n
    gap = layer.d1 - layer.d2
    if gap not in (1, 3):
        raise ValueError("closed forms only written out for gaps 1 and 3")
    Ghat, Gm, Gcheck, G = oracle_blocks(layer, red, delta)
    Ah = np.eye(n) + delta * np.asarray(A, float).reshape(n, n)
    Ab = np.asarray(Abar, float).reshape(n, n)
    col = np.vstack([Ah, delta * Ab])
    Ghi = np.linalg.inv(Ghat)
    Gci = np.linalg.inv(Gcheck)
    S1 = layer.Shat(0)
    S2c = layer.Scheck(1)
    P1, P2 = layer.P

    # leading block rows, split into increment-free and increment parts
    row_hat_c = np.hstack([delta * red["B11"] @ S1, red["B21"] @ P1])
    row_hat_n = np.hstack([red["Bb11"] @ S1, red["Bb21"] @ P1 / delta])
    row_chk_c = np.hstack([delta * red["B12"] @ S2c, red["B22"] @ P2])
    row_chk_n = np.hstack([red["Bb12"] @ S2c, red["Bb22"] @ P2 / delta])
    row_b12_c = np.hstack([delta * red["B12"], np.zeros((n, n))])
    row_b12_n = np.hstack([red["Bb12"], np.zeros((n, n))])
    Kc = np.zeros((2 * n, 2 * n))
    Kc[:n, :n] = delta * red["B12"]
    Kc[n:, :n] = delta * red["Bb12"]

    H_c = row_chk_c @ Gci @ col
    H_n = row_chk_n @ Gci @ col

    if gap == 1:
        core = Ghi @ col
        M_c = row_hat_c @ core + row_chk_c @ Gci @ G @ core
        M_n = row_hat_n @ core + row_chk_n @ Gci @ G @ core
        return (M_c, M_n), [], (H_c, H_n)

    P20, P21 = layer.lagP[1][0], layer.lagP[1][1]
    G1i = np.linalg.inv(Gm[1])
    G2i = np.linalg.inv(Gm[2])
    Z2 = np.eye(2 * n) + lift(P21) @ G2i @ Kc
    chain1 = Z2 @ lift(P20) @ G1i          # shallowest mid level
    chain2 = lift(P21) @ G2i               # deepest mid level
    prefix_c = row_b12_c + row_chk_c @ Gci @ Kc
    prefix_n = row_b12_n + row_chk_n @ Gci @ Kc

    core = Ghi @ col
    zsum = (chain2 + chain1) @ G
    M_c = row_hat_c @ core + row_chk_c @ Gci @ G @ core + prefix_c @ zsum @ core
    M_n = row_hat_n @ core + row_chk_n @ Gci @ G @ core + prefix_n @ zsum @ core
    M1 = (prefix_c @ chain1 @ col, prefix_n @ chain1 @ col)
    M2 = (prefix_c @ chain2 @ col, prefix_n @ chain2 @ col)
    return (M_c, M_n), [M1, M2], (H_c, H_n)


def oracle_layer_update(layer, step, red, A, Abar, Q1, Q2, delta):
    """One backward step of the lag-family recursion, transliterated."""
    n = layer.n
    d1, d2 = layer.d1, layer.d2
    gap = d1 - d2
    Ah = np.eye(n) + delta * np.asarray(A, float).reshape(n, n)
    Ab = np.asarray(Abar, float).reshape(n, n)
    (M_c, M_n), Mm, (H_c, H_n) = step
    Q = [np.asarray(Q1, float).reshape(n, n), np.asarray(Q2, float).reshape(n, n)]

    new = OracleLayer(n, d1, d2, np.zeros((n, n)), np.zeros((n, n)))
    for i in range(2):
        P = layer.P[i]
        new.P[i] = (Ah.T @ P @ Ah + delta * Ab.T @ P @ Ab
                    + Ah.T @ (layer.lagP[i][d1] + layer.lagC[i][d2]) @ Ah
                    + delta * Q[i])
        new.lagP[i][0] = Ah.T @ layer.Shat(i) @ M_c + delta * Ab.T @ P @ M_n
        for m in range(1, d1 + 1):
            if m < gap:
                bracket = Ah + H_c
                for j in range(m, gap):
                    bracket = bracket + Mm[j - 1][0]
                new.lagP[i][m] = (Ah.T @ layer.Sm(i, m) @ Mm[m - 1][0]
                                  + delta * Ab.T @ P @ Mm[m - 1][1]
                                  + Ah.T @ layer.lagP[i][m - 1] @ bracket)
            else:
                new.lagP[i][m] = Ah.T @ layer.lagP[i][m - 1] @ Ah
        new.lagC[i][0] = Ah.T @ layer.Scheck(i) @ H_c + delta * Ab.T @ P @ H_n
        for m in range(1, d2 + 1):
            new.lagC[i][m] = Ah.T @ layer.lagC[i][m - 1] @ Ah
    return new


def oracle_sweep(A, Abar, B1, B1bar, B2, B2bar, Q1, Q2, R1, R2, H1, H2,
                 delta, d1, d2, N):
    """Full backward pass via closed forms; gap limited to 1 or 3."""
    red = oracle_reduced(B1, B1bar, B2, B2bar, R1, R2)
    n = np.atleast_2d(np.asarray(A, float)).shape[0]
    layer = OracleLayer(n, d1, d2, H1, H2)
    layer_by_k = {N + 1: layer}
    step_by_k = {}
    for k in range(N, -1, -1):
        step = closed_form_step(layer, red, A, Abar, delta)
        step_by_k[k] = step
        layer = oracle_layer_update(layer, step, red, A, Abar, Q1, Q2, delta)
        layer_by_k[k] = layer
    return layer_by_k, step_by_k


def chain_step(layer, red, A, Abar, B1, B1bar, B2, B2bar, R1, R2, delta):
    """Any gap: the estimate chain one (level m, source level l) pair at a
    time, each through the explicit inverse of its level's block.

    Returns (coefficients in the shape of ``closed_form_step``, u1 gain,
    u2 gains by source level, zfactors).
    """
    n = layer.n
    gap = layer.d1 - layer.d2
    Ghat, Gm, Gcheck, G = oracle_blocks(layer, red, delta)
    Ginv = [np.linalg.inv(Ghat)]
    for m in range(1, gap):
        Ginv.append(np.linalg.inv(Gm[m]))
    Ginv.append(np.linalg.inv(Gcheck))
    Ah = np.eye(n) + delta * np.asarray(A, float).reshape(n, n)
    Ab = np.asarray(Abar, float).reshape(n, n)
    col = np.vstack([Ah, delta * Ab])
    S1 = layer.Shat(0)
    S2c = layer.Scheck(1)
    P1, P2 = layer.P
    lag2 = layer.lagP[1]
    Kc = np.zeros((2 * n, 2 * n))
    Kc[:n, :n] = delta * red["B12"]
    Kc[n:, :n] = delta * red["Bb12"]

    # W[m, l]: level-m estimate pair in terms of the level-l estimate
    W = {(0, 0): Ginv[0] @ col}
    for m in range(1, gap + 1):
        W[m, m] = Ginv[m] @ col
        for l in range(m):
            rhs = np.zeros((2 * n, n))
            if l == 0:
                rhs = rhs + G @ W[0, 0]
            for j in range(max(1, l), m):
                rhs = rhs + Kc @ lift(lag2[j - 1]) @ W[j, l]
            W[m, l] = Ginv[m] @ rhs

    row_hat_c = np.hstack([delta * red["B11"] @ S1, red["B21"] @ P1])
    row_hat_n = np.hstack([red["Bb11"] @ S1, red["Bb21"] @ P1 / delta])
    row_chk_c = np.hstack([delta * red["B12"] @ S2c, red["B22"] @ P2])
    row_chk_n = np.hstack([red["Bb12"] @ S2c, red["Bb22"] @ P2 / delta])
    row_b12_c = np.hstack([delta * red["B12"], np.zeros((n, n))])
    row_b12_n = np.hstack([red["Bb12"], np.zeros((n, n))])
    coeff = []
    for l in range(gap + 1):
        c = row_chk_c @ W[gap, l]
        e = row_chk_n @ W[gap, l]
        if l == 0:
            c = c + row_hat_c @ W[0, 0]
            e = e + row_hat_n @ W[0, 0]
        for j in range(gap - 1):
            if l <= j + 1:
                c = c + row_b12_c @ lift(lag2[j]) @ W[j + 1, l]
                e = e + row_b12_n @ lift(lag2[j]) @ W[j + 1, l]
        coeff.append((c, e))

    B1 = np.atleast_2d(np.asarray(B1, float)).reshape(n, -1)
    B1bar = np.atleast_2d(np.asarray(B1bar, float)).reshape(n, -1)
    B2 = np.atleast_2d(np.asarray(B2, float)).reshape(n, -1)
    B2bar = np.atleast_2d(np.asarray(B2bar, float)).reshape(n, -1)
    R1i = np.linalg.inv(np.atleast_2d(np.asarray(R1, float)))
    R2i = np.linalg.inv(np.atleast_2d(np.asarray(R2, float)))
    u1 = -R1i @ (B1.T @ S1 @ W[0, 0][:n] + B1bar.T @ P1 @ W[0, 0][n:] / delta)
    u2 = []
    for l in range(gap + 1):
        est_p = S2c @ W[gap, l][:n]
        for j in range(gap - 1):
            if l <= j + 1:
                est_p = est_p + lag2[j] @ W[j + 1, l][:n]
        est_q = P2 @ W[gap, l][n:] / delta
        u2.append(-R2i @ (B2.T @ est_p + B2bar.T @ est_q))

    zfactors = [np.eye(2 * n) + lift(lag2[j]) @ Ginv[j + 1] @ Kc
                for j in range(1, gap - 1)]
    return (coeff[0], coeff[1:gap], coeff[gap]), u1, u2, zfactors


def oracle_chain_sweep(A, Abar, B1, B1bar, B2, B2bar, Q1, Q2, R1, R2, H1, H2,
                       delta, d1, d2, N):
    """Full backward pass via the per-pair chain; any gap."""
    red = oracle_reduced(B1, B1bar, B2, B2bar, R1, R2)
    n = np.atleast_2d(np.asarray(A, float)).shape[0]
    layer = OracleLayer(n, d1, d2, H1, H2)
    layer_by_k = {N + 1: layer}
    step_by_k = {}
    for k in range(N, -1, -1):
        step = chain_step(layer, red, A, Abar, B1, B1bar, B2, B2bar, R1, R2,
                          delta)
        step_by_k[k] = step
        layer = oracle_layer_update(layer, step[0], red, A, Abar, Q1, Q2,
                                    delta)
        layer_by_k[k] = layer
    return layer_by_k, step_by_k


# ---------------------------------------------------------------------------
# reference window steps: one term at a time, in the order state term,
# then window levels upward, prefix sums before tails
# ---------------------------------------------------------------------------

def reference_ladder_window_step(ladder, k, win, dw_k):
    """New window and diffusion coefficient of the recursion form."""
    d1, gap = ladder.grid.d1, ladder.gap
    a_c, a_n = ladder.a_mat
    const, noise = ladder.coef[k, :, 0], ladder.coef[k, :, 1]
    new = np.empty_like(win)
    for i in range(d1):
        lvl = min(i + 1, gap)
        prefix = np.zeros_like(win[0])
        for l in range(lvl + 1):
            prefix = prefix + win[l] @ const[l].T
        tail = np.zeros_like(a_c)
        for l in range(lvl + 1, gap + 1):
            tail = tail + const[l]
        new[i] = win[i + 1] @ (a_c + tail).T + prefix
    diff = win[d1] @ a_n.T
    for l in range(gap + 1):
        diff = diff + win[l] @ noise[l].T
    new[d1] = new[d1 - 1] + dw_k[:, None] * diff
    return new, diff


def reference_u2_levels(law, grid, k, win):
    """E[u2 | level l] for l = 0..gap under the feedback law."""
    gap = grid.d1 - grid.d2
    weights = law.kernel_weights()
    terms = ([(0, law.k2_h1[k])]
             + [(j, w * law.k2_kernel[k, j]) for j, w in enumerate(weights)]
             + [(gap, law.k2_h2[k])])
    out = []
    for l in range(gap + 1):
        prefix = np.zeros((win.shape[1], law.k2_h1.shape[1]))
        tail = np.zeros_like(law.k2_h1[k])
        for idx, mat in terms:
            if idx <= l:
                prefix = prefix + win[idx] @ mat.T
            else:
                tail = tail + mat
        u = prefix + law.offset2[k]
        if l < gap:
            u = u + win[l] @ tail.T
        out.append(u)
    return np.array(out)


def reference_gain_advance(spec, grid, win, dw_k, u1, u2_lv):
    """Euler update of every window entry of one law's paths-first window
    under given control levels; returns the new window and the increment
    coefficient."""
    d1, gap = grid.d1, grid.d1 - grid.d2
    levels = np.minimum(np.arange(1, d1 + 1), gap)
    new = np.empty_like(win)
    u1_drift = u1 @ spec.B1.T
    u2_drift = u2_lv @ spec.B2.T
    base = win[1:] @ spec.A.T
    new[:d1] = win[1:] + grid.delta * (base + u1_drift + u2_drift[levels])
    x = win[d1]
    drift = base[d1 - 1] + u1_drift + u2_drift[gap]
    diff = x @ spec.Abar.T + u1 @ spec.B1bar.T + u2_lv[gap] @ spec.B2bar.T
    new[d1] = x + grid.delta * drift + dw_k[:, None] * diff
    return new, diff


def reference_paired_step(law, deviations, spec, grid, k, wins, dw_k):
    """One step of a base law and its ``(player, dev_law)`` deviations, one
    law at a time on paths-first windows ``wins[0]`` (base) and ``wins[i]``
    (deviation i). A deviation keeps the opponent's control levels of the
    base law. Returns per law the new window, u1, u2 and the increment
    coefficient."""
    gap = grid.d1 - grid.d2

    def u_levels(lw, win):
        return (win[0] @ lw.k1[k].T + lw.offset1[k],
                reference_u2_levels(lw, grid, k, win))

    u1_b, u2_b = u_levels(law, wins[0])
    levels = [(u1_b, u2_b)]
    for (player, dev), win in zip(deviations, wins[1:]):
        u1_d, u2_d = u_levels(dev, win)
        levels.append((u1_d, u2_b) if player == 1 else (u1_b, u2_d))
    out = []
    for win, (u1, u2_lv) in zip(wins, levels):
        new, diff = reference_gain_advance(spec, grid, win, dw_k, u1, u2_lv)
        out.append((new, u1, u2_lv[gap], diff))
    return out


def reference_paired_rollout(law, deviations, spec, grid, dw):
    """The per-law loop over the whole grid: every law's windows (N+2, P,
    ...), controls, increment coefficients and its deviating player's own
    cost (left-endpoint rectangle rule, as ``path_costs``). Row 0 is the
    base law."""
    weights = ((spec.Q1, spec.R1, spec.H1), (spec.Q2, spec.R2, spec.H2))
    n_laws, n_paths = 1 + len(deviations), dw.shape[1]
    wins = [np.full((grid.d1 + 1, n_paths, spec.n), spec.x0)
            for _ in range(n_laws)]
    rec = {"win": [wins], "u1": [], "u2": [], "diff": []}
    costs = np.zeros((n_laws, 2, n_paths))
    for k in range(grid.N + 1):
        out = reference_paired_step(law, deviations, spec, grid, k, wins,
                                    dw[k])
        for i, (win, (new, u1, u2, diff)) in enumerate(zip(wins, out)):
            for p, (q, r, _) in enumerate(weights):
                u = (u1, u2)[p]
                costs[i, p] += grid.delta * (
                    np.einsum("pi,ij,pj->p", win[grid.d1], q, win[grid.d1])
                    + np.einsum("pi,ij,pj->p", u, r, u))
        wins = [new for new, _, _, _ in out]
        rec["win"].append(wins)
        for name, idx in (("u1", 1), ("u2", 2), ("diff", 3)):
            rec[name].append([o[idx] for o in out])
    for i, win in enumerate(wins):
        for p, (_, _, h) in enumerate(weights):
            costs[i, p] += np.einsum("pi,ij,pj->p", win[grid.d1], h,
                                     win[grid.d1])
    rec = {name: np.array(v).swapaxes(0, 1) for name, v in rec.items()}
    own = np.array([player - 1 for player, _ in deviations], dtype=int)
    rec["own_base"] = 0.5 * costs[0, own]
    rec["own_dev"] = 0.5 * costs[np.arange(1, n_laws), own]
    return rec


def reference_paired_costs(stepper, spec, n_paths, seed):
    """The all-slot loop that ``simulator.paired_costs`` restricts to the
    costs it returns: both players' costs summed on every slot of the
    stacked rollout on the (paths, seed) increments, then each deviating
    player's own cost picked out under the base pair and under its
    deviation, (D, P) each."""
    weights = ((spec.Q1, spec.R1, spec.H1), (spec.Q2, spec.R2, spec.H2))
    sums = np.zeros((2, stepper.slots, n_paths))
    d1, delta = stepper.grid.d1, stepper.grid.delta
    for _, win, *u, win_next, _, _ in rollout(
            stepper, spec.x0, increment_rows(stepper.grid, n_paths, seed)):
        for i, (q, r, _) in enumerate(weights):
            sums[i] += delta * (_quad(win[:, d1], q) + _quad(u[i], r))
    for i, (_, _, h) in enumerate(weights):
        sums[i] += _quad(win_next[:, d1], h)
    own = stepper.players - 1
    return 0.5 * sums[own, 0], 0.5 * sums[own, stepper.dev_slots]


# ---------------------------------------------------------------------------
# reference projection pieces: the paths-first costate formula, summed term
# by term, and projection statistics reduced over the leading path axis
# ---------------------------------------------------------------------------

def record_windows(stepper, x0, n_paths, seed):
    """The base slot of one ``simulator.rollout`` on the (paths, seed)
    increments of ``draw_increments``, paths-first: the estimate windows
    (N+2, d1+1, P, n) and the increment coefficients of the state update
    (N+1, P, n)."""
    grid = stepper.grid
    windows = np.empty((grid.N + 2, grid.d1 + 1, n_paths, len(x0)))
    diff = np.empty((grid.N + 1, n_paths, len(x0)))
    for k, win, _, _, win_next, diff_k, _ in rollout(
            stepper, x0, draw_increments(grid, n_paths, seed)):
        windows[k] = win[0].swapaxes(-1, -2)
        diff[k] = diff_k[0].T
    windows[-1] = win_next[0].swapaxes(-1, -2)
    return windows, diff


def reference_pathwise_costate(ladder, k, win_next):
    """p at step k from the layer-(k+1) formula and the paths-first
    step-(k+1) window (d1+1, P, n): (2, P, n). With an index array ``k``
    and the windows stacked on the same leading axis, one p per step:
    (len(k), 2, P, n). Each player's terms are summed in the formula's
    order: state, first lag family on every level, second lag family on
    the finest d2+1 levels."""
    gap = ladder.gap
    win = np.concatenate([win_next[..., -1:, :, :], win_next,
                          win_next[..., gap:, :, :]], axis=-3)
    coef = np.concatenate([ladder.phat[k + 1][..., None, :, :],
                           ladder.phat_lag[k + 1], ladder.ccheck_lag[k + 1]],
                          axis=-3)
    return (win[..., None, :, :, :] @ coef.swapaxes(-1, -2)).sum(axis=-3)


def reference_test_variables(win, up_to):
    """Constant plus paths-first window components up to the given index:
    (P, nz)."""
    return np.concatenate([np.ones((win.shape[1], 1)), *win[:up_to + 1]],
                          axis=1)


def reference_projection_stats(res, Z):
    """max |E[res x Z]|, the matching max standard error and the max of
    |mean| - 3 se, for paths-first ``res`` (P, r) and ``Z`` (P, nz)."""
    n_paths = res.shape[0]
    prod = res[:, :, None] * Z[:, None, :]
    mean = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / np.sqrt(n_paths)
    return float(np.max(np.abs(mean))), float(np.max(se)), \
        float(np.max(np.abs(mean) - 3.0 * se))


# ---------------------------------------------------------------------------
# reference CSV writers: one csv-module row per matrix entry or path step,
# in nested loops over k, player, kind and lag
# ---------------------------------------------------------------------------

def _reference_write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reference_entries(prefix, M):
    M = np.atleast_2d(M)
    for r in range(M.shape[0]):
        for c in range(M.shape[1]):
            yield (*prefix, r, c, repr(float(M[r, c])))


def reference_ladder_csv(ladder, path):
    grid = ladder.grid
    gap = grid.d1 - grid.d2
    rows = []
    for k in range(grid.N + 2):
        for i in range(2):
            rows.extend(_reference_entries((k, i + 1, "Phat", ""),
                                           ladder.phat[k][i]))
            for j in range(grid.d1 + 1):
                rows.extend(_reference_entries((k, i + 1, "Phat_lag", j),
                                               ladder.phat_lag[k][i][j]))
            for j in range(grid.d2 + 1):
                rows.extend(_reference_entries((k, i + 1, "Ccheck_lag", j),
                                               ladder.ccheck_lag[k][i][j]))
            rows.extend(_reference_entries((k, i + 1, "Shat", ""),
                                           ladder.shat[k][i]))
            rows.extend(_reference_entries((k, i + 1, "Scheck", ""),
                                           ladder.scheck[k][i]))
    for k in range(grid.N + 1):
        coef = ladder.coef[k]
        rows.extend(_reference_entries((k, "", "M_const", ""), coef[0][0]))
        rows.extend(_reference_entries((k, "", "M_noise", ""), coef[0][1]))
        for m in range(1, gap):
            rows.extend(_reference_entries((k, "", "Mm_const", m), coef[m][0]))
            rows.extend(_reference_entries((k, "", "Mm_noise", m), coef[m][1]))
        rows.extend(_reference_entries((k, "", "H_const", ""), coef[gap][0]))
        rows.extend(_reference_entries((k, "", "H_noise", ""), coef[gap][1]))
    _reference_write(path, ("k", "player", "kind", "lag_index", "row", "col",
                            "value"), rows)


def reference_fields_csv(fields, path):
    rows = []
    for k, t in enumerate(fields.t):
        for i in range(2):
            rows.extend(_reference_entries((repr(float(t)), "", i + 1, "P"),
                                           fields.P[i, k]))
            for j, theta in enumerate(fields.theta1):
                rows.extend(_reference_entries(
                    (repr(float(t)), repr(float(theta)), i + 1, "Phat"),
                    fields.phat[i, k, j]))
            for j, theta in enumerate(fields.theta2):
                rows.extend(_reference_entries(
                    (repr(float(t)), repr(float(theta)), i + 1, "Ccheck"),
                    fields.ccheck[i, k, j]))
            rows.extend(_reference_entries((repr(float(t)), "", i + 1, "Shat"),
                                           fields.shat[i, k]))
            rows.extend(_reference_entries(
                (repr(float(t)), "", i + 1, "Scheck"), fields.scheck[i, k]))
    _reference_write(path, ("t", "theta", "player", "kind", "row", "col",
                            "value"), rows)


def reference_gains_csv(law, path):
    rows = []
    for k, t in enumerate(law.t_samples):
        ts = repr(float(t))
        rows.extend(_reference_entries((ts, "", "K1"), law.k1[k]))
        rows.extend(_reference_entries((ts, "", "K2_h1"), law.k2_h1[k]))
        for j, theta in enumerate(law.theta_kernel):
            rows.extend(_reference_entries((ts, repr(float(theta)),
                                            "K2_kernel"), law.k2_kernel[k, j]))
        rows.extend(_reference_entries((ts, "", "K2_h2"), law.k2_h2[k]))
        rows.extend(_reference_entries((ts, "", "Rt1"), law.rt1[k]))
        rows.extend(_reference_entries((ts, "", "Rt2"), law.rt2[k]))
        rows.extend(_reference_entries((ts, "", "O1"), law.o1[k]))
    _reference_write(path, ("t", "theta", "component", "row", "col", "value"),
                     rows)


def reference_trajectories_csv(traj, path):
    grid, n = traj.grid, traj.x.shape[2]
    d1c = traj.u1.shape[2]
    d2c = traj.u2.shape[2]
    header = (["path_id", "k", "t"]
              + [f"x{i}" for i in range(n)]
              + [f"u1_{i}" for i in range(d1c)]
              + [f"u2_{i}" for i in range(d2c)]
              + ["dW"])
    times = grid.times()
    rows = []
    for p in range(traj.n_paths):
        for k in range(grid.N + 2):
            xs = [repr(float(v)) for v in traj.x[k, p]]
            if k <= grid.N:
                u1s = [repr(float(v)) for v in traj.u1[k, p]]
                u2s = [repr(float(v)) for v in traj.u2[k, p]]
                dw = repr(float(traj.dw[k, p]))
            else:
                u1s = [""] * d1c
                u2s = [""] * d2c
                dw = ""
            rows.append([p, k, repr(float(times[k])), *xs, *u1s, *u2s, dw])
    _reference_write(path, header, rows)


# ---------------------------------------------------------------------------
# reference post-sweep routines: one time sample (and lag offset) at a time
# ---------------------------------------------------------------------------

def _ref_rcond(M):
    c = np.linalg.cond(M, 1)
    return 1.0 / c if np.isfinite(c) and c != 0.0 else 0.0


def reference_gains(fields, spec, rcond_min=1e-12):
    """Gain arrays sample by sample; raises ``ValueError((which, k))`` at
    the first singular effective weight, second player's first."""
    grid = fields.grid
    gap = grid.d1 - grid.d2
    n_t, n = len(fields.t), fields.n
    d1c, d2c = spec.d1c, spec.d2c
    B1, B1b, B2, B2b = spec.B1, spec.B1bar, spec.B2, spec.B2bar
    out = {"rt1": np.zeros((n_t, d1c, d1c)), "rt2": np.zeros((n_t, d2c, d2c)),
           "o1": np.zeros((n_t, d1c, n)), "k1": np.zeros((n_t, d1c, n)),
           "k2_h1": np.zeros((n_t, d2c, n)),
           "k2_kernel": np.zeros((n_t, gap + 1, d2c, n)),
           "k2_h2": np.zeros((n_t, d2c, n))}
    asym, rc2_min, rc1_min = 0.0, 1.0, 1.0
    for k in range(n_t):
        P1, P2 = fields.P[0, k], fields.P[1, k]
        rt2 = spec.R2 + B2b.T @ P2 @ B2b
        rc2 = _ref_rcond(rt2)
        rc2_min = min(rc2_min, rc2)
        if rc2 < rcond_min:
            raise ValueError("rt2", k)
        rt2_inv = np.linalg.inv(rt2)
        cross12 = B1b.T @ P1 @ B2b
        cross21 = B2b.T @ P2 @ B1b
        rt1 = spec.R1 + B1b.T @ P1 @ B1b - cross12 @ rt2_inv @ cross21
        asym = max(asym, float(np.max(np.abs(rt1 - rt1.T))))
        rc1 = _ref_rcond(rt1)
        rc1_min = min(rc1_min, rc1)
        if rc1 < rcond_min:
            raise ValueError("rt1", k)
        ker = fields.phat[1, k, :gap + 1]
        ker_int = np.zeros((n, n))
        for j in range(gap):
            ker_int = ker_int + 0.5 * grid.delta * (ker[j] + ker[j + 1])
        o2 = (B2.T @ fields.scheck[1, k] + B2b.T @ P2 @ spec.Abar
              + B2.T @ ker_int)
        o1 = (B1.T @ fields.shat[0, k] + B1b.T @ P1 @ spec.Abar
              - cross12 @ rt2_inv @ o2)
        k1 = -np.linalg.solve(rt1, o1)
        out["rt1"][k], out["rt2"][k], out["o1"][k], out["k1"][k] = \
            rt1, rt2, o1, k1
        out["k2_h1"][k] = -rt2_inv @ cross21 @ k1
        for j in range(gap + 1):
            out["k2_kernel"][k, j] = -rt2_inv @ (B2.T @ ker[j])
        out["k2_h2"][k] = -rt2_inv @ (B2.T @ fields.scheck[1, k]
                                      + B2b.T @ P2 @ spec.Abar)
    out.update(rt1_asymmetry=asym, rt2_rcond_min=rc2_min,
               rt1_rcond_min=rc1_min)
    return out


def reference_identity_residuals(law, fields, spec):
    """Per-sample stationarity residuals of both players, each relative to
    its control-weight scale."""
    B1, B1b, B2, B2b = spec.B1, spec.B1bar, spec.B2, spec.B2bar
    w = law.kernel_weights()
    scale1 = max(float(np.max(np.abs(spec.R1))), 1.0)
    scale2 = max(float(np.max(np.abs(spec.R2))), 1.0)
    r1_v, r2_v = np.zeros(law.n_t), np.zeros(law.n_t)
    for k in range(law.n_t):
        P1, P2 = fields.P[0, k], fields.P[1, k]
        k2_sum = law.k2_h1[k] + law.k2_h2[k]
        for j in range(law.gap_points):
            k2_sum = k2_sum + w[j] * law.k2_kernel[k, j]
        res1 = ((spec.R1 + B1b.T @ P1 @ B1b) @ law.k1[k]
                + B1.T @ fields.shat[0, k] + B1b.T @ P1 @ spec.Abar
                + B1b.T @ P1 @ B2b @ k2_sum)
        r1_v[k] = np.max(np.abs(res1)) / scale1
        rt2 = law.rt2[k]
        terms = [rt2 @ law.k2_h1[k] + B2b.T @ P2 @ B1b @ law.k1[k],
                 rt2 @ law.k2_h2[k] + B2.T @ fields.scheck[1, k]
                 + B2b.T @ P2 @ spec.Abar]
        for j in range(law.gap_points):
            terms.append(rt2 @ law.k2_kernel[k, j]
                         + B2.T @ fields.phat[1, k, j])
        r2_v[k] = max(np.max(np.abs(t)) for t in terms) / scale2
    return r1_v, r2_v


def reference_closure_rcond(fields, c):
    eye = np.eye(fields.n)
    out = {"joint": np.zeros(len(fields.t)), "second": np.zeros(len(fields.t))}
    for k in range(len(fields.t)):
        P1, P2 = fields.P[0, k], fields.P[1, k]
        out["joint"][k] = _ref_rcond(eye - c.Bbar21 @ P1 - c.Bbar22 @ P2)
        out["second"][k] = _ref_rcond(eye - c.Bbar22 @ P2)
    return out


def reference_ode_semigroup_residuals(fields, c):
    """The backward-ODE and semigroup residuals, one time sample, lag
    offset and player at a time, with scipy's matrix exponential; each
    sample the worst over both players, the semigroup samples ordered by
    lag offset, then by time."""
    grid = fields.grid
    d1, d2, delta = grid.d1, grid.d2, grid.delta
    A, Abar = c.A, c.Abar
    n_t = len(fields.t)
    ode = np.zeros(n_t - 1)
    for k in range(n_t - 1):
        for i in range(2):
            Pn = fields.P[i, k + 1]
            rhs = (A.T @ Pn + Pn @ A + Abar.T @ Pn @ Abar + c.Q[i]
                   + fields.phat[i, k + 1, d1] + fields.ccheck[i, k + 1, d2])
            res = (fields.P[i, k] - Pn) / delta - rhs
            ode[k] = max(ode[k], np.max(np.abs(res)))
    semi = []
    for j in range(1, d2 + 1):
        E = scipy.linalg.expm(A * (j * delta))
        for k in range(n_t - j):
            semi.append(max(
                np.max(np.abs(fields.ccheck[i, k, j]
                              - E.T @ fields.ccheck[i, k + j, 0] @ E))
                for i in range(2)))
    return ode, np.array(semi)


def reference_boundary_residuals(fields, c):
    """The two theta = 0 boundary identities (first kernel, second
    kernel), batched over the samples with the terminal one excluded, as
    the kernels jump to zero at the horizon; each sample the worst over
    both players."""
    Abar = c.Abar
    eye = np.eye(fields.n)
    P, phat, shat = fields.P, fields.phat, fields.shat
    sl = slice(0, len(fields.t) - 1)
    P1, P2 = P[0, sl], P[1, sl]
    inv2 = np.linalg.inv(eye - c.Bbar22 @ P2)
    S1, S2c = shat[0, sl], fields.scheck[1, sl]
    mix = (np.linalg.inv(eye - c.Bbar21 @ P1 - c.Bbar22 @ P2)
           @ (c.Bbar11 @ S1 + c.Bbar12 @ shat[1, sl] + Abar))
    Si, Sic, Pi = shat[:, sl], fields.scheck[:, sl], P[:, sl]
    rhs_h = ((Si @ c.B11 + Abar.T @ Pi @ c.Bbar11) @ S1
             + (Si @ c.B21 + Abar.T @ Pi @ c.Bbar21) @ P1 @ mix
             + (Si @ c.B22 + Abar.T @ Pi @ c.Bbar22) @ P2 @ inv2
             @ (c.Bbar11 @ S1 + c.Bbar21 @ P1 @ mix))
    rhs_c = ((Sic @ c.B12 + Abar.T @ Pi @ c.Bbar12) @ S2c
             + (Sic @ c.B22 + Abar.T @ Pi @ c.Bbar22) @ P2 @ inv2
             @ (c.Bbar12 @ S2c + Abar))
    return (np.abs(phat[:, sl, 0] - rhs_h).max(axis=(0, 2, 3)),
            np.abs(fields.ccheck[:, sl, 0] - rhs_c).max(axis=(0, 2, 3)))


def reference_transport_residuals(fields, c):
    """Worst transport residual per sample on the coupled (lag offsets
    below the gap) and free branches, one lag offset and player at a time
    over the stacked samples."""
    grid = fields.grid
    d1, gap, delta = grid.d1, grid.d1 - grid.d2, grid.delta
    A, Abar = c.A, c.Abar
    n_t = len(fields.t)
    nxt = slice(1, n_t)
    P2n = fields.P[1, nxt]
    inv2n = np.linalg.inv(np.eye(fields.n) - c.Bbar22 @ P2n)
    S2cn = fields.scheck[1, nxt]
    ker_drift = c.B12 + c.B22 @ P2n @ inv2n @ c.Bbar12
    ker_diff = c.Bbar12 + c.Bbar22 @ P2n @ inv2n @ c.Bbar12
    h_drift = c.B12 @ S2cn + c.B22 @ P2n @ inv2n @ (c.Bbar12 @ S2cn + Abar)
    coupled, free = np.zeros(n_t - 1), np.zeros(n_t - 1)
    for j in range(1, d1 + 1):
        for i in range(2):
            prev = fields.phat[i, nxt, j - 1]
            dt_term = (fields.phat[i, :-1, j] - prev) / delta
            rhs = A.T @ prev + prev @ A
            if j < gap:
                ker = fields.phat[1, nxt, j - 1]
                rhs = (rhs + fields.shat[i, nxt] @ ker_drift @ ker
                       + Abar.T @ fields.P[i, nxt] @ ker_diff @ ker
                       + prev @ h_drift)
                coupled = np.maximum(coupled, np.abs(dt_term - rhs).max(
                    axis=(1, 2)))
            else:
                free = np.maximum(free, np.abs(dt_term - rhs).max(axis=(1, 2)))
    return (coupled if gap > 1 else np.zeros(0)), free


# ---------------------------------------------------------------------------
# reduction oracles and field quadratures that no command runs
# ---------------------------------------------------------------------------

def mean_recursion(ladder, x0) -> np.ndarray:
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


def one_delay_sweep(A, Abar, B, Bbar, Q, R, H, delta: float, d: int,
                    N: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-controller, single-delay backward recursion (no second lag
    family), written straight from the one-delay system: the state layers
    P (N+2, n, n) and the lag layers (N+2, d+1, n, n), index k = 0..N+1."""
    A, Abar, B, Bbar, Q, R, H = (np.atleast_2d(np.asarray(m, dtype=float))
                                 for m in (A, Abar, B, Bbar, Q, R, H))
    n = A.shape[0]
    Ri = np.linalg.inv(R)
    b11 = -B @ Ri @ B.T
    b21 = -B @ Ri @ Bbar.T
    bb11 = -Bbar @ Ri @ B.T
    bb21 = -Bbar @ Ri @ Bbar.T
    a_hat = np.eye(n) + delta * A

    P, lag = [None] * (N + 2), [None] * (N + 2)
    P[N + 1], lag[N + 1] = H.copy(), np.zeros((d + 1, n, n))
    for k in range(N, -1, -1):
        Pn = P[k + 1]
        Sn = Pn + lag[k + 1].sum(axis=0)
        gam = np.block([
            [np.eye(n) - delta * b11 @ Sn, -b21 @ Pn],
            [-delta * bb11 @ Sn, np.eye(n) - bb21 @ Pn]])
        w0 = np.linalg.inv(gam) @ np.vstack([a_hat, delta * Abar])
        m_c = delta * b11 @ Sn @ w0[:n] + b21 @ Pn @ w0[n:]
        m_n = bb11 @ Sn @ w0[:n] + bb21 @ Pn @ w0[n:] / delta
        Pk = (a_hat.T @ Pn @ a_hat + delta * Abar.T @ Pn @ Abar
              + a_hat.T @ lag[k + 1][d] @ a_hat + delta * Q)
        lk = np.zeros((d + 1, n, n))
        lk[0] = a_hat.T @ Sn @ m_c + delta * Abar.T @ Pn @ m_n
        for m in range(1, d + 1):
            lk[m] = a_hat.T @ lag[k + 1][m - 1] @ a_hat
        P[k], lag[k] = Pk, lk
    return np.array(P), np.array(lag)


def single_player_reduction_gap(ladder, spec) -> float:
    """Max difference between player-1 layers of a degenerate two-player
    sweep (second player costless and uncontrolled) and the one-delay
    oracle on the same data."""
    grid = ladder.grid
    P, lag = one_delay_sweep(spec.A, spec.Abar, spec.B1, spec.B1bar,
                             spec.Q1, spec.R1, spec.H1,
                             grid.delta, grid.d1, grid.N)
    return max(float(np.max(np.abs(ladder.phat[:, 0] - P))),
               float(np.max(np.abs(ladder.phat_lag[:, 0] - lag))),
               float(np.max(np.abs(ladder.phat[:, 1]))),
               float(np.max(np.abs(ladder.ccheck_lag))))


def kernel1_integral(fields, i: int, lo_index: int = 0) -> np.ndarray:
    """Trapezoidal integral of the first kernel over theta >= lo_index*delta."""
    seg = fields.phat[i, :, lo_index:]
    return _trapz(seg, dx=fields.delta, axis=1)


def kernel2_integral(fields, i: int) -> np.ndarray:
    return _trapz(fields.ccheck[i], dx=fields.delta, axis=1)
