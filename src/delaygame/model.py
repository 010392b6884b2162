"""Game data, standing-assumption checks, time grids, problem files.

The controlled dynamics are

    dx = [A x + B1 u1 + B2 u2] dt + [Abar x + B1bar u1 + B2bar u2] dw,

with each player i paying a quadratic running cost (Qi, Ri) plus terminal
weight Hi, and acting on information delayed by hi (0 < h2 < h1 < T).
Everything downstream consumes a validated :class:`GameSpec` and a
delay-commensurate :class:`Grid`; the sweep's coefficients, the eight
reduced control products among them, are formed from the spec by
``discrete_engine.SweepCoefficients.from_spec``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IncommensurateDelays

# Accept numerically semi-definite inputs: smallest eigenvalue may dip this
# far below zero before a PSD check fails.
PSD_EIG_TOL = -1e-10
SYM_TOL = 1e-10


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={arr.ndim}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector, got ndim={arr.ndim}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GameSpec:
    """Full problem data for the two-player delayed-information LQ game.

    Matrices may be given as scalars, nested lists, or arrays; they are
    normalized to read-only float arrays. ``d1c``/``d2c`` are the control
    dimensions of players 1 and 2.
    """

    A: np.ndarray
    Abar: np.ndarray
    B1: np.ndarray
    B1bar: np.ndarray
    B2: np.ndarray
    B2bar: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    h1: float
    h2: float
    T: float
    x0: np.ndarray

    def __post_init__(self):
        for name in ("A", "Abar", "B1", "B1bar", "B2", "B2bar",
                     "Q1", "Q2", "R1", "R2", "H1", "H2"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        object.__setattr__(self, "x0", _as_vector(self.x0, "x0"))
        object.__setattr__(self, "h1", float(self.h1))
        object.__setattr__(self, "h2", float(self.h2))
        object.__setattr__(self, "T", float(self.T))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d1c(self) -> int:
        return self.B1.shape[1]

    @property
    def d2c(self) -> int:
        return self.B2.shape[1]


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with N+1 subintervals and integer delay lags.

    ``delta = T / (N + 1)`` and ``hi = di * delta`` exactly (to relative
    1e-12); commensurability is enforced here, not at spec construction,
    so one spec can be solved at several resolutions.
    """

    N: int
    delta: float
    d1: int
    d2: int

    def times(self) -> np.ndarray:
        """Sample times t_k = k * delta for k = 0..N+1."""
        return self.delta * np.arange(self.N + 2)


@dataclass(frozen=True)
class ValidationReport:
    """One ``"check: detail"`` line per violated standing assumption."""

    violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def _sym_gap(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def _min_eig(M: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))


def validate(spec: GameSpec) -> ValidationReport:
    """Check every standing assumption; failures carry eigenvalue evidence."""
    violations: list[str] = []
    n = spec.n
    expected = {
        "A": (n, n), "Abar": (n, n),
        "B1": (n, spec.d1c), "B1bar": (n, spec.d1c),
        "B2": (n, spec.d2c), "B2bar": (n, spec.d2c),
        "Q1": (n, n), "Q2": (n, n), "H1": (n, n), "H2": (n, n),
        "R1": (spec.d1c, spec.d1c), "R2": (spec.d2c, spec.d2c),
    }
    bad = [f"{k} is {getattr(spec, k).shape}, expected {v}"
           for k, v in expected.items() if getattr(spec, k).shape != v]
    if spec.x0.shape != (n,):
        bad.append(f"x0 is {spec.x0.shape}, expected ({n},)")
    if bad:
        return ValidationReport(("dimensions: " + "; ".join(bad),))

    nonfinite = [k for k in (*expected, "x0", "h1", "h2", "T")
                 if not np.all(np.isfinite(getattr(spec, k)))]
    if nonfinite:
        return ValidationReport((f"finite entries: non-finite entries in "
                                 f"{', '.join(nonfinite)}",))

    if not 0.0 < spec.h2 < spec.h1 < spec.T:
        violations.append(
            f"delay ordering: need 0 < h2 < h1 < T; delays must satisfy "
            f"h2 < h1 (h1={spec.h1:.6g}, h2={spec.h2:.6g}, T={spec.T:.6g})")

    for name in ("Q1", "Q2", "H1", "H2"):
        M = getattr(spec, name)
        gap = _sym_gap(M)
        lam = _min_eig(M)
        if not (gap <= SYM_TOL * max(1.0, float(np.max(np.abs(M))))
                and lam >= PSD_EIG_TOL):
            violations.append(
                f"{name} symmetric psd: {name} not positive semi-definite "
                f"(symmetry gap {gap:.3e}, smallest eigenvalue {lam:.3e})")

    for name in ("R1", "R2"):
        M = getattr(spec, name)
        gap = _sym_gap(M)
        lam = _min_eig(M)
        if not (gap <= SYM_TOL * max(1.0, float(np.max(np.abs(M))))
                and lam > 0.0):
            violations.append(
                f"{name} symmetric pd: {name} not positive definite "
                f"(symmetry gap {gap:.3e}, smallest eigenvalue {lam:.3e})")

    return ValidationReport(tuple(violations))


def _float_gcd(values, floor: float) -> float:
    """Greatest common real divisor of positive floats, via Euclid.

    Returns 0.0 if no divisor >= ``floor`` exists (irrational ratios make
    the remainders decay without ever dividing the inputs cleanly).
    """
    g = values[0]
    for v in values[1:]:
        a, b = max(g, v), min(g, v)
        while b > floor:
            a, b = b, math.fmod(a, b)
        g = a
        if g <= floor:
            return 0.0
    for v in values:
        if abs(round(v / g) * g - v) > 1e-9 * max(abs(v), 1.0):
            return 0.0
    return g


def grid_counts(spec: GameSpec, delta_target: float):
    """``(N+1, d1, d2)`` of ``build_grid(spec, delta_target)`` as floats,
    worked out without raising on a tiny or zero ``delta_target``: a count
    that overflows is inf. So a caller can size its arrays before it
    builds the grid.

    Raises :class:`IncommensurateDelays` when no step length >= 1e-6*T
    divides h1, h2 and T.
    """
    floor = 1e-6 * spec.T
    g = _float_gcd([spec.T, spec.h1, spec.h2], floor=floor)
    if g <= 0.0:
        raise IncommensurateDelays(
            f"no common step >= {floor:.3e} divides h1={spec.h1!r}, "
            f"h2={spec.h2!r}, T={spec.T!r}")
    with np.errstate(divide="ignore", over="ignore"):
        m = np.maximum(1.0, np.ceil(g / np.float64(delta_target)
                                    * (1.0 - 1e-10)))
        n_sub = np.rint(spec.T / (g / m))
        delta = spec.T / n_sub
        return (float(n_sub), float(np.rint(spec.h1 / delta)),
                float(np.rint(spec.h2 / delta)))


def build_grid(spec: GameSpec, delta_target: float) -> Grid:
    """Coarsest grid whose step divides h1, h2 and T and is at most
    ``delta_target``: the fewest steps that reach the target.

    Raises :class:`IncommensurateDelays` when no step length >= 1e-6*T
    works; the caller must round the delays first.
    """
    if delta_target <= 0:
        raise ValueError("delta_target must be positive")
    n_sub, d1, d2 = (int(c) for c in grid_counts(spec, delta_target))
    delta = spec.T / n_sub
    for d, h, name in ((d1, spec.h1, "h1"), (d2, spec.h2, "h2")):
        if d == 0 or abs(d * delta - h) > 1e-12 * max(h, 1.0):
            raise IncommensurateDelays(
                f"{name}={h!r} is not an integer multiple of delta={delta!r}")
    if not (0 < d2 < d1 < n_sub):
        raise IncommensurateDelays(
            f"lag counts violate 0 < d2 < d1 < N+1 (d1={d1}, d2={d2}, N+1={n_sub})")
    return Grid(N=n_sub - 1, delta=delta, d1=d1, d2=d2)


_PROBLEM_MATRIX_KEYS = ("A", "Abar", "B1", "B1bar", "B2", "B2bar",
                        "Q1", "Q2", "R1", "R2", "H1", "H2")


def load_problem(path) -> GameSpec:
    """Read a problem file: JSON with row-major nested arrays and scalars."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    missing = [k for k in (*_PROBLEM_MATRIX_KEYS, "h1", "h2", "T", "x0")
               if k not in data]
    if missing:
        raise ValueError(f"problem file {path} missing keys: {missing}")
    kwargs = {k: data[k] for k in _PROBLEM_MATRIX_KEYS}
    return GameSpec(**kwargs, h1=data["h1"], h2=data["h2"], T=data["T"],
                    x0=data["x0"])


def save_problem(spec: GameSpec, path) -> None:
    data = {k: getattr(spec, k).tolist() for k in _PROBLEM_MATRIX_KEYS}
    data.update(h1=spec.h1, h2=spec.h2, T=spec.T, x0=spec.x0.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
