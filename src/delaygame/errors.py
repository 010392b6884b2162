"""Exception types shared across the solver pipeline."""


class DelayGameError(Exception):
    """Base class for all solver errors."""


class SingularWeight(DelayGameError):
    """A control weight matrix failed factorization (not positive definite)."""


class IncommensurateDelays(DelayGameError):
    """No admissible step length divides both delays and the horizon."""


class SingularGamma(DelayGameError):
    """A block system in the backward sweep is numerically singular.

    Carries the failing step index and which block family failed, so the
    caller can report where the solvability hypothesis breaks.
    """

    def __init__(self, k: int, which: str, rcond: float):
        self.k = k
        self.which = which
        self.rcond = rcond
        super().__init__(
            f"singular block {which!r} at step k={k} (rcond={rcond:.3e})"
        )


class NonFiniteLayer(DelayGameError):
    """A layer of the backward sweep holds an inf or nan entry: the
    recursion overflowed on the way down to it."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"non-finite entry in layer k={k} (overflow)")


class SingularGain(DelayGameError):
    """An effective control weight is numerically singular at some time."""

    def __init__(self, t: float, which: str, rcond: float):
        self.t = t
        self.which = which
        self.rcond = rcond
        super().__init__(
            f"singular effective weight {which!r} at t={t:.6g} (rcond={rcond:.3e})"
        )
