"""Report containers shared by the residual tests and deviation checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ResidualComponent:
    """Residual norms of one named check over its sample coordinate."""

    name: str
    coord: np.ndarray
    value: np.ndarray
    band: np.ndarray | None = None   # per-sample allowance, when statistical
    gating: bool = True              # diagnostics set False and never gate

    @property
    def max(self) -> float:
        return float(np.max(self.value)) if self.value.size else 0.0


@dataclass
class ResidualReport:
    """Named residual components with one overall tolerance.

    Passes iff the worst component maximum (net of any per-sample
    statistical band) is within tolerance.
    """

    name: str
    components: list[ResidualComponent] = field(default_factory=list)
    tolerance: float | None = None

    def component(self, name: str) -> ResidualComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def max(self) -> float:
        return max((c.max for c in self.components), default=0.0)

    @property
    def excess(self) -> float:
        """Worst gating residual after subtracting per-sample bands."""
        worst = 0.0
        for c in self.components:
            if not c.gating:
                continue
            slack = c.value - (c.band if c.band is not None else 0.0)
            # a NaN residual propagates, so it never passes
            worst = float(np.max(slack, initial=worst))
        return worst

    @property
    def passed(self) -> bool:
        if self.tolerance is None:
            return True
        return self.excess <= self.tolerance


@dataclass
class DeviationVerdict:
    """Outcome of one unilateral control deviation under common noise."""

    player: int
    description: str
    j_base: float
    se_base: float
    j_dev: float
    se_dev: float
    margin: float
    combined_se: float

    @property
    def passed(self) -> bool:
        # one-sided: a deviation must not beat the equilibrium beyond noise
        return self.margin >= -3.0 * self.combined_se

    def __str__(self) -> str:
        return (f"player {self.player} {self.description}: "
                f"margin={self.margin:+.5g} (3se={3 * self.combined_se:.3g}) "
                f"{'pass' if self.passed else 'FAIL'}")
