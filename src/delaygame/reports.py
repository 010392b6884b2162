"""Report containers shared by the residual tests and deviation checks.

They hold numbers only: every verdict is a comparison of one of these
numbers with a bound, made where the bound is stated (``cli.cmd_verify``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ResidualComponent:
    """Residual norms of one named check over its sample coordinate."""

    name: str
    coord: np.ndarray
    value: np.ndarray

    @property
    def max(self) -> float:
        return float(np.max(self.value)) if self.value.size else 0.0


@dataclass
class ResidualReport:
    """Named residual components."""

    name: str
    components: list[ResidualComponent] = field(default_factory=list)

    def component(self, name: str) -> ResidualComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def max(self) -> float:
        """Worst component maximum (0.0 when there are none); a NaN
        anywhere propagates."""
        return (float(np.max([c.max for c in self.components]))
                if self.components else 0.0)


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
