"""Two-player linear-quadratic stochastic differential games with
asymmetric information delays: backward solver, continuous-time field
extraction, equilibrium gain assembly, Monte Carlo simulation, and a
residual/deviation verification suite."""

from .errors import (DelayGameError, IncommensurateDelays, NonFiniteLayer,
                     SingularGain, SingularGamma, SingularWeight)
from .model import (GameSpec, Grid, ValidationReport, build_grid,
                    load_problem, save_problem, validate)
from .discrete_engine import (RiccatiLadder, SweepCoefficients,
                              assemble_blocks, backward_sweep,
                              expectation_of_product, riccati_step,
                              solve_estimate_chain, solve_ladder)
from .continuous_limit import (RiccatiFields, continuous_residuals,
                               extract_fields, invertibility_rcond)
from .gains import FeedbackLaw, assemble_gains, stationarity_identity_check
from .reports import DeviationVerdict, ResidualComponent, ResidualReport
from .simulator import (CostEstimate, Trajectory, estimate_costs,
                        path_costs, perturb_control, simulate_path_gains,
                        simulate_path_ladder)

__all__ = [
    "CostEstimate", "DelayGameError", "DeviationVerdict", "FeedbackLaw",
    "GameSpec", "Grid", "IncommensurateDelays", "NonFiniteLayer",
    "ResidualComponent", "ResidualReport", "RiccatiFields", "RiccatiLadder",
    "SingularGain", "SingularGamma", "SingularWeight", "SweepCoefficients",
    "Trajectory",
    "ValidationReport", "assemble_blocks", "assemble_gains",
    "backward_sweep", "build_grid", "continuous_residuals",
    "estimate_costs", "expectation_of_product", "extract_fields",
    "invertibility_rcond", "load_problem", "path_costs",
    "perturb_control", "riccati_step", "save_problem",
    "simulate_path_gains", "simulate_path_ladder", "solve_estimate_chain",
    "solve_ladder", "stationarity_identity_check", "validate",
]
