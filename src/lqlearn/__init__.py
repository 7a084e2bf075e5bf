"""Distributed Q-learning for stochastic LQ control with multiplicative noise.

A plant x(k+1) = (A + Abar*w(k)) x(k) + (B + Bbar*w(k)) u(k) with scalar
Gaussian w(k) of unknown statistics is controlled through a Q-factor G whose
Schur complement solves the generalized Riccati equation. The package
provides the known-statistics oracle, the centralized stochastic-
approximation learner, and the multi-sensor consensus-plus-innovation
learner over a communication graph, plus a CLI for reproducible experiments.
"""

from .config import ExperimentConfig, from_dict, load_config, load_preset
from .distributed import (
    Schedule,
    compare_centralized,
    distributed_round,
    initial_bank,
    run_distributed,
    run_learners,
)
from .errors import (
    BadSpecError,
    ConfigParseError,
    ConfigValidationError,
    DisconnectedError,
    DivergedError,
    LqLearnError,
    NoConvergenceError,
    NotContractiveError,
    NotStabilizingError,
    RankDeficientWarning,
    SeedMismatchError,
    SingularInnerMatrixError,
)
from .lqcore import (
    Gain,
    NoiseModel,
    OracleSolution,
    QFactor,
    StabilityReport,
    SystemModel,
    expectation_map,
    gamma_map,
    ms_stability_check,
    optimal_gain_closed_form,
    pi_map,
    realize,
    riccati_residual,
    solve_oracle,
    symmetrize,
    y_operator,
)
from .network import (
    ConsensusOperator,
    Graph,
    allocate_gains,
    build_graph,
    consensus_operator,
)
from .qlearning import centralized_step, run_centralized
from .sampling import (
    CostEstimate,
    RngStream,
    Trajectory,
    draw_noise,
    draw_noise_rows,
    monte_carlo_cost,
    simulate_trajectory,
)
from .trace import RunTrace

__version__ = "0.1.0"

__all__ = [
    "BadSpecError",
    "ConfigParseError",
    "ConfigValidationError",
    "ConsensusOperator",
    "CostEstimate",
    "DisconnectedError",
    "DivergedError",
    "ExperimentConfig",
    "Gain",
    "Graph",
    "LqLearnError",
    "NoConvergenceError",
    "NoiseModel",
    "NotContractiveError",
    "NotStabilizingError",
    "OracleSolution",
    "QFactor",
    "RankDeficientWarning",
    "RngStream",
    "RunTrace",
    "Schedule",
    "SeedMismatchError",
    "SingularInnerMatrixError",
    "StabilityReport",
    "SystemModel",
    "Trajectory",
    "allocate_gains",
    "build_graph",
    "centralized_step",
    "compare_centralized",
    "consensus_operator",
    "distributed_round",
    "draw_noise",
    "draw_noise_rows",
    "expectation_map",
    "from_dict",
    "gamma_map",
    "initial_bank",
    "load_config",
    "load_preset",
    "monte_carlo_cost",
    "ms_stability_check",
    "optimal_gain_closed_form",
    "pi_map",
    "realize",
    "riccati_residual",
    "run_centralized",
    "run_distributed",
    "run_learners",
    "simulate_trajectory",
    "solve_oracle",
    "symmetrize",
    "y_operator",
]
