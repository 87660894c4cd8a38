"""The attack-defense evolutionary game (the paper's core contribution).

Formulation (§V): populations of defenders (buffer-selection vs
no-buffers) and attackers (DoS vs quiet), payoffs from Table II,
replicator dynamics from §V-D, ESS taxonomy from §V-E, buffer-count
optimisation from §V-F (Algorithm 3), and the runtime adaptive policy
built on top.
"""

from repro.game.adaptive import AdaptiveDefense, AttackEstimator
from repro.game.bestresponse import BestResponseDynamics, BestResponseTrajectory
from repro.game.ess import (
    CANDIDATES,
    EssType,
    FixedPoint,
    RestPoints,
    Stability,
    edge_x_prime,
    edge_y_prime,
    fixed_points,
    interior_fixed_point,
    label_point,
    realized_ess,
    rest_points,
    stable_points,
)
from repro.game.optimizer import (
    BufferOptimizer,
    EquilibriumSolver,
    OptimizationResult,
    OptimizationRow,
    defense_cost,
    naive_defense_cost,
    optimal_rows,
)
from repro.game.parameters import (
    PAPER_K1,
    PAPER_K2,
    PAPER_MAX_BUFFERS,
    PAPER_RA,
    GameParameters,
    paper_parameters,
)
from repro.game.payoff import (
    ExpectedUtilities,
    PayoffCell,
    PayoffMatrix,
    expected_utilities,
)
from repro.game.replicator import (
    PAPER_INITIAL_SHARES,
    PAPER_TIME_STEP,
    BatchedReplicator,
    BatchTrajectories,
    ReplicatorDynamics,
    Trajectory,
    jacobian_terms,
)
from repro.game.population import (
    PopulationGame,
    PopulationState,
    PopulationTrajectory,
)
from repro.game.sensitivity import (
    SensitivityPoint,
    recommendation_stability,
    sensitivity_sweep,
)

__all__ = [
    "AdaptiveDefense",
    "AttackEstimator",
    "BatchTrajectories",
    "BatchedReplicator",
    "BestResponseDynamics",
    "BestResponseTrajectory",
    "BufferOptimizer",
    "CANDIDATES",
    "EquilibriumSolver",
    "EssType",
    "ExpectedUtilities",
    "FixedPoint",
    "GameParameters",
    "OptimizationResult",
    "OptimizationRow",
    "PAPER_INITIAL_SHARES",
    "PAPER_K1",
    "PAPER_K2",
    "PAPER_MAX_BUFFERS",
    "PAPER_RA",
    "PAPER_TIME_STEP",
    "PayoffCell",
    "PayoffMatrix",
    "PopulationGame",
    "PopulationState",
    "PopulationTrajectory",
    "ReplicatorDynamics",
    "RestPoints",
    "SensitivityPoint",
    "Stability",
    "Trajectory",
    "recommendation_stability",
    "sensitivity_sweep",
    "defense_cost",
    "edge_x_prime",
    "edge_y_prime",
    "expected_utilities",
    "fixed_points",
    "interior_fixed_point",
    "jacobian_terms",
    "label_point",
    "naive_defense_cost",
    "optimal_rows",
    "paper_parameters",
    "realized_ess",
    "rest_points",
    "stable_points",
]
