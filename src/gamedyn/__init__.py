"""Population games, noisy best-response dynamics, and routing on multigraphs."""

from .game import (
    AggregateCostField,
    CapabilityError,
    ConfigurationError,
    CostEvalError,
    CostField,
    CurveGrid,
    EquilibriumReport,
    PopulationGame,
    ScalarFn,
    classify_equilibrium,
    cost_jacobian,
    evaluate_costs,
    monomorphic_vertices,
    potential,
    potential_symmetry_check,
    rescale_to_masses,
    sample_configuration,
    sample_configurations,
    uniform_configuration,
    validate_configuration,
    vertex_configuration,
)
from .logit import (
    FixedPointResult,
    FixedPointStack,
    StabilityInfo,
    contraction_margin,
    fixed_point,
    fixed_points,
    high_noise_threshold,
    local_stability,
    logit_jacobian,
    logit_map,
)
from .dynamics import (
    RateFit,
    ReducedSystem,
    Trajectory,
    exact_target_check,
    integrate,
    l1_contraction_test,
    monotonicity_check,
    recover_configuration_limit,
)
from .routing import (
    Link,
    LinkCostMatrix,
    Multigraph,
    RouteError,
    RouteSet,
    RoutingGame,
    TopologyClass,
    build_routing_game,
    classify_topology,
    decoupled_check,
    enumerate_routes,
    link_flow,
    series_restriction_equivalence,
    stage_games,
)
from .analysis import (
    EquilibriumCurve,
    NoiseSweep,
    bifurcation_scan,
    continuation_sweep,
    lyapunov_check,
)
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"
