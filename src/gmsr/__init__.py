"""Greatest-marginal-service-rate load balancing: fluid models, optimization,
convergence diagnostics, and discrete-event simulation for bipartite service
systems with concave workload-dependent rate curves."""

from gmsr.diagnostics import (
    ConvergenceCertificate,
    SlackConstants,
    capacity_slack,
    certify_trajectory,
    in_invariant_set,
    lyapunov,
    overshoot,
    tier_absolute_drift,
)
from gmsr.fluid_dyn import (
    FluidTrajectory,
    IntegrationError,
    IntegratorConfig,
    KernelStats,
    TierEvent,
    gmsr_routing_set,
    integrate_fluid,
    modes_agree,
    sliding_drift,
)
from gmsr.fluid_opt import (
    ConvergenceError,
    FluidOptimum,
    InfeasibleSystemError,
    OverloadEquilibrium,
    equilibrium_rates,
    kkt_residual,
    solve_fluid_optimum,
)
from gmsr.flownet import (
    FlowNetwork,
    MaxFlowResult,
    StabilityDecomposition,
    augmented_network,
    feasibility_check,
    max_flow,
    opt_tp,
    stability_decomposition,
    transportation_feasible,
)
from gmsr.model import (
    Backend,
    BipartiteSystem,
    Frontend,
    SaturationError,
    ServiceRateFn,
    hill,
    make_system,
    saturating_exponential,
    validate_system,
)
from gmsr.stochastic import (
    DiscreteState,
    DriftEstimate,
    FluidComparison,
    SampledRun,
    compare_to_fluid,
    mean_drift_check,
    rng_streams,
    simulate,
    step,
)
from gmsr.tiers import (
    Tier,
    TierGraph,
    TierPartition,
    best_backend_graph,
    compute_tiers,
    reach,
    tier_graph,
)

__all__ = [
    # model
    "Backend",
    "BipartiteSystem",
    "Frontend",
    "SaturationError",
    "ServiceRateFn",
    "hill",
    "make_system",
    "saturating_exponential",
    "validate_system",
    # tiers
    "Tier",
    "TierGraph",
    "TierPartition",
    "best_backend_graph",
    "compute_tiers",
    "reach",
    "tier_graph",
    # flownet
    "FlowNetwork",
    "MaxFlowResult",
    "StabilityDecomposition",
    "augmented_network",
    "feasibility_check",
    "max_flow",
    "opt_tp",
    "stability_decomposition",
    "transportation_feasible",
    # fluid_opt
    "ConvergenceError",
    "FluidOptimum",
    "InfeasibleSystemError",
    "OverloadEquilibrium",
    "equilibrium_rates",
    "kkt_residual",
    "solve_fluid_optimum",
    # fluid_dyn
    "FluidTrajectory",
    "IntegrationError",
    "IntegratorConfig",
    "KernelStats",
    "TierEvent",
    "gmsr_routing_set",
    "integrate_fluid",
    "modes_agree",
    "sliding_drift",
    # diagnostics
    "ConvergenceCertificate",
    "SlackConstants",
    "capacity_slack",
    "certify_trajectory",
    "in_invariant_set",
    "lyapunov",
    "overshoot",
    "tier_absolute_drift",
    # stochastic
    "DiscreteState",
    "DriftEstimate",
    "FluidComparison",
    "SampledRun",
    "compare_to_fluid",
    "mean_drift_check",
    "rng_streams",
    "simulate",
    "step",
]

__version__ = "0.1.0"
