"""Entropic optimal transport, Wasserstein barycenters, and decentralized
barycenter computation, with exact LP oracles for desk-scale certification."""

from .core import (
    ConvergenceError,
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    InputError,
    NumericalError,
    OtError,
    ParameterError,
    SolveReport,
    TransportPlan,
    kl_divergence,
    logsumexp,
    marginal_violation,
    neg_entropy,
    reg_primal_objective,
    transport_cost,
)
from .rounding import round_to_polytope
from .sinkhorn import (
    SinkhornState,
    approx_ot_sinkhorn,
    kl_project,
    radius_bound,
    reg_gap_certificate,
    sinkhorn_solve,
    sinkhorn_step,
)
from .aam import (
    AamState,
    aam_iterate,
    aam_solve,
    accelerated_ot,
    distance_bound,
    dual_objective_lip,
    dual_partial_gradients,
)
from .barycenter import (
    BarycenterProblem,
    WbDualState,
    accelerated_ibp,
    barycenter_ibp,
    fenchel_dual_gradient,
    fenchel_dual_ot,
    ibp_solve,
    ibp_step,
    wb_dual_gradients,
    wb_dual_objective,
)
from .decentralized import (
    CommunicationGraph,
    NetworkState,
    SimConfig,
    condition_number,
    decentralized_dual_step,
    graph_laplacian,
    simulate_decentralized_barycenter,
    stochastic_dual_gradient,
)
from .oracle import LpSolution, exact_barycenter_lp, exact_ot_lp

__version__ = "0.1.0"
