"""Discrete data-center right-sizing: exact offline solvers, online
policies with matching lower-bound adversaries, and randomized rounding."""

from .model import (
    AffineAbsCost,
    AlignmentError,
    ConfigError,
    ContractError,
    CostBreakdown,
    CostFunction,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    RestrictedLoadCost,
    SchemaError,
    ShapeError,
    StretchedCopyCost,
    TableCost,
    eval_cost,
    extend_continuous,
    instance_from_json,
    instance_to_json,
    load_instance,
    validate_instance,
)
from .offline import (
    SolveResult,
    dp_optimal,
    fractional_grid_optimum,
    pad_to_power_of_two,
    refine_candidates,
    restrict_phi,
    round_fractional,
    scale_psi,
    solve_poly,
)
from .lcp import (
    LcpDecision,
    LcpState,
    LcpTrace,
    backward_optimal,
    lcp_init,
    lcp_run,
    lcp_step,
)
from .randomized import (
    TOWARD_ONE,
    TOWARD_ZERO,
    AlgorithmB,
    AlgorithmBState,
    ReplayPolicy,
    algorithm_b_step,
    classify_pull,
    marginal_upper,
    round_step,
    rounding_ensemble,
    rounding_run,
)
from .adversary import (
    AdversaryConfig,
    DuelReport,
    LcpPolicy,
    adv_continuous_step,
    adv_discrete_step,
    build_restricted,
    pull_cost,
    run_duel,
    run_scripted_workload,
    stretch_prediction,
)

__version__ = "0.1.0"
