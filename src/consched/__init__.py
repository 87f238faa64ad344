"""Consensus scheduling: aggregate voter preferences into one task order.

A schedule places n unit-length tasks into slots 1..n. Voters state either
preferred orders or per-task time windows; rules pick a schedule minimizing a
binary (late-task count) or distance (lateness amount) objective, exactly via
an assignment reduction or approximately via the earliest-median-date rule.
"""

from .assignment import CostMatrix, build_cost_matrix, min_cost_assignment
from .axioms import (
    AxiomReport,
    Violation,
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
)
from .criteria import (
    Choice,
    CriterionKind,
    binary_task_cost,
    choice_decomposition,
    distance_task_cost,
    kendall_tau_distance,
    late_at_slot,
    late_counts,
    profile_cost,
    spearman_distance,
)
from .errors import InfeasibleError, ProfileError, SizeLimitError
from .model import (
    EncodingKind,
    IntervalPreference,
    OrderPreference,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    order_to_interval,
    parse_precedence,
    parse_profile,
    parse_time_windows,
    reverse_profile,
    reverse_schedule,
    serialize_profile,
    validate_interval_preference,
)
from .oracle import (
    OracleResult,
    constrained_best,
    exhaustive_optimum,
    kendall_optimum,
    pair_weight_matrix,
)
from .precedence import (
    InferredPrecedences,
    infer_precedences,
    repair_steps,
    repair_to_inferred,
    solve_inferred,
    solve_with_graph,
)
from .rules import (
    MedianTable,
    RuleKind,
    RuleSpec,
    canonical_criterion,
    emd_schedule,
    median_completion_times,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Choice",
    "CostMatrix",
    "CriterionKind",
    "EncodingKind",
    "InfeasibleError",
    "InferredPrecedences",
    "IntervalPreference",
    "MedianTable",
    "OracleResult",
    "OrderPreference",
    "PrecedenceGraph",
    "PreferenceProfile",
    "ProfileError",
    "RuleKind",
    "RuleSpec",
    "Schedule",
    "SizeLimitError",
    "TimeWindows",
    "Violation",
    "__version__",
    "binary_task_cost",
    "build_cost_matrix",
    "canonical_criterion",
    "check_deadline_consistency",
    "check_release_consistency",
    "check_temporal_unanimity",
    "choice_decomposition",
    "constrained_best",
    "distance_task_cost",
    "emd_schedule",
    "exhaustive_optimum",
    "infer_precedences",
    "kendall_optimum",
    "kendall_tau_distance",
    "late_at_slot",
    "late_counts",
    "median_completion_times",
    "min_cost_assignment",
    "order_to_interval",
    "pair_weight_matrix",
    "parse_precedence",
    "parse_profile",
    "parse_time_windows",
    "profile_cost",
    "repair_steps",
    "repair_to_inferred",
    "reverse_profile",
    "reverse_schedule",
    "serialize_profile",
    "solve",
    "solve_inferred",
    "solve_with_graph",
    "spearman_distance",
    "validate_interval_preference",
]
