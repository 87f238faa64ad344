"""Consensus scheduling: aggregate voter preferences into one task order.

A schedule places n unit-length tasks into slots 1..n. Voters state either
preferred orders or per-task time windows; rules pick a schedule minimizing a
binary (late-task count) or distance (lateness amount) objective, exactly via
an assignment reduction or approximately via the earliest-median-date rule.
"""

import importlib

# Public names by home module. ``import consched`` loads none of these modules
# (nor NumPy): each loads on first access to one of its names (PEP 562).
_EXPORTS = {
    "assignment": ("CostMatrix", "build_cost_matrix", "min_cost_assignment"),
    "axioms": (
        "AxiomReport",
        "Violation",
        "axiom_windows",
        "check_deadline_consistency",
        "check_release_consistency",
        "check_temporal_unanimity",
    ),
    "criteria": (
        "CriterionKind",
        "interval_arrays",
        "kendall_tau_distance",
        "late_counts",
        "pair_weight_matrix",
        "profile_cost",
        "spearman_distance",
    ),
    "errors": ("InfeasibleError", "ProfileError", "SizeLimitError"),
    "model": (
        "EncodingKind",
        "PrecedenceGraph",
        "PreferenceProfile",
        "Schedule",
        "TimeWindows",
        "parse_precedence",
        "parse_profile",
        "parse_time_windows",
        "serialize_profile",
    ),
    "oracle": (
        "OracleResult",
        "constrained_best",
        "exhaustive_optimum",
        "kendall_optimum",
    ),
    "precedence": ("infer_precedences", "repair_steps", "solve_with_graph"),
    "rules": (
        "Solution",
        "canonical_criterion",
        "emd_schedule",
        "median_completion_times",
        "solve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
