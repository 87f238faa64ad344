"""User-facing aggregation rules and the one solve planner.

Three rules turn a preference profile into one schedule:

* ``distance`` — exact minimizer of the summed distance criterion;
* ``binary``   — exact minimizer of the summed binary criterion;
* ``emd``      — Earliest Median Date heuristic: sort tasks by the median of
  their completion times across voters (ties by ascending task id).

The classical named objectives are (criterion, encoding) pairings of the
first two: total deviation and total tardiness/earliness come from the
distance criterion, the late-task count and the exact-position miss count
from the binary criterion. ``canonical_criterion`` maps each encoding to the
criterion that defines its named rule.

``solve`` is the one place that picks the algorithm. A ``RuleSpec`` mirrors
the ``consched solve`` flags; ``solve`` checks it, runs one path, rechecks the
cost with ``profile_cost`` and returns a ``Solution`` naming the path: ``emd``
(which ignores windows and precedences), ``matching`` (the assignment
reduction, never EMD even where EMD is optimal; windows only),
``matching+repair`` (``auto``'s exact path for distance under inferred
precedences without windows) or ``dp`` (the exact subset DP; ``auto``'s path
for every other precedence request).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .assignment import build_cost_matrix, min_cost_assignment
from .criteria import CriterionKind, _task_histogram, profile_cost
from .errors import DEFAULT_DP_LIMIT, InfeasibleError
from .model import (
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _as_encoding,
)

__all__ = [
    "RuleKind",
    "RuleSpec",
    "Solution",
    "canonical_criterion",
    "median_completion_times",
    "emd_schedule",
    "solve",
]


class RuleKind(str, Enum):
    DISTANCE = "distance"
    BINARY = "binary"
    EMD = "emd"


_CANONICAL = {
    EncodingKind.DEVIATION: CriterionKind.DISTANCE,
    EncodingKind.TARDINESS: CriterionKind.DISTANCE,
    EncodingKind.EARLINESS: CriterionKind.DISTANCE,
    EncodingKind.LATE_TASKS: CriterionKind.BINARY,
    EncodingKind.EXACT_POSITION: CriterionKind.BINARY,
}


def canonical_criterion(encoding: Union[EncodingKind, str]) -> CriterionKind:
    """The criterion that turns an encoding into its classical named rule."""
    return _CANONICAL[_as_encoding(encoding)]


METHODS = ("auto", "matching", "dp", "repair")


@dataclass(frozen=True, slots=True)
class RuleSpec:
    """What to solve and how: the fields mirror the ``consched solve`` flags.

    ``prec`` is None, ``"inferred"`` or an imposed ``PrecedenceGraph``;
    ``method`` is one of ``METHODS``; ``dp_limit`` is the subset-DP size guard.
    """

    rule: Union[RuleKind, str]
    encoding: Optional[Union[EncodingKind, str]] = None
    windows: Optional[TimeWindows] = None
    prec: Union[None, str, PrecedenceGraph] = None
    method: str = "auto"
    dp_limit: int = DEFAULT_DP_LIMIT

    def __post_init__(self):
        object.__setattr__(self, "rule", RuleKind(self.rule))
        if self.encoding is not None:
            object.__setattr__(self, "encoding", _as_encoding(self.encoding))
        if not (self.prec is None or isinstance(self.prec, PrecedenceGraph)
                or self.prec == "inferred"):
            raise ValueError(f"prec must be None, 'inferred' or a PrecedenceGraph: {self.prec!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")


@dataclass(frozen=True, slots=True)
class Solution:
    """A solved request: schedule, rechecked exact cost, the path that ran, notes."""

    schedule: Schedule
    cost: int
    method: str
    notes: tuple[str, ...] = ()


def median_completion_times(profile: PreferenceProfile) -> tuple[int, ...]:
    """ceil(v/2)-th smallest completion time of each task (lower median), in 1..n.

    Read off a per-task histogram of completion times weighted by
    multiplicity: the median is the first slot whose cumulative count passes
    the pick index, so the cost is O(distinct * n + n^2), not O(v).
    """
    if profile.mode != "order":
        raise ValueError("medians require an order-mode profile")
    pick = (profile.v - 1) // 2  # 0-based index of the ceil(v/2)-th order statistic
    hist = _task_histogram(profile.completions, profile.mult, profile.n + 1)
    counts = np.cumsum(hist, axis=1)
    return tuple((counts > pick).argmax(axis=1).tolist())


def emd_schedule(profile: PreferenceProfile) -> Schedule:
    """Tasks by (median completion time ascending, task id ascending)."""
    medians = median_completion_times(profile)
    order = sorted(range(1, profile.n + 1), key=lambda j: (medians[j - 1], j))
    return Schedule(tuple(order))


def solve(profile: PreferenceProfile, spec: RuleSpec) -> Solution:
    """Check ``spec``, run the path it selects and recheck the cost.

    Each path prices its schedule off its cost matrix, so ``profile_cost``,
    repricing it from the profile (emd under its encoding, default tardiness),
    is an independent recheck; a mismatch raises ``AssertionError``. A request
    no path serves raises ``ValueError``, one no schedule satisfies
    ``InfeasibleError``, a DP past ``spec.dp_limit`` ``SizeLimitError``; the
    first two carry ``method`` (the path, or None) and the ``notes`` made before.
    """
    if spec.rule is RuleKind.EMD:
        encoding = spec.encoding if spec.encoding is not None else EncodingKind.TARDINESS
        criterion = canonical_criterion(encoding)
    else:
        encoding, criterion = spec.encoding, CriterionKind(spec.rule.value)
    notes: list[str] = []
    method = None
    try:
        method, constraint = _plan(profile, spec, criterion, notes)
        if method == "emd":
            schedule = emd_schedule(profile)
            cost = build_cost_matrix(profile, criterion, encoding).price(schedule)
        elif method == "matching":
            matrix = build_cost_matrix(profile, criterion, encoding, spec.windows)
            schedule, cost = min_cost_assignment(matrix)
        elif method == "matching+repair":
            from .precedence import solve_by_repair

            schedule, cost = solve_by_repair(profile, constraint, criterion, encoding)
        else:
            from .precedence import solve_with_graph

            schedule, cost = solve_with_graph(
                profile, constraint, criterion, encoding, spec.windows, size_limit=spec.dp_limit
            )
    except (InfeasibleError, ValueError) as exc:
        exc.method, exc.notes = method, tuple(notes)
        raise
    check = profile_cost(schedule, profile, criterion, encoding)
    if check != cost:
        raise AssertionError(f"solver cost {cost} != recomputed cost {check}")
    return Solution(schedule, cost, method, tuple(notes))


def _plan(profile: PreferenceProfile, spec: RuleSpec, criterion: CriterionKind,
          notes: list[str]) -> tuple[str, object]:
    """(path, the graph or inferred precedences it runs under); checks in a fixed order."""
    method, windows = spec.method, spec.windows
    if spec.rule is RuleKind.EMD:
        if method != "auto":
            raise ValueError("--method applies to the distance/binary rules only")
        if windows is not None or spec.prec is not None:
            notes.append("emd ignores --time/--prec constraints")
        if profile.mode != "order":
            raise ValueError("emd requires an order-mode profile")
        return "emd", None
    if profile.mode == "order" and spec.encoding is None:
        raise ValueError(f"--rule {spec.rule.value} needs --encoding on an order-mode profile")
    if profile.mode == "interval" and spec.encoding is not None:
        raise ValueError("interval-mode profiles take no --encoding")

    if spec.prec is None:
        if method == "repair":
            raise ValueError("--method repair requires --prec-mode inferred")
        if method == "dp":
            return "dp", PrecedenceGraph(n=profile.n, edges=frozenset())
        return "matching", None

    from .precedence import InferredPrecedences, _resolve_precedences

    inferred = spec.prec == "inferred"
    graph = _resolve_precedences(profile, spec.prec)

    if method == "matching":
        if windows is not None or graph.edges:
            notes.append("--method matching ignores precedence constraints")
        return "matching", None
    if method == "repair" or (
        method == "auto" and inferred and criterion is CriterionKind.DISTANCE and windows is None
    ):
        if not inferred:
            raise ValueError("--method repair applies to inferred precedences only")
        if windows is not None:
            raise ValueError("matching+repair does not honor --time; use --method dp")
        if criterion is not CriterionKind.DISTANCE:
            notes.append("repair guarantees optimality for the distance criterion only")
        return "matching+repair", InferredPrecedences(graph)
    return "dp", graph
