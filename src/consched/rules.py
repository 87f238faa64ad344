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

``solve`` is the one place that picks the algorithm. Its arguments mirror the
``consched solve`` flags; ``solve`` checks them, builds the request's one cost
matrix, runs one path on it (each returns only the schedule), prices that
schedule once, rechecks its cost and constraints and returns a ``Solution``
naming the path: ``emd`` (no windows, no imposed graph), ``matching`` (the
assignment reduction, never EMD even where EMD is optimal; a graph with no
edge counts as none), ``matching+repair`` (distance under inferred precedences
with an edge, without windows) or ``dp`` (the exact subset DP; every other
graph with an edge, and ``method="dp"``). A request a path would not honor is refused.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import _EXPORTS
from .assignment import build_cost_matrix, min_cost_assignment
from .criteria import CriterionKind, _order_window, _task_histogram, profile_cost
from .errors import DEFAULT_DP_LIMIT, InfeasibleError
from .model import (
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _as_encoding,
    _check_fit,
    _Record,
)

__all__ = _EXPORTS["rules"]


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


RULES = ("distance", "binary", "emd")
METHODS = ("auto", "dp")


class Solution(_Record):
    """A solved request: schedule, rechecked exact cost, the path that ran."""

    __slots__ = _fields = ("schedule", "cost", "method")

    def __init__(self, schedule: Schedule, cost: int, method: str):
        self._fill(schedule, cost, method)


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


def solve(
    profile: PreferenceProfile,
    rule: str,
    encoding: Optional[Union[EncodingKind, str]] = None,
    windows: Optional[TimeWindows] = None,
    prec: Union[None, str, PrecedenceGraph] = None,
    method: str = "auto",
    dp_limit: int = DEFAULT_DP_LIMIT,
) -> Solution:
    """Check the request, run the path it selects, recheck the cost and the constraints.

    The arguments mirror the ``consched solve`` flags: ``rule`` is one of
    ``RULES``, ``prec`` is None, ``"inferred"`` or an imposed
    ``PrecedenceGraph``, ``method`` is one of ``METHODS`` and ``dp_limit`` is
    the subset-DP size guard. Each path returns only a schedule, which
    ``solve`` prices once from the request's one cost matrix, so
    ``profile_cost``, repricing the schedule from the profile (emd under its
    encoding, default tardiness), is an independent recheck. The schedule
    must then meet every window and every edge of the graph the path ran
    under. A failed recheck or check raises ``AssertionError``. An unknown
    argument, and windows or a graph over another n (``model._check_fit``, as
    in the oracle), raise ``ValueError`` before any path is planned. A request
    no path honors raises ``ValueError``, one no schedule satisfies
    ``InfeasibleError``, a DP past ``dp_limit`` ``SizeLimitError``; the first
    two carry ``method`` (the path, or None).
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    if encoding is not None:
        encoding = _as_encoding(encoding)
    _check_fit(profile.n, windows, prec)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if rule == "emd":
        encoding = encoding if encoding is not None else EncodingKind.TARDINESS
        criterion = canonical_criterion(encoding)
    else:
        criterion = CriterionKind(rule)
    path = None
    try:
        path, graph = _plan(profile, rule, encoding, windows, prec, method, criterion)
        matrix = build_cost_matrix(profile, criterion, encoding, windows)
        if path == "emd":
            schedule = emd_schedule(profile)
        elif path == "dp":
            from .precedence import solve_with_graph

            schedule = solve_with_graph(matrix, graph, dp_limit)
        else:
            schedule = min_cost_assignment(matrix)
            if path == "matching+repair":
                from .precedence import repair_steps

                schedule = repair_steps(schedule, graph)[0]
        cost = matrix.price(schedule)
    except (InfeasibleError, ValueError) as exc:
        exc.method = path
        raise
    check = profile_cost(schedule, profile, criterion, encoding)
    if check != cost:
        raise AssertionError(f"solver cost {cost} != recomputed cost {check}")
    _check_constraints(schedule, windows, graph)
    return Solution(schedule, cost, path)


def _check_constraints(schedule: Schedule, windows: Optional[TimeWindows],
                       graph: Optional[PrecedenceGraph]) -> None:
    """Raise ``AssertionError`` unless the schedule meets every window and edge, O(n + E)."""
    comp = schedule.completions()
    for task, ((r, d), c) in enumerate(zip(windows.windows if windows else (), comp), start=1):
        if not r < c <= d:
            raise AssertionError(f"task {task} completes at {c}, outside its window ({r},{d}]")
    for a, b in graph.edges if graph else ():
        if comp[a - 1] >= comp[b - 1]:
            raise AssertionError(f"task {a} completes at {comp[a - 1]}, "
                                 f"not before task {b} at {comp[b - 1]}")


def _plan(profile: PreferenceProfile, rule: str, encoding: Optional[EncodingKind],
          windows: Optional[TimeWindows], prec: Union[None, str, PrecedenceGraph],
          method: str, criterion: CriterionKind) -> tuple[str, Optional[PrecedenceGraph]]:
    """(path, the precedence graph its schedule must satisfy or None); checks in a fixed order."""
    if rule == "emd":
        if method != "auto":
            raise ValueError("--method applies to the distance/binary rules only")
        if profile.mode != "order":
            raise ValueError("emd requires an order-mode profile")
        if windows is not None or isinstance(prec, PrecedenceGraph):
            raise ValueError("emd does not honor --time or --prec-mode graph")
        if prec is None:
            return "emd", None
        # When every voter completes a before b, a's lower median is below b's,
        # so the median order already honors the inferred graph.
        from .precedence import infer_precedences

        return "emd", infer_precedences(profile)
    _order_window(profile, encoding)

    graph = None
    if prec is not None:
        from .precedence import _resolve_precedences

        graph = _resolve_precedences(profile, prec)
    if method == "dp":
        return "dp", graph if graph is not None else PrecedenceGraph(profile.n, frozenset())
    if graph is None or not graph.edges:  # nothing to honor beyond the windows
        return "matching", None
    if prec == "inferred" and criterion is CriterionKind.DISTANCE and windows is None:
        return "matching+repair", graph
    return "dp", graph
