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
schedule once, rechecks the cost with ``profile_cost`` and returns a
``Solution`` naming the path: ``emd`` (which ignores windows and precedences),
``matching`` (the assignment reduction, never EMD even where EMD is optimal;
windows only), ``matching+repair`` (``auto``'s exact path for distance under
inferred precedences without windows) or ``dp`` (the exact subset DP;
``auto``'s path for every other precedence request).
"""

from __future__ import annotations

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
    _Record,
)

__all__ = [
    "Solution",
    "canonical_criterion",
    "median_completion_times",
    "emd_schedule",
    "solve",
]


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
METHODS = ("auto", "matching", "dp", "repair")


class Solution(_Record):
    """A solved request: schedule, rechecked exact cost, the path that ran, notes."""

    __slots__ = _fields = ("schedule", "cost", "method", "notes")

    def __init__(self, schedule: Schedule, cost: int, method: str, notes: tuple[str, ...] = ()):
        self._fill(schedule, cost, method, notes)


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
    """Check the request, run the path it selects and recheck the cost.

    The arguments mirror the ``consched solve`` flags: ``rule`` is one of
    ``RULES``, ``prec`` is None, ``"inferred"`` or an imposed
    ``PrecedenceGraph``, ``method`` is one of ``METHODS`` and ``dp_limit`` is
    the subset-DP size guard. Each path returns only a schedule, which
    ``solve`` prices once from the request's one cost matrix (built without
    windows for emd), so ``profile_cost``, repricing the schedule from the
    profile (emd under its encoding, default tardiness), is an independent
    recheck; a mismatch raises ``AssertionError``. An unknown argument, and
    windows or a graph over another number of tasks than the profile's, raise
    ``ValueError`` before any path is planned. A request no path serves
    raises ``ValueError``, one no schedule satisfies ``InfeasibleError``, a DP
    past ``dp_limit`` ``SizeLimitError``; the first two carry ``method`` (the
    path, or None) and the ``notes`` made before.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    if encoding is not None:
        encoding = _as_encoding(encoding)
    if not (prec is None or isinstance(prec, PrecedenceGraph) or prec == "inferred"):
        raise ValueError(f"prec must be None, 'inferred' or a PrecedenceGraph: {prec!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if windows is not None and windows.n != profile.n:
        raise ValueError(f"windows cover {windows.n} tasks, profile has {profile.n}")
    if isinstance(prec, PrecedenceGraph) and prec.n != profile.n:
        raise ValueError(f"graph covers {prec.n} tasks, profile has {profile.n}")
    if rule == "emd":
        encoding = encoding if encoding is not None else EncodingKind.TARDINESS
        criterion = canonical_criterion(encoding)
    else:
        criterion = CriterionKind(rule)
    notes: list[str] = []
    path = None
    try:
        path, graph = _plan(profile, rule, encoding, windows, prec, method, criterion, notes)
        windows = None if path == "emd" else windows
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
        exc.method, exc.notes = path, tuple(notes)
        raise
    check = profile_cost(schedule, profile, criterion, encoding)
    if check != cost:
        raise AssertionError(f"solver cost {cost} != recomputed cost {check}")
    return Solution(schedule, cost, path, tuple(notes))


def _plan(profile: PreferenceProfile, rule: str, encoding: Optional[EncodingKind],
          windows: Optional[TimeWindows], prec: Union[None, str, PrecedenceGraph],
          method: str, criterion: CriterionKind,
          notes: list[str]) -> tuple[str, Optional[PrecedenceGraph]]:
    """(path, the precedence graph it runs under or None); checks in a fixed order."""
    if rule == "emd":
        if method != "auto":
            raise ValueError("--method applies to the distance/binary rules only")
        if profile.mode != "order":
            raise ValueError("emd requires an order-mode profile")
        if windows is not None or prec is not None:
            notes.append("emd ignores --time/--prec constraints")
        return "emd", None
    if profile.mode == "order" and encoding is None:
        raise ValueError(f"--rule {rule} needs --encoding on an order-mode profile")
    if profile.mode == "interval" and encoding is not None:
        raise ValueError("interval-mode profiles take no --encoding")

    if prec is None:
        if method == "repair":
            raise ValueError("--method repair requires --prec-mode inferred")
        if method == "dp":
            return "dp", PrecedenceGraph(n=profile.n, edges=frozenset())
        return "matching", None

    from .precedence import _resolve_precedences

    inferred = prec == "inferred"
    graph = _resolve_precedences(profile, prec)

    if method == "matching":
        if graph.edges:
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
        return "matching+repair", graph
    return "dp", graph
