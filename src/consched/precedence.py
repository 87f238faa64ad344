"""Precedence-constraint machinery.

Two settings:

* **inferred** — the constraint graph is read off the profile itself: edge
  a -> b whenever *every* voter completes a before b. That relation is
  transitive and acyclic by construction. For the distance criterion the
  constrained optimum costs no more than the unconstrained one, and is reached
  by repairing any matching optimum with at most n^2 pairwise swaps
  (``repair_to_inferred``); for the binary criterion no such guarantee exists
  (there are profiles where every late-count optimum violates an inferred
  edge), so those requests go through the exact subset DP.

* **graph** — an externally imposed acyclic graph that the preferences need
  not reflect. Exact minimization is NP-hard for the named objectives even on
  chains, so ``solve_with_graph`` runs an exponential-but-exact dynamic
  program over task subsets, guarded by a size limit (default n <= 20).

The DP's validity rests on per-(task, slot) separability of both criteria:
scheduling set A in the first |A| slots costs f(A) = min over feasible last
tasks j of f(A \\ {j}) + cost(j, |A|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .assignment import build_cost_matrix, min_cost_assignment
from .criteria import CriterionKind, _as_criterion, profile_cost
from .errors import InfeasibleError, SizeLimitError
from .model import (
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _as_encoding,
)
from .rules import canonical_criterion

__all__ = [
    "InferredPrecedences",
    "infer_precedences",
    "repair_steps",
    "repair_to_inferred",
    "solve_inferred",
    "solve_with_graph",
    "DEFAULT_DP_LIMIT",
]

DEFAULT_DP_LIMIT = 20


@dataclass(frozen=True, slots=True)
class InferredPrecedences:
    """Graph with an edge a -> b iff every voter completes a before b."""

    graph: PrecedenceGraph


def infer_precedences(profile: PreferenceProfile) -> InferredPrecedences:
    """Extract the unanimous-order graph of an order-mode profile, O(v * n^2)."""
    if profile.mode != "order":
        raise ValueError("inferred precedences require an order-mode profile")
    comps = profile.completions
    always_before = (comps[:, :, None] < comps[:, None, :]).all(axis=0)
    a_idx, b_idx = np.nonzero(always_before)
    edges = frozenset((int(a) + 1, int(b) + 1) for a, b in zip(a_idx, b_idx))
    return InferredPrecedences(PrecedenceGraph(n=profile.n, edges=edges))


def repair_steps(
    schedule: Schedule, prec: InferredPrecedences
) -> tuple[Schedule, list[tuple[int, int]]]:
    """Drive a schedule into inferred-feasibility; returns (result, swap log).

    Processes vertices one at a time — always the smallest task id among the
    vertices with no successor in the not-yet-processed part of the graph —
    and, while the current vertex x still has a predecessor scheduled after
    it, swaps x with the closest such predecessor. Each swap's partner is a
    task that precedes x unanimously, so on a deviation- or tardiness-optimal
    input every swap preserves optimality. At most n^2 swaps (asserted).
    """
    graph = prec.graph
    n = schedule.n
    if graph.n != n:
        raise ValueError(f"graph covers {graph.n} tasks, schedule has {n}")
    order = list(schedule.order)
    pos = {task: idx for idx, task in enumerate(order)}
    preds: dict[int, list[int]] = {t: [] for t in range(1, n + 1)}
    succ_left: dict[int, int] = {t: 0 for t in range(1, n + 1)}
    for a, b in graph.edges:
        preds[b].append(a)
        succ_left[a] += 1

    remaining = set(range(1, n + 1))
    swaps: list[tuple[int, int]] = []
    while remaining:
        x = min(t for t in remaining if succ_left[t] == 0)
        while True:
            later = [p for p in preds[x] if pos[p] > pos[x]]
            if not later:
                break
            y = min(later, key=pos.__getitem__)
            pos[x], pos[y] = pos[y], pos[x]
            order[pos[x]], order[pos[y]] = x, y
            swaps.append((x, y))
            if len(swaps) > n * n:  # the procedure guarantees <= n^2
                raise AssertionError("swap budget n^2 exceeded")  # pragma: no cover
        remaining.remove(x)
        for p in preds[x]:
            succ_left[p] -= 1
    return Schedule(tuple(order)), swaps


def repair_to_inferred(schedule: Schedule, prec: InferredPrecedences) -> Schedule:
    """The schedule after the swap-repair procedure; satisfies every edge."""
    repaired, _ = repair_steps(schedule, prec)
    return repaired


def solve_inferred(
    profile: PreferenceProfile,
    encoding: Union[EncodingKind, str],
    criterion: Optional[Union[CriterionKind, str]] = None,
    backend: Optional[str] = None,
) -> tuple[Schedule, int]:
    """Optimal schedule among those satisfying the profile's inferred edges.

    ``criterion`` defaults to the encoding's canonical criterion. Distance
    requests run matching + repair (cost equals the unconstrained optimum:
    under this criterion late_tasks yields the tardiness windows and
    exact_position the deviation windows, and tardiness/earliness/deviation
    optima coincide pointwise, so the swap argument covers all five
    encodings). Binary requests run the exact subset DP on the inferred
    graph — their constrained optimum can strictly exceed the unconstrained
    one.
    """
    encoding = _as_encoding(encoding)
    criterion = canonical_criterion(encoding) if criterion is None else _as_criterion(criterion)
    prec = infer_precedences(profile)
    if criterion is CriterionKind.DISTANCE:
        matrix = build_cost_matrix(profile, criterion, encoding)
        schedule, _ = min_cost_assignment(matrix, backend=backend)
        repaired = repair_to_inferred(schedule, prec)
        return repaired, profile_cost(repaired, profile, criterion, encoding)
    return solve_with_graph(profile, prec.graph, criterion, encoding, backend=backend)


def solve_with_graph(
    profile: PreferenceProfile,
    graph: PrecedenceGraph,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
    windows: Optional[TimeWindows] = None,
    size_limit: int = DEFAULT_DP_LIMIT,
    backend: Optional[str] = None,
) -> tuple[Schedule, int]:
    """Exact optimum under an imposed acyclic graph via subset DP, O(2^n * n).

    Raises
    ------
    SizeLimitError
        When n exceeds ``size_limit`` (default 20); pass a larger limit to
        override deliberately.
    InfeasibleError
        With windows that admit no precedence-feasible completion (never
        happens for an acyclic graph without windows).
    """
    n = profile.n
    if graph.n != n:
        raise ValueError(f"graph covers {graph.n} tasks, profile has {n}")
    if n > size_limit:
        raise SizeLimitError(f"n={n} exceeds the subset-DP limit {size_limit}")
    matrix = build_cost_matrix(profile, criterion, encoding, windows)
    pred_mask = np.zeros(n, dtype=np.int64)
    for a, b in graph.edges:
        pred_mask[b - 1] |= 1 << (a - 1)
    allowed = (
        ~matrix.forbidden if matrix.forbidden is not None else np.ones((n, n), dtype=bool)
    )
    slot_order = _kernels.subset_dp(matrix.cost, pred_mask, allowed, backend=backend)
    if slot_order[0] < 0:
        raise InfeasibleError("no schedule satisfies the precedence graph and windows")
    schedule = Schedule(tuple(int(j) + 1 for j in slot_order))
    total = int(matrix.cost[slot_order, np.arange(n)].sum())
    return schedule, total
