"""Precedence-constraint machinery.

Two settings, and ``rules.solve`` picks the path for each:

* **inferred** — the constraint graph is read off the profile itself: edge
  a -> b whenever *every* voter completes a before b. That relation is
  transitive and acyclic by construction. For the distance criterion the
  constrained optimum costs no more than the unconstrained one, and is reached
  by repairing any matching optimum with at most n(n-1)/2 pairwise
  swaps (``repair_steps``). That covers all five encodings: under the distance
  criterion late_tasks yields the tardiness windows and exact_position the
  deviation windows, and tardiness, earliness and deviation optima coincide
  pointwise, so the swap argument applies to each. For the binary criterion
  no such guarantee exists (there are profiles where every late-count optimum
  violates an inferred edge), so those requests go through the exact subset DP.

* **graph** — an externally imposed acyclic graph that the preferences need
  not reflect. Exact minimization is NP-hard for the named objectives even on
  chains, so ``solve_with_graph`` runs an exponential-but-exact dynamic
  program over task subsets, guarded by a size limit (default n <= 20).

The DP's validity rests on per-(task, slot) separability of both criteria:
scheduling set A in the first |A| slots costs f(A) = min over feasible last
tasks j of f(A \\ {j}) + cost(j, |A|). ``rules.solve`` builds the cost matrix
and prices the result; this module only orders tasks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from .criteria import pair_weight_matrix
from .errors import DEFAULT_DP_LIMIT, InfeasibleError, SizeLimitError
from .model import PrecedenceGraph, PreferenceProfile, Schedule

if TYPE_CHECKING:
    from .assignment import CostMatrix

__all__ = ["infer_precedences", "repair_steps", "solve_with_graph"]


def infer_precedences(profile: PreferenceProfile) -> PrecedenceGraph:
    """The unanimous-order graph of an order-mode profile, O(distinct * n^2).

    a -> b exactly when ``pair_weight_matrix`` gives w[a, b] == v: every
    multiplicity is at least 1, so all v voters complete a before b.
    """
    if profile.mode != "order":
        raise ValueError("inferred precedences require an order-mode profile")
    a_idx, b_idx = np.nonzero(pair_weight_matrix(profile) == profile.v)
    edges = frozenset((int(a) + 1, int(b) + 1) for a, b in zip(a_idx, b_idx))
    return PrecedenceGraph(n=profile.n, edges=edges)


def _resolve_precedences(profile: PreferenceProfile,
                         prec: Union[str, PrecedenceGraph]) -> PrecedenceGraph:
    """The graph a request runs under: an imposed ``prec``, or for ``"inferred"`` the profile's."""
    if isinstance(prec, PrecedenceGraph):
        return prec
    if profile.mode != "order":
        raise ValueError("--prec-mode inferred requires an order-mode profile")
    return infer_precedences(profile)


def repair_steps(
    schedule: Schedule, graph: PrecedenceGraph
) -> tuple[Schedule, list[tuple[int, int]]]:
    """Drive a schedule into feasibility under an acyclic graph; returns (result, swap log).

    One scan over the slots, first to last: while the task x at the current
    slot has a direct predecessor (an edge y -> x) at a later slot, x is
    swapped with the closest such y and (x, y) is logged; otherwise the scan
    moves to the next slot.

    * No closure is needed: the scan never changes a slot to its left, and
      it leaves a slot only when that slot's task has no later predecessor,
      so the result meets every edge.
    * At most n(n-1)/2 swaps (asserted): against any fixed topological
      order, each swap undoes the inversion (y, x) and adds none on net.
    * Distance costs never rise when every voter completes y before x, as
      under an inferred graph: the swap moves both tasks' gaps t - C inward
      while keeping their sum, and each distance encoding prices a gap with
      one convex function (deviation, tardiness and earliness; late tasks
      and exact position reduce to these under the distance criterion). So
      a distance-optimal input stays optimal.
    """
    n = schedule.n
    if graph.n != n:
        raise ValueError(f"graph covers {graph.n} tasks, schedule has {n}")
    order = list(schedule.order)
    pos = [0] * (n + 1)  # pos[task] = its index in order
    for idx, task in enumerate(order):
        pos[task] = idx
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in graph.edges:
        preds[b].append(a)
    swaps: list[tuple[int, int]] = []
    for k in range(n):
        while True:
            x = order[k]
            at = min((pos[y] for y in preds[x] if pos[y] > k), default=k)  # closest later one
            if at == k:
                break
            y = order[at]
            order[k], order[at] = y, x
            pos[x], pos[y] = at, k
            swaps.append((x, y))
            if len(swaps) > n * (n - 1) // 2:  # each swap undoes an inversion
                raise AssertionError("swap budget n(n-1)/2 exceeded")  # pragma: no cover
    return Schedule(tuple(order)), swaps


def solve_with_graph(
    matrix: CostMatrix, graph: PrecedenceGraph, size_limit: int = DEFAULT_DP_LIMIT
) -> Schedule:
    """Exact optimum of ``matrix`` under an acyclic graph via subset DP, O(2^n * n).

    The matrix's forbidden cells (time windows) are never used. Returns only
    the schedule; ``matrix.price`` gives its cost. Ties go to the smallest
    last task: each subset ends with the smallest of its equal-cost choices.

    Raises
    ------
    ValueError
        When ``size_limit`` is not an int >= 0.
    SizeLimitError
        When n exceeds ``size_limit`` (default 20); pass a larger limit to
        override deliberately. Also, whatever the limit, when n >= 63 (the
        predecessor sets are int64 bit masks) or when the DP's 2^n-entry
        tables cannot be allocated.
    InfeasibleError
        With windows that admit no precedence-feasible completion (never
        happens for an acyclic graph without windows).
    """
    if not isinstance(size_limit, int) or size_limit < 0:
        raise ValueError(f"size_limit must be an int >= 0, got {size_limit!r}")
    n = matrix.n
    if graph.n != n:
        raise ValueError(f"graph covers {graph.n} tasks, cost matrix has {n}")
    if n > size_limit:
        raise SizeLimitError(f"n={n} exceeds the subset-DP limit {size_limit}")
    if n >= 63:
        raise SizeLimitError(f"n={n} exceeds the subset DP's int64 bit-mask limit 62")
    pred_mask = np.zeros(n, dtype=np.int64)
    for a, b in graph.edges:
        pred_mask[b - 1] |= 1 << (a - 1)
    allowed = (
        ~matrix.forbidden if matrix.forbidden is not None else np.ones((n, n), dtype=bool)
    )
    slot_order = _subset_dp(matrix.cost, pred_mask, allowed)
    if slot_order[0] < 0:
        raise InfeasibleError("no schedule satisfies the precedence graph and windows")
    return Schedule(tuple(int(j) + 1 for j in slot_order))


def _subset_dp(cost: np.ndarray, pred_mask: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Optimal precedence-feasible slot order; order[k] = task at slot k+1.

    ``pred_mask[j]`` holds one bit per predecessor of task j; ``allowed[j, k]``
    says task j may occupy slot k+1. Returns all -1s when infeasible, and
    raises :class:`SizeLimitError` when the 2^n-entry tables cannot be
    allocated.

    f(A) = min over feasible last tasks j of f(A \\ {j}) + cost[j, |A| - 1].
    f is filled one popcount layer at a time (|A| = 1..n), so the Python loop
    runs n^2 times instead of 2^n: for each layer k and each task j in
    ascending order it prices j as the last of every k-subset at once, and
    replaces the running best only on a strictly smaller value. Ties
    therefore go to the smallest j, exactly as a per-subset scan in ascending
    j breaks them (``reference_subset_dp`` in the tests).
    Reachable subsets are tracked in a boolean array rather than with a cost
    sentinel, so no optimum, however large, is mistaken for infeasible.
    """
    n = cost.shape[0]
    size = 1 << n
    try:  # NumPy refuses a size past its index range with ValueError
        popcnt = np.bitwise_count(np.arange(size, dtype=np.uint64))  # uint8
        f = np.zeros(size, dtype=np.int64)
        reach = np.zeros(size, dtype=np.bool_)
        choice = np.full(size, -1, dtype=np.int8)
    except (MemoryError, ValueError) as exc:
        raise SizeLimitError(f"the subset DP's 2^{n}-entry tables do not fit: {exc}") from None
    reach[0] = True
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcnt == k)
        for j in range(n):  # ascending j with a strict < keeps the first minimum
            bit = 1 << j
            pred = int(pred_mask[j])
            if not allowed[j, k - 1] or pred & bit:
                continue
            need = bit | pred  # j is in the mask and its predecessors in the rest
            masks = layer[(layer & need) == need]
            masks = masks[reach[masks ^ bit]]
            vals = f[masks ^ bit] + cost[j, k - 1]
            better = ~reach[masks] | (vals < f[masks])
            masks = masks[better]
            f[masks] = vals[better]
            reach[masks] = True
            choice[masks] = j
    order = np.full(n, -1, dtype=np.int64)
    full = size - 1
    if not reach[full]:
        return order
    mask = full
    for k in range(n, 0, -1):
        j = int(choice[mask])
        order[k - 1] = j
        mask ^= 1 << j
    return order
