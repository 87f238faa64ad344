"""Reduction of criterion minimization to min-cost perfect bipartite matching.

Because both criteria price each (task, slot) pair independently of where the
other tasks land, minimizing a profile cost is an assignment problem: build
the n x n matrix cost[j][t] = summed voter dissatisfaction if task j completes
at slot t, then find a min-cost perfect matching between tasks and slots.
Global time windows remove (task, slot) pairs from the bipartite graph
entirely — they are tracked as an explicit forbidden mask, and an instance
whose allowed edges admit no perfect matching is reported infeasible rather
than expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .criteria import CriterionKind, _as_criterion, _task_histogram, interval_arrays
from .errors import InfeasibleError
from .model import EncodingKind, PreferenceProfile, Schedule, TimeWindows

__all__ = ["CostMatrix", "build_cost_matrix", "min_cost_assignment"]


@dataclass(eq=False)
class CostMatrix:
    """cost[j-1][t-1] = total dissatisfaction if task j completes at slot t.

    ``forbidden`` marks window-excluded pairs; those entries carry no cost
    semantics and are never read by the solver. Treat instances as immutable.
    """

    n: int
    cost: np.ndarray
    forbidden: Optional[np.ndarray] = None

    def __post_init__(self):
        cost = np.asarray(self.cost)
        if not np.issubdtype(cost.dtype, np.integer):
            raise ValueError(f"cost matrix must be integral, got dtype {cost.dtype}")
        self.cost = cost.astype(np.int64)
        if self.cost.shape != (self.n, self.n):
            raise ValueError(f"cost matrix must be {self.n}x{self.n}")
        if (self.cost < 0).any():
            raise ValueError("cost matrix entries must be non-negative")
        if self.forbidden is not None:
            self.forbidden = np.asarray(self.forbidden, dtype=bool)
            if self.forbidden.shape != (self.n, self.n):
                raise ValueError(f"forbidden mask must be {self.n}x{self.n}")


def build_cost_matrix(
    profile: PreferenceProfile,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
    windows: Optional[TimeWindows] = None,
) -> CostMatrix:
    """Accumulate per-voter window costs over all (task, slot) pairs.

    Both criteria are sums over voters of a per-(task, slot) price, so the
    profile enters only through per-task histograms of due dates d and of
    release dates r, weighted by multiplicity (exact int64 counts). With W
    the weight and S the date-weighted sum of the voters counted, prefix
    sums give every column at once:

    * late(j, t)  = t * W[d < t] - S[d < t]        (distance past the due date)
    * early(j, t) = S[r >= t] - (t - 1) * W[r >= t] (distance before the release)
    * binary(j, t) = W[d < t] + W[r >= t]           (r < d, so never both)

    and distance = late + early. O(distinct-prefs * n + n^2) time and O(n^2)
    memory beyond the window arrays. Every entry and intermediate is at most
    n * v and a schedule's total at most v * n * (n + 1), which
    :class:`PreferenceProfile` keeps inside int64. When ``windows`` is given,
    pair (j, t) is forbidden unless r_j < t <= d_j.
    """
    criterion = _as_criterion(criterion)
    n = profile.n
    rel, due, mult = interval_arrays(profile, encoding)
    dates = np.arange(n + 1, dtype=np.int64)  # windows take values 0..n
    w_due = _task_histogram(due, mult, n + 1)
    w_rel = _task_histogram(rel, mult, n + 1)
    # Column t-1 of a prefix sums dates x < t; column t of a suffix dates x >= t.
    w_before = np.cumsum(w_due, axis=1)[:, :n]
    w_from = np.cumsum(w_rel[:, ::-1], axis=1)[:, ::-1][:, 1:]
    if criterion is CriterionKind.BINARY:
        cost = w_before + w_from
    else:
        s_before = np.cumsum(w_due * dates, axis=1)[:, :n]
        s_from = np.cumsum((w_rel * dates)[:, ::-1], axis=1)[:, ::-1][:, 1:]
        t = dates[1:]
        cost = (t * w_before - s_before) + (s_from - (t - 1) * w_from)

    forbidden = None
    if windows is not None:
        if windows.n != n:
            raise ValueError(f"windows cover {windows.n} tasks, profile has {n}")
        wr = np.array([r for r, _ in windows.windows], dtype=np.int64)[:, None]
        wd = np.array([d for _, d in windows.windows], dtype=np.int64)[:, None]
        ts = np.arange(1, n + 1, dtype=np.int64)[None, :]
        forbidden = (ts <= wr) | (ts > wd)
    return CostMatrix(n=n, cost=cost, forbidden=forbidden)


def min_cost_assignment(
    matrix: CostMatrix, backend: Optional[str] = None
) -> tuple[Schedule, int]:
    """Minimum-total-cost schedule avoiding forbidden pairs, O(n^3).

    Deterministic: tasks and slots are processed in increasing index order, so
    ties resolve reproducibly (implementation-defined among equal-cost
    optima).

    Raises
    ------
    InfeasibleError
        When no perfect matching avoids all forbidden pairs.
    """
    slots = _kernels.hungarian(matrix.cost, matrix.forbidden, backend=backend)
    if slots[0] < 0:
        raise InfeasibleError("time windows admit no feasible schedule")
    order = np.empty(matrix.n, dtype=np.int64)
    order[slots] = np.arange(1, matrix.n + 1, dtype=np.int64)
    if matrix.forbidden is not None and matrix.forbidden[np.arange(matrix.n), slots].any():
        raise AssertionError("matching used a forbidden pair")  # pragma: no cover
    total = int(matrix.cost[np.arange(matrix.n), slots].sum())
    return Schedule(tuple(int(x) for x in order)), total
