"""Reduction of criterion minimization to min-cost perfect bipartite matching.

Because both criteria price each (task, slot) pair independently of where the
other tasks land, minimizing a profile cost is an assignment problem: build
the n x n matrix cost[j][t] = summed voter dissatisfaction if task j completes
at slot t, then find a min-cost perfect matching between tasks and slots.
Global time windows remove (task, slot) pairs from the bipartite graph
entirely — they are tracked as an explicit forbidden mask, and an instance
whose allowed edges admit no perfect matching is reported infeasible rather
than expensive.

The matching is the shortest-augmenting-path Hungarian method with
potentials, O(n^3) (Jonker & Volgenant 1987; Crouse 2016), in ``_hungarian``.
Each phase runs one Dijkstra over one n x n matrix, ``cost - v`` less the
column potentials, whose tree columns are updated once per phase; the row
potentials stay Python integers and enter each step through its scalar
offset. Distances stay absolute from the start of the phase, so a step is
three NumPy calls over one row (add, minimum, argmin) with or without
windows, and tree columns are marked by -1 rather than masked. Forbidden
pairs are written into that matrix once, at a pinned cost above every
optimum, so no relaxation through one can beat an allowed distance; a phase
whose least value reached is a forbidden one reports infeasible. The phase
keeps no predecessor array; it rebuilds only the augmenting path from the
rows it expanded. Ties go to the first minimum in column order, so the slots
are a fixed function of the matrix (the tests' plain-Python
``reference_hungarian`` pins them). The arithmetic is int64 while
n * C < 2^62, with C the largest allowed entry, and exact Python integers
beyond.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .criteria import CriterionKind, _as_criterion, _task_histogram, interval_arrays
from .errors import InfeasibleError
from .model import (
    _INT64_MAX,
    EncodingKind,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _check_size,
    _count,
    _Record,
)

__all__ = ["CostMatrix", "build_cost_matrix", "min_cost_assignment"]


class CostMatrix(_Record):
    """cost[j-1][t-1] = total dissatisfaction if task j completes at slot t.

    ``forbidden`` marks window-excluded pairs; those cells carry no cost
    semantics and are never read by the solver. The fields cannot be
    reassigned, and a matrix equals only itself.
    """

    __slots__ = _fields = ("n", "cost", "forbidden")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, cost: np.ndarray, forbidden: Optional[np.ndarray] = None):
        n = _count(n, "cost matrix n")
        cost = np.asarray(cost)
        if not np.issubdtype(cost.dtype, np.integer):
            raise ValueError(f"cost matrix must be integral, got dtype {cost.dtype}")
        cost = cost.astype(np.int64)
        if cost.shape != (n, n):
            raise ValueError(f"cost matrix must be {n}x{n}")
        if (cost < 0).any():
            raise ValueError("cost matrix entries must be non-negative")
        if forbidden is not None:
            forbidden = np.asarray(forbidden, dtype=bool)
            if forbidden.shape != (n, n):
                raise ValueError(f"forbidden mask must be {n}x{n}")
        self._fill(n, cost, forbidden)

    def price(self, schedule: Schedule) -> int:
        """Sum of cost[j-1][t-1] over the tasks j of a schedule and their slots t."""
        _check_size(schedule, self.n)
        tasks = np.array(schedule.order, dtype=np.int64) - 1
        return int(self.cost[tasks, np.arange(self.n)].sum())


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


def _hungarian(cost: np.ndarray, forbidden: Optional[np.ndarray]) -> np.ndarray:
    """Min-cost perfect matching of a ``CostMatrix``; slots[j] = 0-based slot of row j.

    Returns all -1s when ``forbidden`` rules out every perfect matching. Rows
    are matched one phase at a time (row i in phase i).

    ``red`` holds ``cost[r, j] - v[j]``, the cost less the column potential,
    and ``u`` holds the row potentials as Python integers. A forbidden cell
    holds ``pin - v[j]``, as if it cost ``pin = n*C + 1``, where C is the
    largest allowed entry; forbidden entries are never read. A phase is a
    Dijkstra from row i. ``minv[j]`` is the distance of column j from the
    start of the phase, and ``off`` (a 0-d array) is ``d - u[r]`` for the
    row r being expanded, reached at distance d. A step takes three NumPy
    calls: ``red[r] + off``, a ``minimum`` into ``minv`` and an ``argmin``
    that picks the next column (the first on ties). On an allowed cell
    ``red[r, j] + off`` is the reduced cost ``cost[r, j] - u[r] - v[j]``
    plus d, which the textbook form, shifting ``u``, ``v`` and ``minv`` by
    every step's delta, offsets by one constant per step; so both take the
    same branches and break the same ties. A tree column holds -1 in
    ``minv``: -1 survives every minimum, and argmin reads ``minv`` as uint64,
    where -1 is 2^64 - 1. The phase ends when a free column joins; it reports
    infeasible when the least value reached is a forbidden one, at least
    ``limit = pin - spent``, with ``spent`` the sum of the earlier phases'
    final distances.

    No ``way`` array is kept: the phase logs its expanded rows with their
    distances and offsets, and rebuilds only the augmenting path, backwards
    from the free column. A column's predecessor is the first logged row whose relaxed
    value ``red[r, j] + d - u[r]`` equals the column's distance; earlier rows
    relaxed it to more, so the textbook's strict ``<`` recorded that row.
    Then each tree row's ``u`` and each tree column of ``red`` rise by
    ``d - joined`` (row i's ``u`` by d).

    Bound. Let OPT(k) <= k*C be the least cost of matching the first k rows
    over allowed cells. In phase i, ``spent`` is OPT(i-1) (the dual
    objective), and 0 <= u <= OPT(i-1) and 0 <= -v <= OPT(i-1), because a
    phase raises a potential by at most its final distance. An allowed
    relaxed value is at least 0, and a forbidden one at least
    ``pin - OPT(i-1) = limit``, since d >= 0. When rows 1..i can be matched,
    every distance the phase picks is at most OPT(i) - OPT(i-1) < limit: no
    forbidden value is ever the least, not even on a tie, and none equals a
    picked distance in the rebuild. When they cannot, no free column is
    reachable over allowed cells, so the phase ends on a value of at least
    ``limit``. Every distance expanded is below ``limit``, so ``off`` lies in
    [-OPT(i-1), limit), the allowed cells of ``red`` in [0, C + OPT(i-1)],
    the forbidden ones in [pin, pin + OPT(i-1)], and every relaxed value in
    [0, 2*pin). The kernel runs in int64 while 2*pin - 1 <= 2^63 - 1, that
    is n*C < 2^62, with the int64 maximum as ``top``; beyond, it runs the
    same steps on Python integers, where ``argmin`` reads -1 as
    ``top = 2*pin``. A consensus matrix has C <= (n-1)*v for v voters, so
    under the parse bound v*n*(n+1) <= 2^63 - 1 every profile with n <= 3
    stays in int64, and only profiles in the top half of that range leave it.
    """
    n = cost.shape[0]
    masked = forbidden is not None and forbidden.any()
    pin = n * int(cost.max(initial=0, where=~forbidden) if masked else cost.max()) + 1
    if 2 * pin - 1 <= _INT64_MAX:
        dtype, top, red = np.int64, _INT64_MAX, cost.copy()
    else:
        dtype, top, red = object, 2 * pin, cost.astype(object)
    if masked:
        red[forbidden] = pin
    red_rows = list(red)  # views, so the phase-end updates reach them
    u = [0] * n
    row_of = [-1] * n  # matched row of each column
    minv = np.empty(n, dtype=dtype)
    cur = np.empty(n, dtype=dtype)
    off = np.zeros((), dtype=dtype)
    if dtype is object:
        def pick():
            return np.where(minv < 0, top, minv).argmin()
    else:
        pick = minv.view(np.uint64).argmin
    add, minimum = np.add, np.minimum  # local names for the hot loop
    spent = 0
    for i in range(n):
        minv.fill(top)
        off[()] = 0
        limit = pin - spent
        rows, dists, offs, tree = [i], [0], [0], []  # expanded rows, distances, offsets; tree columns
        r = i
        while True:
            add(red_rows[r], off, out=cur)
            minimum(minv, cur, out=minv)
            j = int(pick())
            d = minv.item(j)
            if d >= limit:
                return np.full(n, -1, dtype=np.int64)
            r = row_of[j]
            if r < 0:
                break
            minv[j] = -1
            off[()] = o = d - u[r]
            offs.append(o)
            rows.append(r)
            dists.append(d)
            tree.append(j)
        spent += d
        at = np.array(rows)
        base = np.array(offs, dtype=dtype)
        rise = np.zeros(n, dtype=dtype)  # one dense add beats a strided scatter on big trees
        rise[tree] = d - np.array(dists[1:], dtype=dtype)
        for r, dr in zip(rows, dists):
            u[r] += d - dr
        while True:  # the augmenting path, backwards from the free column j
            k = int((red[at, j] + base == d).argmax())
            row_of[j] = rows[k]
            if k == 0:
                break
            j, d = tree[k - 1], dists[k]
        red += rise
    slots = np.empty(n, dtype=np.int64)
    slots[row_of] = np.arange(n)
    return slots


def min_cost_assignment(matrix: CostMatrix) -> tuple[Schedule, int]:
    """Minimum-total-cost schedule avoiding forbidden pairs, O(n^3).

    Deterministic: tasks and slots are processed in increasing index order, so
    ties resolve reproducibly (implementation-defined among equal-cost
    optima).

    Raises
    ------
    InfeasibleError
        When no perfect matching avoids all forbidden pairs.
    """
    slots = _hungarian(matrix.cost, matrix.forbidden)
    if slots[0] < 0:
        raise InfeasibleError("time windows admit no feasible schedule")
    order = np.empty(matrix.n, dtype=np.int64)
    order[slots] = np.arange(1, matrix.n + 1, dtype=np.int64)
    if matrix.forbidden is not None and matrix.forbidden[np.arange(matrix.n), slots].any():
        raise AssertionError("matching used a forbidden pair")  # pragma: no cover
    total = int(matrix.cost[np.arange(matrix.n), slots].sum())
    return Schedule(tuple(int(x) for x in order)), total
