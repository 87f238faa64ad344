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
Each phase runs one Dijkstra over one n x n matrix of reduced costs,
``cost - u - v``, which is updated once per phase, and only on the rows the
phases have reached. Distances are kept relative to the phase's current
one, so a step is two NumPy calls over one row (minimum, argmin) with or
without windows, and a third (a subtraction) only when the distance grows;
tree columns hold negative values rather than being masked. Forbidden
pairs are written into that matrix once, at a pinned cost above every
optimum, so no relaxation through one can beat an allowed distance; a phase
whose least value reached is a forbidden one reports infeasible. The phase
keeps no predecessor array; it rebuilds only the augmenting path, over the
cells the phase made tight. Ties go to the first minimum in column order, so
the slots are a fixed function of the matrix (the tests' plain-Python
``reference_hungarian`` pins them). The arithmetic is int64 throughout:
``CostMatrix`` refuses n * C >= 2^62, with C the largest allowed entry.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import _EXPORTS
from .criteria import CriterionKind, _as_criterion, _order_window, _task_histogram
from .errors import InfeasibleError
from .model import (
    EncodingKind,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _check_fit,
    _check_size,
    _count,
    _Record,
)

__all__ = _EXPORTS["assignment"]


class CostMatrix(_Record):
    """cost[j-1][t-1] = total dissatisfaction if task j completes at slot t.

    ``forbidden`` marks window-excluded pairs; those cells carry no cost
    semantics and are never read by the solver. The matrix owns read-only
    copies of ``cost`` (int64, checked non-negative, and n times its largest
    allowed entry below 2^62, the matching's int64 bound) and ``forbidden``,
    so no later write, to it or to the caller's arrays, can undo a check the
    kernels rely on. Two matrices are equal when their n and arrays are.
    """

    __slots__ = _fields = ("n", "cost", "forbidden")

    def __init__(self, n: int, cost: np.ndarray, forbidden: Optional[np.ndarray] = None):
        n = _count(n, "cost matrix n")
        cost = np.asarray(cost)
        if not np.issubdtype(cost.dtype, np.integer):
            raise ValueError(f"cost matrix must be integral, got dtype {cost.dtype}")
        cost = cost.astype(np.int64)
        if cost.shape != (n, n):
            raise ValueError(f"cost matrix must be {n}x{n}")
        allowed = True
        if forbidden is not None:
            forbidden = np.array(forbidden, dtype=bool)
            if forbidden.shape != (n, n):
                raise ValueError(f"forbidden mask must be {n}x{n}")
            forbidden.flags.writeable = False
            allowed = ~forbidden
        if (cost < 0).any():
            raise ValueError("cost matrix entries must be non-negative")
        if n * int(cost.max(initial=0, where=allowed)) >= 2**62:
            raise ValueError(f"n={n} times the largest allowed entry must be below 2^62")
        cost.flags.writeable = False
        self._fill(n, cost, forbidden)

    def price(self, schedule: Schedule) -> int:
        """Exact sum, in Python ints, of cost[j-1][t-1] over a schedule's tasks j and slots t."""
        _check_size(schedule, self.n)
        tasks = np.array(schedule.order, dtype=np.int64) - 1
        return sum(self.cost[tasks, np.arange(self.n)].tolist())


def build_cost_matrix(
    profile: PreferenceProfile,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
    windows: Optional[TimeWindows] = None,
) -> CostMatrix:
    """Accumulate per-voter window costs over all (task, slot) pairs.

    Both criteria are sums over voters of a per-(task, slot) price, so the
    profile enters only through per-task histograms of due dates d and of
    release dates r, weighted by multiplicity (exact int64 counts). An order
    profile's windows are (C - 1 or 0, C or n] (``criteria._ORDER_WINDOWS``),
    so one count of its completions C gives both; a side with r = 0 or d = n
    prices no slot and is not built. With W the weight and S the date-weighted
    sum of the voters counted, prefix sums give every column at once:

    * late(j, t)  = t * W[d < t] - S[d < t]        (distance past the due date)
    * early(j, t) = S[r >= t] - (t - 1) * W[r >= t] (distance before the release)
    * binary(j, t) = W[d < t] + W[r >= t]           (r < d, so never both)

    and distance = late + early. O(distinct-prefs * n + n^2) time and O(n^2)
    memory beyond one (distinct-prefs, n) index array per count. Every entry
    and intermediate is at most n * v and a schedule's total at most
    v * n * (n + 1), which :class:`PreferenceProfile` keeps below 2^62.
    When ``windows`` is given, pair (j, t) is forbidden unless r_j < t <= d_j;
    windows over another n fail ``model._check_fit``, as in ``rules.solve``.
    """
    binary = _as_criterion(criterion) is CriterionKind.BINARY
    n = profile.n
    window = _order_window(profile, encoding)
    if window is None:  # an interval profile counts both of its arrays
        w_rel = _task_histogram(profile.release, profile.mult, n + 1)
        w_due = _task_histogram(profile.due, profile.mult, n + 1)
    else:  # an order profile counts its completions C once; a 0 or n bound has no side
        shifted, due_at_c = window
        count = _task_histogram(profile.completions, profile.mult, n + 1)
        w_rel, w_due = np.zeros_like(count) if shifted else None, count if due_at_c else None
        if shifted:  # release C - 1: the count a column left
            w_rel[:, :n] = count[:, 1:]
    dates = np.arange(n + 1, dtype=np.int64)  # windows take values 0..n; slot t is dates[t]
    # Column t-1 of a prefix sums dates x < t; column t of a suffix dates x >= t.
    cost = 0  # each side present adds its price, the second in place
    if w_due is not None:
        w_before = np.cumsum(w_due, axis=1)[:, :n]
        cost = w_before if binary else (
            dates[1:] * w_before - np.cumsum(w_due * dates, axis=1)[:, :n])
    if w_rel is not None:
        w_from = np.cumsum(w_rel[:, ::-1], axis=1)[:, ::-1][:, 1:]
        cost += w_from if binary else (
            np.cumsum((w_rel * dates)[:, ::-1], axis=1)[:, ::-1][:, 1:] - dates[:n] * w_from)

    _check_fit(n, windows, None)
    forbidden = None
    if windows is not None:
        wr = np.array([r for r, _ in windows.windows], dtype=np.int64)[:, None]
        wd = np.array([d for _, d in windows.windows], dtype=np.int64)[:, None]
        ts = np.arange(1, n + 1, dtype=np.int64)[None, :]
        forbidden = (ts <= wr) | (ts > wd)
    return CostMatrix(n=n, cost=cost, forbidden=forbidden)


def _hungarian(cost: np.ndarray, forbidden: Optional[np.ndarray]) -> np.ndarray:
    """Min-cost perfect matching of a ``CostMatrix``; slots[j] = 0-based slot of row j.

    Returns all -1s when ``forbidden`` rules out every perfect matching. Rows
    are matched one phase at a time (row i in phase i).

    ``red`` holds the reduced costs ``cost[r, j] - u[r] - v[j]``; the row and
    column potentials u and v are kept nowhere else. Forbidden cells are
    pinned at ``pin = n*C + 1`` before reduction, where C is the largest
    allowed entry; forbidden entries are never read. A phase is a Dijkstra
    from row i, at a distance d (a Python integer) that only grows, and
    ``minv[j]`` is column j's distance less d. Expanding a row is then one
    ``minimum`` of its reduced costs into ``minv``, and an ``argmin`` picks
    the next column (the first on ties); only when the pick's value ``gap``
    is not 0 do d grow and ``minv`` fall by it. The textbook form shifts u,
    v and ``minv`` by every step's delta; each value here differs from its
    textbook one by a constant per step, so both take the same branches and
    break the same ties. A tree column holds -1 less the gaps since it
    joined: negative values survive every minimum (reduced costs are >= 0),
    and argmin reads ``minv`` as uint64, where they are the largest. The
    phase ends when a free column joins; it reports infeasible when the least
    value reached is a forbidden one, at least ``limit = pin - spent``, with
    ``spent`` the sum of the earlier phases' final distances.

    Then each tree column rises by ``d - joined``, read off its sentinel as
    ``~minv``, and each tree row falls by the rise of the column it is
    matched to (row i by d): one add and one subtract over rows 0..i. No
    phase reads a row before its own, so the rises also gather in ``lift``,
    which row i takes when its phase starts. No ``way`` array is kept: the
    augmenting path is rebuilt backwards from the free column over tight
    cells. A tree row r's cell in column j now holds the old
    ``red[r, j] + dist(r) - joined(j)`` (the free column joined at d and does
    not rise), 0 exactly when r relaxed j to its final distance; the first
    such row in expansion order is the one the textbook's strict ``<`` kept.

    Bound. Let OPT(k) <= k*C be the least cost of matching the first k rows
    over allowed cells. In phase i, ``spent`` is OPT(i-1) (the dual
    objective), and 0 <= u <= OPT(i-1) and 0 <= -v <= OPT(i-1), because a
    phase raises a potential by at most its final distance. So allowed cells
    lie in [0, C + OPT(i-1)] and forbidden ones in [pin - OPT(i-1), pin +
    OPT(i-1)]: an allowed relaxed value is at least 0, a forbidden one at
    least ``pin - OPT(i-1) = limit``. When rows 1..i can be matched, every
    distance the phase picks is at most OPT(i) - OPT(i-1) < limit: no
    forbidden value is ever the least, not even on a tie, and no forbidden
    cell is tight after the update (it is at least pin - OPT(i) > 0). When
    they cannot, no free column is reachable over allowed cells, so the
    phase ends on a value of at least ``limit``. ``minv`` holds values in
    [0, 2*pin) and sentinels in [-limit, -1], ``lift`` lies in [0, OPT(i-1)],
    and between the two updates a cell is at most pin + OPT(i) < 2*pin, so
    every stored value lies in [-pin, 2*pin) and ``~minv`` in [-2*pin, pin).
    These fit int64 since 2*pin - 1 <= 2^63 - 1, that is n*C < 2^62, which
    ``CostMatrix`` checks.
    """
    n = cost.shape[0]
    masked = forbidden is not None and forbidden.any()
    pin = n * int(cost.max(initial=0, where=~forbidden) if masked else cost.max()) + 1
    red = cost.copy()
    if masked:
        red[forbidden] = pin
    red_rows, red_cols = list(red), list(red.T)  # views, so the phase-end updates reach them
    row_of = [-1] * n  # matched row of each column
    slots = np.zeros(n, dtype=np.int64)  # matched column of each row
    minv = np.empty(n, dtype=np.int64)
    lift = np.zeros(n, dtype=np.int64)  # every column's rise so far, owed to rows not yet reached
    pick = minv.view(np.uint64).argmin
    minimum = np.minimum  # a local name for the hot loop
    spent = 0
    for i in range(n):
        red_rows[i] += lift
        minv[:] = red_rows[i]
        d, limit = 0, pin - spent
        rows = [i]  # expanded rows, in order
        while True:
            j = int(pick())
            gap = minv.item(j)
            if gap:
                d += gap
                if d >= limit:
                    return np.full(n, -1, dtype=np.int64)
                minv -= gap
            r = row_of[j]
            if r < 0:
                break
            minv[j] = -1
            rows.append(r)
            minimum(minv, red_rows[r], out=minv)
        spent += d
        rise = np.maximum(~minv, 0)  # a tree column holds -1 - rise, ~x being -1 - x
        fall = rise[slots[:i + 1]]  # a tree row falls as its column rises, row i by d
        fall[i] = d
        red[:i + 1] += rise
        red[:i + 1] -= fall[:, None]
        lift += rise
        at = np.array(rows)
        while True:  # the augmenting path, backwards from the free column j, over tight cells
            k = int((red_cols[j][at] == 0).argmax())
            r = row_of[j] = rows[k]
            slots[r], j = j, slots[r]
            if k == 0:
                break
    return slots


def min_cost_assignment(matrix: CostMatrix) -> Schedule:
    """Minimum-total-cost schedule avoiding forbidden pairs, O(n^3).

    Returns only the schedule (``matrix.price`` gives its cost); ties go to
    the first minimum in column order.

    Raises
    ------
    InfeasibleError
        When no perfect matching avoids all forbidden pairs.
    """
    slots = _hungarian(matrix.cost, matrix.forbidden)
    if slots[0] < 0:
        raise InfeasibleError("time windows admit no feasible schedule")
    if matrix.forbidden is not None and matrix.forbidden[np.arange(matrix.n), slots].any():
        raise AssertionError("matching used a forbidden pair")  # pragma: no cover
    return Schedule(tuple((np.argsort(slots) + 1).tolist()))  # the task of each slot
