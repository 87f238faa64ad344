"""Hot numeric kernels, one NumPy build each.

Every kernel breaks ties the same fixed way (first minimum in ascending index
order), so its result is a fixed function of its input, not merely an
optimum. The plain-Python references in ``tests/test_kernels.py``
(``reference_hungarian``, ``reference_subset_dp``) pin those tie-breaks.

Tables
------
perm_table / completions_table
    Every permutation of 1..n (n <= 10) in lexicographic order, and the
    completion time of each task in each of them. Both are built once per n
    in NumPy, cached, read-only and int8; the brute-force oracle enumerates
    and prices schedules from them.

Kernels
-------
hungarian
    Exact min-cost perfect matching on an n x n non-negative integer matrix
    with a forbidden mask: shortest augmenting paths with potentials, O(n^3)
    (Jonker & Volgenant 1987; Crouse 2016). Each phase runs one Dijkstra
    over the reduced matrix, which is updated once per phase: distances
    stay absolute from the start of the phase, so a step costs three NumPy
    calls over one row (add, minimum, argmin; four with a mask), and tree
    columns are marked by -1 rather than masked. The phase keeps no
    predecessor array; it rebuilds only the augmenting path from the rows it
    expanded. Forbidden pairs are raised to the sentinel before every
    relaxation, never priced. Ties go to the first minimum in column order.
    The arithmetic is int64 while 2n * max(cost) < 2^63 - 1 and exact
    Python integers beyond (see ``_hungarian_np`` for the bound).
subset_dp
    Exact DP over task subsets for precedence-constrained minimization of any
    per-(task, slot) separable cost, O(2^n * n). It sweeps the subsets one
    popcount layer at a time: for each layer k and each task j in ascending
    order it prices j as the last of every k-subset at once, so the Python
    loop runs n^2 times instead of 2^n. It tracks reachable subsets in a
    boolean array rather than with a cost sentinel, so no optimum, however
    large, is mistaken for infeasible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import SizeLimitError

__all__ = [
    "DEFAULT_DP_LIMIT",
    "perm_table",
    "completions_table",
    "hungarian",
    "subset_dp",
]

DEFAULT_DP_LIMIT = 20  # largest n the subset DP runs without an explicit size_limit
_I64_MAX = int(np.iinfo(np.int64).max)


def _check_table_size(n: int) -> None:
    if not 1 <= n <= 10:
        raise ValueError(f"permutation table limited to n <= 10, got {n}")


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """All permutations of 1..n in lexicographic order, shape (n!, n), int8.

    Built recursively: the block of rows that start with task i is the
    (n-1) table relabelled onto the other tasks by the monotone map
    k -> k + (k >= i), which keeps the block in lexicographic order. The
    cached array is shared by every caller and therefore read-only.
    """
    _check_table_size(n)
    if n == 1:
        return _read_only(np.ones((1, 1), dtype=np.int8))
    sub = perm_table(n - 1)
    out = np.empty((n * len(sub), n), dtype=np.int8)
    for i, block in enumerate(np.split(out, n), start=1):
        relabel = np.arange(n, dtype=np.int8)
        relabel[i:] += 1
        block[:, 0] = i
        block[:, 1:] = relabel[sub]
    return _read_only(out)


@lru_cache(maxsize=None)
def completions_table(n: int) -> np.ndarray:
    """Completion times of ``perm_table(n)``: out[p, j] = slot of task j+1, int8.

    Built by the same recursion: in the block of rows that start with task i,
    task i completes at 1 and every other task one slot later than its
    relabelled counterpart in the (n-1) table. Cached and read-only.
    """
    _check_table_size(n)
    if n == 1:
        return _read_only(np.ones((1, 1), dtype=np.int8))
    sub = completions_table(n - 1)
    out = np.empty((n * len(sub), n), dtype=np.int8)
    for i, block in enumerate(np.split(out, n), start=1):
        block[:, i - 1] = 1
        np.add(sub[:, : i - 1], 1, out=block[:, : i - 1])
        np.add(sub[:, i - 1 :], 1, out=block[:, i:])
    return _read_only(out)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _hungarian_np(cost, allowed):
    """Rows are matched one phase at a time (row i in phase i); returns slots.

    ``red`` holds the reduced costs ``cost[r, j] - u[r] - v[j]`` (non-negative
    on allowed pairs, zero on matched ones) and changes only between phases.
    A phase is a Dijkstra from row i. ``minv[j]`` is the distance of column j
    from the start of the phase, and ``off`` (a 0-d array) the distance d of
    the column that joined the tree last. Expanding row r, reached through
    that column, takes three NumPy calls: ``red[r] + d``, a ``minimum`` into
    ``minv`` and an ``argmin`` that picks the next column (the first on
    ties). With a mask, a ``maximum`` with ``block[r]`` (0 where allowed,
    ``top`` where forbidden) first raises the forbidden cells to ``top``. A
    tree column holds -1 in ``minv``: -1 survives every minimum, and argmin
    reads ``minv`` as uint64, where -1 is 2^64 - 1. When a free column joins,
    the phase ends. The textbook form shifts ``u``, ``v`` and ``minv`` by
    every step's delta; its comparisons are these offset by one constant, so
    both take the same branches and break the same ties.

    No ``way`` array is kept: the phase logs its expanded rows and their
    distances, and rebuilds only the augmenting path, backwards from the free
    column. A column's predecessor is the first logged row whose relaxed
    value on an allowed pair equals the column's distance; earlier rows
    relaxed it to more, so the textbook's strict ``<`` recorded that row.
    Then each tree column j and its row move by ``d - joined[j]`` (row i by
    d): the tree's rows of ``red`` drop by it and its columns rise by it.

    Bound. Let C be the largest entry and OPT(k) <= k*C the least cost of
    matching the first k rows. In phase i, 0 <= u <= OPT(i-1) and
    0 <= -v <= OPT(i-1): a phase raises each potential by at most its final
    distance, and those distances sum to the optimum. A column's distance is
    the forward minus the backward costs on its tree path plus the potential
    of the row matched to it, so ``d - u[r]`` lies in [-(i-1)*C, (i-1)*C],
    every entry of ``red`` in [-(i-1)*C, i*C], and every relaxed value and
    distance in [-(i-1)*C, (2i-1)*C]. An allowed relaxed value is at least
    0, because ``red`` is non-negative on allowed pairs and so is d, and a
    forbidden one is raised to ``top`` before the minimum; so -1 marks the
    tree soundly. While 2n*C < 2^63 - 1 the kernel runs in int64, with the
    int64 maximum as ``top``; beyond, it runs the same steps on Python
    integers, where ``argmin`` reads -1 as ``top + 1``. A consensus matrix
    has C <= (n-1)*v for v voters, so under the parse bound
    v*n*(n+1) <= 2^63 - 1 every profile with n <= 3 stays in int64, and
    only profiles in the top half of that range leave it.
    """
    n = cost.shape[0]
    bound = 2 * n * (int(cost.max()) if n else 0)
    if bound < _I64_MAX:
        dtype, top, red = np.int64, _I64_MAX, cost.copy()
    else:
        dtype, top, red = object, bound + 1, cost.astype(object)
    red_rows = list(red)  # views, so the phase-end updates reach them
    block_rows = None
    if allowed is not None:
        block = np.zeros((n, n), dtype=dtype)
        block[~allowed] = top
        block_rows = list(block)
    row_of = [-1] * n  # matched row of each column
    minv = np.empty(n, dtype=dtype)
    cur = np.empty(n, dtype=dtype)
    off = np.zeros((), dtype=dtype)
    if dtype is object:
        def pick():
            return np.where(minv < 0, top + 1, minv).argmin()
    else:
        pick = minv.view(np.uint64).argmin
    for i in range(n):
        minv.fill(top)
        off[()] = 0
        rows, dists, tree = [i], [0], []  # expanded rows, their distances, tree columns
        r = i
        while True:
            np.add(red_rows[r], off, out=cur)
            if block_rows is not None:
                np.maximum(cur, block_rows[r], out=cur)
            np.minimum(minv, cur, out=minv)
            j = int(pick())
            d = minv[j]
            if d == top:
                return np.full(n, -1, dtype=np.int64)
            r = row_of[j]
            if r < 0:
                break
            minv[j] = -1
            off[()] = d
            rows.append(r)
            dists.append(d)
            tree.append(j)
        dist = np.array(dists, dtype=dtype)
        shift = d - dist
        sub = red[rows]  # the tree's rows as the phase saw them
        ok = None if allowed is None else allowed[rows]
        while True:  # the augmenting path, backwards from the free column j
            hit = sub[:, j] + dist == d
            if ok is not None:
                hit &= ok[:, j]
            k = int(hit.argmax())
            row_of[j] = rows[k]
            if k == 0:
                break
            j, d = tree[k - 1], dists[k]
        sub -= shift[:, None]
        red[rows] = sub
        rise = np.zeros(n, dtype=dtype)  # one dense add beats a strided scatter on big trees
        rise[tree] = shift[1:]
        red += rise
    slots = np.empty(n, dtype=np.int64)
    slots[row_of] = np.arange(n)
    return slots


def _subset_dp_np(cost, pred_mask, allowed):
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


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def hungarian(cost: np.ndarray, forbidden: Optional[np.ndarray] = None) -> np.ndarray:
    """Min-cost perfect matching; slots[j] = 0-based slot of task row j.

    Returns an array of -1s when the forbidden mask rules out every perfect
    matching. Forbidden pairs never appear in a returned assignment: they are
    raised to the sentinel before every relaxation and masked out of the path
    rebuild, so their entries never decide a step. Ties go to the first
    minimum in column order at every step, so the result is a fixed function
    of the matrix, and the arithmetic is exact for any int64 entries (int64
    while 2n * max(cost) < 2^63 - 1, Python integers beyond).

    Raises
    ------
    ValueError
        When an entry is negative.
    """
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    if cost.size and cost.min() < 0:
        raise ValueError("hungarian needs non-negative costs")
    allowed = None
    if forbidden is not None and forbidden.any():
        allowed = ~np.asarray(forbidden, dtype=bool)
    return _hungarian_np(cost, allowed)


def subset_dp(cost: np.ndarray, pred_mask: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Optimal precedence-feasible slot order; order[k] = task at slot k+1.

    ``pred_mask[j]`` holds one bit per predecessor of task j; ``allowed[j, k]``
    says task j may occupy slot k+1. Returns all -1s when infeasible, and
    raises :class:`SizeLimitError` when the 2^n-entry tables cannot be
    allocated.

    f(A) = min over feasible last tasks j of f(A \\ {j}) + cost[j, |A| - 1].
    f is filled layer by layer (|A| = 1..n); within a layer j runs 0..n-1 and
    replaces the running best only on a strictly smaller value. Ties therefore
    go to the smallest j, exactly as a per-subset scan in ascending j breaks
    them (``reference_subset_dp`` in ``tests/test_kernels.py``).
    """
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    pred_mask = np.ascontiguousarray(pred_mask, dtype=np.int64)
    allowed = np.ascontiguousarray(allowed, dtype=np.bool_)
    return _subset_dp_np(cost, pred_mask, allowed)
