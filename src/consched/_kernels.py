"""Hot numeric kernels.

The subset DP exists twice: a numba ``@njit`` build and a vectorized
pure-numpy build. The matching has a single NumPy build, which
validates ``backend=`` and otherwise ignores it. The active default comes from
the ``CONSCHED_BACKEND`` environment variable:

* ``auto``  (default) — numba when importable, numpy otherwise;
* ``numba`` — require numba, fail loudly if missing;
* ``numpy`` — force the pure-numpy path.

Each public function also takes an explicit ``backend=`` argument so tests
can compare the two builds directly. Both builds of a kernel use identical
tie-breaking (first minimum in ascending index order) and therefore return
identical results, not merely equal costs.

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
    with lazy potentials: distances stay absolute from the start of the
    phase, so a step costs seven NumPy calls over one row (eight with a
    mask), and the potentials are settled once per phase. Forbidden pairs
    are masked out of every relaxation, never priced. Ties go to the first
    minimum in column order. The arithmetic is int64 while
    2n * max(cost) < 2^63 - 1 and exact Python integers beyond (see
    ``_hungarian_np`` for the bound).
subset_dp
    Exact DP over task subsets for precedence-constrained minimization of any
    per-(task, slot) separable cost, O(2^n * n). The numpy build sweeps the
    subsets one popcount layer at a time: for each layer k and each task j in
    ascending order it prices j as the last of every k-subset at once, so the
    Python loop runs n^2 times instead of 2^n. It tracks reachable subsets
    in a boolean array, so a true optimum at or above the numba build's 2^60
    sentinel is still found rather than reported infeasible.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = [
    "DEFAULT_BACKEND",
    "JIT_ENABLED",
    "available_backends",
    "perm_table",
    "completions_table",
    "hungarian",
    "subset_dp",
    "warmup",
]

INF = np.int64(1) << np.int64(60)
_I64_MAX = int(np.iinfo(np.int64).max)

_requested = os.environ.get("CONSCHED_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"CONSCHED_BACKEND={_requested!r} is not one of 'auto', 'numba', 'numpy'"
    )

JIT_ENABLED = False
if _requested in ("auto", "numba"):
    try:
        from numba import njit

        JIT_ENABLED = True
    except ImportError:
        if _requested == "numba":
            raise
if not JIT_ENABLED:  # no-op decorator so the jitted definitions still parse

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


DEFAULT_BACKEND = "numba" if JIT_ENABLED else "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numpy", "numba") if JIT_ENABLED else ("numpy",)


def _resolve(backend: Optional[str]) -> str:
    backend = DEFAULT_BACKEND if backend is None else backend.lower()
    if backend not in ("numpy", "numba"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "numba" and not JIT_ENABLED:
        raise RuntimeError("numba backend requested but numba is not available")
    return backend


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
# numba builds
# ---------------------------------------------------------------------------


@njit(cache=True)
def _subset_dp_nb(cost, pred_mask, allowed):
    n = cost.shape[0]
    size = 1 << n
    f = np.full(size, INF, dtype=np.int64)
    f[0] = 0
    choice = np.full(size, -1, dtype=np.int8)
    popcnt = np.zeros(size, dtype=np.int8)
    for mask in range(1, size):
        popcnt[mask] = popcnt[mask >> 1] + (mask & 1)
        k = popcnt[mask]
        best = INF
        best_j = -1
        for j in range(n):
            bit = 1 << j
            if mask & bit == 0:
                continue
            rest = mask ^ bit
            if pred_mask[j] & ~rest != 0:
                continue
            if not allowed[j, k - 1]:
                continue
            prev = f[rest]
            if prev >= INF:
                continue
            val = prev + cost[j, k - 1]
            if val < best:
                best = val
                best_j = j
        f[mask] = best
        choice[mask] = best_j
    order = np.full(n, -1, dtype=np.int64)
    full = size - 1
    if f[full] >= INF:
        return order
    mask = full
    for k in range(n, 0, -1):
        j = choice[mask]
        order[k - 1] = j
        mask ^= 1 << j
    return order


# ---------------------------------------------------------------------------
# numpy builds
# ---------------------------------------------------------------------------


def _hungarian_np(cost, allowed):
    """Rows are matched one phase at a time (row i in phase i); returns slots.

    A phase is a Dijkstra from row i over the reduced costs
    ``cost[r, j] - u[r] - v[j]`` (non-negative on allowed pairs, zero on
    matched ones). ``minv[j]`` is the tentative distance of free column j
    from the start of the phase, and ``d`` the distance of the column that
    joined the tree last. Expanding row r, reached through a column that
    joined at distance d, relaxes every free allowed column j with
    ``cost[r, j] - v[j] - u[r] + d``. The column of least ``minv`` joins
    next (``argmin``: the first one on ties). When a free column joins, the
    phase ends: each tree column j and its row move by ``d - joined[j]``
    (row i by ``d``), and the path is flipped along ``way``. The textbook
    form shifts ``u``, ``v`` and ``minv`` by every step's delta instead; its
    comparisons are these offset by one constant, so both take the same
    branches and break the same ties.

    Bound. Let C be the largest entry and OPT(k) <= k*C the least cost of
    matching the first k rows. In phase i, 0 <= u <= OPT(i-1) and
    0 <= -v <= OPT(i-1): a phase raises each potential by at most its final
    distance, and those distances sum to the optimum. A column's distance is
    the forward minus the backward costs on its tree path plus the potential
    of the row matched to it, so ``d - u[r]`` lies in [-(i-1)*C, (i-1)*C],
    and every relaxed value and distance in [-(i-1)*C, (2i-1)*C]. While
    2n*C < 2^63 - 1 the kernel runs in int64, with the int64 maximum as the
    sentinel of unreached columns; beyond, it runs the same steps on Python
    integers. A consensus matrix has C <= (n-1)*v for v voters, so under the
    parse bound v*n*(n+1) <= 2^63 - 1 every profile with n <= 3 stays in
    int64, and only profiles in the top half of that range leave it.
    """
    n = cost.shape[0]
    bound = 2 * n * (int(cost.max()) if n else 0)
    if bound < _I64_MAX:
        dtype, top = np.int64, _I64_MAX
    else:
        dtype, top, cost = object, bound + 1, cost.astype(object)
    u = np.zeros(n, dtype=dtype)
    v = np.zeros(n, dtype=dtype)
    row_of = np.full(n, -1, dtype=np.intp)  # matched row of each column
    way = np.empty(n, dtype=np.intp)  # tree column before each column, -1 for the root
    minv = np.empty(n, dtype=dtype)
    joined = np.empty(n, dtype=dtype)
    free = np.empty(n, dtype=bool)
    cur = np.empty(n, dtype=dtype)
    better = np.empty(n, dtype=bool)
    for i in range(n):
        minv.fill(top)
        free.fill(True)
        tree = []
        r, j, d = i, -1, 0
        while True:
            np.subtract(cost[r], v, out=cur)
            cur += d - u[r]
            np.less(cur, minv, out=better)
            better &= free
            if allowed is not None:
                better &= allowed[r]
            np.copyto(minv, cur, where=better)
            np.copyto(way, j, where=better)
            j = int(minv.argmin())
            d = minv[j]
            if d == top:
                return np.full(n, -1, dtype=np.int64)
            r = row_of[j]
            if r < 0:
                break
            joined[j] = d
            minv[j] = top
            free[j] = False
            tree.append(j)
        u[i] += d
        if tree:
            cols = np.array(tree, dtype=np.intp)
            shift = d - joined[cols]
            u[row_of[cols]] += shift
            v[cols] -= shift
        while j >= 0:
            prev = int(way[j])
            row_of[j] = row_of[prev] if prev >= 0 else i
            j = prev
    slots = np.empty(n, dtype=np.int64)
    slots[row_of] = np.arange(n)
    return slots


def _subset_dp_np(cost, pred_mask, allowed):
    n = cost.shape[0]
    size = 1 << n
    popcnt = np.bitwise_count(np.arange(size, dtype=np.uint64))  # uint8
    f = np.zeros(size, dtype=np.int64)
    reach = np.zeros(size, dtype=np.bool_)
    reach[0] = True
    choice = np.full(size, -1, dtype=np.int8)
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
# dispatch
# ---------------------------------------------------------------------------


def hungarian(
    cost: np.ndarray,
    forbidden: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Min-cost perfect matching; slots[j] = 0-based slot of task row j.

    Returns an array of -1s when the forbidden mask rules out every perfect
    matching. Forbidden pairs never appear in a returned assignment: they are
    masked out of every relaxation, not priced, and their entries are never
    compared. Ties go to the first minimum in column order at every step, so
    the result is a fixed function of the matrix, and the arithmetic is exact
    for any int64 entries (int64 while 2n * max(cost) < 2^63 - 1, Python
    integers beyond). ``backend`` is validated but the matching has a single
    build.

    Raises
    ------
    ValueError
        When an entry is negative.
    """
    _resolve(backend)
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    if cost.size and cost.min() < 0:
        raise ValueError("hungarian needs non-negative costs")
    allowed = None
    if forbidden is not None and forbidden.any():
        allowed = ~np.asarray(forbidden, dtype=bool)
    return _hungarian_np(cost, allowed)


def subset_dp(
    cost: np.ndarray,
    pred_mask: np.ndarray,
    allowed: np.ndarray,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Optimal precedence-feasible slot order; order[k] = task at slot k+1.

    ``pred_mask[j]`` holds one bit per predecessor of task j; ``allowed[j, k]``
    says task j may occupy slot k+1. Returns all -1s when infeasible.

    f(A) = min over feasible last tasks j of f(A \\ {j}) + cost[j, |A| - 1].
    The numpy build fills f layer by layer (|A| = 1..n); within a layer it
    tries j = 0..n-1 and replaces the running best only on a strictly smaller
    value. Ties therefore go to the smallest j, exactly as the numba build's
    per-subset scan in ascending j breaks them, so both builds return
    identical orders (for optima below that build's 2^60 sentinel).
    """
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    pred_mask = np.ascontiguousarray(pred_mask, dtype=np.int64)
    allowed = np.ascontiguousarray(allowed, dtype=np.bool_)
    if _resolve(backend) == "numba":
        return _subset_dp_nb(cost, pred_mask, allowed)
    return _subset_dp_np(cost, pred_mask, allowed)


def warmup(backend: Optional[str] = None) -> None:
    """Compile every jitted kernel once on tiny inputs (no-op for numpy)."""
    if _resolve(backend) != "numba":
        return
    _subset_dp_nb(
        np.zeros((2, 2), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        np.ones((2, 2), dtype=np.bool_),
    )
