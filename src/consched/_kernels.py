"""Hot numeric kernels with two interchangeable backends.

Every kernel exists twice: a numba ``@njit`` build and a vectorized pure-numpy
build. The active default comes from the ``CONSCHED_BACKEND`` environment
variable:

* ``auto``  (default) — numba when importable, numpy otherwise;
* ``numba`` — require numba, fail loudly if missing;
* ``numpy`` — force the pure-numpy path.

Each public function also takes an explicit ``backend=`` argument so tests
can compare the two builds directly. Both builds use identical tie-breaking
(first minimum in ascending index order) and therefore return identical
results, not merely equal costs.

Tables
------
perm_table / completions_table
    Every permutation of 1..n (n <= 10) in lexicographic order, and the
    completion time of each task in each of them. Both are built once per n
    in NumPy, cached, read-only and int8; the brute-force oracle enumerates
    and prices schedules from them.

Kernels
-------
perm_costs_kendall
    Batched pairwise-disagreement counts against a weighted precedence-count
    matrix W[a, b] = total multiplicity of voters completing a+1 before b+1.
hungarian
    Exact min-cost perfect matching on an n x n integer matrix with a
    forbidden mask (shortest augmenting paths with potentials, O(n^3)).
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
    "perm_costs_kendall",
    "hungarian",
    "subset_dp",
    "warmup",
]

INF = np.int64(1) << np.int64(60)

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


_CHUNK = 1 << 17


# ---------------------------------------------------------------------------
# numba builds
# ---------------------------------------------------------------------------


@njit(cache=True)
def _perm_costs_kendall_nb(perms, w):
    m, n = perms.shape
    out = np.zeros(m, dtype=np.int64)
    for p in range(m):
        total = np.int64(0)
        for u in range(n):
            a = perms[p, u] - 1
            for t in range(u + 1, n):
                b = perms[p, t] - 1
                total += w[b, a]
        out[p] = total
    return out


@njit(cache=True)
def _hungarian_nb(cost):
    n = cost.shape[0]
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    minv = np.zeros(n + 1, dtype=np.int64)
    used = np.zeros(n + 1, dtype=np.bool_)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        for j in range(n + 1):
            minv[j] = INF
            used[j] = False
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            if delta >= INF // 2:
                return np.full(n, -1, dtype=np.int64)
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    slots = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        slots[p[j] - 1] = j - 1
    return slots


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


def _perm_costs_kendall_np(perms, w):
    m, n = perms.shape
    iu, iw = np.triu_indices(n, k=1)
    out = np.zeros(m, dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        chunk = perms[lo : lo + _CHUNK].astype(np.int64)
        out[lo : lo + _CHUNK] = w[chunk[:, iw] - 1, chunk[:, iu] - 1].sum(axis=1)
    return out


def _hungarian_np(cost):
    n = cost.shape[0]
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[cols[better]] = j0
            reach = np.where(free, minv[1:], INF)
            j1 = int(np.argmin(reach)) + 1
            delta = int(reach[j1 - 1])
            if delta >= INF // 2:
                return np.full(n, -1, dtype=np.int64)
            used_j = np.flatnonzero(used)
            u[p[used_j]] += delta
            v[used_j] -= delta
            minv[np.flatnonzero(~used)] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    slots = np.empty(n, dtype=np.int64)
    slots[p[1:] - 1] = np.arange(n)
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


def perm_costs_kendall(
    perms: np.ndarray, w: np.ndarray, backend: Optional[str] = None
) -> np.ndarray:
    """Pairwise-disagreement (Kendall tau) cost of every permutation row."""
    if _resolve(backend) == "numba":
        return _perm_costs_kendall_nb(perms, w)
    return _perm_costs_kendall_np(perms, w)


def hungarian(
    cost: np.ndarray,
    forbidden: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Min-cost perfect matching; slots[j] = 0-based slot of task row j.

    Returns an array of -1s when the forbidden mask rules out every perfect
    matching. Forbidden pairs never appear in a returned assignment: they are
    excluded structurally (detected via an unreachable augmenting path), not
    priced.
    """
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    if forbidden is not None and forbidden.any():
        cost = np.where(forbidden, INF, cost)
    if _resolve(backend) == "numba":
        return _hungarian_nb(cost)
    return _hungarian_np(cost)


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
    _perm_costs_kendall_nb(perm_table(3), np.zeros((3, 3), dtype=np.int64))
    _hungarian_nb(np.zeros((2, 2), dtype=np.int64))
    _subset_dp_nb(
        np.zeros((2, 2), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        np.ones((2, 2), dtype=np.bool_),
    )
