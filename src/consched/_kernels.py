"""Hot numeric kernels with two interchangeable backends.

Every kernel exists twice: a numba ``@njit`` build and a vectorized pure-numpy
build. The active default comes from the ``CONSCHED_BACKEND`` environment
variable:

* ``auto``  (default) — numba when importable, numpy otherwise;
* ``numba`` — require numba, fail loudly if missing;
* ``numpy`` — force the pure-numpy path.

Each public function also takes an explicit ``backend=`` argument so tests and
``benchmarks/bench_backends.py`` can compare the two builds directly. Both
builds use identical tie-breaking (first minimum in ascending index order) and
therefore return identical results, not merely equal costs.

Kernels
-------
perm_costs_distance / perm_costs_binary
    Batched per-voter window costs over a table of permutations (the
    brute-force oracle's inner loop). These implement the per-(voter, task)
    formulas directly from (release, due) arrays, independent of the
    assignment reduction.
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
from itertools import permutations
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DEFAULT_BACKEND",
    "JIT_ENABLED",
    "available_backends",
    "perm_table",
    "completions_table",
    "perm_costs_distance",
    "perm_costs_binary",
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


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """All permutations of 1..n in lexicographic order, shape (n!, n), int8."""
    if not 1 <= n <= 10:
        raise ValueError(f"permutation table limited to n <= 10, got {n}")
    return np.array(list(permutations(range(1, n + 1))), dtype=np.int8)


def completions_table(perms: np.ndarray) -> np.ndarray:
    """Completion times per permutation: out[p, j] = slot of task j+1, int64."""
    m, n = perms.shape
    out = np.empty((m, n), dtype=np.int64)
    rows = np.arange(m)[:, None]
    out[rows, perms.astype(np.int64) - 1] = np.arange(1, n + 1, dtype=np.int64)
    return out


_CHUNK = 1 << 17


# ---------------------------------------------------------------------------
# numba builds
# ---------------------------------------------------------------------------


@njit(cache=True)
def _perm_costs_window_nb(perms, rel, due, mult, binary):
    m, n = perms.shape
    k_voters = rel.shape[0]
    out = np.zeros(m, dtype=np.int64)
    comp = np.zeros(n + 1, dtype=np.int64)
    for p in range(m):
        for idx in range(n):
            comp[perms[p, idx]] = idx + 1
        total = np.int64(0)
        for k in range(k_voters):
            s = np.int64(0)
            for j in range(n):
                c = comp[j + 1]
                r = rel[k, j]
                d = due[k, j]
                if c > d:
                    s += 1 if binary else c - d
                elif c <= r:
                    s += 1 if binary else r - c + 1
            total += mult[k] * s
        out[p] = total
    return out


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


def _perm_costs_window_np(perms, rel, due, mult, binary):
    m = perms.shape[0]
    out = np.zeros(m, dtype=np.int64)
    k_voters = rel.shape[0]
    for lo in range(0, m, _CHUNK):
        chunk = perms[lo : lo + _CHUNK]
        comp = completions_table(chunk)
        acc = np.zeros(chunk.shape[0], dtype=np.int64)
        for k in range(k_voters):
            if binary:
                miss = (comp > due[k]) | (comp <= rel[k])
                s = miss.sum(axis=1)
            else:
                late = np.maximum(comp - due[k], 0)
                early = np.maximum(rel[k] - comp + 1, 0)
                s = (late + early).sum(axis=1)
            acc += mult[k] * s
        out[lo : lo + _CHUNK] = acc
    return out


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


def perm_costs_distance(
    perms: np.ndarray,
    rel: np.ndarray,
    due: np.ndarray,
    mult: np.ndarray,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Distance-criterion profile cost of every permutation row."""
    if _resolve(backend) == "numba":
        return _perm_costs_window_nb(perms, rel, due, mult, False)
    return _perm_costs_window_np(perms, rel, due, mult, False)


def perm_costs_binary(
    perms: np.ndarray,
    rel: np.ndarray,
    due: np.ndarray,
    mult: np.ndarray,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Binary-criterion profile cost of every permutation row."""
    if _resolve(backend) == "numba":
        return _perm_costs_window_nb(perms, rel, due, mult, True)
    return _perm_costs_window_np(perms, rel, due, mult, True)


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
    perms = perm_table(3)
    rel = np.zeros((1, 3), dtype=np.int64)
    due = np.full((1, 3), 3, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    _perm_costs_window_nb(perms, rel, due, mult, False)
    _perm_costs_window_nb(perms, rel, due, mult, True)
    _perm_costs_kendall_nb(perms, np.zeros((3, 3), dtype=np.int64))
    _hungarian_nb(np.zeros((2, 2), dtype=np.int64))
    _subset_dp_nb(
        np.zeros((2, 2), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        np.ones((2, 2), dtype=np.bool_),
    )
