"""The benchmark's correctness gate, independent of the code under test.

Every response is checked before it is counted. Costs are recomputed with the
benchmark's own integer evaluator of the README formulas, matching optima
come from ``scipy.optimize.linear_sum_assignment`` on a cost matrix built
here, DP outputs are checked against their DAG and against the optimum of
the benchmark's own subset DP, and the EMD order against a median computed
here. ``Gate.check`` returns the list of problems found; an
empty list means the response is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import Inputs, Request


def voter_windows(comp: np.ndarray, encoding: str) -> tuple[np.ndarray, np.ndarray]:
    """(release, due) arrays of shape (v, n) for an order profile under ``encoding``."""
    n = comp.shape[1]
    if encoding in ("deviation", "exactpos"):
        return comp - 1, comp
    if encoding in ("tardiness", "late"):
        return np.zeros_like(comp), comp
    if encoding == "earliness":
        return comp - 1, np.full_like(comp, n)
    raise ValueError(f"unknown encoding {encoding!r}")


def penalty(slots: np.ndarray, rel: np.ndarray, due: np.ndarray, rule: str) -> np.ndarray:
    """Per-(voter, task) penalty of completing at ``slots`` (broadcast)."""
    if rule == "binary":
        return ((slots > due) | (slots <= rel)).astype(np.int64)
    return np.maximum(slots - due, 0) + np.maximum(rel - (slots - 1), 0)


def schedule_cost(comp: np.ndarray, order: list[int], rule: str, encoding: str) -> int:
    """Total cost over voters and tasks of the schedule ``order`` (task ids by slot)."""
    n = comp.shape[1]
    slot_of = np.empty(n, dtype=np.int64)
    slot_of[np.asarray(order, dtype=np.int64) - 1] = np.arange(1, n + 1)
    rel, due = voter_windows(comp, encoding)
    return int(penalty(slot_of[None, :], rel, due, rule).sum())


def cost_matrix(comp: np.ndarray, rule: str, encoding: str) -> np.ndarray:
    """cost[j-1, t-1] = total penalty of task j at slot t, built in voter chunks."""
    v, n = comp.shape
    rel, due = voter_windows(comp, encoding)
    slots = np.arange(1, n + 1, dtype=np.int64)[None, None, :]
    out = np.zeros((n, n), dtype=np.int64)
    step = max(1, (1 << 21) // (n * n))
    for lo in range(0, v, step):
        chunk = slice(lo, lo + step)
        out += penalty(slots, rel[chunk, :, None], due[chunk, :, None], rule).sum(axis=0)
    return out


def assignment_optimum(matrix: np.ndarray, forbidden: np.ndarray | None = None) -> int:
    """Minimum cost of a perfect task-slot matching avoiding ``forbidden`` pairs."""
    priced = matrix.copy()
    if forbidden is not None:
        priced[forbidden] = int(matrix.sum()) + 1  # dearer than any allowed matching
    rows, cols = linear_sum_assignment(priced)
    if forbidden is not None and forbidden[rows, cols].any():
        raise RuntimeError("generated windows admit no schedule")
    return int(matrix[rows, cols].sum())


def dag_optimum(matrix: np.ndarray, edges: list[tuple[int, int]],
                forbidden: np.ndarray | None = None) -> int:
    """Minimum cost of a schedule that keeps every edge a -> b (a before b), by subset DP.

    ``dp[mask]`` is the cheapest way to fill the first popcount(mask) slots
    with the tasks in ``mask``; the masks are processed one popcount layer at a
    time, and within a layer each task's transitions are one vectorised step.
    """
    n = matrix.shape[0]
    pred = [0] * n
    for a, b in edges:
        pred[b - 1] |= 1 << (a - 1)
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = sum((masks >> i) & 1 for i in range(n))
    unreached = np.iinfo(np.int64).max
    dp = np.full(1 << n, unreached, dtype=np.int64)
    dp[0] = 0
    for slot in range(n):
        layer = masks[popcount == slot]
        layer = layer[dp[layer] != unreached]
        for j in range(n):
            if forbidden is not None and forbidden[j, slot]:
                continue
            ok = layer[((layer >> j) & 1 == 0) & (layer & pred[j] == pred[j])]
            target = ok | (1 << j)
            dp[target] = np.minimum(dp[target], dp[ok] + matrix[j, slot])
    if dp[-1] == unreached:
        raise RuntimeError("generated DAG admits no schedule")
    return int(dp[-1])


def lower_medians(comp: np.ndarray) -> np.ndarray:
    """Per task, the ceil(v/2)-th smallest completion time over voters."""
    return np.sort(comp, axis=0)[(comp.shape[0] - 1) // 2]


def inferred_edges(comp: np.ndarray) -> list[tuple[int, int]]:
    """Edges a -> b such that every voter completes a before b."""
    before = (comp[:, :, None] < comp[:, None, :]).all(axis=0)
    return [(int(a) + 1, int(b) + 1) for a, b in zip(*np.nonzero(before))]


def digest(response: dict) -> str:
    """Stable digest of a response's schedules and costs (ties included)."""
    keys = ("schedule", "cost", "best_cost", "optima_count", "optima", "searched")
    keep = {k: response.get(k) for k in keys}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()[:16]


def _is_permutation(order, n: int) -> bool:
    return isinstance(order, list) and sorted(order) == list(range(1, n + 1))


@dataclass
class Tally:
    """Requests attempted and failed; a failed request is one with any problem."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], label: str = "") -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}{p}" for p in problems]
        return not problems


class Gate:
    """Expected values for one set of inputs, computed once, then per-response checks."""

    def __init__(self, inputs: Inputs, digests: list[str] | None = None):
        self.inputs = inputs
        self.comp = inputs.completions
        self.n = self.comp.shape[1]
        self.digests = digests
        self.inferred = inferred_edges(self.comp)
        self._optima: dict[tuple[str, str, bool, str | None], int] = {}

    def forbidden(self) -> np.ndarray:
        """forbidden[j-1, t-1]: slot t lies outside task j's time window."""
        slots = np.arange(1, self.n + 1)[None, :]
        rel = np.zeros((self.n, 1), dtype=np.int64)
        due = np.full((self.n, 1), self.n, dtype=np.int64)
        for j, (r, d) in self.inputs.windows.items():
            rel[j - 1], due[j - 1] = r, d
        return (slots <= rel) | (slots > due)

    def edges(self, prec_mode: str) -> list[tuple[int, int]]:
        return self.inferred if prec_mode == "inferred" else self.inputs.dag

    def optimum(self, rule: str, encoding: str, windows: bool = False,
                prec_mode: str | None = None) -> int:
        """Optimum by the independent matching, or by the subset DP under a DAG."""
        key = (rule, encoding, windows, prec_mode)
        if key not in self._optima:
            forbidden = self.forbidden() if windows else None
            matrix = cost_matrix(self.comp, rule, encoding)
            if prec_mode is None:
                self._optima[key] = assignment_optimum(matrix, forbidden)
            else:
                self._optima[key] = dag_optimum(matrix, self.edges(prec_mode), forbidden)
        return self._optima[key]

    def prepare(self, requests: tuple[Request, ...]) -> None:
        """Compute every expectation the requests need, outside any timed phase."""
        for req in requests:
            if req.rule != "emd":
                self.optimum(req.rule, req.encoding, req.windows, req.prec_mode)

    def check(self, req: Request, index: int, response: dict | None) -> list[str]:
        """Problems with ``response`` to request kind ``index`` of the mix."""
        if response is None:
            return ["no JSON response"]
        problems = self.semantic(req, response)
        if self.digests is not None and digest(response) != self.digests[index]:
            problems.append(f"output digest {digest(response)} != stored {self.digests[index]}")
        return problems

    def semantic(self, req: Request, response: dict) -> list[str]:
        """Problems found by recomputation alone, without the stored digests."""
        if req.command == "oracle":
            return self._check_oracle(req, response)
        return self._check_solve(req, response)

    def _check_solve(self, req: Request, resp: dict) -> list[str]:
        order, cost = resp.get("schedule"), resp.get("cost")
        if not _is_permutation(order, self.n):
            return ["schedule is not a permutation of 1..n"]
        if not isinstance(cost, int):
            return [f"cost {cost!r} is not an integer"]
        problems = []
        encoding = req.encoding
        if req.rule == "emd":
            medians = lower_medians(self.comp)
            expected = sorted(range(1, self.n + 1), key=lambda j: (medians[j - 1], j))
            if order != expected:
                problems.append("emd order differs from the median order")
            rule = "binary" if encoding in ("late", "exactpos") else "distance"
        else:
            rule = req.rule
        own = schedule_cost(self.comp, order, rule, encoding)
        if own != cost:
            problems.append(f"reported cost {cost} != evaluated cost {own}")
        if req.rule == "emd":
            return problems
        slot_of = {task: slot for slot, task in enumerate(order, 1)}
        if req.windows:
            outside = [j for j, (r, d) in self.inputs.windows.items() if not r < slot_of[j] <= d]
            if outside:
                problems.append(f"tasks {outside[:5]} outside their time windows")
        best = self.optimum(rule, encoding, req.windows, req.prec_mode)
        if req.prec_mode is None:
            if cost != best:
                problems.append(f"cost {cost} != independent matching optimum {best}")
        else:
            broken = [(a, b) for a, b in self.edges(req.prec_mode) if slot_of[a] >= slot_of[b]]
            if broken:
                problems.append(f"DAG edges {broken[:5]} violated")
            if cost != best:
                problems.append(f"cost {cost} != independent subset-DP optimum {best}")
        return problems

    def _check_oracle(self, req: Request, resp: dict) -> list[str]:
        best, optima = resp.get("best_cost"), resp.get("optima")
        if not isinstance(best, int) or not isinstance(optima, list) or not optima:
            return ["malformed oracle response"]
        problems = []
        for order in optima:
            if not _is_permutation(order, self.n):
                return ["an optimum is not a permutation of 1..n"]
            own = schedule_cost(self.comp, order, req.rule, req.encoding)
            if own != best:
                problems.append(f"optimum {order} costs {own}, reported {best}")
        unconstrained = self.optimum(req.rule, req.encoding)
        if req.axiom_filter is None:
            if best != unconstrained:
                problems.append(f"best_cost {best} != independent matching optimum {unconstrained}")
            if resp.get("searched") != math.factorial(self.n):
                problems.append(f"searched {resp.get('searched')} != {self.n}!")
        elif req.axiom_filter != "release":
            raise ValueError(f"no check for --axiom-filter {req.axiom_filter}")
        else:
            if best < unconstrained:
                problems.append(f"filtered best_cost {best} below the unconstrained optimum")
            earliest = self.comp.min(axis=0)
            for order in optima:
                slots = np.empty(self.n, dtype=np.int64)
                slots[np.asarray(order) - 1] = np.arange(1, self.n + 1)
                if (slots < earliest).any():
                    problems.append(f"optimum {order} breaks release consistency")
        return problems
