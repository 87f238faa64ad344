"""Brute-force reference solver: the ground truth everything else is tested against.

Prices every permutation of 1..n (hard guard n <= 10) under windows or
precedences, and returns the exact minimum, *all* minimizers in lexicographic
order and the number of feasible permutations.

Every objective is a sum of steps: running task i directly ahead of the set R
of tasks that fill the last |R| slots costs step[R, i]. For the two rules that
is the multiplicity-weighted per-voter late/early (distance) or
outside-the-window (binary) formula of ``criteria`` at completion n - |R|; for
the pairwise (Kendall) objective, the weight of the voters who complete some
b in R before i. ``_lex_costs`` prices all n! permutations in lexicographic
order with one recursion over subsets by size (about e * n! sums). A window
or a precedence a -> b with a in R sets the step to -1, and so every
permutation that takes it; costs are never negative. An axiom's filter
(``constrained_best``) is its conclusion as windows, ``axioms.axiom_windows``.
The optima are the ranks of the cheapest entries, decoded in factorial base
(``_unrank``).

The oracle stays independent of the assignment reduction: it evaluates the
window formula directly instead of reading per-task prefix sums off release
and due histograms (``assignment.build_cost_matrix``), and it prices every
schedule instead of running the matching or the subset DP. Agreement between
the oracle and the polynomial solvers is therefore a genuine cross-check.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import _EXPORTS
from .criteria import CriterionKind, _as_criterion, interval_arrays, pair_weight_matrix
from .errors import InfeasibleError, SizeLimitError
from .model import (
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _check_fit,
    _Record,
)

__all__ = _EXPORTS["oracle"]

ORACLE_MAX_N = 10


class OracleResult(_Record):
    """Exact minimum, every minimizer (lexicographic), and the search size."""

    __slots__ = _fields = ("best_cost", "optima", "searched")

    def __init__(self, best_cost: int, optima: tuple[Schedule, ...], searched: int):
        self._fill(best_cost, optima, searched)


def _guard(n: int) -> None:
    if n > ORACLE_MAX_N:
        raise SizeLimitError(f"oracle enumerates at most {ORACLE_MAX_N}! schedules, got n={n}")


def _members(n: int) -> np.ndarray:
    """members[R, j]: task j+1 belongs to the set with bit mask R; shape (2^n, n)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)


def _lex_costs(step: np.ndarray) -> np.ndarray:
    """Cost of every permutation of 1..n in lexicographic order; -1 where infeasible.

    ``step`` has shape (2^n, n). Layer k holds, per k-set S in ascending mask
    order, the costs of S's permutations on the last k slots: over i in S
    ascending, step[S - {i}, i] + the costs of S - {i}. ``row`` finds a set's row.
    """
    n = step.shape[1]
    members = _members(n)
    size = members.sum(axis=1)
    row = np.zeros(1 << n, dtype=np.int64)
    costs = np.zeros((1, 1), dtype=np.int64)  # the empty set's one permutation
    forbids = bool((step < 0).any())
    for k in range(1, n + 1):
        sets = np.flatnonzero(size == k)
        row[sets] = np.arange(len(sets))
        tasks = np.nonzero(members[sets])[1].reshape(-1, k)  # each set's tasks, ascending
        out = np.empty((len(sets), k, costs.shape[1]), dtype=np.int64)
        for p in range(k):  # the block of permutations that run each set's p-th task first
            first = tasks[:, p]
            rest = sets ^ (1 << first)
            tail, head = costs[row[rest]], step[rest, first]
            np.add(tail, head[:, None], out=out[:, p])
            if forbids:
                np.copyto(out[:, p], -1, where=(tail < 0) | (head < 0)[:, None])
        costs = out.reshape(len(sets), -1)
    return costs[0]


def _unrank(ranks: np.ndarray, n: int) -> np.ndarray:
    """The permutations of 1..n at lexicographic ``ranks``, one per row (int8)."""
    perm = np.empty((len(ranks), n), dtype=np.int8)
    for k in range(n - 1, -1, -1):  # Lehmer code: digit k counts the smaller tasks after slot k
        ranks, perm[:, k] = np.divmod(ranks, n - k)
    for k in range(n - 2, -1, -1):  # slot k keeps its digit; the later slots skip past it
        after = perm[:, k + 1:]
        after += after >= perm[:, k, None]
    return perm + 1


def _result(step: np.ndarray) -> OracleResult:
    """The cheapest permutations under ``step`` that it does not forbid, in rank order."""
    costs = _lex_costs(step)
    feasible = costs >= 0
    searched = int(np.count_nonzero(feasible))
    if searched == 0:
        raise InfeasibleError("no permutation satisfies the constraints")
    best = int(costs.min(where=feasible, initial=np.iinfo(np.int64).max))
    orders = _unrank(np.flatnonzero(costs == best), step.shape[1])
    optima = tuple(Schedule(tuple(row)) for row in orders.tolist())
    return OracleResult(best_cost=best, optima=optima, searched=searched)


def _steps(profile: PreferenceProfile, criterion: Union[CriterionKind, str],
           encoding: Optional[Union[EncodingKind, str]]) -> np.ndarray:
    """step[R, j]: multiplicity-weighted cost of completing task j+1 at n - |R|.

    Row R is column n - |R| - 1 of the per-(task, completion) table; the full
    set's row (completion 0) is never read.
    """
    rel, due, mult = interval_arrays(profile, encoding)
    n = profile.n
    c = np.arange(1, n + 1, dtype=np.int64)
    rel, due = rel[:, :, None], due[:, :, None]
    if _as_criterion(criterion) is CriterionKind.BINARY:
        per_voter = (c > due) | (c <= rel)
    else:
        per_voter = np.maximum(c - due, 0) + np.maximum(rel - c + 1, 0)
    table = (mult[:, None, None] * per_voter).sum(axis=0)
    return table.T[n - 1 - _members(n).sum(axis=1)]


def exhaustive_optimum(
    profile: PreferenceProfile,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
    windows: Optional[TimeWindows] = None,
    graph: Union[None, str, PrecedenceGraph] = None,
) -> OracleResult:
    """Exact minimum over all window/precedence-feasible permutations.

    ``graph`` takes what ``solve``'s ``prec`` does, checked alike before the
    size guard (``model._check_fit``): None, ``"inferred"`` (the profile's
    unanimous-order graph) or an imposed ``PrecedenceGraph``.
    """
    n = profile.n
    _check_fit(n, windows, graph)
    _guard(n)
    if graph is not None:
        from .precedence import _resolve_precedences

        graph = _resolve_precedences(profile, graph)
    step = _steps(profile, criterion, encoding)
    if windows is not None:  # task j+1 may not complete outside its window (r, d]
        lo, hi = np.array(windows.windows, dtype=np.int64).T
        done = n - _members(n).sum(axis=1, keepdims=True)
        step[(done <= lo) | (done > hi)] = -1
    if graph is not None:
        members = _members(n)
        for a, b in graph.edges:  # b may not run ahead of a set that still holds a
            step[members[:, a - 1], b - 1] = -1
    return _result(step)


def constrained_best(
    profile: PreferenceProfile,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
    axiom: str = "release",
) -> OracleResult:
    """Exact minimum among permutations satisfying an axiom's conclusion.

    ``axiom`` is one of ``release``/``deadline`` (order-mode profiles: the
    output may not complete a task before the earliest / after the latest
    voter does) or ``unanimity`` (either mode: tasks with one unanimous
    window must land inside it); ``axioms.axiom_windows`` gives the windows.
    """
    _guard(profile.n)  # a profile too large fails on its size first, whatever the axiom
    from .axioms import axiom_windows

    return exhaustive_optimum(profile, criterion, encoding, axiom_windows(profile, axiom))


def kendall_optimum(profile: PreferenceProfile) -> OracleResult:
    """Exact minimizers of the summed pairwise-disagreement distance.

    Running task i ahead of the set R disagrees with the w[b, i] voters who
    complete b before i, for every b in R, so the step is the sum of w's
    rows over R (``pair_weight_matrix``).
    """
    _guard(profile.n)
    return _result(_members(profile.n) @ pair_weight_matrix(profile))
