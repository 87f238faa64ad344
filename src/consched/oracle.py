"""Brute-force reference solver: the ground truth everything else is tested against.

Enumerates every permutation of 1..n (lexicographically, hard guard n <= 10),
filters by window/precedence feasibility or by an axiom's conclusion, and
returns the exact minimum with *all* minimizers in lexicographic order and the
number of feasible permutations examined.

Both rules are sums over tasks of a cost that depends only on the task and its
completion time, so every permutation is priced from one n x n table built
per call in ``_completion_costs``: T[j, c-1] = sum over voters k of
mult_k * f(rel_kj, due_kj, c), where f is the per-voter late/early (distance)
or outside-the-window (binary) formula of ``criteria``, broadcast over all n
completions c. A permutation's cost is then sum_j T[j, comp[j] - 1], gathered
column by column from the cached ``_kernels.completions_table``. The
pairwise (Kendall) objective is gathered the same way, one pair of columns
at a time, from the pair-weight matrix.

The oracle stays independent of the assignment reduction: it evaluates the
window formula directly instead of reading per-task prefix sums off release
and due histograms (``assignment.build_cost_matrix``), and it enumerates every
schedule instead of running the matching or the subset DP. Agreement between
the oracle and the polynomial solvers is therefore a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .criteria import CriterionKind, _as_criterion, interval_arrays
from .errors import InfeasibleError, SizeLimitError
from .model import (
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
)

__all__ = [
    "ORACLE_MAX_N",
    "OracleResult",
    "exhaustive_optimum",
    "constrained_best",
    "kendall_optimum",
    "pair_weight_matrix",
]

ORACLE_MAX_N = 10

_AXIOM_FILTERS = ("release", "deadline", "unanimity")


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Exact minimum, every minimizer (lexicographic), and the search size."""

    best_cost: int
    optima: tuple[Schedule, ...]
    searched: int


def _guard(n: int) -> None:
    if n > ORACLE_MAX_N:
        raise SizeLimitError(f"oracle enumerates at most {ORACLE_MAX_N}! schedules, got n={n}")


def _result(perms: np.ndarray, costs: np.ndarray, feasible: np.ndarray) -> OracleResult:
    searched = int(feasible.sum())
    if searched == 0:
        raise InfeasibleError("no permutation satisfies the constraints")
    masked = np.where(feasible, costs, np.iinfo(np.int64).max)
    best = int(masked.min())
    optima = tuple(
        Schedule(tuple(int(t) for t in row)) for row in perms[masked == best]
    )
    return OracleResult(best_cost=best, optima=optima, searched=searched)


def _completion_costs(
    profile: PreferenceProfile,
    criterion: CriterionKind,
    encoding: Optional[Union[EncodingKind, str]],
) -> np.ndarray:
    """T[j, c-1]: multiplicity-weighted cost of completing task j+1 at time c."""
    rel, due, mult = interval_arrays(profile, encoding)
    c = np.arange(1, profile.n + 1, dtype=np.int64)
    rel, due = rel[:, :, None], due[:, :, None]
    if criterion is CriterionKind.BINARY:
        per_voter = (c > due) | (c <= rel)
    else:
        per_voter = np.maximum(c - due, 0) + np.maximum(rel - c + 1, 0)
    return (mult[:, None, None] * per_voter).sum(axis=0)


def _costs(
    profile: PreferenceProfile,
    criterion: CriterionKind,
    encoding: Optional[Union[EncodingKind, str]],
    comp: np.ndarray,
) -> np.ndarray:
    """Profile cost of every permutation whose completion times are ``comp``."""
    table = _completion_costs(profile, criterion, encoding)
    costs = np.zeros(len(comp), dtype=np.int64)
    for j in range(profile.n):
        costs += table[j, comp[:, j] - 1]
    return costs


def _inside(comp: np.ndarray, lo, hi, tasks) -> np.ndarray:
    """Rows that complete every task j+1 in ``tasks`` at a time in (lo[j], hi[j]]."""
    feasible = np.ones(len(comp), dtype=bool)
    for j in tasks:
        col = comp[:, j]
        feasible &= (col > lo[j]) & (col <= hi[j])
    return feasible


def exhaustive_optimum(
    profile: PreferenceProfile,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
    windows: Optional[TimeWindows] = None,
    graph: Optional[PrecedenceGraph] = None,
) -> OracleResult:
    """Exact minimum over all window/precedence-feasible permutations."""
    _guard(profile.n)
    criterion = _as_criterion(criterion)
    n = profile.n
    comp = _kernels.completions_table(n)
    if windows is not None:
        if windows.n != n:
            raise ValueError(f"windows cover {windows.n} tasks, profile has {n}")
        lo, hi = zip(*windows.windows)
        feasible = _inside(comp, lo, hi, range(n))
    else:
        feasible = np.ones(len(comp), dtype=bool)
    if graph is not None:
        if graph.n != n:
            raise ValueError(f"graph covers {graph.n} tasks, profile has {n}")
        for a, b in graph.edges:
            feasible &= comp[:, a - 1] < comp[:, b - 1]
    costs = _costs(profile, criterion, encoding, comp)
    return _result(_kernels.perm_table(n), costs, feasible)


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
    window must land inside it).
    """
    _guard(profile.n)
    if axiom not in _AXIOM_FILTERS:
        raise ValueError(f"axiom must be one of {_AXIOM_FILTERS}, got {axiom!r}")
    if axiom != "unanimity" and profile.mode != "order":
        raise ValueError(f"the {axiom} filter needs an order-mode profile")
    criterion = _as_criterion(criterion)
    n = profile.n
    comp = _kernels.completions_table(n)
    # an order-mode voter's window is its own slot: (C - 1, C]
    own = EncodingKind.EXACT_POSITION if profile.mode == "order" else None
    rel, due, _ = interval_arrays(profile, own)
    if axiom == "release":
        feasible = _inside(comp, rel.min(axis=0), [n] * n, range(n))
    elif axiom == "deadline":
        feasible = _inside(comp, [0] * n, due.max(axis=0), range(n))
    else:
        unanimous = (rel == rel[0]).all(axis=0) & (due == due[0]).all(axis=0)
        feasible = _inside(comp, rel[0], due[0], np.flatnonzero(unanimous))
    costs = _costs(profile, criterion, encoding, comp)
    return _result(_kernels.perm_table(n), costs, feasible)


def pair_weight_matrix(profile: PreferenceProfile) -> np.ndarray:
    """w[a-1, b-1] = total multiplicity of voters completing a before b."""
    if profile.mode != "order":
        raise ValueError("pairwise weights require an order-mode profile")
    comps = profile.completions
    before = comps[:, :, None] < comps[:, None, :]
    return (profile.mult[:, None, None] * before).sum(axis=0)


def kendall_optimum(profile: PreferenceProfile) -> OracleResult:
    """Exact minimizers of the summed pairwise-disagreement distance.

    A schedule that completes task a before task b disagrees with the
    w[b, a] voters who complete b before a, so every permutation is priced
    pair by pair from ``pair_weight_matrix`` and two columns of the
    completions table.
    """
    _guard(profile.n)
    n = profile.n
    comp = _kernels.completions_table(n)
    w = pair_weight_matrix(profile)
    costs = np.zeros(len(comp), dtype=np.int64)
    for a in range(n):
        for b in range(a + 1, n):
            costs += np.where(comp[:, a] < comp[:, b], w[b, a], w[a, b])
    return _result(_kernels.perm_table(n), costs, np.ones(len(comp), dtype=bool))
