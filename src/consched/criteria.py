"""Dissatisfaction measures between a schedule and voter preferences.

Two per-(voter, task) criteria, both driven by the voter's window (r, d):

* binary   — 1 when the task completes outside the window (C > d or C <= r);
* distance — how far outside: C - d past the due date, r - (C - 1) before the
  release date, 0 inside.

Profile-level costs weight each distinct preference by its multiplicity and
sum over tasks; all arithmetic is exact integer arithmetic. Order-mode
profiles are measured through an encoding (see
:class:`consched.model.EncodingKind`), which turns each preferred schedule
into windows first (:func:`interval_arrays`). The classical objectives arise
as pairings: distance+deviation, distance+tardiness, distance+earliness,
binary+late_tasks, binary+exact_position.

The rank distances of order profiles read the same arrays. The Spearman
footrule is the deviation cost; the Kendall distance is priced from the
pair-weight matrix (:func:`pair_weight_matrix`). ``late_counts`` gives, at
every slot y, the voters' choices (task j at the slot the voter completes
it) with slot <= y whose task the schedule still leaves unfinished, the
building block of the median-rule approximation analysis.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .model import EncodingKind, PreferenceProfile, Schedule, _as_encoding, _check_size

__all__ = [
    "CriterionKind",
    "profile_cost",
    "late_counts",
    "spearman_distance",
    "kendall_tau_distance",
    "pair_weight_matrix",
    "interval_arrays",
]


class CriterionKind(str, Enum):
    """How a (voter, task) miss is priced: all-or-nothing or by distance."""

    BINARY = "binary"
    DISTANCE = "distance"


def _as_criterion(criterion: Union[CriterionKind, str]) -> CriterionKind:
    if isinstance(criterion, CriterionKind):
        return criterion
    try:
        return CriterionKind(criterion)
    except ValueError:
        raise ValueError(f"unknown criterion {criterion!r} (expected 'binary' or 'distance')") from None


def profile_cost(
    schedule: Schedule,
    profile: PreferenceProfile,
    criterion: Union[CriterionKind, str],
    encoding: Optional[Union[EncodingKind, str]] = None,
) -> int:
    """Multiplicity-weighted sum over voters and tasks of the per-task cost.

    Prices every distinct entry at the schedule's completions in one array
    pass (an entry's row sum is at most n^2), then weights by multiplicity
    with Python integers, so the total is exact at any size.
    """
    _check_size(schedule, profile.n)
    rel, due, mult = interval_arrays(profile, encoding)
    comp = np.array(schedule.completions(), dtype=np.int64)
    if _as_criterion(criterion) is CriterionKind.BINARY:
        per_entry = ((comp > due) | (comp <= rel)).sum(axis=1)
    else:
        per_entry = (np.maximum(comp - due, 0) + np.maximum(rel - comp + 1, 0)).sum(axis=1)
    return sum(map(operator.mul, mult.tolist(), per_entry.tolist()))


def late_counts(schedule: Schedule, profile: PreferenceProfile) -> list[int]:
    """Late choices at every slot y = 1..n, from one pass over the profile.

    A voter who completes task j at slot s chooses (j, s). When the schedule
    completes j at c > s, that choice is late at exactly the slots s <= y < c,
    so it adds its multiplicity at s and removes it at c; the counts are the
    running sum, in Python integers.
    """
    if profile.mode != "order":
        raise ValueError("late_counts requires an order-mode profile")
    _check_size(schedule, profile.n)
    comp = schedule.completions()
    step = [0] * (profile.n + 1)
    for mult, row in zip(profile.mult.tolist(), profile.completions.tolist()):
        for slot, done in zip(row, comp):
            if slot < done:
                step[slot] += mult
                step[done] -= mult
    return list(accumulate(step[1:]))


def spearman_distance(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Sum over voters and tasks of |C_j(S) - C_j(voter)|: the deviation cost."""
    if profile.mode != "order":
        raise ValueError("spearman_distance requires an order-mode profile")
    return profile_cost(schedule, profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)


def kendall_tau_distance(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Sum over voters of the number of task pairs ordered oppositely.

    A schedule that completes a before b disagrees with the w[b, a] voters
    who complete b before a (:func:`pair_weight_matrix`). Putting w's rows
    and columns in the schedule's slot order moves exactly those weights
    below the diagonal.
    """
    if profile.mode != "order":
        raise ValueError("kendall_tau_distance requires an order-mode profile")
    _check_size(schedule, profile.n)
    idx = np.array(schedule.order, dtype=np.int64) - 1
    w = pair_weight_matrix(profile)
    return int(np.tril(w[np.ix_(idx, idx)], -1).sum())


def pair_weight_matrix(profile: PreferenceProfile) -> np.ndarray:
    """w[a-1, b-1] = total multiplicity of voters completing a before b.

    Exact int64 sums (each at most v); the only temporary is the
    (distinct, n, n) boolean tensor of pairwise orders.
    """
    if profile.mode != "order":
        raise ValueError("pairwise weights require an order-mode profile")
    comps = profile.completions
    return np.einsum("i,ijk->jk", profile.mult, comps[:, :, None] < comps[:, None, :])


def interval_arrays(
    profile: PreferenceProfile, encoding: Optional[Union[EncodingKind, str]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows of all distinct voters as arrays: (release, due, multiplicity).

    ``release``/``due`` have shape (distinct voters, n); rows follow the
    profile's entry order. Interval-mode profiles return their own read-only
    arrays. Order-mode profiles derive the windows from the profile's
    completions C with the encoding's formula (see
    :class:`consched.model.EncodingKind`) in O(distinct * n) array time.
    Shared by the cost matrix, the cost recheck and the brute-force oracle,
    so all of them evaluate the same windows.
    """
    if profile.mode == "order":
        if encoding is None:
            raise ValueError("order-mode profiles require an encoding")
        encoding = _as_encoding(encoding)
        comp, mult = profile.completions, profile.mult
        if encoding in (EncodingKind.DEVIATION, EncodingKind.EXACT_POSITION):
            return comp - 1, comp, mult
        if encoding in (EncodingKind.TARDINESS, EncodingKind.LATE_TASKS):
            return np.zeros_like(comp), comp, mult
        return comp - 1, np.full_like(comp, profile.n), mult  # EARLINESS
    if encoding is not None:
        raise ValueError("interval-mode profiles take no encoding")
    return profile.release, profile.due, profile.mult


def _task_histogram(values: np.ndarray, mult: np.ndarray, bins: int) -> np.ndarray:
    """Multiplicity-weighted count of each value per task, exact in int64.

    ``values`` has shape (distinct voters, n) with values in 0..bins-1; the
    result has shape (n, bins) and ``hist[j, x]`` sums ``mult[i]`` over the
    rows i with ``values[i, j] == x``. An unweighted ``bincount`` counts each
    row once, exactly (weights would sum in float64 and round past 2^53);
    ``np.add.at`` adds ``mult - 1`` in int64 for the rows of multiplicity > 1.
    """
    n = values.shape[1]
    idx = values + np.arange(0, n * bins, bins, dtype=np.int64)
    hist = np.bincount(idx.ravel(), minlength=n * bins).astype(np.int64, copy=False)
    heavy = mult > 1
    np.add.at(hist, idx[heavy], (mult[heavy] - 1)[:, None])
    return hist.reshape(n, bins)
