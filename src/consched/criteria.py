"""Dissatisfaction measures between a schedule and voter preferences.

Two per-(voter, task) criteria, both driven by the voter's window (r, d):

* binary   — 1 when the task completes outside the window (C > d or C <= r);
* distance — how far outside: C - d past the due date, r - (C - 1) before the
  release date, 0 inside.

Profile-level costs weight each distinct preference by its multiplicity and
sum over tasks; all arithmetic is exact integer arithmetic. Order-mode
profiles are measured through an encoding (see
:class:`consched.model.EncodingKind`), which turns each preferred schedule
into windows first. The classical objectives arise as pairings:
distance+deviation, distance+tardiness, distance+earliness, binary+late_tasks,
binary+exact_position.

The choice decomposition re-reads an order profile as one (voter, task, slot)
triplet per voter per slot; ``late_at_slot`` counts, at slot y, the choices
with slot <= y whose task is still unfinished — the building block of the
median-rule approximation analysis. ``late_counts`` returns that count at
every slot at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .model import (
    EncodingKind,
    IntervalPreference,
    OrderPreference,
    PreferenceProfile,
    Schedule,
    _as_encoding,
)

__all__ = [
    "CriterionKind",
    "Choice",
    "binary_task_cost",
    "distance_task_cost",
    "profile_cost",
    "choice_decomposition",
    "late_at_slot",
    "late_counts",
    "spearman_distance",
    "kendall_tau_distance",
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


@dataclass(frozen=True, slots=True)
class Choice:
    """Voter ``voter`` (1-based) schedules ``task`` in slot ``slot``."""

    voter: int
    task: int
    slot: int


def binary_task_cost(schedule: Schedule, pref: IntervalPreference, task: int) -> int:
    """1 iff the task completes outside the voter's window, else 0."""
    c = schedule.completion(task)
    r, d = pref.windows[task - 1]
    return 1 if (c > d or c <= r) else 0


def distance_task_cost(schedule: Schedule, pref: IntervalPreference, task: int) -> int:
    """Integer gap between the task's slot and the voter's window (0 inside)."""
    c = schedule.completion(task)
    r, d = pref.windows[task - 1]
    if c > d:
        return c - d
    if c <= r:
        return r - (c - 1)
    return 0


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
    if schedule.n != profile.n:
        raise ValueError(f"schedule has {schedule.n} tasks, profile {profile.n}")
    rel, due, mult = interval_arrays(profile, encoding)
    comp = np.array(schedule.completions(), dtype=np.int64)
    if _as_criterion(criterion) is CriterionKind.BINARY:
        per_entry = ((comp > due) | (comp <= rel)).sum(axis=1)
    else:
        per_entry = (np.maximum(comp - due, 0) + np.maximum(rel - comp + 1, 0)).sum(axis=1)
    return sum(map(operator.mul, mult.tolist(), per_entry.tolist()))


def choice_decomposition(profile: PreferenceProfile) -> tuple[Choice, ...]:
    """All n*v (voter, task, slot) triplets of an order profile.

    Voters are numbered 1..v in entry order, repeating each entry per its
    multiplicity, so every (voter, slot) and (voter, task) pair appears once.
    """
    if profile.mode != "order":
        raise ValueError("choice decomposition requires an order-mode profile")
    choices = []
    voter = 0
    for pref in profile.iter_voters():
        voter += 1
        for slot, task in enumerate(pref.schedule.order, start=1):
            choices.append(Choice(voter=voter, task=task, slot=slot))
    return tuple(choices)


def late_at_slot(schedule: Schedule, profile: PreferenceProfile, y: int) -> int:
    """Count choices (voter, task, slot <= y) whose task completes after y in S."""
    if profile.mode != "order":
        raise ValueError("late_at_slot requires an order-mode profile")
    if not 1 <= y <= profile.n:
        raise ValueError(f"slot {y} outside 1..{profile.n}")
    comp = schedule.completions()
    total = 0
    for pref, mult in profile.entries:
        count = sum(
            1
            for slot, task in enumerate(pref.schedule.order, start=1)
            if slot <= y and comp[task - 1] > y
        )
        total += mult * count
    return total


def late_counts(schedule: Schedule, profile: PreferenceProfile) -> list[int]:
    """``late_at_slot`` at every slot y = 1..n, from one pass over the profile.

    A choice (voter, task, slot s) whose task completes at c > s in S is late
    at exactly the slots s <= y < c, so it adds its multiplicity at s and
    removes it at c; the counts are the running sum.
    """
    if profile.mode != "order":
        raise ValueError("late_counts requires an order-mode profile")
    if schedule.n != profile.n:
        raise ValueError(f"schedule has {schedule.n} tasks, profile {profile.n}")
    comp = schedule.completions()
    step = [0] * (profile.n + 1)
    for pref, mult in profile.entries:
        for slot, task in enumerate(pref.schedule.order, start=1):
            done = comp[task - 1]
            if slot < done:
                step[slot] += mult
                step[done] -= mult
    return list(accumulate(step[1:]))


def spearman_distance(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Sum over voters and tasks of |C_j(S) - C_j(voter)| (footrule distance)."""
    if profile.mode != "order":
        raise ValueError("spearman_distance requires an order-mode profile")
    comp = schedule.completions()
    total = 0
    for pref, mult in profile.entries:
        pc = pref.schedule.completions()
        total += mult * sum(abs(a - b) for a, b in zip(comp, pc))
    return total


def kendall_tau_distance(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Sum over voters of the number of task pairs ordered oppositely."""
    if profile.mode != "order":
        raise ValueError("kendall_tau_distance requires an order-mode profile")
    comp = schedule.completions()
    n = profile.n
    total = 0
    for pref, mult in profile.entries:
        pc = pref.schedule.completions()
        disagreements = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if (comp[a] < comp[b]) != (pc[a] < pc[b])
        )
        total += mult * disagreements
    return total


def _completion_arrays(profile: PreferenceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Completion times of all distinct voters of an order profile, as arrays.

    Returns ``(completions, multiplicity)``: ``completions`` has shape
    (distinct voters, n) with ``completions[i, j-1]`` the slot at which entry
    i's preferred schedule completes task j; entries follow the profile's
    entry order.
    """
    comp = np.array([p.schedule.completions() for p, _ in profile.entries], dtype=np.int64)
    mult = np.array([m for _, m in profile.entries], dtype=np.int64)
    return comp, mult


def interval_arrays(
    profile: PreferenceProfile, encoding: Optional[Union[EncodingKind, str]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows of all distinct voters as arrays: (release, due, multiplicity).

    ``release``/``due`` have shape (distinct voters, n); entries follow the
    profile's entry order. Order-mode profiles derive the windows from the
    stacked completions C with the encoding's formula (see
    :class:`consched.model.EncodingKind`) in O(distinct * n) array time,
    without building one :class:`IntervalPreference` per voter. Shared by the
    cost matrix, the cost recheck and the brute-force oracle, so all of them
    evaluate the same windows as the scalar functions above.
    """
    if profile.mode == "order":
        if encoding is None:
            raise ValueError("order-mode profiles require an encoding")
        encoding = _as_encoding(encoding)
        comp, mult = _completion_arrays(profile)
        if encoding in (EncodingKind.DEVIATION, EncodingKind.EXACT_POSITION):
            return comp - 1, comp, mult
        if encoding in (EncodingKind.TARDINESS, EncodingKind.LATE_TASKS):
            return np.zeros_like(comp), comp, mult
        return comp - 1, np.full_like(comp, profile.n), mult  # EARLINESS
    if encoding is not None:
        raise ValueError("interval-mode profiles take no encoding")
    rel = np.array([[r for r, _ in p.windows] for p, _ in profile.entries], dtype=np.int64)
    due = np.array([[d for _, d in p.windows] for p, _ in profile.entries], dtype=np.int64)
    mult = np.array([m for _, m in profile.entries], dtype=np.int64)
    return rel, due, mult


def _task_histogram(values: np.ndarray, mult: np.ndarray, bins: int) -> np.ndarray:
    """Multiplicity-weighted count of each value per task, exact in int64.

    ``values`` has shape (distinct voters, n) with entries in 0..bins-1; the
    result has shape (n, bins) and ``hist[j, x]`` sums ``mult[i]`` over the
    entries i with ``values[i, j] == x``. Counts are added with ``np.add.at``
    in int64 (a weighted ``bincount`` would sum in float64 and round).
    """
    n = values.shape[1]
    hist = np.zeros(n * bins, dtype=np.int64)
    idx = values + np.arange(0, n * bins, bins, dtype=np.int64)
    np.add.at(hist, idx, np.broadcast_to(mult[:, None], idx.shape))
    return hist.reshape(n, bins)
