"""Per-voter reference definitions of the paper's quantities.

The library computes every measure on a profile's arrays. The functions here
are the scalar definitions they replace, written one voter and one task at a
time in plain Python, and the tests hold the array forms to them. ``entries``
is the per-voter view they walk: one preference per distinct entry, a
:class:`Schedule` in order mode and a tuple of (release, due) windows, one
per task, in interval mode. The reversal and precedence helpers at the end
check the paper's symmetries and the solvers' feasibility; the library does
not need them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from consched.model import EncodingKind, PreferenceProfile, Schedule


def entries(profile) -> list[tuple]:
    """``(preference, multiplicity)`` per distinct entry, in entry order."""
    mults = profile.mult.tolist()
    if profile.mode == "order":
        orders = (np.argsort(profile.completions, axis=1) + 1).tolist()
        return [(Schedule(tuple(order)), mult) for order, mult in zip(orders, mults)]
    rows = zip(profile.release.tolist(), profile.due.tolist())
    return [(tuple(zip(rel, due)), mult) for (rel, due), mult in zip(rows, mults)]


def voters(profile):
    """One preference per voter, multiplicities expanded in entry order."""
    for pref, mult in entries(profile):
        for _ in range(mult):
            yield pref


def order_windows(pref: Schedule, encoding) -> tuple[tuple[int, int], ...]:
    """A preferred schedule's per-task windows under an encoding."""
    encoding = EncodingKind(encoding)
    comp = pref.completions()
    if encoding in (EncodingKind.DEVIATION, EncodingKind.EXACT_POSITION):
        return tuple((c - 1, c) for c in comp)
    if encoding in (EncodingKind.TARDINESS, EncodingKind.LATE_TASKS):
        return tuple((0, c) for c in comp)
    return tuple((c - 1, pref.n) for c in comp)  # EARLINESS


def binary_task_cost(schedule: Schedule, windows, task: int) -> int:
    """1 iff the task completes outside the voter's window, else 0."""
    c = schedule.completion(task)
    r, d = windows[task - 1]
    return 1 if (c > d or c <= r) else 0


def distance_task_cost(schedule: Schedule, windows, task: int) -> int:
    """Integer gap between the task's slot and the voter's window (0 inside)."""
    c = schedule.completion(task)
    r, d = windows[task - 1]
    if c > d:
        return c - d
    if c <= r:
        return r - (c - 1)
    return 0


@dataclass(frozen=True, slots=True)
class Choice:
    """Voter ``voter`` (1-based) schedules ``task`` in slot ``slot``."""

    voter: int
    task: int
    slot: int


def choice_decomposition(profile) -> tuple[Choice, ...]:
    """All n*v (voter, task, slot) triplets of an order profile.

    Voters are numbered 1..v in entry order, repeating each entry per its
    multiplicity, so every (voter, slot) and (voter, task) pair appears once.
    """
    assert profile.mode == "order"
    return tuple(
        Choice(voter=voter, task=task, slot=slot)
        for voter, pref in enumerate(voters(profile), start=1)
        for slot, task in enumerate(pref.order, start=1)
    )


def late_at_slot(schedule: Schedule, profile, y: int) -> int:
    """Count choices (voter, task, slot <= y) whose task completes after y in S."""
    assert profile.mode == "order" and 1 <= y <= profile.n
    comp = schedule.completions()
    total = 0
    for pref, mult in entries(profile):
        count = sum(
            1
            for slot, task in enumerate(pref.order, start=1)
            if slot <= y and comp[task - 1] > y
        )
        total += mult * count
    return total


def spearman_distance(schedule: Schedule, profile) -> int:
    """Sum over voters and tasks of |C_j(S) - C_j(voter)| (footrule distance)."""
    comp = schedule.completions()
    total = 0
    for pref, mult in entries(profile):
        total += mult * sum(abs(a - b) for a, b in zip(comp, pref.completions()))
    return total


def kendall_tau_distance(schedule: Schedule, profile) -> int:
    """Sum over voters of the number of task pairs ordered oppositely."""
    comp = schedule.completions()
    n = profile.n
    total = 0
    for pref, mult in entries(profile):
        pc = pref.completions()
        disagreements = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if (comp[a] < comp[b]) != (pc[a] < pc[b])
        )
        total += mult * disagreements
    return total


def reverse_schedule(schedule: Schedule) -> Schedule:
    """The same tasks in reverse slot order."""
    return Schedule(tuple(reversed(schedule.order)))


def reverse_profile(profile) -> PreferenceProfile:
    """Reverse every preferred schedule of an order-mode profile.

    The task completing at c completes at n + 1 - c in the reversed schedule.
    """
    if profile.mode != "order":
        raise ValueError("reverse_profile requires an order-mode profile")
    return PreferenceProfile._from_arrays(
        "order", profile.v, profile.mult, completions=profile.n + 1 - profile.completions
    )


def satisfied_by(graph, schedule: Schedule) -> bool:
    """Every edge (a, b) of the precedence graph has a complete before b."""
    comp = schedule.completions()
    return all(comp[a - 1] < comp[b - 1] for a, b in graph.edges)
