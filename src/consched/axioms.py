"""Axiom checkers for rule outputs.

Each checker takes a (schedule, profile) pair, detects the tasks for which
the axiom's premise holds, and reports every premise-holding task whose
completion time falls outside the implied window:

* release-date consistency — if every voter completes task j at or after t,
  the output must too (premise holds for every task with t = min over
  voters);
* deadline consistency — symmetric with the max over voters;
* temporal unanimity — if all voters give task j the identical window (order
  mode: the identical completion slot), the output must place j inside it.

Checkers are empirical: they judge one concrete output, they do not prove a
rule compliant. Reports are uniform: a violation records the task, the
required window (lo, hi] and the actual completion time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PreferenceProfile, Schedule

__all__ = [
    "Violation",
    "AxiomReport",
    "check_release_consistency",
    "check_deadline_consistency",
    "check_temporal_unanimity",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """Task completed at ``got`` instead of inside (window[0], window[1]]."""

    task: int
    window: tuple[int, int]
    got: int


@dataclass(frozen=True, slots=True)
class AxiomReport:
    axiom: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _completion_bounds(profile: PreferenceProfile) -> tuple[list[int], list[int]]:
    """(min, max) completion time per task across an order profile's voters."""
    comp = profile.completions
    return comp.min(axis=0).tolist(), comp.max(axis=0).tolist()


def check_release_consistency(schedule: Schedule, profile: PreferenceProfile) -> AxiomReport:
    """Flag tasks the output completes before every voter does."""
    if profile.mode != "order":
        raise ValueError("release-date consistency is defined on order-mode profiles")
    lo, _ = _completion_bounds(profile)
    violations = tuple(
        Violation(task=j, window=(lo[j - 1] - 1, profile.n), got=schedule.completion(j))
        for j in range(1, profile.n + 1)
        if schedule.completion(j) < lo[j - 1]
    )
    return AxiomReport("release_date_consistency", violations)


def check_deadline_consistency(schedule: Schedule, profile: PreferenceProfile) -> AxiomReport:
    """Flag tasks the output completes after every voter does."""
    if profile.mode != "order":
        raise ValueError("deadline consistency is defined on order-mode profiles")
    _, hi = _completion_bounds(profile)
    violations = tuple(
        Violation(task=j, window=(0, hi[j - 1]), got=schedule.completion(j))
        for j in range(1, profile.n + 1)
        if schedule.completion(j) > hi[j - 1]
    )
    return AxiomReport("deadline_consistency", violations)


def check_temporal_unanimity(schedule: Schedule, profile: PreferenceProfile) -> AxiomReport:
    """Flag unanimously-windowed tasks scheduled outside their window.

    Order mode: the premise is an identical completion slot c across voters,
    read as the window (c-1, c). Interval mode: identical (r, d) pairs.
    Tasks without a unanimous window never appear in the report.
    """
    if profile.mode == "order":
        comp = profile.completions
        rel, due = comp - 1, comp
    else:
        rel, due = profile.release, profile.due
    unanimous = (rel == rel[0]).all(axis=0) & (due == due[0]).all(axis=0)
    violations = []
    for j in (np.flatnonzero(unanimous) + 1).tolist():
        window = (int(rel[0, j - 1]), int(due[0, j - 1]))
        got = schedule.completion(j)
        if not window[0] < got <= window[1]:
            violations.append(Violation(task=j, window=window, got=got))
    return AxiomReport("temporal_unanimity", tuple(violations))
