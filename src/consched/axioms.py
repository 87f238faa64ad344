"""The paper's three axioms as time windows, and checkers for rule outputs.

Each axiom says: when every voter's preference meets a time constraint on a
task, the consensus schedule must meet it too. Its conclusion is therefore
one window (release, deadline] per task, a :class:`TimeWindows`
(``axiom_windows``):

* release-date consistency (order mode) — every voter completes task j at or
  after its earliest slot t, so the output may not complete it earlier:
  (t - 1, n];
* deadline consistency (order mode) — symmetric with the latest slot t: (0, t];
* temporal unanimity — a task to which all voters give the identical window
  (order mode: the identical completion slot c, read as (c - 1, c]) must land
  inside it; every other task gets (0, n], which is no constraint.

The brute-force oracle's axiom filter (``oracle.constrained_best``) searches
inside these windows. The checkers are empirical: they judge one concrete
output, they do not prove a rule compliant. A violation records the task, its
window (lo, hi] and the actual completion time.
"""

from __future__ import annotations

import numpy as np

from . import _EXPORTS
from .criteria import interval_arrays
from .model import (
    AXIOMS,
    EncodingKind,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    _check_size,
    _Record,
)

__all__ = _EXPORTS["axioms"]

class Violation(_Record):
    """Task completed at ``got`` instead of inside (window[0], window[1]]."""

    __slots__ = _fields = ("task", "window", "got")

    def __init__(self, task: int, window: tuple[int, int], got: int):
        self._fill(task, window, got)


class AxiomReport(_Record):
    __slots__ = _fields = ("axiom", "violations")

    def __init__(self, axiom: str, violations: tuple[Violation, ...]):
        self._fill(axiom, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def axiom_windows(profile: PreferenceProfile, axiom: str) -> TimeWindows:
    """The window every task must complete in under the axiom's conclusion.

    ``axiom`` is a key of ``AXIOMS``. An order-mode voter's window is its own
    slot (C - 1, C]; an interval-mode voter's is its stated (r, d).
    """
    if axiom not in AXIOMS:
        raise ValueError(f"axiom must be one of {tuple(AXIOMS)}, got {axiom!r}")
    if axiom != "unanimity" and profile.mode != "order":
        raise ValueError(f"the {axiom} filter needs an order-mode profile")
    own = EncodingKind.EXACT_POSITION if profile.mode == "order" else None
    rel, due, _ = interval_arrays(profile, own)
    n = profile.n
    if axiom == "release":
        lo, hi = rel.min(axis=0), np.full(n, n)
    elif axiom == "deadline":
        lo, hi = np.zeros(n, dtype=np.int64), due.max(axis=0)
    else:
        unanimous = (rel == rel[0]).all(axis=0) & (due == due[0]).all(axis=0)
        lo, hi = np.where(unanimous, rel[0], 0), np.where(unanimous, due[0], n)
    return TimeWindows(tuple(zip(lo.tolist(), hi.tolist())))


def _check_axiom(schedule: Schedule, profile: PreferenceProfile, axiom: str) -> AxiomReport:
    """Every task, in id order, that the schedule completes outside its axiom window."""
    windows = axiom_windows(profile, axiom).windows
    _check_size(schedule, profile.n)
    violations = tuple(
        Violation(task=j, window=window, got=got)
        for j, (window, got) in enumerate(zip(windows, schedule.completions()), start=1)
        if not window[0] < got <= window[1]
    )
    return AxiomReport(AXIOMS[axiom], violations)


def check_release_consistency(schedule: Schedule, profile: PreferenceProfile) -> AxiomReport:
    """Flag tasks the output completes before every voter does (order mode)."""
    return _check_axiom(schedule, profile, "release")


def check_deadline_consistency(schedule: Schedule, profile: PreferenceProfile) -> AxiomReport:
    """Flag tasks the output completes after every voter does (order mode)."""
    return _check_axiom(schedule, profile, "deadline")


def check_temporal_unanimity(schedule: Schedule, profile: PreferenceProfile) -> AxiomReport:
    """Flag unanimously-windowed tasks scheduled outside their window.

    Order mode: the premise is an identical completion slot c across voters,
    read as the window (c-1, c]. Interval mode: identical (r, d) pairs.
    Tasks without a unanimous window never appear in the report.
    """
    return _check_axiom(schedule, profile, "unanimity")
