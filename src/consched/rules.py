"""User-facing aggregation rules.

Three rules turn a preference profile into one schedule:

* ``distance`` — exact minimizer of the summed distance criterion;
* ``binary``   — exact minimizer of the summed binary criterion;
* ``emd``      — Earliest Median Date heuristic: sort tasks by the median of
  their completion times across voters (ties by ascending task id).

The classical named objectives are (criterion, encoding) pairings of the
first two: total deviation and total tardiness/earliness come from the
distance criterion, the late-task count and the exact-position miss count
from the binary criterion. ``canonical_criterion`` maps each encoding to the
criterion that defines its named rule.

The exact rules always route through the assignment reduction (never through
EMD, even when EMD happens to be optimal) and honor optional global time
windows. EMD ignores windows and requires an order-mode profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .assignment import build_cost_matrix, min_cost_assignment
from .criteria import CriterionKind, _task_histogram, profile_cost
from .model import EncodingKind, PreferenceProfile, Schedule, TimeWindows, _as_encoding

__all__ = [
    "RuleKind",
    "RuleSpec",
    "MedianTable",
    "canonical_criterion",
    "median_completion_times",
    "emd_schedule",
    "solve",
]


class RuleKind(str, Enum):
    DISTANCE = "distance"
    BINARY = "binary"
    EMD = "emd"


_CANONICAL = {
    EncodingKind.DEVIATION: CriterionKind.DISTANCE,
    EncodingKind.TARDINESS: CriterionKind.DISTANCE,
    EncodingKind.EARLINESS: CriterionKind.DISTANCE,
    EncodingKind.LATE_TASKS: CriterionKind.BINARY,
    EncodingKind.EXACT_POSITION: CriterionKind.BINARY,
}


def canonical_criterion(encoding: Union[EncodingKind, str]) -> CriterionKind:
    """The criterion that turns an encoding into its classical named rule."""
    return _CANONICAL[_as_encoding(encoding)]


@dataclass(frozen=True, slots=True)
class RuleSpec:
    """What to solve: rule, optional encoding, optional global windows."""

    rule: Union[RuleKind, str]
    encoding: Optional[Union[EncodingKind, str]] = None
    windows: Optional[TimeWindows] = None

    def __post_init__(self):
        object.__setattr__(self, "rule", RuleKind(self.rule))
        if self.encoding is not None:
            object.__setattr__(self, "encoding", _as_encoding(self.encoding))


@dataclass(frozen=True, slots=True)
class MedianTable:
    """Per-task median completion time across voters (1 <= median_j <= n)."""

    median: tuple[int, ...]

    def __post_init__(self):
        n = len(self.median)
        if any(not 1 <= m <= n for m in self.median):
            raise ValueError("medians must lie in 1..n")


def median_completion_times(profile: PreferenceProfile) -> MedianTable:
    """ceil(v/2)-th smallest completion time of each task (lower median).

    Read off a per-task histogram of completion times weighted by
    multiplicity: the median is the first slot whose cumulative count passes
    the pick index, so the cost is O(distinct * n + n^2), not O(v).
    """
    if profile.mode != "order":
        raise ValueError("medians require an order-mode profile")
    pick = (profile.v - 1) // 2  # 0-based index of the ceil(v/2)-th order statistic
    hist = _task_histogram(profile.completions, profile.mult, profile.n + 1)
    counts = np.cumsum(hist, axis=1)
    return MedianTable(tuple((counts > pick).argmax(axis=1).tolist()))


def emd_schedule(profile: PreferenceProfile) -> Schedule:
    """Tasks by (median completion time ascending, task id ascending)."""
    medians = median_completion_times(profile).median
    order = sorted(range(1, profile.n + 1), key=lambda j: (medians[j - 1], j))
    return Schedule(tuple(order))


def solve(
    profile: PreferenceProfile,
    spec: RuleSpec,
    backend: Optional[str] = None,
) -> tuple[Schedule, int]:
    """Run a rule on a profile; returns (schedule, exact integer cost).

    distance/binary delegate to the matching reduction and return a global
    optimum honoring ``spec.windows``; emd returns the median-order schedule
    and its cost under the requested encoding (default: tardiness).

    Raises
    ------
    InfeasibleError
        Propagated from the matching when windows exclude every schedule.
    """
    if spec.rule is RuleKind.EMD:
        if profile.mode != "order":
            raise ValueError("emd requires an order-mode profile")
        encoding = spec.encoding if spec.encoding is not None else EncodingKind.TARDINESS
        schedule = emd_schedule(profile)
        cost = profile_cost(schedule, profile, canonical_criterion(encoding), encoding)
        return schedule, cost

    criterion = CriterionKind(spec.rule.value)
    if profile.mode == "order" and spec.encoding is None:
        raise ValueError(f"{spec.rule.value} rule on an order-mode profile needs an encoding")
    matrix = build_cost_matrix(profile, criterion, spec.encoding, spec.windows)
    return min_cost_assignment(matrix, backend=backend)
