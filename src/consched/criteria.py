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

from enum import Enum
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
    in int64: an accepted profile's total is at most v * n^2 < 2^62, so it
    is exact. Beyond the window arrays, one (distinct, n) buffer holds each
    term in turn.
    """
    _check_size(schedule, profile.n)
    rel, due, mult = interval_arrays(profile, encoding)
    comp = np.array(schedule.completions(), dtype=np.int64)
    if _as_criterion(criterion) is CriterionKind.BINARY:
        miss = np.greater(comp, due)
        miss |= np.less_equal(comp, rel)
        per_entry = miss.sum(axis=1)
    else:
        gap = np.subtract(comp, due)  # past the due date where positive
        per_entry = np.maximum(gap, 0, out=gap).sum(axis=1)
        np.subtract(rel, comp - 1, out=gap)  # before the release where positive
        per_entry += np.maximum(gap, 0, out=gap).sum(axis=1)
    return int(mult @ per_entry)


def late_counts(schedule: Schedule, profile: PreferenceProfile) -> list[int]:
    """Late choices at every slot y = 1..n, from one count of the profile's completions.

    A voter's choice (j, s), completing task j at slot s, is late at the
    slots s <= y < C_j(schedule). So slot y sums, over the tasks the schedule
    completes after y, the task's row of the count up to y: at most n * v.
    """
    if profile.mode != "order":
        raise ValueError("late_counts requires an order-mode profile")
    _check_size(schedule, profile.n)
    by = np.cumsum(_task_histogram(profile.completions, profile.mult, profile.n + 1), axis=1)
    after = np.array(schedule.completions(), dtype=np.int64)[:, None] > np.arange(profile.n + 1)
    return (by * after)[:, 1:].sum(axis=0).tolist()


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


# Per encoding, whether a voter's window (r, d] has r = C - 1 (else 0) and d = C (else n).
_ORDER_WINDOWS = {
    EncodingKind.DEVIATION: (True, True),
    EncodingKind.EXACT_POSITION: (True, True),
    EncodingKind.TARDINESS: (False, True),
    EncodingKind.LATE_TASKS: (False, True),
    EncodingKind.EARLINESS: (True, False),
}


def _order_window(profile: PreferenceProfile, encoding) -> Optional[tuple[bool, bool]]:
    """An order profile's row of ``_ORDER_WINDOWS``; None for an interval profile."""
    if profile.mode == "order":
        if encoding is None:
            raise ValueError("order-mode profiles require an encoding")
        return _ORDER_WINDOWS[_as_encoding(encoding)]
    if encoding is not None:
        raise ValueError("interval-mode profiles take no encoding")
    return None


def interval_arrays(
    profile: PreferenceProfile, encoding: Optional[Union[EncodingKind, str]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows of all distinct voters as arrays: (release, due, multiplicity).

    ``release``/``due`` have shape (distinct voters, n); rows follow the
    profile's entry order. Interval-mode profiles return their own read-only
    arrays; order-mode ones derive the windows from their completions C by
    ``_ORDER_WINDOWS``, where a release of 0 or a due date of n is a
    read-only zero-stride view (``np.broadcast_to``) that allocates nothing.
    The cost recheck, the oracle and the axiom checks share these arrays;
    the cost matrix reads the same table.
    """
    window = _order_window(profile, encoding)
    if window is None:
        return profile.release, profile.due, profile.mult
    comp, (shifted, due_at_c) = profile.completions, window
    rel = comp - 1 if shifted else np.broadcast_to(np.int64(0), comp.shape)
    due = comp if due_at_c else np.broadcast_to(np.int64(profile.n), comp.shape)
    return rel, due, profile.mult


def _task_histogram(values: np.ndarray, mult: np.ndarray, bins: int) -> np.ndarray:
    """Multiplicity-weighted count of each value per task, exact in int64.

    ``values`` has shape (distinct voters, n) with values in 0..bins-1; the
    result has shape (n, bins) and ``hist[j, x]`` sums ``mult[i]`` over the
    rows i with ``values[i, j] == x``. An unweighted ``bincount`` counts each
    row once, exactly (float64 weights round past 2^53), and ``np.add.at``
    adds ``mult - 1`` in int64 to the rows of multiplicity > 1. The one
    (distinct, n) temporary is the index array.
    """
    n = values.shape[1]
    idx = values + np.arange(0, n * bins, bins, dtype=np.int64)
    hist = np.bincount(idx.ravel(), minlength=n * bins).astype(np.int64, copy=False)
    heavy = mult > 1
    np.add.at(hist, idx[heavy], (mult[heavy] - 1)[:, None])
    return hist.reshape(n, bins)
