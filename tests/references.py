"""Per-voter reference definitions of the paper's quantities.

The library computes every measure on a profile's arrays. The functions here
are the scalar definitions they replace, written one voter and one task at a
time in plain Python, and the tests hold the array forms to them. ``entries``
is the per-voter view they walk: one preference per distinct entry, a
:class:`Schedule` in order mode and a tuple of (release, due) windows, one
per task, in interval mode. The reversal and precedence helpers check the
paper's symmetries and the solvers' feasibility; the library does not need
them. ``reference_parse_profile`` is the profile parser written one line at a
time, which the array parser must match, errors included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from consched.errors import ProfileError
from consched.model import EncodingKind, PreferenceProfile, Schedule, _check_cost_bound


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


@dataclass(frozen=True)
class ReferenceProfile:
    """What the former parser built: one preference per pref line, with its multiplicity."""

    mode: str
    n: int
    v: int
    entries: tuple


_PAIR = r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)"  # one interval pair '(r,d)'


def hall_feasible(windows) -> bool:
    """Whether windows (r, d], one per task over slots 1..n, admit a schedule.

    Hall's condition on intervals: for every 0 <= a < b <= n, at most b - a
    windows lie inside (a, b]. A set of tasks that breaks Hall's condition
    has one whose windows' union is a single interval, so intervals suffice.
    """
    n = len(windows)
    return all(
        sum(a <= r and d <= b for r, d in windows) <= b - a
        for a in range(n)
        for b in range(a + 1, n + 1)
    )


def reference_parse_profile(text):
    """The former parser: one validated Schedule or window tuple per line.

    Each line is checked in full, in file order, before the next is read.
    """
    lines = []
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append((no, line))
    if len(lines) < 4:
        raise ProfileError("profile needs a 3-line header and at least one pref line")
    (no1, l1), (no2, l2), (no3, l3) = lines[0], lines[1], lines[2]
    m = re.fullmatch(r"profile\s+(order|interval)", l1)
    if not m:
        raise ProfileError("expected 'profile order' or 'profile interval'", no1)
    mode = m.group(1)
    m = re.fullmatch(r"tasks\s+(\d+)", l2)
    if not m:
        raise ProfileError("expected 'tasks <n>'", no2)
    n = int(m.group(1))
    if n < 1:
        raise ProfileError("task count must be >= 1", no2)
    m = re.fullmatch(r"voters\s+(\d+)", l3)
    if not m:
        raise ProfileError("expected 'voters <v>'", no3)
    v = int(m.group(1))
    if v < 1:
        raise ProfileError("voter count must be >= 1", no3)
    _check_cost_bound(n, v, no3)
    entries = []
    for no, line in lines[3:]:
        m = re.fullmatch(r"pref\s+(\d+)\s*:\s*(.*)", line)
        if not m:
            raise ProfileError(f"expected 'pref <mult> : ...', got {line!r}", no)
        mult = int(m.group(1))
        if mult < 1:
            raise ProfileError("multiplicity must be >= 1", no)
        body = m.group(2).strip()
        if mode == "order":
            if "(" in body:
                raise ProfileError("interval pair in an order-mode profile", no)
            try:
                tasks = [int(tok) for tok in body.split()]
            except ValueError as exc:
                if str(exc).startswith("Exceeds the limit"):  # Python's int digit limit
                    raise ProfileError("number has too many digits", no) from None
                raise ProfileError(f"non-integer task id in {body!r}", no) from None
            if len(tasks) != n:
                raise ProfileError(f"expected {n} task ids, got {len(tasks)}", no)
            try:
                pref = Schedule(tuple(tasks))
            except ValueError as exc:
                raise ProfileError(str(exc), no) from None
        else:
            pairs = re.findall(_PAIR, body)
            if len(pairs) != n or not re.fullmatch(rf"(?:\s*{_PAIR})*\s*", body):
                raise ProfileError(f"expected {n} '(r,d)' pairs", no)
            try:
                pref = tuple((int(r), int(d)) for r, d in pairs)
            except ValueError:  # a string of digits fails only past Python's int digit limit
                raise ProfileError("number has too many digits", no) from None
            for j, (r, d) in enumerate(pref, start=1):
                if not 0 <= r < d <= n:
                    message = f"task {j}: window ({r},{d}) violates 0 <= r < d <= {n}"
                    raise ProfileError(message, no)
            if not hall_feasible(pref):
                raise ProfileError("windows admit no feasible schedule", no)
        entries.append((pref, mult))
    total = sum(m for _, m in entries)
    if total != v:
        raise ProfileError(f"multiplicities sum to {total}, header declares voters {v}")
    return ReferenceProfile(mode, n, v, tuple(entries))
