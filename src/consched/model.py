"""Domain types and on-disk formats for voter preferences over unit tasks.

Tasks carry dense ids 1..n. A schedule assigns each task to one unit slot;
the task in slot t runs over [t-1, t] and completes at time t, so completion
times live in {1..n} and a schedule is interchangeable with a ranking.

Voters state preferences in one of two modes:

* ``order`` — a preferred schedule (permutation of 1..n) per voter;
* ``interval`` — a (release, due) window per task per voter, where the window
  (r, d) admits exactly the slots t with r < t <= d.

Profiles compress identical voters with integer multiplicities.

File formats (UTF-8, line oriented, ``#`` starts a comment):

* profile file::

    profile order            # or: profile interval
    tasks <n>
    voters <v>
    pref <mult> : <t1> ... <tn>                      # order mode
    pref <mult> : (<r1>,<d1>) ... (<rn>,<dn>)        # interval mode, pair k = task k

  Multiplicities must sum to v, and v * n * (n + 1) must fit in int64 (the
  bound on every cost total, so all costs stay exact).
* precedence file: one edge per line, ``a -> b`` (a completes before b).
* time-window file: one line per constrained task, ``task <j> : <r> <d>``;
  unlisted tasks default to (0, n).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Union

from .errors import ProfileError

__all__ = [
    "EncodingKind",
    "Schedule",
    "OrderPreference",
    "IntervalPreference",
    "PreferenceProfile",
    "PrecedenceGraph",
    "TimeWindows",
    "parse_profile",
    "serialize_profile",
    "parse_precedence",
    "parse_time_windows",
    "validate_interval_preference",
    "order_to_interval",
    "reverse_schedule",
    "reverse_profile",
]


class EncodingKind(str, Enum):
    """Recipes translating a preferred schedule into per-task windows.

    With C the task's completion time in the voter's preferred schedule and n
    the task count, the encodings produce the windows:

    * ``deviation``      — (C-1, C)
    * ``tardiness``      — (0, C)
    * ``earliness``      — (C-1, n)
    * ``late_tasks``     — (0, C)   (same window as tardiness; consumed by the
      binary criterion instead of the distance criterion)
    * ``exact_position`` — (C-1, C) (same window as deviation, binary consumer)
    """

    DEVIATION = "deviation"
    TARDINESS = "tardiness"
    EARLINESS = "earliness"
    LATE_TASKS = "late_tasks"
    EXACT_POSITION = "exact_position"


def _as_encoding(encoding: Union["EncodingKind", str]) -> "EncodingKind":
    if isinstance(encoding, EncodingKind):
        return encoding
    try:
        return EncodingKind(encoding)
    except ValueError:
        valid = ", ".join(e.value for e in EncodingKind)
        raise ValueError(f"unknown encoding {encoding!r} (expected one of: {valid})") from None


@dataclass(frozen=True, slots=True)
class Schedule:
    """A permutation of task ids; position t-1 holds the task completing at t."""

    order: tuple[int, ...]
    _completed_at: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple(int(t) for t in self.order)
        object.__setattr__(self, "order", order)
        n = len(order)
        if n == 0:
            raise ValueError("empty schedule")
        completed = [0] * n
        for slot, task in enumerate(order, start=1):
            if not 1 <= task <= n:
                raise ValueError(f"task id {task} outside 1..{n}")
            if completed[task - 1]:
                raise ValueError(f"duplicate task {task} in schedule")
            completed[task - 1] = slot
        object.__setattr__(self, "_completed_at", tuple(completed))

    @property
    def n(self) -> int:
        return len(self.order)

    def completion(self, task: int) -> int:
        """Completion time C_task, in 1..n."""
        return self._completed_at[task - 1]

    def completions(self) -> tuple[int, ...]:
        """Completion times indexed by task id - 1."""
        return self._completed_at

    def __str__(self) -> str:
        return " ".join(map(str, self.order))


@dataclass(frozen=True, slots=True)
class OrderPreference:
    """A voter's preferred schedule."""

    schedule: Schedule

    @property
    def n(self) -> int:
        return self.schedule.n


@dataclass(frozen=True, slots=True)
class IntervalPreference:
    """Per-task (release, due) windows for one voter, indexed by task id.

    Window (r, d) means the task should complete in a slot t with r < t <= d.
    Well-formedness demands 0 <= r < d <= n per task; on top of that, a voter's
    windows must admit at least one feasible schedule (checked eagerly by
    :func:`validate_interval_preference` at parse time).
    """

    windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        windows = tuple((int(r), int(d)) for r, d in self.windows)
        object.__setattr__(self, "windows", windows)
        n = len(windows)
        for j, (r, d) in enumerate(windows, start=1):
            if not 0 <= r < d <= n:
                raise ValueError(f"task {j}: window ({r},{d}) violates 0 <= r < d <= {n}")

    @property
    def n(self) -> int:
        return len(self.windows)

    def release(self, task: int) -> int:
        return self.windows[task - 1][0]

    def due(self, task: int) -> int:
        return self.windows[task - 1][1]


Preference = Union[OrderPreference, IntervalPreference]

_INT64_MAX = 2**63 - 1


def _check_cost_bound(n: int, v: int, line: int | None = None) -> None:
    """Reject sizes whose cost totals (at most v * n * (n + 1)) could pass int64."""
    if v * n * (n + 1) > _INT64_MAX:
        raise ProfileError(
            f"{v} voters on {n} tasks: cost totals up to v*n*(n+1) would overflow int64",
            line,
        )


@dataclass(frozen=True, slots=True)
class PreferenceProfile:
    """All voters' preferences, identical voters compressed by multiplicity.

    Raises :class:`ProfileError` when v * n * (n + 1) exceeds the int64 range,
    since cost totals of that size could no longer be computed exactly.
    """

    mode: str
    entries: tuple[tuple[Preference, int], ...]
    n: int = field(init=False)
    v: int = field(init=False)

    def __post_init__(self):
        if self.mode not in ("order", "interval"):
            raise ValueError(f"mode must be 'order' or 'interval', got {self.mode!r}")
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("profile has no entries")
        want = OrderPreference if self.mode == "order" else IntervalPreference
        ns = set()
        total = 0
        for pref, mult in entries:
            if not isinstance(pref, want):
                raise ValueError(f"{self.mode} profile holds a {type(pref).__name__}")
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            ns.add(pref.n)
            total += mult
        if len(ns) != 1:
            raise ValueError(f"entries disagree on task count: {sorted(ns)}")
        n = ns.pop()
        _check_cost_bound(n, total)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", total)

    def iter_voters(self) -> Iterable[Preference]:
        """Yield one preference per voter, multiplicities expanded in entry order."""
        for pref, mult in self.entries:
            for _ in range(mult):
                yield pref


@dataclass(frozen=True, slots=True)
class PrecedenceGraph:
    """Acyclic directed graph over task ids; edge (a, b): a completes before b."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) outside task range 1..{self.n}")
            if a == b:
                raise ValueError(f"self-loop on task {a}")
        if self.topological_order() is None:
            raise ValueError("precedence graph has a cycle")

    def predecessors(self, task: int) -> set[int]:
        return {a for a, b in self.edges if b == task}

    def successors(self, task: int) -> set[int]:
        return {b for a, b in self.edges if a == task}

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm; None when a cycle prevents any order."""
        indeg = {t: 0 for t in range(1, self.n + 1)}
        for _, b in self.edges:
            indeg[b] += 1
        ready = [t for t in range(1, self.n + 1) if indeg[t] == 0]
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            t = heapq.heappop(ready)
            out.append(t)
            for s in self.successors(t):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        return out if len(out) == self.n else None

    def satisfied_by(self, schedule: Schedule) -> bool:
        comp = schedule.completions()
        return all(comp[a - 1] < comp[b - 1] for a, b in self.edges)


@dataclass(frozen=True, slots=True)
class TimeWindows:
    """Global per-task (release, deadline) pairs; task j may take slots r_j < t <= d_j."""

    windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        windows = tuple((int(r), int(d)) for r, d in self.windows)
        object.__setattr__(self, "windows", windows)
        n = len(windows)
        for j, (r, d) in enumerate(windows, start=1):
            if not 0 <= r < d <= n:
                raise ValueError(f"task {j}: window ({r},{d}) violates 0 <= r < d <= {n}")

    @property
    def n(self) -> int:
        return len(self.windows)

    def allows(self, task: int, slot: int) -> bool:
        r, d = self.windows[task - 1]
        return r < slot <= d


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _logical_lines(text: Union[str, IO[str]]) -> Iterable[tuple[int, str]]:
    raw = text if isinstance(text, str) else text.read()
    for no, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_profile(text: Union[str, IO[str]]) -> PreferenceProfile:
    """Parse the profile file format into a validated :class:`PreferenceProfile`.

    Raises
    ------
    ProfileError
        On any syntax or semantic violation, with the offending line number:
        bad header order, duplicate tasks in a permutation, malformed or
        infeasible interval windows, mode mixing, task-count mismatches, or
        multiplicities not summing to the declared voter count.
    """
    lines = list(_logical_lines(text))
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

    entries: list[tuple[Preference, int]] = []
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
            except ValueError:
                raise ProfileError(f"non-integer task id in {body!r}", no) from None
            if len(tasks) != n:
                raise ProfileError(f"expected {n} task ids, got {len(tasks)}", no)
            try:
                pref: Preference = OrderPreference(Schedule(tuple(tasks)))
            except ValueError as exc:
                raise ProfileError(str(exc), no) from None
        else:
            pairs = _PAIR_RE.findall(body)
            if len(pairs) != n or _PAIR_RE.sub("", body).strip():
                raise ProfileError(f"expected {n} '(r,d)' pairs", no)
            try:
                pref = IntervalPreference(tuple((int(r), int(d)) for r, d in pairs))
            except ValueError as exc:
                raise ProfileError(str(exc), no) from None
            if not validate_interval_preference(pref):
                raise ProfileError("windows admit no feasible schedule", no)
        entries.append((pref, mult))

    total = sum(m for _, m in entries)
    if total != v:
        raise ProfileError(f"multiplicities sum to {total}, header declares voters {v}")
    return PreferenceProfile(mode=mode, entries=tuple(entries))


def serialize_profile(profile: PreferenceProfile) -> str:
    """Inverse of :func:`parse_profile` (round-trips to an equal profile)."""
    out = [f"profile {profile.mode}", f"tasks {profile.n}", f"voters {profile.v}"]
    for pref, mult in profile.entries:
        if isinstance(pref, OrderPreference):
            body = " ".join(map(str, pref.schedule.order))
        else:
            body = " ".join(f"({r},{d})" for r, d in pref.windows)
        out.append(f"pref {mult} : {body}")
    return "\n".join(out) + "\n"


def parse_precedence(text: Union[str, IO[str]], n: int) -> PrecedenceGraph:
    """Parse an edge list (one ``a -> b`` per line) into a PrecedenceGraph."""
    edges = set()
    for no, line in _logical_lines(text):
        m = re.fullmatch(r"(\d+)\s*->\s*(\d+)", line)
        if not m:
            raise ProfileError(f"expected '<a> -> <b>', got {line!r}", no)
        edges.add((int(m.group(1)), int(m.group(2))))
    try:
        return PrecedenceGraph(n=n, edges=frozenset(edges))
    except ValueError as exc:
        raise ProfileError(str(exc)) from None


def parse_time_windows(text: Union[str, IO[str]], n: int) -> TimeWindows:
    """Parse ``task <j> : <r> <d>`` lines; unlisted tasks default to (0, n)."""
    windows: list[tuple[int, int]] = [(0, n)] * n
    seen: set[int] = set()
    for no, line in _logical_lines(text):
        m = re.fullmatch(r"task\s+(\d+)\s*:\s*(-?\d+)\s+(-?\d+)", line)
        if not m:
            raise ProfileError(f"expected 'task <j> : <r> <d>', got {line!r}", no)
        j, r, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if not 1 <= j <= n:
            raise ProfileError(f"task {j} outside 1..{n}", no)
        if j in seen:
            raise ProfileError(f"duplicate window for task {j}", no)
        seen.add(j)
        windows[j - 1] = (r, d)
    try:
        return TimeWindows(tuple(windows))
    except ValueError as exc:
        raise ProfileError(str(exc)) from None


# ---------------------------------------------------------------------------
# Semantics helpers
# ---------------------------------------------------------------------------


def validate_interval_preference(pref: IntervalPreference) -> bool:
    """True iff some schedule puts every task j into a slot t with r_j < t <= d_j.

    Earliest-deadline-first over release-sorted tasks: walking slots 1..n and
    always running the released task with the tightest due date yields a
    feasible placement exactly when one exists (unit tasks, single machine).
    """
    n = pref.n
    by_release: dict[int, list[int]] = {}
    for j, (r, d) in enumerate(pref.windows, start=1):
        by_release.setdefault(r + 1, []).append(d)
    ready: list[int] = []  # min-heap of due dates
    for slot in range(1, n + 1):
        for d in by_release.get(slot, ()):
            heapq.heappush(ready, d)
        if not ready:
            return False  # idle slot: fewer released tasks than slots consumed
        due = heapq.heappop(ready)
        if due < slot:
            return False  # tightest released task already missed its window
    return True


def order_to_interval(pref: OrderPreference, encoding: Union[EncodingKind, str]) -> IntervalPreference:
    """Translate a preferred schedule into per-task windows under an encoding."""
    encoding = _as_encoding(encoding)
    n = pref.n
    comp = pref.schedule.completions()
    if encoding in (EncodingKind.DEVIATION, EncodingKind.EXACT_POSITION):
        windows = tuple((c - 1, c) for c in comp)
    elif encoding in (EncodingKind.TARDINESS, EncodingKind.LATE_TASKS):
        windows = tuple((0, c) for c in comp)
    else:  # EARLINESS
        windows = tuple((c - 1, n) for c in comp)
    return IntervalPreference(windows)


def reverse_schedule(schedule: Schedule) -> Schedule:
    """The same tasks in reverse slot order."""
    return Schedule(tuple(reversed(schedule.order)))


def reverse_profile(profile: PreferenceProfile) -> PreferenceProfile:
    """Reverse every preferred schedule of an order-mode profile."""
    if profile.mode != "order":
        raise ValueError("reverse_profile requires an order-mode profile")
    entries = tuple(
        (OrderPreference(reverse_schedule(pref.schedule)), mult)
        for pref, mult in profile.entries
    )
    return PreferenceProfile(mode="order", entries=entries)
