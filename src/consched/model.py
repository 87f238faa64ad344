"""Domain types and on-disk formats for voter preferences over unit tasks.

Tasks carry dense ids 1..n. A schedule assigns each task to one unit slot;
the task in slot t runs over [t-1, t] and completes at time t, so completion
times live in {1..n} and a schedule is interchangeable with a ranking.

Voters state preferences in one of two modes:

* ``order`` — a preferred schedule (permutation of 1..n) per voter;
* ``interval`` — a (release, due) window per task per voter, where the window
  (r, d) admits exactly the slots t with r < t <= d.

Profiles compress identical voters with integer multiplicities. A
:class:`PreferenceProfile` holds its data as read-only int64 arrays, one row
per distinct entry: the completion time of every task (order mode) or the
release and due date of every task (interval mode), plus a multiplicity
vector. :func:`parse_profile` reads a file straight into those arrays, and
the solvers read only them. ``PreferenceProfile.entries`` is a lazy view of
the same data as one :class:`OrderPreference` or
:class:`IntervalPreference` per distinct entry, for the scalar reference
functions.

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
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import IO, Iterable, Optional, Union

import numpy as np

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


class PreferenceProfile:
    """All voters' preferences, identical voters compressed by multiplicity.

    The profile's data are read-only int64 arrays with one row per distinct
    entry, in entry (file line) order:

    * ``mult`` — shape (distinct,): each entry's multiplicity;
    * ``completions`` — order mode, shape (distinct, n): ``completions[i, j-1]``
      is the slot at which entry i's preferred schedule completes task j;
    * ``release`` / ``due`` — interval mode, shape (distinct, n): entry i's
      window for task j is (``release[i, j-1]``, ``due[i, j-1]``).

    The arrays of the other mode are None. Every solver reads these arrays.
    ``entries`` presents the same data as ``(preference, multiplicity)``
    tuples for the scalar reference functions; it is built on first access
    and cached, so a solve never builds one object per voter.

    Built from ``entries`` (``PreferenceProfile(mode=..., entries=...)``),
    from an orders array (:meth:`from_orders`) or by :func:`parse_profile`.
    Two profiles are equal when they have the same mode and the same entries
    in the same order.

    Raises :class:`ProfileError` when v * n * (n + 1) exceeds the int64 range,
    since cost totals of that size could no longer be computed exactly.
    """

    __slots__ = ("mode", "n", "v", "mult", "completions", "release", "due", "_entries")

    def __init__(self, mode: str, entries: Iterable[tuple[Preference, int]]):
        if mode not in ("order", "interval"):
            raise ValueError(f"mode must be 'order' or 'interval', got {mode!r}")
        entries = tuple(entries)
        if not entries:
            raise ValueError("profile has no entries")
        want = OrderPreference if mode == "order" else IntervalPreference
        ns = set()
        total = 0
        for pref, mult in entries:
            if not isinstance(pref, want):
                raise ValueError(f"{mode} profile holds a {type(pref).__name__}")
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            ns.add(pref.n)
            total += mult
        if len(ns) != 1:
            raise ValueError(f"entries disagree on task count: {sorted(ns)}")
        n = ns.pop()
        _check_cost_bound(n, total)
        mult = np.array([m for _, m in entries], dtype=np.int64)
        if mode == "order":
            comp = np.array([p.schedule.completions() for p, _ in entries], dtype=np.int64)
            self._set(mode, total, mult, comp, None, None, entries)
        else:
            windows = np.array([p.windows for p, _ in entries], dtype=np.int64)
            rel, due = windows[:, :, 0].copy(), windows[:, :, 1].copy()
            self._set(mode, total, mult, None, rel, due, entries)

    def _set(self, mode, v, mult, completions, release, due, entries=None) -> None:
        for name, value in (
            ("mode", mode), ("v", v), ("mult", mult), ("completions", completions),
            ("release", release), ("due", due), ("_entries", entries),
        ):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", (completions if mode == "order" else due).shape[1])

    @classmethod
    def _from_arrays(cls, mode, v, mult, completions=None, release=None, due=None):
        """A profile over arrays its caller has already validated (no copies)."""
        self = object.__new__(cls)
        self._set(mode, v, mult, completions, release, due)
        return self

    @classmethod
    def from_orders(cls, orders) -> "PreferenceProfile":
        """Order-mode profile of one voter per row of a (voters, n) orders array.

        Row i lists voter i's preferred schedule, task ids in slot order.
        Rows are checked in bulk, and the first row that is not a permutation
        of 1..n raises the same ``ValueError`` as :class:`Schedule` would.
        """
        orders = np.asarray(orders, dtype=np.int64)
        if orders.ndim != 2:
            raise ValueError(f"orders must be a (voters, n) array, got shape {orders.shape}")
        v, n = orders.shape
        if not v:
            raise ValueError("profile has no entries")
        if not n:
            raise ValueError("empty schedule")
        comp, bad = _completions(orders)
        if bad is not None:
            Schedule(tuple(orders[bad].tolist()))  # raises the reason
        _check_cost_bound(n, v)
        return cls._from_arrays("order", v, np.ones(v, dtype=np.int64), completions=comp)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: PreferenceProfile is immutable")

    __delattr__ = __setattr__

    def _arrays(self) -> tuple[np.ndarray, ...]:
        if self.mode == "order":
            return self.mult, self.completions
        return self.mult, self.release, self.due

    def __eq__(self, other):
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return self.mode == other.mode and all(
            np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays())
        )

    def __hash__(self):
        return hash((self.mode, self.n, *(a.tobytes() for a in self._arrays())))

    def __repr__(self) -> str:
        return (
            f"PreferenceProfile(mode={self.mode!r}, n={self.n}, v={self.v}, "
            f"distinct={len(self.mult)})"
        )

    @property
    def entries(self) -> tuple[tuple[Preference, int], ...]:
        """``(preference, multiplicity)`` per distinct entry, built once on demand."""
        if self._entries is None:
            mults = self.mult.tolist()
            if self.mode == "order":
                orders = (np.argsort(self.completions, axis=1) + 1).tolist()
                prefs = (OrderPreference(Schedule(tuple(o))) for o in orders)
            else:
                prefs = (
                    IntervalPreference(tuple(zip(r, d)))
                    for r, d in zip(self.release.tolist(), self.due.tolist())
                )
            object.__setattr__(self, "_entries", tuple(zip(prefs, mults)))
        return self._entries

    def iter_voters(self) -> Iterable[Preference]:
        """Yield one preference per voter, multiplicities expanded in entry order."""
        for pref, mult in self.entries:
            for _ in range(mult):
                yield pref


def _completions(orders: np.ndarray) -> tuple[np.ndarray, Optional[int]]:
    """Completion times of each row of an int64 orders array, and its first bad row.

    One argsort per row: for a permutation of 1..n, the ids in sorted order
    are exactly 1..n and the sorting indices are the completion times minus
    one. The second value is the index of the first row that is not such a
    permutation, or None.
    """
    n = orders.shape[1]
    idx = np.argsort(orders, axis=1)
    ok = (np.take_along_axis(orders, idx, axis=1) == np.arange(1, n + 1)).all(axis=1)
    bad = np.flatnonzero(~ok)
    idx += 1
    return idx, (int(bad[0]) if bad.size else None)


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

    The body is read once into the profile's arrays: each order-mode line's
    task ids go straight into one int64 buffer, and the rows are checked as
    permutations in bulk afterwards; interval-mode lines are checked one by
    one (bounds, then feasibility). Multiplicities stay Python integers until
    their sum has matched the header. Errors are those of a line-by-line
    check: the first bad line in file order is reported, with the message
    :class:`Schedule` or :class:`IntervalPreference` would give.

    Raises
    ------
    ProfileError
        On any syntax or semantic violation, with the offending line number:
        bad header order, duplicate tasks in a permutation, malformed or
        infeasible interval windows, mode mixing, task-count mismatches, or
        multiplicities not summing to the declared voter count.
    """
    lines = _logical_lines(text)
    header = list(islice(lines, 3))
    body = next(lines, None)
    if body is None:
        raise ProfileError("profile needs a 3-line header and at least one pref line")

    (no1, l1), (no2, l2), (no3, l3) = header
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

    nos: list[int] = []  # line number of each accepted entry
    mults: list[int] = []
    bufs = (array("q"),) if mode == "order" else (array("q"), array("q"))
    try:
        for no, line in chain((body,), lines):
            m = _PREF_RE.fullmatch(line)
            if not m:
                raise ProfileError(f"expected 'pref <mult> : ...', got {line!r}", no)
            mult = int(m.group(1))
            if mult < 1:
                raise ProfileError("multiplicity must be >= 1", no)
            if mode == "order":
                _read_order_line(m.group(2).strip(), n, no, bufs[0])
            else:
                _read_interval_line(m.group(2).strip(), n, no, *bufs)
            nos.append(no)
            mults.append(mult)
    except ProfileError:
        if mode == "order":  # an earlier line's bad permutation comes first
            _order_arrays(bufs[0], len(nos), n, nos)
        raise

    if mode == "order":
        arrays = {"completions": _order_arrays(bufs[0], len(nos), n, nos)}
    else:
        arrays = {
            key: np.frombuffer(buf, dtype=np.int64).reshape(-1, n)
            for key, buf in zip(("release", "due"), bufs)
        }
    total = sum(mults)
    if total != v:
        raise ProfileError(f"multiplicities sum to {total}, header declares voters {v}")
    # every multiplicity lies in 1..v, and v passed the int64 cost bound
    return PreferenceProfile._from_arrays(mode, v, np.array(mults, dtype=np.int64), **arrays)


_PREF_RE = re.compile(r"pref\s+(\d+)\s*:\s*(.*)")


def _read_order_line(body: str, n: int, no: int, buf: array) -> None:
    """Append one order-mode line's task ids to ``buf`` (permutations are checked later)."""
    if "(" in body:
        raise ProfileError("interval pair in an order-mode profile", no)
    toks = body.split()
    try:
        buf.extend(map(int, toks))
    except (ValueError, OverflowError):
        try:
            tasks = [int(tok) for tok in toks]
        except ValueError:
            raise ProfileError(f"non-integer task id in {body!r}", no) from None
        raise _order_error(tasks, n, no) from None  # an id beyond int64
    if len(toks) != n:
        raise ProfileError(f"expected {n} task ids, got {len(toks)}", no)


def _order_error(tasks: list[int], n: int, no: int) -> ProfileError:
    """The error of a line whose integer task ids are not a permutation of 1..n."""
    if len(tasks) != n:
        return ProfileError(f"expected {n} task ids, got {len(tasks)}", no)
    try:
        Schedule(tuple(tasks))
    except ValueError as exc:
        return ProfileError(str(exc), no)
    raise AssertionError(f"line {no} is a permutation")  # pragma: no cover


def _order_arrays(buf: array, rows: int, n: int, nos: list[int]) -> np.ndarray:
    """Completions of the first ``rows`` orders in ``buf``; raises on the first bad one."""
    orders = np.frombuffer(buf, dtype=np.int64, count=rows * n).reshape(rows, n)
    comp, bad = _completions(orders)
    if bad is not None:
        raise _order_error(orders[bad].tolist(), n, nos[bad])
    return comp


def _read_interval_line(body: str, n: int, no: int, rel: array, due: array) -> None:
    """Check one interval-mode line and append its releases and due dates."""
    pairs = _PAIR_RE.findall(body)
    if len(pairs) != n or _PAIR_RE.sub("", body).strip():
        raise ProfileError(f"expected {n} '(r,d)' pairs", no)
    windows = [(int(r), int(d)) for r, d in pairs]
    if not all(0 <= r < d <= n for r, d in windows):
        try:
            IntervalPreference(tuple(windows))
        except ValueError as exc:
            raise ProfileError(str(exc), no) from None
    if not _windows_feasible(windows):
        raise ProfileError("windows admit no feasible schedule", no)
    rel.extend(r for r, _ in windows)
    due.extend(d for _, d in windows)


def serialize_profile(profile: PreferenceProfile) -> str:
    """Inverse of :func:`parse_profile` (round-trips to an equal profile)."""
    out = [f"profile {profile.mode}", f"tasks {profile.n}", f"voters {profile.v}"]
    mults = profile.mult.tolist()
    if profile.mode == "order":
        orders = (np.argsort(profile.completions, axis=1) + 1).tolist()
        bodies = (" ".join(map(str, order)) for order in orders)
    else:
        bodies = (
            " ".join(f"({r},{d})" for r, d in zip(rel, due))
            for rel, due in zip(profile.release.tolist(), profile.due.tolist())
        )
    out.extend(f"pref {mult} : {body}" for mult, body in zip(mults, bodies))
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
    """True iff some schedule puts every task j into a slot t with r_j < t <= d_j."""
    return _windows_feasible(pref.windows)


def _windows_feasible(windows) -> bool:
    """Feasibility of well-formed (r, d) windows, one per task, over slots 1..n.

    Earliest-deadline-first over release-sorted tasks: walking slots 1..n and
    always running the released task with the tightest due date yields a
    feasible placement exactly when one exists (unit tasks, single machine).
    """
    n = len(windows)
    by_release: dict[int, list[int]] = {}
    for r, d in windows:
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
    """Reverse every preferred schedule of an order-mode profile.

    The task completing at c completes at n + 1 - c in the reversed schedule.
    """
    if profile.mode != "order":
        raise ValueError("reverse_profile requires an order-mode profile")
    return PreferenceProfile._from_arrays(
        "order", profile.v, profile.mult, completions=profile.n + 1 - profile.completions
    )
