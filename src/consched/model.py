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
every solver and measure reads only them; there is no per-voter object.

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
from itertools import islice
from typing import IO, Iterable, Optional, Union

import numpy as np

from .errors import ProfileError

__all__ = [
    "EncodingKind",
    "Schedule",
    "PreferenceProfile",
    "PrecedenceGraph",
    "TimeWindows",
    "parse_profile",
    "serialize_profile",
    "parse_precedence",
    "parse_time_windows",
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


def _check_size(schedule: Schedule, n: int) -> None:
    """Raise ``ValueError`` unless the schedule orders exactly the profile's n tasks."""
    if schedule.n != n:
        raise ValueError(f"schedule has {schedule.n} tasks, profile {n}")


def _check_window(j: int, r: int, d: int, n: int) -> None:
    """Raise ``ValueError`` unless task j's window (r, d) lies in 0 <= r < d <= n."""
    if not 0 <= r < d <= n:
        raise ValueError(f"task {j}: window ({r},{d}) violates 0 <= r < d <= {n}")


def _check_windows(windows: tuple[tuple[int, int], ...]) -> None:
    """Raise ``ValueError`` at the first window (r, d) outside 0 <= r < d <= n.

    n is the number of windows, one per task. :class:`TimeWindows`, the
    interval-mode profile parser and the time-window parser share this check
    and its message.
    """
    n = len(windows)
    for j, (r, d) in enumerate(windows, start=1):
        _check_window(j, r, d, n)


def _check_edge(a: int, b: int, n: int) -> None:
    """Raise ``ValueError`` unless edge (a, b) joins two distinct tasks of 1..n."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"edge ({a},{b}) outside task range 1..{n}")
    if a == b:
        raise ValueError(f"self-loop on task {a}")


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

    The arrays of the other mode are None, and every solver reads these
    arrays. A profile is built by :func:`parse_profile` or, one voter per
    row of an orders array, by :meth:`from_orders`. Two profiles are equal
    when they have the same mode and the same rows in the same order.

    Raises :class:`ProfileError` when v * n * (n + 1) exceeds the int64 range,
    since cost totals of that size could no longer be computed exactly.
    """

    __slots__ = ("mode", "n", "v", "mult", "completions", "release", "due")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a PreferenceProfile with parse_profile or from_orders")

    @classmethod
    def _from_arrays(cls, mode, v, mult, completions=None, release=None, due=None):
        """A profile over arrays its caller has already validated (no copies)."""
        self = object.__new__(cls)
        for name, value in (
            ("mode", mode), ("v", v), ("mult", mult), ("completions", completions),
            ("release", release), ("due", due),
        ):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", (completions if mode == "order" else due).shape[1])
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
            _check_edge(a, b, self.n)
        if self.topological_order() is None:
            raise ValueError("precedence graph has a cycle")

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm, smallest ready id first, O(E + n log n); None on a cycle."""
        succ: list[list[int]] = [[] for _ in range(self.n + 1)]
        indeg = [0] * (self.n + 1)
        for a, b in self.edges:
            succ[a].append(b)
            indeg[b] += 1
        ready = [t for t in range(1, self.n + 1) if indeg[t] == 0]  # sorted, so a heap
        out: list[int] = []
        while ready:
            t = heapq.heappop(ready)
            out.append(t)
            for s in succ[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        return out if len(out) == self.n else None


@dataclass(frozen=True, slots=True)
class TimeWindows:
    """Global per-task (release, deadline) pairs; task j may take slots r_j < t <= d_j."""

    windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        windows = tuple((int(r), int(d)) for r, d in self.windows)
        object.__setattr__(self, "windows", windows)
        _check_windows(windows)

    @property
    def n(self) -> int:
        return len(self.windows)


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

    The body has two ways in. A plain order-mode body (``pref <m> : <ids>``
    lines in ASCII with single spaces, no comment or blank line) is read in
    one pass by :func:`_plain_body`. Any other body, and any invalid one, is
    read line by line by :func:`_read_body`; its order-mode ids are
    converted in one C call when plain, otherwise through ``int()``, which
    accepts ``+2``, tabs and Unicode digits. Multiplicities stay Python
    integers until their sum has matched the header. Errors are those of a
    line-by-line check: the first bad line in file order is reported, with
    the message :class:`Schedule` or the window check of :class:`TimeWindows`
    would give, derived from that line's text.

    Raises
    ------
    ProfileError
        On any syntax or semantic violation, with the offending line number:
        bad header order, duplicate tasks in a permutation, malformed or
        infeasible interval windows, mode mixing, task-count mismatches, or
        multiplicities not summing to the declared voter count.
    """
    raw = text if isinstance(text, str) else text.read()
    header = list(islice(_logical_lines(raw), 4))  # frees its split of the text on return
    if len(header) < 4:
        raise ProfileError("profile needs a 3-line header and at least one pref line")

    (no1, l1), (no2, l2), (no3, l3), body = header
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

    plain = _plain_body(raw, body[0], n) if mode == "order" else None
    mults, arrays = plain or _read_body(islice(_logical_lines(raw), 3, None), mode, n)
    total = sum(mults)
    if total != v:
        raise ProfileError(f"multiplicities sum to {total}, header declares voters {v}")
    # every multiplicity lies in 1..v, and v passed the int64 cost bound
    return PreferenceProfile._from_arrays(mode, v, np.array(mults, dtype=np.int64), **arrays)


# A plain line's head after its line break. Its multiplicity has at most 18 digits,
# so converting all of them before the body is checked cannot raise.
_PLAIN_HEAD = re.compile(r"\npref ([0-9]{1,18}) : ")


def _plain_body(raw: str, start: int, n: int) -> Optional[tuple[list[int], dict]]:
    """Multiplicities and completions of a plain order-mode body, else None.

    The body is ``raw`` from line ``start`` on: one regex split cuts every
    line's head, and :func:`_plain_orders` refuses a line without one. A
    multiplicity of 0 or a row that is not a permutation also returns None.
    """
    head, *parts = _PLAIN_HEAD.split(raw)
    mults = list(map(int, parts[::2]))
    if len((head + "\n").splitlines()) != start - 1 or min(mults) < 1:
        return None
    parts[-1] = parts[-1].removesuffix("\n")  # the file's last line break
    orders = _plain_orders(parts[1::2], n)
    del parts  # the ids' text, before the permutation check's arrays
    if orders is None:
        return None
    comp, bad = _completions(orders)
    return None if bad is not None else (mults, {"completions": comp})


def _read_body(lines: Iterable[tuple[int, str]], mode: str, n: int) -> tuple[list[int], dict]:
    """Multiplicities and arrays of any body, read line by line; the first bad line raises."""
    nos: list[int] = []  # line number of each accepted entry
    mults: list[int] = []
    bodies: list[str] = []  # order mode: each line's task ids, converted after the loop
    bufs = (array("q"), array("q"))  # interval mode: releases and due dates
    try:
        for no, line in lines:
            m = _PREF_RE.fullmatch(line)
            if not m:
                raise ProfileError(f"expected 'pref <mult> : ...', got {line!r}", no)
            mult = int(m.group(1))
            if mult < 1:
                raise ProfileError("multiplicity must be >= 1", no)
            if mode == "order":
                bodies.append(m.group(2).strip())
            else:
                _read_interval_line(m.group(2).strip(), n, no, *bufs)
            nos.append(no)
            mults.append(mult)
    except ProfileError:
        if mode == "order":  # an earlier line's bad order comes first
            _order_arrays(bodies, n, nos)
        raise
    if mode == "order":
        return mults, {"completions": _order_arrays(bodies, n, nos)}
    release, due = (np.frombuffer(buf, dtype=np.int64).reshape(-1, n) for buf in bufs)
    return mults, {"release": release, "due": due}


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


def _order_arrays(bodies: list[str], n: int, nos: list[int]) -> np.ndarray:
    """Completions of the order-mode line bodies; raises the first bad line's error.

    Plain bodies are converted in one C call; any other text is read line by
    line through ``int()``. Either way all rows are then checked as
    permutations at once.
    """
    orders = _plain_orders(bodies, n)
    if orders is None:
        orders = _read_orders(bodies, n, nos)
    return _check_orders(orders, bodies, nos)


def _read_orders(bodies: list[str], n: int, nos: list[int]) -> np.ndarray:
    """The bodies' task ids read line by line through ``int()``, as a (rows, n) array."""
    buf = array("q")
    for rows, (body, no) in enumerate(zip(bodies, nos)):
        try:
            _read_order_line(body, n, no, buf)
        except ProfileError:  # an earlier line's bad permutation comes first
            orders = np.frombuffer(buf, dtype=np.int64, count=rows * n).reshape(rows, n)
            _check_orders(orders, bodies, nos)
            raise
    return np.frombuffer(buf, dtype=np.int64).reshape(-1, n)


def _check_orders(orders: np.ndarray, bodies: list[str], nos: list[int]) -> np.ndarray:
    """Completions of the orders; the first non-permutation's error comes from its text."""
    comp, bad = _completions(orders)
    if bad is not None:
        tasks = [int(tok) for tok in bodies[bad].split()]
        raise _order_error(tasks, orders.shape[1], nos[bad])
    return comp


def _plain_orders(bodies: list[str], n: int) -> Optional[np.ndarray]:
    """The bodies' task ids as a (rows, n) int64 array read in one C call, or None.

    Only plain bodies qualify: n ASCII-digit ids separated by single spaces,
    none longer than 18 digits, so every id fits int64 and the conversion is
    exact; the bytes between ids are checked in bulk. Every other form that
    ``int()`` accepts or rejects returns None.
    """
    joined = "\n".join(bodies)
    if not joined.isascii():
        return None
    text = np.frombuffer(b"\n" + joined.encode() + b"\n", dtype=np.uint8)
    seps = np.flatnonzero(text - 48 > 9)  # every byte but a digit (uint8 wraps below 48)
    # With the count right, n - 1 spaces per row leave every newline at a row's end.
    if seps.size != len(bodies) * n + 1 or (text[seps[1:]].reshape(-1, n)[:, :-1] != 32).any():
        return None
    gaps = np.diff(seps)  # an id's digit count plus one
    if gaps.min(initial=2) < 2 or gaps.max(initial=2) > 19:
        return None
    del text, seps, gaps  # before the conversion's array, which would raise the peak
    return np.fromstring(joined, dtype=np.int64, sep=" ").reshape(-1, n)


def _read_interval_line(body: str, n: int, no: int, rel: array, due: array) -> None:
    """Check one interval-mode line and append its releases and due dates."""
    pairs = _PAIR_RE.findall(body)
    if len(pairs) != n or _PAIR_RE.sub("", body).strip():
        raise ProfileError(f"expected {n} '(r,d)' pairs", no)
    windows = tuple((int(r), int(d)) for r, d in pairs)
    try:
        _check_windows(windows)
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
    """Parse an edge list (one ``a -> b`` per line) into a PrecedenceGraph.

    Each edge is checked as its line is read, so a bad edge names its line; a
    cycle belongs to the whole file and is reported without one.
    """
    edges = set()
    for no, line in _logical_lines(text):
        m = re.fullmatch(r"(\d+)\s*->\s*(\d+)", line)
        if not m:
            raise ProfileError(f"expected '<a> -> <b>', got {line!r}", no)
        a, b = int(m.group(1)), int(m.group(2))
        try:
            _check_edge(a, b, n)
        except ValueError as exc:
            raise ProfileError(str(exc), no) from None
        edges.add((a, b))
    try:
        return PrecedenceGraph(n=n, edges=frozenset(edges))
    except ValueError as exc:
        raise ProfileError(str(exc)) from None


def parse_time_windows(text: Union[str, IO[str]], n: int) -> TimeWindows:
    """Parse ``task <j> : <r> <d>`` lines; unlisted tasks default to (0, n).

    Each window is checked as its line is read, so every error names its line.
    """
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
        try:
            _check_window(j, r, d, n)
        except ValueError as exc:
            raise ProfileError(str(exc), no) from None
        seen.add(j)
        windows[j - 1] = (r, d)
    return TimeWindows(tuple(windows))


# ---------------------------------------------------------------------------
# Semantics helpers
# ---------------------------------------------------------------------------


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

