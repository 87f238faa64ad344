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

  Multiplicities must sum to v, and v * n * (n + 1) must be below 2^62 (it
  bounds every cost total, and keeps every matching value inside int64).
* precedence file: one edge per line, ``a -> b`` (a completes before b).
* time-window file: one line per constrained task, ``task <j> : <r> <d>``;
  unlisted tasks default to (0, n).
"""

from __future__ import annotations

import operator
import re
from enum import Enum
from itertools import islice
from typing import IO, Iterable, Iterator, Optional, Union

import numpy as np

from . import _EXPORTS
from .errors import ProfileError

__all__ = _EXPORTS["model"]


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


# The paper's three axioms (``consched.axioms``), flag name -> report name;
# release and deadline are defined on order-mode profiles only. Kept here, where
# every request loads it, so ``oracle --axiom-filter`` parses without ``axioms``.
AXIOMS = {
    "release": "release_date_consistency",
    "deadline": "deadline_consistency",
    "unanimity": "temporal_unanimity",
}


def _as_encoding(encoding: Union["EncodingKind", str]) -> "EncodingKind":
    if isinstance(encoding, EncodingKind):
        return encoding
    try:
        return EncodingKind(encoding)
    except ValueError:
        valid = ", ".join(e.value for e in EncodingKind)
        raise ValueError(f"unknown encoding {encoding!r} (expected one of: {valid})") from None


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``operator.index`` of each value; one that is not an integer raises ``ValueError``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


_set = object.__setattr__


class _Record:
    """Base of every value type: compared, hashed, shown and pickled by ``_fields``.

    It behaves as a frozen dataclass over ``_fields`` would: ``==`` holds
    between records of the same class with equal fields, the hash is the
    fields' tuple's, the repr is ``Name(field=value, ...)``, assigning or
    deleting an attribute raises ``AttributeError``, and ``copy`` and
    ``pickle`` rebuild a record through its constructor. An array field is
    compared and hashed by its dtype, shape and bytes, so a record that holds
    read-only arrays is a value too. Each subclass declares its
    ``__slots__`` and ``_fields`` and sets them in ``__init__`` with
    :meth:`_fill`. Such a class is created in a few microseconds; a frozen
    dataclass takes about a millisecond, paid by every request that imports
    it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        """Set the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _keys(self) -> tuple:
        """The fields as compared and hashed: an array by its dtype, shape and bytes."""
        return tuple([(value.dtype.str, value.shape, value.tobytes())
                      if isinstance(value, np.ndarray) else value for value in self._values()])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._keys() == other._keys()

    def __hash__(self):
        return hash(self._keys())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _count(n, what: str) -> int:
    """``operator.index(n)``; a non-integer or ``n`` < 1 raises ``ValueError`` naming ``what``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    return n


class Schedule(_Record):
    """A permutation of task ids; position t-1 holds the task completing at t."""

    __slots__ = ("order", "_completed_at")
    _fields = ("order",)

    def __init__(self, order: Iterable[int]):
        order = _integers(order, "schedule")
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
        _set(self, "order", order)
        _set(self, "_completed_at", tuple(completed))

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


_COST_BOUND = 2**62 - 1


def _check_cost_bound(n: int, v: int, line: int | None = None) -> None:
    """Reject v*n*(n+1) past ``_COST_BOUND``, so n*C < 2^62 for every entry C <= v*(n-1)."""
    if v * n * (n + 1) > _COST_BOUND:
        raise ProfileError(
            f"{v} voters on {n} tasks: v*n*(n+1) passes 2^62 - 1, "
            "past which the matching's values could overflow int64",
            line,
        )


class PreferenceProfile(_Record):
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
    row of an orders array, by :meth:`from_orders`, never by calling the
    class. It is a :class:`_Record` over its mode, v and arrays: two profiles
    are equal when they have the same mode and the same rows in the same
    order, ``copy`` and ``pickle`` rebuild it through :meth:`_from_arrays`,
    and its repr is a summary.

    Raises :class:`ProfileError` when v * n * (n + 1) passes 2^62 - 1, the
    cost bound that keeps every total and every matching value inside int64.
    """

    _fields = ("mode", "v", "mult", "completions", "release", "due")
    __slots__ = ("n", *_fields)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a PreferenceProfile with parse_profile or from_orders")

    @classmethod
    def _from_arrays(cls, mode, v, mult, completions=None, release=None, due=None):
        """A profile over arrays its caller has already validated (no copies; made read-only)."""
        self = object.__new__(cls)
        for array in (mult, completions, release, due):
            if array is not None:
                array.flags.writeable = False
        self._fill(mode, v, mult, completions, release, due)
        _set(self, "n", (completions if mode == "order" else due).shape[1])
        return self

    @classmethod
    def from_orders(cls, orders) -> "PreferenceProfile":
        """Order-mode profile of one voter per row of a (voters, n) orders array.

        Row i lists voter i's preferred schedule, task ids in slot order.
        Rows are checked in bulk, and the first row that is not a permutation
        of 1..n raises the same ``ValueError`` as :class:`Schedule` would. An
        array that does not hold integers raises ``ValueError`` too.
        """
        orders = np.asarray(orders)
        if orders.ndim != 2:
            raise ValueError(f"orders must be a (voters, n) array, got shape {orders.shape}")
        v, n = orders.shape
        if not v:
            raise ValueError("profile has no entries")
        if not n:
            Schedule(())  # raises the reason
        if not np.issubdtype(orders.dtype, np.integer):
            raise ValueError(f"orders must be integers, got dtype {orders.dtype}")
        in_range = ((orders >= 1) & (orders <= n)).all(axis=1)
        comp = _completions(np.clip(orders, 1, n))
        bad = np.flatnonzero(~(in_range & comp.all(axis=1)))
        if bad.size:
            Schedule(tuple(orders[bad[0]].tolist()))  # raises the reason
        _check_cost_bound(n, v)
        return cls._from_arrays("order", v, np.ones(v, dtype=np.int64), completions=comp)

    def __reduce__(self):
        return self._from_arrays, self._values()

    def __repr__(self) -> str:
        return (
            f"PreferenceProfile(mode={self.mode!r}, n={self.n}, v={self.v}, "
            f"distinct={len(self.mult)})"
        )


def _completions(orders: np.ndarray) -> np.ndarray:
    """Completion times of each row of a (rows, n) array of task ids in 1..n.

    One scatter, ``comp[row, id - 1] = slot``. A row of n ids in 1..n is a
    permutation exactly when no id repeats, that is when every task gets a
    slot: a row that is not one keeps a completion time of 0.
    """
    rows, n = orders.shape
    flat = np.add(orders, np.arange(-1, rows * n - 1, n)[:, None], dtype=np.intp)
    comp = np.zeros((rows, n), dtype=np.int64)
    np.put(comp, flat, np.arange(1, n + 1))  # the slots repeat along every row
    return comp


class PrecedenceGraph(_Record):
    """Acyclic directed graph over task ids; edge (a, b): a completes before b."""

    __slots__ = _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        n = _count(n, "precedence graph n")
        edges = frozenset(_integers(edge, "edge") for edge in edges)
        succ: list[list[int]] = [[] for _ in range(n + 1)]
        indeg = [0] * (n + 1)
        for a, b in edges:
            _check_edge(a, b, n)
            succ[a].append(b)
            indeg[b] += 1
        # Kahn's algorithm in any order: a task is taken after its last predecessor.
        taken = [t for t in range(1, n + 1) if indeg[t] == 0]
        for t in taken:  # also reads the tasks appended below; a cycle's never are
            for s in succ[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    taken.append(s)
        if len(taken) < n:
            raise ValueError("precedence graph has a cycle")
        self._fill(n, edges)


class TimeWindows(_Record):
    """Global per-task (release, deadline) pairs; task j may take slots r_j < t <= d_j."""

    __slots__ = _fields = ("windows",)

    def __init__(self, windows: tuple[tuple[int, int], ...]):
        windows = tuple(_integers(window, "window") for window in windows)
        _check_windows(windows)
        self._fill(windows)

    @property
    def n(self) -> int:
        return len(self.windows)


def _check_fit(n: int, windows: Optional[TimeWindows], prec) -> None:
    """Raise ``ValueError`` unless prec is None, "inferred" or a graph, and all cover n tasks."""
    if not (prec is None or isinstance(prec, PrecedenceGraph) or prec == "inferred"):
        raise ValueError(f"prec must be None, 'inferred' or a PrecedenceGraph: {prec!r}")
    if windows is not None and windows.n != n:
        raise ValueError(f"windows cover {windows.n} tasks, profile has {n}")
    if isinstance(prec, PrecedenceGraph) and prec.n != n:
        raise ValueError(f"graph covers {prec.n} tasks, profile has {n}")


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

# Every line boundary str.splitlines knows, so lines cut lazily are numbered alike.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _logical_lines(text: Union[str, IO[str]]) -> Iterator[tuple[int, int, str]]:
    """Number, start offset and text of each line not blank once its ``#`` comment is cut.

    Lines are cut one at a time where :meth:`str.splitlines` cuts them, so a
    reader that stops early never splits the rest of the text.
    """
    raw = text if isinstance(text, str) else text.read()
    no = pos = 0
    while pos < len(raw):
        brk = _LINE_BREAK.search(raw, pos)
        end, after = brk.span() if brk else (len(raw), len(raw))
        no += 1
        line = raw[pos:end].split("#", 1)[0].strip()
        if line:
            yield no, pos, line
        pos = after


def _ints(digits: Iterable[str], no: int) -> list[int]:
    """``int()`` of each string of digits; one too long for ``int()`` raises on line ``no``."""
    try:
        return list(map(int, digits))
    except ValueError:  # a string of digits fails only past Python's int digit limit
        raise ProfileError("number has too many digits", no) from None


def parse_profile(text: Union[str, IO[str]]) -> PreferenceProfile:
    """Parse the profile file format into a validated :class:`PreferenceProfile`.

    The header is read line by line up to the first body line. The body has
    two readers, which share one error rule. A plain order-mode body (``pref
    <m> : <ids>`` lines in ASCII with single spaces, no comment or blank
    line) is read straight from its bytes to the completions array by
    :func:`_plain_body`, with no per-line step. Any other body is read line
    by line by ``_lines._read_body``, imported only then, which hands the ids
    of its lines, single-spaced, to the same bulk reader first. The bulk
    reader returns None rather than raise: every error about an order-mode
    line's task ids is raised by ``_lines._check_order_line``, which reads
    ids through ``int()`` (accepting ``+2`` and Unicode digits) and takes its
    message from :class:`Schedule`. Multiplicities stay Python integers until their sum
    has matched the header. The first bad line in file order is reported.

    Raises
    ------
    ProfileError
        On any syntax or semantic violation, with the offending line number:
        bad header order, duplicate tasks in a permutation, malformed or
        infeasible interval windows, mode mixing, task-count mismatches, a
        number too long for ``int()``, or multiplicities not summing to the
        declared voter count.
    """
    raw = text if isinstance(text, str) else text.read()
    header = list(islice(_logical_lines(raw), 4))
    if len(header) < 4:
        raise ProfileError("profile needs a 3-line header and at least one pref line")

    (no1, _, l1), (no2, _, l2), (no3, _, l3), (start, offset, _) = header
    m = re.fullmatch(r"profile\s+(order|interval)", l1)
    if not m:
        raise ProfileError("expected 'profile order' or 'profile interval'", no1)
    mode = m.group(1)
    m = re.fullmatch(r"tasks\s+(\d+)", l2)
    if not m:
        raise ProfileError("expected 'tasks <n>'", no2)
    (n,) = _ints(m.groups(), no2)
    if n < 1:
        raise ProfileError("task count must be >= 1", no2)
    m = re.fullmatch(r"voters\s+(\d+)", l3)
    if not m:
        raise ProfileError("expected 'voters <v>'", no3)
    (v,) = _ints(m.groups(), no3)
    if v < 1:
        raise ProfileError("voter count must be >= 1", no3)
    _check_cost_bound(n, v, no3)

    body = _plain_body(raw, offset, n) if mode == "order" else None
    if body is None:
        from ._lines import _read_body

        body = _read_body(raw.splitlines(), start, mode, n)
    mults, arrays = body
    total = sum(mults)
    if total != v:
        raise ProfileError(f"multiplicities sum to {total}, header declares voters {v}")
    # every multiplicity lies in 1..v, and v passed the cost bound
    return PreferenceProfile._from_arrays(mode, v, np.array(mults, dtype=np.int64), **arrays)


def _plain_body(raw: str, offset: int, n: int) -> Optional[tuple[list[int], dict]]:
    """Multiplicities and completions of a plain order-mode body, else None.

    The body is ``raw`` from the line break before ``offset`` on. It is plain
    when every line is ``pref <m> : <t1> ... <tn>`` in ASCII with single
    spaces and ``\\n`` line breaks. With no per-line step, every separator
    (every byte but a digit) is found once and checked against one line's
    template, every number is read by :func:`_digit_runs` and each row is
    inverted by :func:`_completions`. A multiplicity of 0, a number of over
    18 digits, an id outside 1..n or a row that is not a permutation also
    returns None; the reader never raises.
    """
    body = raw[offset - 1:]
    if not body.isascii():
        return None
    d = np.frombuffer((body if body.endswith("\n") else body + "\n").encode(), dtype=np.uint8) - 48
    del body
    seps = np.flatnonzero(d > 9)
    width = n + 8  # a line's separators: its line break, "pref ", " : " and n - 1 spaces
    lines, extra = divmod(seps.size - 1, width)
    if extra or not lines:
        return None
    # The separators before and after each field: the multiplicity is field 5,
    # the ids fields 8.., and the line's last id ends at the next line break.
    before, after = seps[:-1].reshape(lines, width), seps[1:].reshape(lines, width)
    template = np.frombuffer(b"\npref  : " + b" " * (n - 1), dtype=np.uint8) - 48
    if (
        (d[before] != template).any()
        or (after[:, :5] - before[:, :5] != 1).any()  # "\npref " with nothing between
        or (after[:, 6:8] - before[:, 6:8] != 1).any()  # " : "
    ):
        return None
    d[seps] = 0
    del seps
    mult = _digit_runs(d, before[:, 5], after[:, 5])
    ids = _digit_runs(d, before[:, 8:], after[:, 8:])
    del d, before, after
    if mult is None or ids is None or mult.min() < 1 or ids.min() < 1 or ids.max() > n:
        return None
    comp = _completions(ids)
    return (mult.tolist(), {"completions": comp}) if comp.all() else None


def _digit_runs(d: np.ndarray, before: np.ndarray, after: np.ndarray) -> Optional[np.ndarray]:
    """The number written between each pair of separator positions, or None.

    ``d`` holds the text's bytes less 48, with every separator set to 0.
    Only runs of 1 to 18 digits qualify, so every number fits int64. The
    digits are read one position at a time, from the longest run's first
    digit to the last digit of all: one Horner step (value = 10 * value +
    digit) per position. A position left of a shorter run reads its leading
    separator, whose 0 keeps the value 0. Numbers of at most 4 digits are
    summed in int16, and the loop refills its temporaries in place.
    """
    pos = np.subtract(after, before)  # each run's length plus one
    top = int(pos.max()) - 1
    if pos.min() < 2 or top > 18:
        return None
    value = np.zeros(pos.shape, dtype=np.int16 if top <= 4 else np.intp)
    digit = np.empty(pos.shape, dtype=np.uint8)
    for k in range(top, 0, -1):
        np.maximum(np.subtract(after, k, out=pos), before, out=pos)
        value *= 10
        value += np.take(d, pos, out=digit)
    return value


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
    for no, _, line in _logical_lines(text):
        m = re.fullmatch(r"(\d+)\s*->\s*(\d+)", line)
        if not m:
            raise ProfileError(f"expected '<a> -> <b>', got {line!r}", no)
        a, b = _ints(m.groups(), no)
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
    for no, _, line in _logical_lines(text):
        m = re.fullmatch(r"task\s+(\d+)\s*:\s*(-?\d+)\s+(-?\d+)", line)
        if not m:
            raise ProfileError(f"expected 'task <j> : <r> <d>', got {line!r}", no)
        j, r, d = _ints(m.groups(), no)
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
