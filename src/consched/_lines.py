"""The line-by-line reader of profile bodies that the byte reader refuses.

:func:`consched.model.parse_profile` reads a plain order-mode body straight
from its bytes (``model._plain_body``). Every other body, interval mode or
an order-mode body with comments, blank lines, tabs, double spaces, signs,
non-ASCII digits or an error in it, is read here one line at a time. The
ids of an order-mode body go back to the byte reader, single-spaced, so
only signs, non-ASCII digits or an error send them through the per-line
checker. The parser imports this module only for such a body, so a plain
request never compiles it. The first bad line in file order is the one
reported.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain, islice

import numpy as np

from .errors import ProfileError
from .model import Schedule, _check_windows, _ints, _plain_body

_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_PREF_RE = re.compile(r"pref\s+(\d+)\s*:\s*(.*)")


def _read_body(lines: list[str], start: int, mode: str, n: int) -> tuple[list[int], dict]:
    """Multiplicities and arrays of the body from line ``start`` on; the first bad line raises.

    A bad head, multiplicity or interval line ends the loop. Order-mode ids
    are converted after it, so the ids of the lines before it raise first.
    """
    nos: list[int] = []  # line number of each accepted entry
    mults: list[int] = []
    bodies: list[str] = []  # order mode: each line's task ids, converted after the loop
    bufs = (array("q"), array("q"))  # interval mode: releases and due dates
    error = None
    try:
        for no, line in enumerate(islice(lines, start - 1, None), start):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            m = _PREF_RE.fullmatch(line)
            if not m:
                raise ProfileError(f"expected 'pref <mult> : ...', got {line!r}", no)
            (mult,) = _ints((m.group(1),), no)
            if mult < 1:
                raise ProfileError("multiplicity must be >= 1", no)
            if mode == "order":
                bodies.append(m.group(2).strip())
            else:
                _read_interval_line(m.group(2).strip(), n, no, *bufs)
            nos.append(no)
            mults.append(mult)
    except ProfileError as exc:
        error = exc
    if mode == "order":
        # The bulk reader reads the accepted lines' ids, the tokens split() finds,
        # written as plain lines of multiplicity 1. If it refuses them, the lines
        # are read one at a time as written, and the first bad line raises.
        plain = _plain_body("".join("\npref 1 : " + " ".join(body.split()) for body in bodies),
                            1, n)
        if plain is None:
            rows = array("q")
            for body, no in zip(bodies, nos):
                rows.extend(_check_order_line(body, n, no))
            comp = np.frombuffer(rows, dtype=np.int64).reshape(-1, n)
        else:
            comp = plain[1]["completions"]
        arrays = {"completions": comp}
    else:
        release, due = (np.frombuffer(buf, dtype=np.int64).reshape(-1, n) for buf in bufs)
        arrays = {"release": release, "due": due}
    if error is not None:
        raise error
    return mults, arrays


def _check_order_line(body: str, n: int, no: int) -> list[int]:
    """Completion times of one order-mode line's task ids; every error about them raises here.

    Each id is converted once. A line that is not a permutation of 1..n
    raises with the message of :class:`Schedule`.
    """
    if "(" in body:
        raise ProfileError("interval pair in an order-mode profile", no)
    try:
        tasks = tuple(map(int, body.split()))
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # Python's int digit limit
            raise ProfileError("number has too many digits", no) from None
        raise ProfileError(f"non-integer task id in {body!r}", no) from None
    if len(tasks) != n:
        raise ProfileError(f"expected {n} task ids, got {len(tasks)}", no)
    comp = [0] * n  # n >= 1, so min and max have ids to read
    if 1 <= min(tasks) and max(tasks) <= n:
        for slot, task in enumerate(tasks, start=1):
            comp[task - 1] = slot
    if 0 in comp:  # an id out of range, or a repeated one
        try:
            Schedule(tasks)
        except ValueError as exc:
            raise ProfileError(str(exc), no) from None
    return comp


def _read_interval_line(body: str, n: int, no: int, rel: array, due: array) -> None:
    """Check one interval-mode line and append its releases and due dates."""
    pairs = _PAIR_RE.findall(body)
    if len(pairs) != n or _PAIR_RE.sub("", body).strip():
        raise ProfileError(f"expected {n} '(r,d)' pairs", no)
    bounds = _ints(chain.from_iterable(pairs), no)
    windows = tuple(zip(bounds[::2], bounds[1::2]))
    try:
        _check_windows(windows)
    except ValueError as exc:
        raise ProfileError(str(exc), no) from None
    if not _windows_feasible(windows):
        raise ProfileError("windows admit no feasible schedule", no)
    rel.extend(bounds[::2])
    due.extend(bounds[1::2])


def _windows_feasible(windows) -> bool:
    """Feasibility of well-formed (r, d) windows, one per task, over slots 1..n.

    Earliest-deadline-first over release-sorted tasks: walking slots 1..n and
    always running the released task with the tightest due date yields a
    feasible placement exactly when one exists (unit tasks, single machine).
    """
    import heapq  # loaded only by an interval-mode body

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
