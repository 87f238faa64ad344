"""Shared test setup: the acceptance summary and deterministic test-profile helpers."""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

from consched.model import PreferenceProfile, Schedule, parse_profile

# pytest puts src/ on sys.path (pyproject ``pythonpath``); tests that start
# ``python -m consched...`` subprocesses need it on PYTHONPATH as well.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance-criterion verdict lines after the test summary.

    Output capture hides per-test prints from passing tests; the gate matters
    enough to show all twelve lines on every full run.
    """
    gate = sys.modules.get("test_acceptance")
    lines = getattr(gate, "LINES", None) if gate else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def profile_of(mode: str, entries) -> PreferenceProfile:
    """The profile whose pref lines are ``entries``, written out as text and parsed.

    Each entry is ``(preference, multiplicity)``: in order mode the task ids
    in slot order, in interval mode one ``(r, d)`` window per task. Every test
    profile goes through :func:`parse_profile`, the validated constructor.
    """
    entries = list(entries)
    lines = [
        f"profile {mode}",
        f"tasks {len(entries[0][0])}",
        f"voters {sum(mult for _, mult in entries)}",
    ]
    for pref, mult in entries:
        if mode == "order":
            body = " ".join(map(str, pref))
        else:
            body = " ".join(f"({r},{d})" for r, d in pref)
        lines.append(f"pref {mult} : {body}")
    return parse_profile("\n".join(lines) + "\n")


def random_order_profile(rng: random.Random, n: int, v: int) -> PreferenceProfile:
    entries = []
    for _ in range(v):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        entries.append((perm, 1))
    return profile_of("order", entries)


def latin_square(n: int) -> PreferenceProfile:
    """The n cyclic shifts of 1..n: every task completes at every slot exactly once."""
    return profile_of("order", [([(j + k) % n + 1 for j in range(n)], 1) for k in range(n)])


def random_schedule(rng: random.Random, n: int) -> Schedule:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Schedule(tuple(perm))


def random_mixed_profile(
    rng: random.Random, n: int, mode: str = "order", max_mult: int = 1 << 40
) -> PreferenceProfile:
    """Up to 6 random entries, multiplicities up to ``max_mult``, some listed twice.

    Interval windows are drawn around a random permutation, which keeps every
    voter's windows satisfiable.
    """
    entries = []
    for _ in range(rng.randint(1, 6)):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        if mode == "order":
            pref = perm
        else:
            comp = Schedule(tuple(perm)).completions()
            pref = [(rng.randint(0, c - 1), rng.randint(c, n)) for c in comp]
        entries.append((pref, rng.choice((1, 2, 3, rng.randint(1, max_mult)))))
        if rng.random() < 0.3:
            entries.append((pref, rng.randint(1, 5)))  # an identical voter again
    return profile_of(mode, entries)
