"""Shared fixtures: JIT warmup and deterministic random-profile helpers."""

from __future__ import annotations

import random
import sys

import pytest

from consched import _kernels
from consched.model import IntervalPreference, OrderPreference, PreferenceProfile, Schedule


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Compile jitted kernels once so per-test timings stay honest."""
    for backend in _kernels.available_backends():
        _kernels.warmup(backend)


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


def random_order_profile(rng: random.Random, n: int, v: int) -> PreferenceProfile:
    entries = []
    for _ in range(v):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        entries.append((OrderPreference(Schedule(tuple(perm))), 1))
    return PreferenceProfile(mode="order", entries=tuple(entries))


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
            pref = OrderPreference(Schedule(tuple(perm)))
        else:
            comp = Schedule(tuple(perm)).completions()
            pref = IntervalPreference(
                tuple((rng.randint(0, c - 1), rng.randint(c, n)) for c in comp)
            )
        entries.append((pref, rng.choice((1, 2, 3, rng.randint(1, max_mult)))))
        if rng.random() < 0.3:
            entries.append((pref, rng.randint(1, 5)))  # an identical voter again
    return PreferenceProfile(mode=mode, entries=tuple(entries))
