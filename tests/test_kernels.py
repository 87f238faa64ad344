"""Kernels: the cached permutation tables, backend parity and reference implementations."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

from consched import _kernels
from consched.assignment import build_cost_matrix
from consched.cli import generate_profile
from consched.criteria import CriterionKind
from consched.model import EncodingKind, Schedule, TimeWindows

scipy_linear_sum = pytest.importorskip("scipy.optimize").linear_sum_assignment

BACKENDS = _kernels.available_backends()
needs_both = pytest.mark.skipif(len(BACKENDS) < 2, reason="single backend available")


class TestPermTable:
    def test_lexicographic_and_complete(self):
        table = _kernels.perm_table(3)
        assert table.tolist() == [
            [1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1],
        ]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_itertools_permutations(self, n):
        want = np.array(list(permutations(range(1, n + 1))), dtype=np.int8)
        got = _kernels.perm_table(n)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_completions_invert_every_row(self, n):
        comp = _kernels.completions_table(n)
        assert comp.dtype == np.int8
        # the slot of task j is one past the position of j in the order
        assert np.array_equal(comp, np.argsort(_kernels.perm_table(n), axis=1) + 1)

    def test_size_guard(self):
        for n in (0, 11):
            with pytest.raises(ValueError):
                _kernels.perm_table(n)
            with pytest.raises(ValueError):
                _kernels.completions_table(n)

    def test_completions_invert_orders(self):
        table = _kernels.perm_table(4)
        comp = _kernels.completions_table(4)
        row = random.Random(0).randrange(len(table))
        schedule = Schedule(tuple(int(x) for x in table[row]))
        assert tuple(int(c) for c in comp[row]) == schedule.completions()

    @pytest.mark.parametrize("table", [_kernels.perm_table, _kernels.completions_table])
    def test_cached_tables_are_read_only(self, table):
        cached = table(4)
        assert table(4) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 4
        with pytest.raises(ValueError):
            cached[:, 1] += 1
        assert table(4)[0].tolist() == [1, 2, 3, 4]


class TestBackendParity:
    @needs_both
    @pytest.mark.parametrize("seed", range(5))
    def test_subset_dp_agrees_including_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 12))
        cost = rng.integers(0, 6, size=(n, n)).astype(np.int64)
        pred_mask = np.zeros(n, dtype=np.int64)
        for j in range(n):
            for p in range(j):
                if rng.random() < 0.2:
                    pred_mask[j] |= 1 << p
        allowed = rng.random((n, n)) < 0.9
        outs = {
            b: _kernels.subset_dp(cost, pred_mask, np.ascontiguousarray(allowed), backend=b)
            for b in BACKENDS
        }
        assert np.array_equal(outs["numpy"], outs["numba"])


def reference_hungarian(cost, forbidden=None):
    """The matching with eager potentials and priced forbidden pairs, the tie reference.

    Forbidden pairs cost INF = 2^60, and every Dijkstra step shifts u, v and
    minv by its delta; returns all -1s once the least reduced cost reaches
    INF / 2. Exact only while the true optimum stays far below 2^60.
    """
    INF = np.int64(1) << np.int64(60)
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    if forbidden is not None and forbidden.any():
        cost = np.where(forbidden, INF, cost)
    n = cost.shape[0]
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[cols[better]] = j0
            reach = np.where(free, minv[1:], INF)
            j1 = int(np.argmin(reach)) + 1
            delta = int(reach[j1 - 1])
            if delta >= INF // 2:
                return np.full(n, -1, dtype=np.int64)
            used_j = np.flatnonzero(used)
            u[p[used_j]] += delta
            v[used_j] -= delta
            minv[np.flatnonzero(~used)] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    slots = np.empty(n, dtype=np.int64)
    slots[p[1:] - 1] = np.arange(n)
    return slots


def hidden_windows(rng, n):
    """Windows of a few slots around a hidden schedule on about half the tasks."""
    hidden = rng.permutation(n)  # hidden[j] = 0-based slot of task j + 1
    windows = []
    for slot in hidden.tolist():
        if rng.random() < 0.5:
            radius = int(rng.integers(0, 4))
            windows.append((max(0, slot - radius), min(n, slot + 1 + radius)))
        else:
            windows.append((0, n))
    return TimeWindows(tuple(windows))


class TestHungarianMatchesReference:
    """Lazy potentials and a mask return exactly the slots of the eager kernel."""

    def test_tie_heavy_random_matrices(self):
        rng = np.random.default_rng(2024)
        infeasible = 0
        for trial in range(600):
            n = trial % 30 + 1
            cost = rng.integers(0, 12, size=(n, n)).astype(np.int64)
            forbidden = rng.random((n, n)) < (0.0, 0.15, 0.4)[trial % 3]
            want = reference_hungarian(cost, forbidden)
            got = _kernels.hungarian(cost, forbidden)
            assert np.array_equal(got, want), f"trial {trial}"
            infeasible += want[0] < 0
        assert 6 <= infeasible <= 60  # both outcomes are exercised

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_consensus_matrices(self, criterion, encoding):
        rng = np.random.default_rng(77)
        for seed in range(1, 5):
            n = int(rng.integers(8, 41))
            profile = generate_profile(n, int(rng.integers(3, 30)), seed=seed)
            for windows in (None, hidden_windows(rng, n)):
                m = build_cost_matrix(profile, criterion, encoding, windows)
                want = reference_hungarian(m.cost, m.forbidden)
                assert want[0] >= 0
                assert np.array_equal(_kernels.hungarian(m.cost, m.forbidden), want)

    def test_scaled_costs_take_the_same_steps_in_exact_integers(self):
        # Scaling every entry by K > 0 scales every comparison, so the slots
        # cannot move; K is large enough to leave int64 for Python integers.
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = trial % 12 + 2
            cost = rng.integers(0, 12, size=(n, n)).astype(np.int64)
            forbidden = rng.random((n, n)) < 0.2
            scale = (2**63 - 1) // max(1, int(cost.max()))
            want = reference_hungarian(cost, forbidden)
            assert np.array_equal(_kernels.hungarian(cost * scale, forbidden), want)

    def test_optimum_past_two_to_the_60(self):
        cost = (1 << 61) + np.array([[1, 0], [0, 1]], dtype=np.int64)
        assert (reference_hungarian(cost) < 0).all()  # the 2^60 sentinel's false infeasible
        assert _kernels.hungarian(cost).tolist() == [1, 0]

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError, match="non-negative"):
            _kernels.hungarian(np.array([[0, -1], [2, 3]]))

    def test_empty_matrix(self):
        assert _kernels.hungarian(np.zeros((0, 0), dtype=np.int64)).tolist() == []


def reference_subset_dp(cost, pred_mask, allowed):
    """The subset DP as a per-subset scan in plain Python, the tie-break reference.

    Each subset takes as its last task the first j, in ascending order, that
    reaches the minimum; ``None`` marks a subset no feasible order fills.
    """
    n = len(cost)
    size = 1 << n
    f = [None] * size
    f[0] = 0
    choice = [-1] * size
    for mask in range(1, size):
        k = bin(mask).count("1")
        best, best_j = None, -1
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            rest = mask ^ bit
            if pred_mask[j] & ~rest or not allowed[j][k - 1] or f[rest] is None:
                continue
            val = f[rest] + cost[j][k - 1]
            if best is None or val < best:
                best, best_j = val, j
        f[mask], choice[mask] = best, best_j
    if f[size - 1] is None:
        return [-1] * n
    order, mask = [0] * n, size - 1
    for k in range(n, 0, -1):
        order[k - 1] = choice[mask]
        mask ^= 1 << choice[mask]
    return order


class TestSubsetDpTies:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_per_subset_scan_including_ties(self, backend):
        rng = np.random.default_rng(404)
        infeasible = 0
        for trial in range(240):
            n = trial % 10 + 1
            cost = rng.integers(0, 4, size=(n, n)).astype(np.int64)  # heavy ties
            density = rng.choice([0.0, 0.05, 0.15, 0.3])
            pred_mask = np.zeros(n, dtype=np.int64)
            for j in range(n):
                for p in range(n):  # any bit, so cycles and self-loops occur
                    if rng.random() < density:
                        pred_mask[j] |= 1 << p
            allowed = rng.random((n, n)) >= rng.choice([0.0, 0.1, 0.3])
            want = reference_subset_dp(cost.tolist(), pred_mask.tolist(), allowed.tolist())
            got = _kernels.subset_dp(cost, pred_mask, allowed, backend=backend)
            assert np.array_equal(got, want), f"trial {trial}"
            infeasible += want[0] < 0
        assert 20 <= infeasible <= 220  # both outcomes are well exercised


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_hungarian_cost_matches_scipy(self, backend, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 40))
        cost = rng.integers(0, 1000, size=(n, n)).astype(np.int64)
        slots = _kernels.hungarian(cost, None, backend=backend)
        assert sorted(slots.tolist()) == list(range(n))
        rows, cols = scipy_linear_sum(cost)
        assert cost[np.arange(n), slots].sum() == cost[rows, cols].sum()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hungarian_respects_forbidden_pairs(self, backend):
        cost = np.zeros((3, 3), dtype=np.int64)
        forbidden = np.zeros((3, 3), dtype=np.bool_)
        forbidden[0, :2] = True  # task 1 only fits slot 3
        slots = _kernels.hungarian(cost, forbidden, backend=backend)
        assert slots[0] == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hungarian_reports_infeasible(self, backend):
        cost = np.zeros((3, 3), dtype=np.int64)
        forbidden = np.zeros((3, 3), dtype=np.bool_)
        forbidden[:, 0] = True  # nobody may take slot 1
        slots = _kernels.hungarian(cost, forbidden, backend=backend)
        assert (slots < 0).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_subset_dp_is_brute_force_optimal(self, backend):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 9, size=(n, n)).astype(np.int64)
            pred_mask = np.zeros(n, dtype=np.int64)
            for j in range(n):
                for p in range(j):
                    if rng.random() < 0.3:
                        pred_mask[j] |= 1 << p
            allowed = rng.random((n, n)) < 0.85
            slot_order = _kernels.subset_dp(cost, pred_mask, np.ascontiguousarray(allowed), backend=backend)

            best = None
            for perm in permutations(range(n)):  # perm[t] = task in slot t
                ok = all(allowed[perm[t], t] for t in range(n))
                pos = {j: t for t, j in enumerate(perm)}
                ok = ok and all(
                    pos[p] < pos[j]
                    for j in range(n)
                    for p in range(n)
                    if pred_mask[j] >> p & 1
                )
                if ok:
                    total = sum(int(cost[perm[t], t]) for t in range(n))
                    best = total if best is None else min(best, total)

            if best is None:
                assert (slot_order < 0).all()
            else:
                assert (slot_order >= 0).all()
                got = sum(int(cost[slot_order[t], t]) for t in range(n))
                assert got == best


class TestBackendSelection:
    def test_unknown_argument_raises(self):
        with pytest.raises(ValueError, match="turbo"):
            _kernels._resolve("turbo")

    def test_explicit_argument_wins(self):
        assert _kernels._resolve("numpy") == "numpy"

    def test_default_is_resolvable(self):
        assert _kernels._resolve(None) in BACKENDS

    def test_available_backends_contains_numpy(self):
        assert "numpy" in BACKENDS

    @pytest.mark.parametrize("env", ["numpy", "numba", "auto"])
    def test_env_variable_sets_default(self, env):
        import importlib.util
        import os
        import subprocess
        import sys

        have_numba = importlib.util.find_spec("numba") is not None
        if env == "numba" and not have_numba:
            pytest.skip("numba unavailable")
        expect = "numpy" if env == "numpy" or not have_numba else "numba"
        out = subprocess.run(
            [sys.executable, "-c", "from consched import _kernels; print(_kernels.DEFAULT_BACKEND)"],
            env={**os.environ, "CONSCHED_BACKEND": env},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expect

    def test_env_variable_rejects_unknown(self):
        import os
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "import consched._kernels"],
            env={**os.environ, "CONSCHED_BACKEND": "bogus"},
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
        assert "bogus" in out.stderr
