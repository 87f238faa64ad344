"""Kernels: the oracle's lexicographic pricing and the plain-Python tie-break references."""

from __future__ import annotations

import random
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from consched import oracle
from consched.assignment import CostMatrix, _hungarian, build_cost_matrix, min_cost_assignment
from consched.experiment import generate_profile
from consched.criteria import CriterionKind
from consched.errors import InfeasibleError, SizeLimitError
from consched.model import EncodingKind, PreferenceProfile, Schedule, TimeWindows
from consched.oracle import ORACLE_MAX_N, exhaustive_optimum
from consched.precedence import _subset_dp

scipy_linear_sum = pytest.importorskip("scipy.optimize").linear_sum_assignment


def hungarian(cost, forbidden=None):
    """The matching's slots on a matrix that passed ``CostMatrix``'s checks."""
    m = CostMatrix(len(cost), cost, forbidden)
    return _hungarian(m.cost, m.forbidden)


def spelled(n, digit):
    """A step table whose costs spell each permutation as a base-(n+1) number.

    Running task i+1 at completion c adds ``digit(i, c)`` times (n+1) to the
    power ``place(i, c)``; ``digit`` returns (digit, place) arrays over
    (set, task), so every cost decodes back to the permutation it prices.
    """
    members = oracle._members(n)
    done = n - members.sum(axis=1, keepdims=True)
    value, place = digit(np.arange(n)[None, :], done)
    return (value * (n + 1) ** place).astype(np.int64)


def decode(costs, n):
    """The base-(n+1) digits of each cost, most significant first."""
    return (costs[:, None] // (n + 1) ** np.arange(n - 1, -1, -1)) % (n + 1)


def lex_orders(n):
    """The recursion's costs with slot t's task in digit t: its orders, in row order."""
    return decode(oracle._lex_costs(spelled(n, lambda task, done: (task + 1, n - done))), n)


def lex_completions(n):
    """The recursion's costs with task j's completion in digit j: its completions."""
    return decode(oracle._lex_costs(spelled(n, lambda task, done: (done, n - 1 - task))), n)


class TestPermTable:
    """The lexicographic subset recursion and the factorial-base unranking."""

    def test_lexicographic_and_complete(self):
        want = [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]]
        assert lex_orders(3).tolist() == want
        assert oracle._unrank(np.arange(6), 3).tolist() == want

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_itertools_permutations(self, n):
        want = np.array(list(permutations(range(1, n + 1))))
        assert np.array_equal(lex_orders(n), want)
        got = oracle._unrank(np.arange(factorial(n)), n)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_completions_invert_every_row(self, n):
        perms = np.array(list(permutations(range(1, n + 1))))
        # the slot of task j is one past the position of j in the order
        assert np.array_equal(lex_completions(n), np.argsort(perms, axis=1) + 1)

    def test_size_guard(self, monkeypatch):
        # The oracle refuses n > ORACLE_MAX_N before it prices anything.
        n = ORACLE_MAX_N + 1
        profile = PreferenceProfile.from_orders(np.arange(1, n + 1)[None, :])
        monkeypatch.setattr(oracle, "_lex_costs", None)
        with pytest.raises(SizeLimitError):
            exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)

    def test_completions_invert_orders(self):
        table = list(permutations(range(1, 5)))
        row = random.Random(0).randrange(len(table))
        schedule = Schedule(table[row])
        assert tuple(lex_completions(4)[row].tolist()) == schedule.completions()
        assert tuple(oracle._unrank(np.array([row]), 4)[0].tolist()) == table[row]

    def test_a_forbidden_step_forbids_every_permutation_that_takes_it(self):
        step = np.zeros((1 << 4, 4), dtype=np.int64)
        step[0b0001, 1] = -1  # task 2 directly ahead of task 1 in the last two slots
        costs = oracle._lex_costs(step)
        ends = [perm[2:] == (2, 1) for perm in permutations(range(1, 5))]
        assert np.array_equal(costs < 0, ends)
        assert set(costs.tolist()) == {-1, 0}


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


def traced_peak(matrix):
    """The kernel's slots on a ``CostMatrix`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        slots = _hungarian(matrix.cost, matrix.forbidden)
        return slots, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def largest_allowed(cost, forbidden=None):
    """C of the kernel's bound: the largest entry over the allowed cells only."""
    return int(cost.max() if forbidden is None else cost[~forbidden].max())


def int64_edge(n, top):
    """The largest scale s with n * (top * s) < 2^62, the last size ``CostMatrix`` accepts."""
    return (2**62 - 1) // (n * top)


def at_the_int64_edge(cost, forbidden=None):
    """``cost`` at the largest scale ``CostMatrix`` accepts; one scale more is refused."""
    n = len(cost)
    edge = int64_edge(n, largest_allowed(cost, forbidden))
    with pytest.raises(ValueError, match=r"largest allowed entry must be below 2\^62"):
        CostMatrix(n, cost * (edge + 1), forbidden)
    return CostMatrix(n, cost * edge, forbidden)


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


def every_tenth_windows(rng, n):
    """Windows of +-20 slots around a hidden schedule on every tenth task."""
    hidden = rng.permutation(n)  # hidden[j] = 0-based slot of task j + 1
    return TimeWindows(tuple(
        (max(0, slot - 20), min(n, slot + 21)) if task % 10 == 9 else (0, n)
        for task, slot in enumerate(hidden.tolist())
    ))


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
            got = hungarian(cost, forbidden)
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
                assert np.array_equal(hungarian(m.cost, m.forbidden), want)

    def test_scaled_costs_take_the_same_steps_in_exact_integers(self):
        # Scaling every entry by K > 0 scales every comparison, so the slots
        # cannot move; K is the largest scale that ``CostMatrix`` accepts.
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = trial % 12 + 2
            cost = rng.integers(0, 12, size=(n, n)).astype(np.int64)
            forbidden = rng.random((n, n)) < 0.2
            want = reference_hungarian(cost, forbidden)
            m = at_the_int64_edge(cost, forbidden)
            assert np.array_equal(_hungarian(m.cost, m.forbidden), want)

    @pytest.mark.parametrize("n", [30, 36, 42])
    def test_masked_matrices_at_the_int64_edge_at_n_30_and_over(self, n):
        rng = np.random.default_rng(n)
        cost = rng.integers(0, 12, size=(n, n)).astype(np.int64)
        forbidden = rng.random((n, n)) < 0.3
        want = reference_hungarian(cost, forbidden)
        assert want[0] >= 0
        m = at_the_int64_edge(cost, forbidden)
        assert np.array_equal(_hungarian(m.cost, m.forbidden), want)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_last_accepted_size_and_first_refused_size(self, masked):
        # Entries of 9..11 keep the optimum within a fifth of n*C, the sum
        # the bound allows for; scales s and s + 1 straddle n*C = 2^62.
        n = 60
        rng = np.random.default_rng(62)
        cost = rng.integers(9, 12, size=(n, n)).astype(np.int64)
        forbidden = rng.random((n, n)) < 0.3 if masked else None
        want = reference_hungarian(cost, forbidden)
        assert want[0] >= 0
        top = largest_allowed(cost, forbidden)
        edge = int64_edge(n, top)
        assert n * top * edge < 2**62 <= n * top * (edge + 1)
        m = at_the_int64_edge(cost, forbidden)
        assert np.array_equal(_hungarian(m.cost, m.forbidden), want)

    @pytest.mark.parametrize("n", [120, 160, 200])
    def test_late_count_matrices_at_benchmark_scale(self, n):
        rng = np.random.default_rng(n)
        profile = generate_profile(n, 100, seed=n)
        for windows in (None, hidden_windows(rng, n)):
            m = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS, windows)
            want = reference_hungarian(m.cost, m.forbidden)
            assert want[0] >= 0
            assert np.array_equal(hungarian(m.cost, m.forbidden), want)

    @pytest.mark.parametrize("n", [60, 200])
    def test_every_matching_shape_of_the_benchmark(self, n):
        # Deviation, late tasks and tardiness at v = 100, each with and without
        # windows on every tenth task: about n(n+1)/2 steps a matrix.
        profile = generate_profile(n, 100, seed=1)
        rng = np.random.default_rng(n)
        for criterion, encoding in ((CriterionKind.DISTANCE, EncodingKind.DEVIATION),
                                    (CriterionKind.BINARY, EncodingKind.LATE_TASKS),
                                    (CriterionKind.DISTANCE, EncodingKind.TARDINESS)):
            for windows in (None, every_tenth_windows(rng, n)):
                m = build_cost_matrix(profile, criterion, encoding, windows)
                want = reference_hungarian(m.cost, m.forbidden)
                assert want[0] >= 0
                assert np.array_equal(hungarian(m.cost, m.forbidden), want)

    @pytest.mark.parametrize("n", [150, 200])
    def test_costs_zero_to_two_at_benchmark_scale(self, n):
        # Long trees and ties in every phase.
        cost = np.random.default_rng(n).integers(0, 3, size=(n, n))
        assert np.array_equal(hungarian(cost), reference_hungarian(cost))

    def test_path_rebuild_skips_forbidden_cells_at_the_final_distance(self):
        # Row 3's phase reaches slot 2 at distance 2 through row 1, after it
        # expanded rows 3 and 2 at distance 0. Their slot-2 cells are
        # forbidden but also cost 2, so only the mask keeps either of them
        # from being taken as that column's predecessor.
        cost = np.array([[1, 2, 0], [0, 2, 0], [0, 2, 0]])
        forbidden = np.array([[0, 0, 0], [0, 1, 0], [0, 1, 0]], dtype=bool)
        assert reference_hungarian(cost, forbidden).tolist() == [1, 0, 2]
        assert hungarian(cost, forbidden).tolist() == [1, 0, 2]

    def test_optimum_past_two_to_the_60(self):
        # n*C is 2^61 + 2, then 2^62 - 2, the largest ``CostMatrix`` accepts.
        for base in (1 << 60, (1 << 61) - 2):
            cost = base + np.array([[1, 0], [0, 1]], dtype=np.int64)
            assert (reference_hungarian(cost) < 0).all()  # the 2^60 sentinel's false infeasible
            assert hungarian(cost).tolist() == [1, 0]
        with pytest.raises(ValueError, match=r"below 2\^62"):
            hungarian((1 << 61) + np.array([[0, 0], [0, 0]], dtype=np.int64))

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError, match="non-negative"):
            min_cost_assignment(CostMatrix(2, np.array([[0, -1], [2, 3]])))


class TestPinnedMask:
    """Forbidden cells are pinned at ``pin = n*C + 1`` before reduction, C over allowed cells."""

    def test_column_reachable_only_through_forbidden_cells_near_the_bound(self):
        # Rows 1..n-1 fit the other columns, so only the last phase fails,
        # after the earlier phases spent OPT(n-1) of the pin. The rows it
        # reaches have fallen by their potentials, so their forbidden cells sit
        # below the pin itself, down to pin - OPT(n-1): only
        # ``limit = pin - spent`` tells those values from allowed ones.
        n, dead = 40, 17
        rng = np.random.default_rng(dead)
        cost = rng.integers(9, 12, size=(n, n)).astype(np.int64)
        cost[-1] = rng.integers(0, 3, size=n)
        forbidden = rng.random((n, n)) < 0.2
        forbidden[:, dead] = True
        live = np.delete(np.arange(n), dead)
        assert reference_hungarian(cost[:-1][:, live], forbidden[:-1][:, live])[0] >= 0
        assert (reference_hungarian(cost, forbidden) < 0).all()
        matrix = at_the_int64_edge(cost, forbidden)
        assert (_hungarian(matrix.cost, matrix.forbidden) < 0).all()
        with pytest.raises(InfeasibleError):
            min_cost_assignment(matrix)

    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "int64"])
    def test_forbidden_cells_in_the_tree_columns_of_every_phase(self, scaled):
        # Every matching costs the same and each row prefers the lowest
        # column, so phase i's tree is exactly columns 0..i-1: column 0 rises
        # in every phase after the first, and the forbidden cells below the
        # diagonal climb with their columns, phase after phase, in the rows
        # already reached at once and in each later row through ``lift``.
        n = 40
        rows, cols = np.indices((n, n))
        cost = cols.astype(np.int64)
        forbidden = (cols < rows - 1) & (np.random.default_rng(n).random((n, n)) < 0.5)
        assert forbidden[:, 0].sum() > n // 3
        want = reference_hungarian(cost, forbidden)
        m = at_the_int64_edge(cost, forbidden) if scaled else CostMatrix(n, cost, forbidden)
        assert np.array_equal(_hungarian(m.cost, m.forbidden), want)

    @pytest.mark.parametrize("blocked", [False, True], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "int64"])
    def test_the_last_phase_climbs_a_chain_to_the_limit(self, scaled, blocked):
        # Row k < n-1 may take column k at 0 or column k+1 at C, and the last
        # row only column 0 at C. Rows 0..n-2 match for free, so the last phase
        # starts at ``limit = pin`` and shifts every row along the chain: its
        # distance ends at n*C = limit - 1, column 0's sentinel falls to
        # -1 - (n-1)*C and its forbidden cells climb to pin + (n-1)*C before
        # the rows fall. With column n-1 closed to row n-2, the least value
        # left is a forbidden one, exactly ``limit``.
        n, top = 40, 7
        k = np.arange(n - 1)
        cost = np.zeros((n, n), dtype=np.int64)
        cost[k, k + 1] = cost[-1, 0] = top
        forbidden = np.ones((n, n), dtype=bool)
        forbidden[k, k] = forbidden[k, k + 1] = forbidden[-1, 0] = False
        forbidden[n - 2, n - 1] = blocked
        want = [-1] * n if blocked else [*range(1, n), 0]
        assert reference_hungarian(cost, forbidden).tolist() == want
        m = at_the_int64_edge(cost, forbidden) if scaled else CostMatrix(n, cost, forbidden)
        assert _hungarian(m.cost, m.forbidden).tolist() == want

    @staticmethod
    def windowed_matrix(n=200):
        """A masked consensus matrix: tardiness, v=100, windows on about half the tasks."""
        profile = generate_profile(n, 100, seed=1)
        windows = hidden_windows(np.random.default_rng(n), n)
        return build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows)

    def test_forbidden_entries_are_never_read(self):
        # C ranges over allowed cells only: int64-maximum entries behind the
        # mask neither change the slots nor make ``CostMatrix`` refuse them.
        m = self.windowed_matrix()
        n = m.n
        want = _hungarian(m.cost, m.forbidden)
        assert want[0] >= 0
        loud = CostMatrix(n, np.where(m.forbidden, np.iinfo(np.int64).max, m.cost), m.forbidden)
        slots, peak = traced_peak(loud)
        assert np.array_equal(slots, want)
        assert peak < 2 * n * n * 8

    def test_peak_memory_below_two_matrices(self):
        # One n x n int64 matrix (``red``) and O(n) vectors; there is no
        # second matrix for the mask and no gather of the tree's rows.
        m = self.windowed_matrix()
        n = m.n
        assert m.forbidden.any()
        slots, peak = traced_peak(m)
        assert np.array_equal(slots, reference_hungarian(m.cost, m.forbidden))
        assert peak < 2 * n * n * 8


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
    def test_matches_per_subset_scan_including_ties(self):
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
            got = _subset_dp(cost, pred_mask, allowed)
            assert np.array_equal(got, want), f"trial {trial}"
            infeasible += want[0] < 0
        assert 20 <= infeasible <= 220  # both outcomes are well exercised


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_hungarian_cost_matches_scipy(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 40))
        cost = rng.integers(0, 1000, size=(n, n)).astype(np.int64)
        slots = hungarian(cost, None)
        assert sorted(slots.tolist()) == list(range(n))
        rows, cols = scipy_linear_sum(cost)
        assert cost[np.arange(n), slots].sum() == cost[rows, cols].sum()

    def test_hungarian_respects_forbidden_pairs(self):
        cost = np.zeros((3, 3), dtype=np.int64)
        forbidden = np.zeros((3, 3), dtype=np.bool_)
        forbidden[0, :2] = True  # task 1 only fits slot 3
        slots = hungarian(cost, forbidden)
        assert slots[0] == 2

    def test_hungarian_reports_infeasible(self):
        cost = np.zeros((3, 3), dtype=np.int64)
        forbidden = np.zeros((3, 3), dtype=np.bool_)
        forbidden[:, 0] = True  # nobody may take slot 1
        slots = hungarian(cost, forbidden)
        assert (slots < 0).all()

    def test_subset_dp_is_brute_force_optimal(self):
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
            slot_order = _subset_dp(cost, pred_mask, np.ascontiguousarray(allowed))

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
