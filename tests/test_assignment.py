"""Assignment reduction: cost matrices and optimal matching."""

from __future__ import annotations

import random
import re
import tracemalloc

import numpy as np
import pytest

import references as ref
from conftest import profile_of, random_mixed_profile, random_order_profile
from consched.assignment import CostMatrix, build_cost_matrix, min_cost_assignment
from consched.experiment import generate_profile
from consched.criteria import CriterionKind, profile_cost
from consched.errors import InfeasibleError
from consched.model import (
    _COST_BOUND,
    EncodingKind,
    Schedule,
    TimeWindows,
    parse_profile,
    parse_time_windows,
)
from consched.oracle import exhaustive_optimum


@pytest.fixture(scope="module")
def wide_profile():
    return generate_profile(60, 4000, seed=1)


def reference_cost(profile, criterion, encoding=None) -> np.ndarray:
    """The direct (voters, tasks, slots) broadcast the histogram build replaces."""
    prefs = ref.entries(profile)
    if profile.mode == "order":
        prefs = [(ref.order_windows(p, encoding), m) for p, m in prefs]
    rel = np.array([[r for r, _ in w] for w, _ in prefs], dtype=np.int64)
    due = np.array([[d for _, d in w] for w, _ in prefs], dtype=np.int64)
    mult = np.array([m for _, m in prefs], dtype=np.int64)
    t = np.arange(1, profile.n + 1, dtype=np.int64)[None, None, :]
    rel3, due3 = rel[:, :, None], due[:, :, None]
    if criterion is CriterionKind.BINARY:
        per_voter = ((t > due3) | (t <= rel3)).astype(np.int64)
    else:
        per_voter = np.maximum(t - due3, 0) + np.maximum(rel3 - t + 1, 0)
    return (mult[:, None, None] * per_voter).sum(axis=0)


class TestCostMatrixMatchesBroadcast:
    """The prefix-sum build returns exactly the matrices of the direct broadcast."""

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_order_profiles(self, criterion, encoding):
        for seed in range(60):
            rng = random.Random(seed)
            profile = random_mixed_profile(rng, rng.randint(1, 9))
            m = build_cost_matrix(profile, criterion, encoding)
            assert m.cost.dtype == np.int64
            assert np.array_equal(m.cost, reference_cost(profile, criterion, encoding))

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    def test_interval_profiles(self, criterion):
        for seed in range(120):
            rng = random.Random(500 + seed)
            profile = random_mixed_profile(rng, rng.randint(1, 9), mode="interval")
            m = build_cost_matrix(profile, criterion)
            assert np.array_equal(m.cost, reference_cost(profile, criterion))

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    def test_with_global_windows(self, criterion):
        for seed in range(40):
            rng = random.Random(900 + seed)
            n = rng.randint(1, 8)
            profile = random_mixed_profile(rng, n)
            windows = TimeWindows(tuple(
                (r, rng.randint(r + 1, n)) for r in (rng.randint(0, n - 1) for _ in range(n))
            ))
            m = build_cost_matrix(profile, criterion, EncodingKind.TARDINESS, windows)
            assert np.array_equal(
                m.cost, reference_cost(profile, criterion, EncodingKind.TARDINESS)
            )
            for task, (r, d) in enumerate(windows.windows, start=1):
                for slot in range(1, n + 1):
                    assert m.forbidden[task - 1, slot - 1] == (not r < slot <= d)

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_order_windows_build_as_the_same_interval_windows(self, criterion, encoding):
        # An interval profile counts both of its histograms; an order profile may
        # derive one from the other. Both must give the same matrix and mask.
        for seed in range(40):
            rng = random.Random(1300 + seed)
            n = rng.randint(1, 8)
            entries = [(rng.sample(range(1, n + 1), n), rng.randint(1, 5))
                       for _ in range(rng.randint(0, 5))]
            # One entry as heavy as the cost bound allows, up to 2^60.
            room = _COST_BOUND // (n * (n + 1)) - sum(m for _, m in entries)
            entries.insert(rng.randint(0, len(entries)),
                           (rng.sample(range(1, n + 1), n), min(1 << 60, room)))
            profile = profile_of("order", entries)
            same = profile_of("interval", [(ref.order_windows(pref, encoding), mult)
                                           for pref, mult in ref.entries(profile)])
            windows = None if seed % 2 else TimeWindows(tuple(
                (r, rng.randint(r + 1, n)) for r in (rng.randint(0, n - 1) for _ in range(n))
            ))
            m = build_cost_matrix(profile, criterion, encoding, windows)
            assert m == build_cost_matrix(same, criterion, windows=windows)
            assert (m.forbidden is None) == (windows is None)

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_single_task(self, criterion, encoding):
        profile = parse_profile("profile order\ntasks 1\nvoters 7\npref 7 : 1\n")
        m = build_cost_matrix(profile, criterion, encoding)
        assert m.cost.tolist() == [[0]]

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_identical_voters_equal_one_weighted_entry(self, criterion, encoding):
        pref = (3, 1, 4, 2)
        split = profile_of("order", [(pref, 2), (pref, 1), (pref, 4)])
        merged = profile_of("order", [(pref, 7)])
        a = build_cost_matrix(split, criterion, encoding).cost
        assert np.array_equal(a, build_cost_matrix(merged, criterion, encoding).cost)
        assert np.array_equal(a, reference_cost(merged, criterion, encoding))

    def test_build_peak_memory_stays_small(self):
        # The direct broadcast peaks at ~333 MB here; the histograms need O(n^2).
        profile = generate_profile(60, 4000, seed=1)
        tracemalloc.start()
        try:
            build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_build_peaks_at_one_index_array(self, wide_profile, criterion, encoding):
        # One count of the completions: its (v, n) int64 index array is the
        # build's one large temporary, whatever the encoding.
        build_cost_matrix(wide_profile, criterion, encoding)  # warm
        tracemalloc.start()
        try:
            build_cost_matrix(wide_profile, criterion, encoding)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * wide_profile.completions.nbytes


class TestBuildCostMatrix:
    def test_single_voter_diagonal_structure(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        m = build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
        # task 1 preferred at slot 1: deviation grows one per slot away
        assert m.cost[0].tolist() == [0, 1, 2]
        assert m.cost[1].tolist() == [1, 0, 1]
        assert m.cost[2].tolist() == [2, 1, 0]
        assert m.forbidden is None
        assert m.cost.dtype == np.int64

    def test_entries_match_scalar_formula(self):
        rng = random.Random(5)
        profile = random_order_profile(rng, 5, 4)
        for encoding in EncodingKind:
            m = build_cost_matrix(profile, CriterionKind.DISTANCE, encoding)
            intervals = [ref.order_windows(pref, encoding) for pref in ref.voters(profile)]
            for task in range(1, 6):
                for slot in range(1, 6):
                    order = [t for t in range(1, 6) if t != task]
                    order.insert(slot - 1, task)
                    s = Schedule(tuple(order))
                    want = sum(ref.distance_task_cost(s, iv, task) for iv in intervals)
                    assert m.cost[task - 1, slot - 1] == want

    def test_multiplicity_weights_rows(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 5\npref 5 : 2 1\n")
        m = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.EXACT_POSITION)
        assert m.cost.tolist() == [[5, 0], [0, 5]]

    def test_windows_become_forbidden_pairs(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        windows = parse_time_windows("task 2 : 1 2\n", 3)
        m = build_cost_matrix(
            profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows=windows
        )
        assert m.forbidden is not None
        for task, (r, d) in enumerate(windows.windows, start=1):
            for slot in range(1, 4):
                assert m.forbidden[task - 1, slot - 1] == (not r < slot <= d)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,)])
    def test_forbidden_mask_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="^forbidden mask must be 3x3$"):
            CostMatrix(3, np.zeros((3, 3), np.int64), np.zeros(shape, dtype=bool))

    def test_interval_mode_needs_no_encoding(self):
        profile = parse_profile(
            "profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (0,2)\n"
        )
        m = build_cost_matrix(profile, CriterionKind.DISTANCE)
        assert m.cost[0].tolist() == [0, 1]
        with pytest.raises(ValueError):
            build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)

    def test_cost_matrix_validation(self):
        with pytest.raises(ValueError):
            CostMatrix(n=2, cost=np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            CostMatrix(n=2, cost=np.zeros((2, 2), dtype=np.float64))

    @pytest.mark.parametrize("n, message", [
        (-1, "cost matrix n must be >= 1, got -1"),
        (2.0, "cost matrix n must be an integer, got 2.0"),
        (0, "cost matrix n must be >= 1, got 0"),
    ])
    def test_cost_matrix_checks_n_before_the_costs(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CostMatrix(n=n, cost=[])

    def test_no_write_after_construction_reaches_the_matrix(self):
        # The matrix used to keep a writable cost and the caller's mask: a
        # negative entry written in after the check misled the matching, and a
        # later write to the mask made a feasible matrix infeasible.
        cost, forbidden = np.array([[1, 2], [3, 4]]), np.zeros((2, 2), dtype=bool)
        m = CostMatrix(2, cost, forbidden)
        with pytest.raises(ValueError, match="read-only"):
            m.cost[0, 0] = -50
        with pytest.raises(ValueError, match="read-only"):
            m.forbidden[0, 0] = True
        cost[0, 0] = -50
        forbidden[:] = True
        assert m == CostMatrix(2, [[1, 2], [3, 4]], np.zeros((2, 2), dtype=bool))
        schedule = min_cost_assignment(m)
        assert m.price(schedule) == 5

    def test_price_past_int64_is_exact(self):
        # An int64 sum would price (1, 2) at -2**62. ``CostMatrix`` refuses this
        # matrix unmasked, but a forbidden cell may hold any entry.
        big = 3 * 2**61
        with pytest.raises(ValueError, match=r"below 2\^62"):
            CostMatrix(2, [[big, 0], [0, big]])
        m = CostMatrix(2, [[big, 0], [0, big]], [[True, False], [False, True]])
        assert m.price(Schedule((1, 2))) == 2 * big
        assert m.price(min_cost_assignment(m)) == 0


class TestMinCostAssignment:
    def test_identity_on_unanimous_profile(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 3\npref 3 : 4 3 2 1\n")
        m = build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
        schedule = min_cost_assignment(m)
        total = m.price(schedule)
        assert schedule.order == (4, 3, 2, 1)
        assert total == 0

    @pytest.mark.parametrize("criterion, encoding", [
        (CriterionKind.DISTANCE, EncodingKind.DEVIATION),
        (CriterionKind.DISTANCE, EncodingKind.TARDINESS),
        (CriterionKind.DISTANCE, EncodingKind.EARLINESS),
        (CriterionKind.BINARY, EncodingKind.LATE_TASKS),
        (CriterionKind.BINARY, EncodingKind.EXACT_POSITION),
    ])
    def test_matches_exhaustive_optimum(self, criterion, encoding):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 5))
            m = build_cost_matrix(profile, criterion, encoding)
            schedule = min_cost_assignment(m)
            total = m.price(schedule)
            oracle = exhaustive_optimum(profile, criterion, encoding)
            assert total == oracle.best_cost
            assert profile_cost(schedule, profile, criterion, encoding) == total
            assert schedule in oracle.optima

    def test_matches_exhaustive_optimum_with_windows(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            n = rng.randint(3, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 4))
            # one random task constrained to a random sub-window
            task = rng.randint(1, n)
            r = rng.randint(0, n - 1)
            d = rng.randint(r + 1, n)
            windows = TimeWindows(
                tuple((r, d) if j == task else (0, n) for j in range(1, n + 1))
            )
            m = build_cost_matrix(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows=windows
            )
            schedule = min_cost_assignment(m)
            total = m.price(schedule)
            oracle = exhaustive_optimum(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows=windows
            )
            assert total == oracle.best_cost
            assert schedule in oracle.optima
            assert r < schedule.completion(task) <= d

    def test_infeasible_windows_raise(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        windows = TimeWindows(((0, 1), (0, 1), (0, 3)))
        m = build_cost_matrix(
            profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows=windows
        )
        with pytest.raises(InfeasibleError):
            min_cost_assignment(m)

    def test_deterministic_across_calls(self):
        rng = random.Random(42)
        profile = random_order_profile(rng, 6, 3)
        m = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
        results = {min_cost_assignment(m).order for _ in range(5)}
        assert len(results) == 1
