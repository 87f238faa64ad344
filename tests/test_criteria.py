"""Cost criteria: array measures against the per-voter references, identities."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import references as ref
from conftest import profile_of, random_mixed_profile, random_order_profile, random_schedule
from consched.assignment import CostMatrix
from consched.axioms import (
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
)
from consched.criteria import (
    CriterionKind,
    _task_histogram,
    interval_arrays,
    kendall_tau_distance,
    late_counts,
    pair_weight_matrix,
    profile_cost,
    spearman_distance,
)
from consched.experiment import generate_profile
from consched.model import EncodingKind, Schedule, parse_profile
from references import binary_task_cost, choice_decomposition, distance_task_cost, late_at_slot

profiles = st.tuples(st.integers(2, 6), st.integers(1, 5), st.randoms(use_true_random=False)).map(
    lambda t: random_order_profile(random.Random(t[2].randint(0, 10**9)), t[0], t[1])
)


@st.composite
def profile_and_schedule(draw):
    n = draw(st.integers(2, 6))
    v = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10**9))
    rng = random.Random(seed)
    return random_order_profile(rng, n, v), random_schedule(rng, n)


def _single_task_cost(fn, completion: int, window: tuple[int, int], n: int = 9) -> int:
    """Price task 1 at the given slot against one voter window."""
    order = list(range(2, n + 1))
    order.insert(completion - 1, 1)
    windows = [(0, n)] * n
    windows[0] = window
    return fn(Schedule(tuple(order)), tuple(windows), 1)


class TestScalarCosts:
    @pytest.mark.parametrize(
        "completion, window, want",
        [
            (3, (0, 3), 0),  # inside
            (3, (3, 4), 1),  # one slot early
            (5, (0, 3), 2),  # two slots late
            (1, (2, 4), 2),  # two slots early
            (4, (3, 4), 0),  # boundary: slot d is on time
            (3, (2, 4), 0),  # boundary: slot r+1 is on time
        ],
    )
    def test_distance(self, completion, window, want):
        assert _single_task_cost(distance_task_cost, completion, window) == want

    @pytest.mark.parametrize(
        "completion, window, want",
        [(3, (0, 3), 0), (4, (0, 3), 1), (3, (3, 4), 1), (4, (3, 4), 0), (2, (1, 4), 0)],
    )
    def test_binary(self, completion, window, want):
        assert _single_task_cost(binary_task_cost, completion, window) == want

    @given(st.integers(1, 9), st.integers(0, 8), st.integers(1, 9))
    def test_binary_agrees_with_distance_sign(self, completion, r, d):
        if r >= d:
            r, d = max(d - 1, 0), max(r, 1) + 1
        distance = _single_task_cost(distance_task_cost, completion, (r, d))
        assert _single_task_cost(binary_task_cost, completion, (r, d)) == (
            1 if distance > 0 else 0
        )


class TestProfileCost:
    def test_order_mode_requires_encoding(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError, match="encoding"):
            profile_cost(Schedule((1, 2)), profile, CriterionKind.DISTANCE)

    def test_unknown_criterion_rejected(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError, match="^unknown criterion 'fast' "
                                             r"\(expected 'binary' or 'distance'\)$"):
            profile_cost(Schedule((1, 2)), profile, "fast", EncodingKind.TARDINESS)

    def test_interval_mode_forbids_encoding(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError, match="encoding"):
            profile_cost(
                Schedule((1, 2)), profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS
            )

    @given(profile_and_schedule())
    def test_multiplicity_equals_repetition(self, ps):
        profile, schedule = ps
        merged = profile_of("order", ((p.order, 1) for p in ref.voters(profile)))
        for criterion in CriterionKind:
            for encoding in EncodingKind:
                assert profile_cost(schedule, profile, criterion, encoding) == profile_cost(
                    schedule, merged, criterion, encoding
                )

    @given(profile_and_schedule())
    def test_identities_between_encodings(self, ps):
        profile, schedule = ps
        dev = profile_cost(schedule, profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
        tard = profile_cost(schedule, profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
        early = profile_cost(schedule, profile, CriterionKind.DISTANCE, EncodingKind.EARLINESS)
        assert dev == 2 * tard
        assert tard == early

    @given(profile_and_schedule())
    def test_tardiness_splits_over_slots(self, ps):
        profile, schedule = ps
        tard = profile_cost(schedule, profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
        assert tard == sum(
            late_at_slot(schedule, profile, y) for y in range(1, profile.n + 1)
        )

    @given(profile_and_schedule())
    def test_binary_counts_match_direct_definitions(self, ps):
        profile, schedule = ps
        comp = schedule.completions()
        pairs_late = pairs_moved = pairs_early = 0
        for pref in ref.voters(profile):
            pc = pref.completions()
            pairs_late += sum(c > p for c, p in zip(comp, pc))
            pairs_early += sum(c < p for c, p in zip(comp, pc))
            pairs_moved += sum(c != p for c, p in zip(comp, pc))
        assert pairs_late == profile_cost(
            schedule, profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS
        )
        assert pairs_early == profile_cost(
            schedule, profile, CriterionKind.BINARY, EncodingKind.EARLINESS
        )
        assert pairs_moved == profile_cost(
            schedule, profile, CriterionKind.BINARY, EncodingKind.EXACT_POSITION
        )

    def test_identical_preference_costs_zero(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 2\npref 2 : 2 3 1\n")
        s = Schedule((2, 3, 1))
        for criterion in CriterionKind:
            for encoding in EncodingKind:
                assert profile_cost(s, profile, criterion, encoding) == 0


def scalar_profile_cost(schedule, profile, criterion, encoding=None) -> int:
    """Sum of the scalar per-task costs over entries, weighted by multiplicity."""
    per_task = binary_task_cost if criterion is CriterionKind.BINARY else distance_task_cost
    total = 0
    for pref, mult in ref.entries(profile):
        windows = ref.order_windows(pref, encoding) if profile.mode == "order" else pref
        total += mult * sum(per_task(schedule, windows, j) for j in range(1, profile.n + 1))
    return total


class TestProfileCostMatchesScalar:
    """The array recheck equals the scalar per-task formulas, exactly."""

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_order_profiles(self, criterion, encoding):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            profile = random_mixed_profile(rng, n)
            s = random_schedule(rng, n)
            assert profile_cost(s, profile, criterion, encoding) == scalar_profile_cost(
                s, profile, criterion, encoding
            )

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    def test_interval_profiles(self, criterion):
        for seed in range(80):
            rng = random.Random(300 + seed)
            n = rng.randint(1, 9)
            profile = random_mixed_profile(rng, n, mode="interval")
            s = random_schedule(rng, n)
            assert profile_cost(s, profile, criterion) == scalar_profile_cost(s, profile, criterion)

    def test_total_at_the_cost_bound_is_exact(self):
        # Largest v with v * n * (n + 1) <= 2**62 - 1 for n = 3; the reversal
        # costs 4 per voter under deviation, a total close to 2**61.
        v = (2**62 - 1) // 12
        profile = parse_profile(f"profile order\ntasks 3\nvoters {v}\npref {v} : 1 2 3\n")
        cost = profile_cost(Schedule((3, 2, 1)), profile, "distance", "deviation")
        assert cost == 4 * v
        assert isinstance(cost, int)


class TestRankDistances:
    @given(profile_and_schedule())
    def test_spearman_is_deviation_cost(self, ps):
        profile, schedule = ps
        assert spearman_distance(schedule, profile) == profile_cost(
            schedule, profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION
        )

    def test_kendall_adjacent_swap(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        assert kendall_tau_distance(Schedule((1, 3, 2)), profile) == 1

    def test_kendall_reversal_is_all_pairs(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 2\npref 2 : 1 2 3 4\n")
        assert kendall_tau_distance(Schedule((4, 3, 2, 1)), profile) == 2 * 6

    @given(profile_and_schedule())
    def test_pair_inversions_bound_footrule(self, ps):
        # classical two-sided bound linking the two per-voter distances
        profile, schedule = ps
        for pref in ref.voters(profile):
            single = profile_of("order", [(pref.order, 1)])
            delta = kendall_tau_distance(schedule, single)
            rho = spearman_distance(schedule, single)
            assert delta <= rho <= 2 * delta

    @pytest.mark.parametrize("seed", range(40))
    def test_array_measures_equal_per_voter_references(self, seed):
        rng = random.Random(1600 + seed)
        n = rng.randint(1, 9)
        profile = random_mixed_profile(rng, n)  # multiplicities up to 2^40, repeats
        schedule = random_schedule(rng, n)
        spearman = spearman_distance(schedule, profile)
        kendall = kendall_tau_distance(schedule, profile)
        late = late_counts(schedule, profile)
        assert spearman == ref.spearman_distance(schedule, profile)
        assert kendall == ref.kendall_tau_distance(schedule, profile)
        assert late == [ref.late_at_slot(schedule, profile, y) for y in range(1, n + 1)]
        assert all(type(x) is int for x in (spearman, kendall, *late))

    def test_rank_distances_at_the_cost_bound_are_exact(self):
        # The reversal of 3 tasks: 3 discordant pairs and a footrule of 4 per voter.
        v = (2**62 - 1) // 12
        profile = parse_profile(f"profile order\ntasks 3\nvoters {v}\npref {v} : 1 2 3\n")
        reversal = Schedule((3, 2, 1))
        assert kendall_tau_distance(reversal, profile) == 3 * v
        assert spearman_distance(reversal, profile) == 4 * v
        assert late_counts(reversal, profile) == [v, v, 0]

    def test_rank_distances_reject_interval_profiles(self):
        interval = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (0,2)\n")
        for measure in (spearman_distance, kendall_tau_distance):
            with pytest.raises(ValueError, match="order-mode"):
                measure(Schedule((1, 2)), interval)
        with pytest.raises(ValueError, match="^pairwise weights require an order-mode profile$"):
            pair_weight_matrix(interval)


_SIZED = {
    "profile_cost": lambda s, p: profile_cost(s, p, CriterionKind.DISTANCE, EncodingKind.DEVIATION),
    "late_counts": late_counts,
    "spearman_distance": spearman_distance,
    "kendall_tau_distance": kendall_tau_distance,
    "check_release_consistency": check_release_consistency,
    "check_deadline_consistency": check_deadline_consistency,
    "check_temporal_unanimity": check_temporal_unanimity,
    "CostMatrix.price": lambda s, p: CostMatrix(p.n, np.zeros((p.n, p.n), np.int64)).price(s),
}


@pytest.mark.parametrize("order", [(2, 1), (1, 2, 3, 4)])
@pytest.mark.parametrize("name", sorted(_SIZED))
def test_schedule_of_another_size_is_rejected(name, order):
    # Used to give a wrong number, a made-up violation report or an IndexError.
    profile = parse_profile("profile order\ntasks 3\nvoters 2\npref 1 : 1 2 3\npref 1 : 3 1 2\n")
    with pytest.raises(ValueError, match=f"^schedule has {len(order)} tasks, profile 3$"):
        _SIZED[name](Schedule(order), profile)


class TestChoiceDecomposition:
    def test_slot_counts_on_contested_profile(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 3\npref 1 : 1 2 3\npref 1 : 1 3 2\npref 1 : 2 1 3\n"
        )
        choices = choice_decomposition(profile)
        assert len(choices) == 9
        at_slot_1 = sorted(c.task for c in choices if c.slot == 1)
        assert at_slot_1 == [1, 1, 2]
        assert {c.voter for c in choices} == {1, 2, 3}

    def test_multiplicity_expands_voters(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 3\npref 3 : 2 1\n")
        choices = choice_decomposition(profile)
        assert len(choices) == 6
        assert {c.voter for c in choices} == {1, 2, 3}

    @given(profile_and_schedule())
    def test_late_at_slot_matches_decomposition(self, ps):
        profile, schedule = ps
        choices = choice_decomposition(profile)
        for y in range(1, profile.n + 1):
            direct = sum(
                1 for c in choices if c.slot <= y and schedule.completion(c.task) > y
            )
            assert late_at_slot(schedule, profile, y) == direct

    def test_late_counts_match_late_at_slot(self):
        for seed in range(80):
            rng = random.Random(1200 + seed)
            n = rng.randint(1, 9)
            profile = random_mixed_profile(rng, n)  # multiplicities up to 2^40, repeats
            schedule = random_schedule(rng, n)
            want = [late_at_slot(schedule, profile, y) for y in range(1, n + 1)]
            assert late_counts(schedule, profile) == want

    def test_late_counts_reject_interval_profiles_and_size_mismatch(self):
        interval = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (0,2)\n")
        with pytest.raises(ValueError, match="order-mode"):
            late_counts(Schedule((1, 2)), interval)
        order = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 2 1\n")
        with pytest.raises(ValueError, match="3 tasks"):
            late_counts(Schedule((1, 2, 3)), order)


class TestIntervalArrays:
    @given(profiles, st.sampled_from(list(EncodingKind)))
    def test_arrays_price_like_profile_cost(self, profile, encoding):
        rel, due, mult = interval_arrays(profile, encoding)
        assert rel.shape == due.shape == (len(mult), profile.n)
        assert int(mult.sum()) == profile.v
        rng = random.Random(7)
        s = random_schedule(rng, profile.n)
        comp = np.array(s.completions(), dtype=np.int64)
        dist = int(
            (mult[:, None] * (np.maximum(comp - due, 0) + np.maximum(rel - comp + 1, 0))).sum()
        )
        assert dist == profile_cost(s, profile, CriterionKind.DISTANCE, encoding)
        binary = int((mult[:, None] * ((comp > due) | (comp <= rel))).sum())
        assert binary == profile_cost(s, profile, CriterionKind.BINARY, encoding)


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated, in bytes (tracemalloc)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def wide_profile():
    return generate_profile(60, 4000, 1)


class TestWindowMemory:
    @pytest.mark.parametrize("encoding", ["tardiness", "late_tasks", "earliness"])
    def test_constant_bounds_allocate_nothing(self, wide_profile, encoding):
        # A fresh (v, n) int64 array of the constant bound would take 1.9 MB;
        # earliness's release C - 1 is the one (v, n) array left to allocate.
        (rel, due, _), peak = traced_peak(lambda: interval_arrays(wide_profile, encoding))
        comp, n = wide_profile.completions, wide_profile.n
        assert peak < 64 * 2**10 + (comp.nbytes if encoding == "earliness" else 0)
        constant, date = (due, n) if encoding == "earliness" else (rel, 0)
        assert constant.shape == comp.shape and not any(constant.strides)
        assert not constant.flags.writeable
        assert (constant == date).all()

    @pytest.mark.parametrize("criterion", list(CriterionKind))
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_recheck_peak(self, wide_profile, criterion, encoding):
        v, n = wide_profile.completions.shape
        schedule = Schedule(tuple(range(n, 0, -1)))
        cost, peak = traced_peak(lambda: profile_cost(schedule, wide_profile, criterion, encoding))
        assert peak < 2.5 * v * n * 8
        rel, due, mult = interval_arrays(wide_profile, encoding)
        c = np.arange(n, 0, -1)
        if criterion is CriterionKind.BINARY:
            per_voter = (c > due) | (c <= rel)
        else:
            per_voter = np.maximum(c - due, 0) + np.maximum(rel - c + 1, 0)
        assert cost == int((mult[:, None] * per_voter).sum())


def python_histogram(values, mult, bins):
    """hist[j][x]: the multiplicities of the rows whose task j reads x, in Python ints."""
    hist = [[0] * bins for _ in values[0]]
    for row, m in zip(values, mult):
        for j, x in enumerate(row):
            hist[j][x] += m
    return hist


class TestTaskHistogram:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_python_counting(self, seed):
        # Rows of multiplicity 1 mix with heavy ones up to 2**60, where float64
        # weights would round; 7 rows keep every count inside int64.
        rng = random.Random(seed)
        n, rows = rng.randint(1, 8), rng.randint(1, 7)
        bins = n + 1
        values = [[rng.randrange(bins) for _ in range(n)] for _ in range(rows)]
        mult = [rng.choice((1, 1, 2, 5, (1 << 60) - rng.randrange(1 << 20))) for _ in range(rows)]
        hist = _task_histogram(np.array(values, dtype=np.int64), np.array(mult), bins)
        assert hist.dtype == np.int64 and hist.shape == (n, bins)
        assert hist.tolist() == python_histogram(values, mult, bins)

    @pytest.mark.parametrize("date", [0, 3, 5])
    def test_constant_view_counts_like_a_full_array(self, date):
        mult = np.array([1, (1 << 60) + 1, 4])
        view = np.broadcast_to(np.int64(date), (3, 5))
        hist = _task_histogram(view, mult, 6)
        assert hist.dtype == np.int64
        assert hist.tolist() == python_histogram(view.tolist(), mult.tolist(), 6)

    def test_counts_past_float_precision(self):
        values = np.zeros((3, 2), dtype=np.int64)
        mult = [(1 << 60) + 1, 1, (1 << 60) + 3]
        want = (1 << 61) + 5
        hist = _task_histogram(values, np.array(mult), 1)
        assert hist.dtype == np.int64 and hist.tolist() == [[want], [want]]
        # the float64 sum a weighted bincount makes
        assert int(np.bincount([0, 0, 0], weights=mult)[0]) != want
