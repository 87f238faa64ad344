"""Aggregation rules: medians, the median-date heuristic, exact solvers."""

from __future__ import annotations

import random

import pytest

from conftest import random_mixed_profile, random_order_profile
from consched.criteria import CriterionKind, profile_cost
from consched.model import EncodingKind, Schedule, TimeWindows, parse_profile
from consched.oracle import exhaustive_optimum
from consched.precedence import infer_precedences
from consched.rules import (
    RuleKind,
    RuleSpec,
    canonical_criterion,
    emd_schedule,
    median_completion_times,
    solve,
)
from references import entries, satisfied_by


class TestMedians:
    def test_single_voter_medians_are_their_completions(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 3 1 2\n")
        assert median_completion_times(profile) == (2, 3, 1)

    def test_even_voter_count_takes_lower_median(self):
        # task 1 completions: (1, 2, 3, 4) -> lower median 2
        profile = parse_profile(
            "profile order\ntasks 4\nvoters 4\n"
            "pref 1 : 1 2 3 4\npref 1 : 2 1 3 4\npref 1 : 3 2 1 4\npref 1 : 4 2 3 1\n"
        )
        assert median_completion_times(profile)[0] == 2

    def test_multiplicity_expands_before_the_median(self):
        profile = parse_profile(
            "profile order\ntasks 2\nvoters 3\npref 2 : 1 2\npref 1 : 2 1\n"
        )
        # task 1 completions (1, 1, 2) -> median 1; task 2 (2, 2, 1) -> 2
        assert median_completion_times(profile) == (1, 2)

    def test_matches_list_expansion_median(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            profile = random_mixed_profile(rng, n, max_mult=6)
            pick = (profile.v - 1) // 2
            want = tuple(
                sorted(
                    t
                    for pref, mult in entries(profile)
                    for t in [pref.completion(j)] * mult
                )[pick]
                for j in range(1, n + 1)
            )
            assert median_completion_times(profile) == want

    def test_interval_mode_rejected(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            median_completion_times(profile)

    def test_medians_lie_in_one_to_n(self):
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            medians = median_completion_times(random_mixed_profile(rng, n))
            assert isinstance(medians, tuple) and len(medians) == n
            assert all(type(m) is int and 1 <= m <= n for m in medians)


class TestEmdSchedule:
    def test_sorts_by_median_then_task_id(self):
        profile = parse_profile(
            "profile order\ntasks 4\nvoters 3\n"
            "pref 1 : 2 1 3 4\npref 1 : 3 1 2 4\npref 1 : 4 1 2 3\n"
        )
        assert median_completion_times(profile) == (2, 3, 3, 4)
        # tasks 2 and 3 tie at median 3: ascending id puts 2 first
        assert emd_schedule(profile).order == (1, 2, 3, 4)

    def test_unanimous_profile_is_returned_verbatim(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 5\npref 5 : 2 3 1\n")
        assert emd_schedule(profile).order == (2, 3, 1)

    def test_fulfills_inferred_precedences(self):
        for seed in range(50):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 7), rng.randint(1, 5))
            schedule = emd_schedule(profile)
            assert satisfied_by(infer_precedences(profile).graph, schedule)


class TestRuleSpec:
    def test_strings_are_normalized(self):
        spec = RuleSpec("distance", "tardiness")
        assert spec.rule is RuleKind.DISTANCE
        assert spec.encoding is EncodingKind.TARDINESS

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            RuleSpec("fastest")


class TestSolve:
    def test_emd_needs_order_mode(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            solve(profile, RuleSpec("emd"))

    def test_exact_rules_need_encoding_on_order_mode(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError, match="encoding"):
            solve(profile, RuleSpec("distance"))

    def test_emd_cost_uses_canonical_criterion(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 3\npref 1 : 1 2 3\npref 1 : 2 1 3\npref 1 : 1 3 2\n"
        )
        solution = solve(profile, RuleSpec("emd", "late_tasks"))
        schedule, cost = solution.schedule, solution.cost
        assert cost == profile_cost(
            schedule, profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS
        )
        solution = solve(profile, RuleSpec("emd"))
        schedule, cost = solution.schedule, solution.cost
        assert cost == profile_cost(
            schedule, profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS
        )

    @pytest.mark.parametrize("rule, encoding", [
        ("distance", "deviation"),
        ("distance", "tardiness"),
        ("binary", "late_tasks"),
    ])
    def test_exact_rules_match_oracle(self, rule, encoding):
        for seed in range(25):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 6), rng.randint(1, 5))
            solution = solve(profile, RuleSpec(rule, encoding))
            schedule, cost = solution.schedule, solution.cost
            oracle = exhaustive_optimum(profile, CriterionKind(rule), encoding)
            assert cost == oracle.best_cost
            assert schedule in oracle.optima

    def test_windows_are_honored(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 2\npref 2 : 1 2 3\n")
        windows = TimeWindows(((2, 3), (0, 3), (0, 3)))  # task 1 pinned to slot 3
        solution = solve(profile, RuleSpec("distance", "tardiness", windows))
        schedule, cost = solution.schedule, solution.cost
        assert schedule.completion(1) == 3
        assert cost == 4  # task 1 runs two slots past both voters, rest on time

    def test_interval_mode_solves_without_encoding(self):
        profile = parse_profile(
            "profile interval\ntasks 3\nvoters 2\n"
            "pref 1 : (0,1) (1,2) (2,3)\npref 1 : (0,2) (0,2) (1,3)\n"
        )
        solution = solve(profile, RuleSpec("distance"))
        schedule, cost = solution.schedule, solution.cost
        assert cost == 0
        assert schedule.order == (1, 2, 3)

    def test_canonical_criterion_mapping(self):
        assert canonical_criterion("deviation") is CriterionKind.DISTANCE
        assert canonical_criterion("tardiness") is CriterionKind.DISTANCE
        assert canonical_criterion("earliness") is CriterionKind.DISTANCE
        assert canonical_criterion("late_tasks") is CriterionKind.BINARY
        assert canonical_criterion("exact_position") is CriterionKind.BINARY
