"""Bundled study profiles: frozen optima, filters, and counterexample structure."""

from __future__ import annotations

import pytest

from consched import (
    CriterionKind,
    EncodingKind,
    Schedule,
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
    constrained_best,
    emd_schedule,
    exhaustive_optimum,
    infer_precedences,
    median_completion_times,
    parse_profile,
    profile_cost,
    RuleSpec,
    solve,
)
from consched.cli import FIXTURES, fixture_text
from references import (
    choice_decomposition,
    late_at_slot,
    reverse_profile,
    reverse_schedule,
    satisfied_by,
)

DIST, BIN = CriterionKind.DISTANCE, CriterionKind.BINARY


def load(name):
    return parse_profile(fixture_text(name))


def orders(result):
    return {s.order for s in result.optima}


def test_every_bundled_profile_parses():
    for name in FIXTURES:
        profile = load(name)
        assert profile.n >= 4


class TestSlots5x5:
    """Five voters contest slot 1 three ways; per-slot counts add up to T."""

    def test_slot_one_choice_counts(self):
        profile = load("slots5x5")
        slot_one = [c for c in choice_decomposition(profile) if c.slot == 1]
        counts = {}
        for c in slot_one:
            counts[c.task] = counts.get(c.task, 0) + 1
        assert counts == {1: 3, 2: 1, 3: 1}

    def test_slot_one_late_count_per_leading_task(self):
        profile = load("slots5x5")
        expected = {1: 2, 2: 4, 3: 4, 4: 5, 5: 5}
        for lead, k in expected.items():
            rest = [j for j in range(1, 6) if j != lead]
            schedule = Schedule(tuple([lead] + rest))
            assert late_at_slot(schedule, profile, 1) == k

    def test_identity_tardiness_is_sum_of_slot_counts(self):
        profile = load("slots5x5")
        identity = Schedule((1, 2, 3, 4, 5))
        total = profile_cost(identity, profile, DIST, EncodingKind.TARDINESS)
        assert total == 12
        assert total == sum(late_at_slot(identity, profile, y) for y in range(1, 6))


class TestTail8x6:
    """All six voters finish tasks 7 and 8 by slot 7; no optimum does."""

    OPTIMA = {
        (1, 2, 3, 4, 5, 6, 7, 8),
        (1, 2, 3, 4, 5, 6, 8, 7),
        (1, 2, 3, 4, 6, 5, 7, 8),
        (1, 2, 3, 4, 6, 5, 8, 7),
    }
    DEADLINE_BEST = {
        (1, 2, 3, 4, 5, 7, 8, 6),
        (1, 2, 3, 4, 5, 8, 7, 6),
        (1, 2, 3, 4, 6, 7, 8, 5),
        (1, 2, 3, 4, 6, 8, 7, 5),
    }

    def test_deviation_optima_frozen_set(self):
        res = exhaustive_optimum(load("tail8x6"), DIST, EncodingKind.DEVIATION)
        assert res.best_cost == 54
        assert orders(res) == self.OPTIMA

    def test_identity_tardiness(self):
        profile = load("tail8x6")
        assert (
            profile_cost(Schedule((1, 2, 3, 4, 5, 6, 7, 8)), profile, DIST, EncodingKind.TARDINESS)
            == 27
        )

    def test_every_optimum_breaks_the_unanimous_deadline(self):
        profile = load("tail8x6")
        for order in self.OPTIMA:
            report = check_deadline_consistency(Schedule(order), profile)
            assert not report.ok
            assert {v.task for v in report.violations} <= {7, 8}

    def test_identity_deadline_violation_detail(self):
        report = check_deadline_consistency(Schedule((1, 2, 3, 4, 5, 6, 7, 8)), load("tail8x6"))
        assert report.violations == ((8, (0, 7), 8),) or [
            (v.task, v.window, v.got) for v in report.violations
        ] == [(8, (0, 7), 8)]

    def test_deadline_filtered_best_is_56(self):
        res = constrained_best(load("tail8x6"), DIST, EncodingKind.DEVIATION, axiom="deadline")
        assert res.best_cost == 56
        assert orders(res) == self.DEADLINE_BEST

    def test_reversal_maps_deadline_story_to_release_story(self):
        reversed_profile = reverse_profile(load("tail8x6"))
        res = exhaustive_optimum(reversed_profile, DIST, EncodingKind.DEVIATION)
        assert res.best_cost == 54
        assert orders(res) == {reverse_schedule(Schedule(o)).order for o in self.OPTIMA}
        filtered = constrained_best(
            reversed_profile, DIST, EncodingKind.DEVIATION, axiom="release"
        )
        assert filtered.best_cost == 56
        assert orders(filtered) == {
            reverse_schedule(Schedule(o)).order for o in self.DEADLINE_BEST
        }


class TestLate7x3:
    """Both late-count optima park one of tasks 1/4 beyond all its deadlines."""

    def test_late_count_optima_frozen_pair(self):
        res = exhaustive_optimum(load("late7x3"), BIN, EncodingKind.LATE_TASKS)
        assert res.best_cost == 3
        assert orders(res) == {(1, 2, 3, 5, 6, 7, 4), (4, 2, 3, 5, 6, 7, 1)}

    def test_solver_picks_the_lex_greater_optimum(self):
        solution = solve(load("late7x3"), RuleSpec(rule="binary", encoding="late_tasks"))
        schedule, cost = solution.schedule, solution.cost
        assert schedule.order == (4, 2, 3, 5, 6, 7, 1)
        assert cost == 3

    def test_both_optima_violate_deadline_consistency(self):
        profile = load("late7x3")
        for order in ((1, 2, 3, 5, 6, 7, 4), (4, 2, 3, 5, 6, 7, 1)):
            assert not check_deadline_consistency(Schedule(order), profile).ok

    def test_deadline_filtered_best_costs_one_more(self):
        res = constrained_best(load("late7x3"), BIN, EncodingKind.LATE_TASKS, axiom="deadline")
        assert res.best_cost == 4
        assert res.searched == 486

    def test_release_filter_keeps_the_optimum(self):
        res = constrained_best(load("late7x3"), BIN, EncodingKind.LATE_TASKS, axiom="release")
        assert res.best_cost == 3


class TestMedianFixtures:
    def test_first_profile_median_and_emd(self):
        profile = load("median4x3a")
        assert median_completion_times(profile) == (2, 3, 3, 4)
        schedule = emd_schedule(profile)
        assert schedule.order == (1, 2, 3, 4)
        release = check_release_consistency(schedule, profile)
        assert [(v.task, v.window, v.got) for v in release.violations] == [(1, (1, 4), 1)]
        unanimity = check_temporal_unanimity(schedule, profile)
        assert [(v.task, v.window, v.got) for v in unanimity.violations] == [(1, (1, 2), 1)]

    def test_second_profile_median_and_emd(self):
        profile = load("median4x3b")
        assert median_completion_times(profile) == (3, 1, 2, 2)
        schedule = emd_schedule(profile)
        assert schedule.order == (2, 3, 4, 1)
        deadline = check_deadline_consistency(schedule, profile)
        assert [v.task for v in deadline.violations] == [1]
        assert schedule.completion(1) == 4


class TestChain5x6:
    """Late-count is the one objective whose optimum can fight inferred order."""

    def test_inferred_edges(self):
        inferred = infer_precedences(load("chain5x6"))
        assert set(inferred.graph.edges) == {(1, 3), (2, 3), (2, 5), (4, 5)}

    def test_unconstrained_optimum_is_unique_and_violates(self):
        profile = load("chain5x6")
        res = exhaustive_optimum(profile, BIN, EncodingKind.LATE_TASKS)
        assert res.best_cost == 6
        assert orders(res) == {(1, 2, 5, 4, 3)}
        violating = Schedule((1, 2, 5, 4, 3))
        assert violating.completion(4) > violating.completion(5)  # breaks 4 -> 5

    def test_constrained_best_is_strictly_costlier(self):
        profile = load("chain5x6")
        inferred = infer_precedences(profile)
        res = exhaustive_optimum(
            profile, BIN, EncodingKind.LATE_TASKS, graph=inferred.graph
        )
        assert res.best_cost == 7
        assert orders(res) == {(1, 2, 4, 5, 3), (1, 4, 2, 5, 3), (4, 2, 5, 1, 3)}

    def test_solve_inferred_returns_feasible_costlier_schedule(self):
        profile = load("chain5x6")
        solution = solve(profile, RuleSpec("binary", EncodingKind.LATE_TASKS, prec="inferred"))
        schedule, cost = solution.schedule, solution.cost
        assert schedule.order == (4, 2, 5, 1, 3)
        assert cost == 7
        assert satisfied_by(infer_precedences(profile).graph, schedule)


class TestWindow8x6:
    """Interval twin of the tail profile: unanimity costs two units of distance."""

    def test_distance_optima_frozen_set(self):
        res = exhaustive_optimum(load("window8x6"), DIST)
        assert res.best_cost == 48
        assert orders(res) == TestTail8x6.OPTIMA

    def test_unanimity_filtered_best_is_50(self):
        res = constrained_best(load("window8x6"), DIST, axiom="unanimity")
        assert res.best_cost == 50
        assert orders(res) == TestTail8x6.DEADLINE_BEST

    def test_solver_output_flagged_by_unanimity_checker(self):
        profile = load("window8x6")
        solution = solve(profile, RuleSpec(rule="distance"))
        schedule, cost = solution.schedule, solution.cost
        assert cost == 48
        report = check_temporal_unanimity(schedule, profile)
        assert not report.ok
        assert {v.task for v in report.violations} <= {7, 8}
        assert all(v.window == (5, 7) for v in report.violations)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_text_round_trips_through_parser(name):
    text = fixture_text(name)
    profile = parse_profile(text)
    again = parse_profile(text)
    assert profile == again
