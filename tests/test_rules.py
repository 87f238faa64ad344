"""Aggregation rules: medians, the median-date heuristic, exact solvers."""

from __future__ import annotations

import importlib
import random
import re

import pytest

from conftest import random_mixed_profile, random_order_profile
from consched.assignment import CostMatrix
from consched.criteria import CriterionKind, profile_cost
from consched.model import EncodingKind, PrecedenceGraph, Schedule, TimeWindows, parse_profile
from consched.oracle import exhaustive_optimum
from consched.precedence import infer_precedences
from consched.rules import (
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
            assert satisfied_by(infer_precedences(profile), schedule)


# Every voter completes task 3 before task 2, so inference gives 3 -> 2.
_CHECKED = "profile order\ntasks 4\nvoters 2\npref 1 : 3 2 1 4\npref 1 : 1 4 3 2\n"


class TestSolve:
    def test_unknown_rule_rejected(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError, match="unknown rule 'fastest'"):
            solve(profile, "fastest")

    @pytest.mark.parametrize("argument, message", [
        ({"encoding": "latest"}, "unknown encoding 'latest' (expected one of: deviation, "
                                 "tardiness, earliness, late_tasks, exact_position)"),
        ({"method": "fastest"}, "unknown method 'fastest'; expected one of ('auto', 'dp')"),
    ])
    def test_unknown_encoding_and_method_rejected(self, argument, message):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(profile, "distance", **{"encoding": "deviation", **argument})

    def test_emd_needs_order_mode(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            solve(profile, "emd")

    def test_exact_rules_need_encoding_on_order_mode(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError, match="encoding"):
            solve(profile, "distance")

    def test_emd_cost_uses_canonical_criterion(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 3\npref 1 : 1 2 3\npref 1 : 2 1 3\npref 1 : 1 3 2\n"
        )
        solution = solve(profile, "emd", "late_tasks")
        schedule, cost = solution.schedule, solution.cost
        assert cost == profile_cost(
            schedule, profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS
        )
        solution = solve(profile, "emd")
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
            solution = solve(profile, rule, encoding)
            schedule, cost = solution.schedule, solution.cost
            oracle = exhaustive_optimum(profile, CriterionKind(rule), encoding)
            assert cost == oracle.best_cost
            assert schedule in oracle.optima

    @pytest.mark.parametrize("text, rule, encoding, prec, path", [
        (None, "emd", None, None, "emd"),
        (None, "distance", "deviation", None, "matching"),
        (None, "binary", "late_tasks", "inferred", "matching"),  # its inferred graph has no edge
        (_CHECKED, "distance", "deviation", "inferred", "matching+repair"),
        (_CHECKED, "binary", "late_tasks", "inferred", "dp"),
    ], ids=["emd", "matching", "inferred-no-edge", "matching+repair", "inferred-dp"])
    def test_every_path_is_priced_once(self, monkeypatch, text, rule, encoding, prec, path):
        # The kernels return only the order; solve alone prices it.
        priced = []
        price = CostMatrix.price

        def counted(matrix, schedule):
            priced.append(schedule)
            return price(matrix, schedule)

        monkeypatch.setattr(CostMatrix, "price", counted)
        if text is None:
            profile = random_order_profile(random.Random(5), 6, 4)
        else:
            profile = parse_profile(text)
        solution = solve(profile, rule, encoding, prec=prec)
        assert solution.method == path
        assert priced == [solution.schedule]

    def test_windows_are_honored(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 2\npref 2 : 1 2 3\n")
        windows = TimeWindows(((2, 3), (0, 3), (0, 3)))  # task 1 pinned to slot 3
        solution = solve(profile, "distance", "tardiness", windows)
        schedule, cost = solution.schedule, solution.cost
        assert schedule.completion(1) == 3
        assert cost == 4  # task 1 runs two slots past both voters, rest on time

    @pytest.mark.parametrize("n, front", [
        (3, lambda profile, windows, prec: solve(profile, "emd", None, windows, prec)),
        (3, lambda profile, windows, prec: solve(profile, "distance", "deviation", windows, prec)),
        (3, lambda profile, windows, prec: solve(profile, "distance", "deviation", windows, prec,
                                                 method="dp")),
        (3, lambda profile, windows, prec: exhaustive_optimum(profile, "distance", "deviation",
                                                              windows, prec)),
        # Two faults at once: the misfit is named before the method is read
        # and before the oracle's size guard.
        (3, lambda profile, windows, prec: solve(profile, "distance", "deviation", windows, prec,
                                                 method="repair")),
        (11, lambda profile, windows, prec: exhaustive_optimum(profile, "distance", "deviation",
                                                               windows, prec)),
    ], ids=["emd", "matching", "dp", "oracle", "unknown-method", "oracle-past-its-guard"])
    def test_constraints_of_another_size_are_refused_on_every_path(self, n, front):
        # emd with windows and matching with a graph used to solve silently,
        # and dp refused the graph as covering another size of cost matrix.
        # solve and the oracle refuse each misfit with the same words.
        profile = parse_profile(f"profile order\ntasks {n}\nvoters 1\n"
                                f"pref 1 : {' '.join(map(str, range(1, n + 1)))}\n")
        for windows, prec, message in [
            (TimeWindows(((0, 2), (0, 2))), None, f"windows cover 2 tasks, profile has {n}"),
            (None, PrecedenceGraph(4, frozenset({(1, 2)})), f"graph covers 4 tasks, profile has {n}"),
            (None, "graph", "prec must be None, 'inferred' or a PrecedenceGraph: 'graph'"),
        ]:
            with pytest.raises(ValueError) as exc:
                front(profile, windows, prec)
            assert (type(exc.value), str(exc.value)) == (ValueError, message)

    def test_interval_mode_solves_without_encoding(self):
        profile = parse_profile(
            "profile interval\ntasks 3\nvoters 2\n"
            "pref 1 : (0,1) (1,2) (2,3)\npref 1 : (0,2) (0,2) (1,3)\n"
        )
        solution = solve(profile, "distance")
        schedule, cost = solution.schedule, solution.cost
        assert cost == 0
        assert schedule.order == (1, 2, 3)

    def test_canonical_criterion_mapping(self):
        assert canonical_criterion("deviation") is CriterionKind.DISTANCE
        assert canonical_criterion("tardiness") is CriterionKind.DISTANCE
        assert canonical_criterion("earliness") is CriterionKind.DISTANCE
        assert canonical_criterion("late_tasks") is CriterionKind.BINARY
        assert canonical_criterion("exact_position") is CriterionKind.BINARY


_WINDOWS = TimeWindows(((2, 4), (0, 4), (0, 4), (0, 4)))  # task 1 in slot 3 or 4
_BROKEN = Schedule((1, 2, 3, 4))  # task 1 in slot 1, task 2 before task 3
_OUT_OF_WINDOW = "task 1 completes at 1, outside its window (2,4]"
_EDGE_BROKEN = "task 3 completes at 3, not before task 2 at 2"


class TestConstraintCheck:
    """``solve`` checks every answer against the request's windows and graph.

    Each case replaces one path's kernel with one that returns a schedule the
    cost recheck accepts (the matrix and ``profile_cost`` price it alike) but
    that breaks a window or an edge of the request. The check must catch it.
    """

    @pytest.mark.parametrize("module, kernel, fake, request_, path, broken", [
        ("rules", "min_cost_assignment", lambda matrix: _BROKEN,
         dict(rule="distance", encoding="deviation", windows=_WINDOWS),
         "matching", _OUT_OF_WINDOW),
        ("precedence", "repair_steps", lambda schedule, graph: (_BROKEN, []),
         dict(rule="distance", encoding="deviation", prec="inferred"),
         "matching+repair", _EDGE_BROKEN),
        ("precedence", "solve_with_graph", lambda matrix, graph, limit: _BROKEN,
         dict(rule="binary", encoding="late_tasks", prec="inferred"), "dp", _EDGE_BROKEN),
        ("precedence", "solve_with_graph", lambda matrix, graph, limit: _BROKEN,
         dict(rule="binary", encoding="late_tasks", windows=_WINDOWS, method="dp"),
         "dp", _OUT_OF_WINDOW),
        ("rules", "emd_schedule", lambda profile: _BROKEN,
         dict(rule="emd", prec="inferred"), "emd", _EDGE_BROKEN),
    ], ids=["matching-window", "repair-edge", "dp-edge", "dp-window", "emd-edge"])
    def test_a_kernel_that_breaks_the_request_is_caught(self, monkeypatch, module, kernel, fake,
                                                        request_, path, broken):
        profile = parse_profile(_CHECKED)
        assert solve(profile, **request_).method == path
        monkeypatch.setattr(importlib.import_module(f"consched.{module}"), kernel, fake)
        with pytest.raises(AssertionError, match=rf"^{re.escape(broken)}$"):
            solve(profile, **request_)
