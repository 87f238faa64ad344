"""Inferred precedences: extraction, repair, constrained optimization."""

from __future__ import annotations

import random

import pytest

from conftest import random_order_profile, random_schedule
from consched.criteria import CriterionKind, profile_cost
from consched.errors import SizeLimitError
from consched.model import (
    EncodingKind,
    OrderPreference,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    parse_profile,
)
from consched.oracle import exhaustive_optimum
from consched.precedence import (
    DEFAULT_DP_LIMIT,
    infer_precedences,
    repair_steps,
    repair_to_inferred,
    solve_inferred,
    solve_with_graph,
)
from consched.rules import RuleSpec, solve


class TestInferPrecedences:
    def test_unanimous_profile_yields_full_chain(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 2\npref 2 : 2 3 1\n")
        edges = infer_precedences(profile).graph.edges
        assert edges == {(2, 3), (2, 1), (3, 1)}

    def test_opposed_voters_yield_no_edges(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1 2 3\npref 1 : 3 2 1\n"
        )
        assert infer_precedences(profile).graph.edges == frozenset()

    def test_matches_naive_double_loop(self):
        for seed in range(30):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 7), rng.randint(1, 5))
            edges = infer_precedences(profile).graph.edges
            naive = {
                (a, b)
                for a in range(1, profile.n + 1)
                for b in range(1, profile.n + 1)
                if a != b
                and all(
                    p.schedule.completion(a) < p.schedule.completion(b)
                    for p in profile.iter_voters()
                )
            }
            assert edges == naive

    def test_inferred_graph_is_transitively_closed(self):
        for seed in range(30):
            rng = random.Random(100 + seed)
            profile = random_order_profile(rng, rng.randint(3, 7), rng.randint(1, 4))
            edges = infer_precedences(profile).graph.edges
            for a, b in edges:
                for c, d in edges:
                    if b == c:
                        assert (a, d) in edges

    def test_interval_mode_rejected(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            infer_precedences(profile)


class TestRepair:
    def test_satisfying_schedule_is_untouched(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 2\npref 2 : 1 2 3 4\n")
        prec = infer_precedences(profile)
        fixed, swaps = repair_steps(Schedule((1, 2, 3, 4)), prec)
        assert fixed.order == (1, 2, 3, 4)
        assert swaps == []

    def test_reversed_chain_walks_back_step_by_step(self):
        # unanimous (3, 2, 1) infers 3->2, 3->1, 2->1; repairing (1, 2, 3)
        # processes task 1 (swapping with 2, then 3), then task 2
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 3 2 1\n")
        prec = infer_precedences(profile)
        fixed, swaps = repair_steps(Schedule((1, 2, 3)), prec)
        assert fixed.order == (3, 2, 1)
        assert swaps == [(1, 2), (1, 3), (2, 3)]

    def test_repair_result_always_satisfies_graph(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            profile = random_order_profile(rng, n, rng.randint(1, 5))
            prec = infer_precedences(profile)
            start = random_schedule(rng, n)
            fixed, swaps = repair_steps(start, prec)
            assert prec.graph.satisfied_by(fixed)
            assert len(swaps) <= n * n

    def test_repair_preserves_distance_optimality(self):
        # swapping an optimal schedule into inferred-feasibility never
        # changes its summed-distance cost
        for encoding in (EncodingKind.TARDINESS, EncodingKind.DEVIATION):
            for seed in range(40):
                rng = random.Random(seed)
                profile = random_order_profile(rng, rng.randint(2, 7), rng.randint(1, 5))
                base, base_cost = solve(profile, RuleSpec("distance", encoding))
                prec = infer_precedences(profile)
                fixed = repair_to_inferred(base, prec)
                assert prec.graph.satisfied_by(fixed)
                assert (
                    profile_cost(fixed, profile, CriterionKind.DISTANCE, encoding)
                    == base_cost
                )


class TestSolveInferred:
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_distance_matches_graph_filtered_oracle(self, encoding):
        for seed in range(20):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 6), rng.randint(1, 5))
            schedule, cost = solve_inferred(profile, encoding, CriterionKind.DISTANCE)
            graph = infer_precedences(profile).graph
            assert graph.satisfied_by(schedule)
            oracle = exhaustive_optimum(
                profile, CriterionKind.DISTANCE, encoding, graph=graph
            )
            assert cost == oracle.best_cost
            assert profile_cost(schedule, profile, CriterionKind.DISTANCE, encoding) == cost

    def test_distance_constrained_cost_equals_unconstrained(self):
        # the repair argument: some unconstrained distance optimum always
        # satisfies the inferred edges
        for seed in range(30):
            rng = random.Random(500 + seed)
            profile = random_order_profile(rng, rng.randint(2, 7), rng.randint(1, 5))
            _, unconstrained = solve(profile, RuleSpec("distance", "tardiness"))
            _, constrained = solve_inferred(profile, "tardiness")
            assert constrained == unconstrained

    @pytest.mark.parametrize("encoding", [EncodingKind.LATE_TASKS, EncodingKind.EXACT_POSITION])
    def test_binary_matches_graph_filtered_oracle(self, encoding):
        for seed in range(20):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 6), rng.randint(1, 5))
            schedule, cost = solve_inferred(profile, encoding)
            graph = infer_precedences(profile).graph
            assert graph.satisfied_by(schedule)
            oracle = exhaustive_optimum(profile, CriterionKind.BINARY, encoding, graph=graph)
            assert cost == oracle.best_cost

    def test_binary_constrained_can_cost_strictly_more(self):
        # the late-count criterion genuinely conflicts with inferred edges
        profile = parse_profile(
            "profile order\ntasks 5\nvoters 6\n"
            "pref 1 : 4 2 5 1 3\npref 3 : 1 4 2 5 3\npref 2 : 1 2 3 4 5\n"
        )
        unconstrained = exhaustive_optimum(
            profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS
        )
        _, constrained = solve_inferred(profile, EncodingKind.LATE_TASKS)
        assert constrained > unconstrained.best_cost


class TestSolveWithGraph:
    def test_empty_graph_equals_plain_matching(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 4))
            empty = PrecedenceGraph(n=n, edges=frozenset())
            _, dp_cost = solve_with_graph(
                profile, empty, CriterionKind.BINARY, EncodingKind.LATE_TASKS
            )
            _, match_cost = solve(profile, RuleSpec("binary", "late_tasks"))
            assert dp_cost == match_cost

    def test_explicit_graph_matches_filtered_oracle(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 4))
            edges = set()
            for _ in range(2):
                a, b = rng.sample(range(1, n + 1), 2)
                if (b, a) not in edges:
                    edges.add((a, b))
            try:
                graph = PrecedenceGraph(n=n, edges=frozenset(edges))
            except ValueError:
                continue  # sampled a cycle through transitivity
            schedule, cost = solve_with_graph(
                profile, graph, CriterionKind.DISTANCE, EncodingKind.TARDINESS
            )
            oracle = exhaustive_optimum(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, graph=graph
            )
            assert cost == oracle.best_cost
            assert graph.satisfied_by(schedule)

    def test_windows_and_graph_combine(self):
        for seed in range(15):
            rng = random.Random(3000 + seed)
            n = rng.randint(3, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 4))
            a, b = rng.sample(range(1, n + 1), 2)
            graph = PrecedenceGraph(n=n, edges=frozenset({(a, b)}))
            windows = TimeWindows(
                tuple((0, n - 1) if j == a else (0, n) for j in range(1, n + 1))
            )
            schedule, cost = solve_with_graph(
                profile, graph, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows
            )
            oracle = exhaustive_optimum(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows, graph
            )
            assert cost == oracle.best_cost
            assert schedule.completion(a) < schedule.completion(b) <= n

    def test_added_edges_never_reduce_cost(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            profile = random_order_profile(rng, n, 3)
            empty = PrecedenceGraph(n=n, edges=frozenset())
            a, b = rng.sample(range(1, n + 1), 2)
            one = PrecedenceGraph(n=n, edges=frozenset({(a, b)}))
            _, free = solve_with_graph(profile, empty, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
            _, bound = solve_with_graph(profile, one, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
            assert bound >= free

    def test_empty_graph_at_the_size_limit_equals_matching(self):
        # n = 20 is past the oracle's reach; the matching is the exact reference.
        n = DEFAULT_DP_LIMIT
        profile = random_order_profile(random.Random(2020), n, 7)
        empty = PrecedenceGraph(n=n, edges=frozenset())
        _, dp_cost = solve_with_graph(
            profile, empty, CriterionKind.DISTANCE, EncodingKind.DEVIATION
        )
        _, match_cost = solve(profile, RuleSpec("distance", "deviation"))
        assert dp_cost == match_cost

    def test_size_guard(self):
        n = DEFAULT_DP_LIMIT + 1
        order = tuple(range(1, n + 1))
        profile = PreferenceProfile(
            mode="order", entries=((OrderPreference(Schedule(order)), 1),)
        )
        graph = PrecedenceGraph(n=n, edges=frozenset())
        with pytest.raises(SizeLimitError):
            solve_with_graph(profile, graph, CriterionKind.BINARY, EncodingKind.LATE_TASKS)

    def test_size_limit_is_adjustable(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        graph = PrecedenceGraph(n=3, edges=frozenset())
        with pytest.raises(SizeLimitError):
            solve_with_graph(
                profile, graph, CriterionKind.BINARY, EncodingKind.LATE_TASKS, size_limit=2
            )
