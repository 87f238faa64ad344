"""Inferred precedences: extraction, repair, constrained optimization."""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import profile_of, random_mixed_profile, random_order_profile, random_schedule
from consched.assignment import CostMatrix, build_cost_matrix
from consched.criteria import CriterionKind, profile_cost
from consched.errors import DEFAULT_DP_LIMIT, SizeLimitError
from consched.model import (
    EncodingKind,
    PrecedenceGraph,
    Schedule,
    TimeWindows,
    parse_profile,
)
from consched.oracle import exhaustive_optimum
from consched.precedence import infer_precedences, repair_steps, solve_with_graph
from consched.rules import solve
from references import satisfied_by, voters


class TestInferPrecedences:
    def test_unanimous_profile_yields_full_chain(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 2\npref 2 : 2 3 1\n")
        edges = infer_precedences(profile).edges
        assert edges == {(2, 3), (2, 1), (3, 1)}

    def test_opposed_voters_yield_no_edges(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1 2 3\npref 1 : 3 2 1\n"
        )
        assert infer_precedences(profile).edges == frozenset()

    def test_matches_naive_double_loop(self):
        for seed in range(30):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 7), rng.randint(1, 5))
            edges = infer_precedences(profile).edges
            naive = {
                (a, b)
                for a in range(1, profile.n + 1)
                for b in range(1, profile.n + 1)
                if a != b
                and all(p.completion(a) < p.completion(b) for p in voters(profile))
            }
            assert edges == naive

    def test_inferred_graph_is_transitively_closed(self):
        for seed in range(30):
            rng = random.Random(100 + seed)
            profile = random_order_profile(rng, rng.randint(3, 7), rng.randint(1, 4))
            edges = infer_precedences(profile).edges
            for a, b in edges:
                for c, d in edges:
                    if b == c:
                        assert (a, d) in edges

    @staticmethod
    def always_before(profile):
        """Edges from the (distinct, n, n) comparison of every voter's completions."""
        comps = profile.completions
        a_idx, b_idx = np.nonzero((comps[:, :, None] < comps[:, None, :]).all(axis=0))
        return {(int(a) + 1, int(b) + 1) for a, b in zip(a_idx, b_idx)}

    def test_pair_weights_match_the_full_comparison_with_multiplicities(self):
        for seed in range(40):
            rng = random.Random(200 + seed)
            profile = random_mixed_profile(rng, rng.randint(1, 9), "order")
            assert infer_precedences(profile).edges == self.always_before(profile)

    def test_identical_voters_yield_a_complete_dag(self):
        order = (4, 1, 5, 3, 2)
        profile = profile_of("order", [(order, 1 << 40), (order, 3)])
        edges = infer_precedences(profile).edges
        assert edges == {(a, b) for i, a in enumerate(order) for b in order[i + 1:]}
        assert edges == self.always_before(profile)

    def test_one_task_has_no_edges(self):
        profile = profile_of("order", [((1,), 2)])
        assert infer_precedences(profile).edges == frozenset()

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
        # swaps slot 1's task 1 with its closest later predecessor 2, then 2
        # with 3, and slot 2's task 1 with 2
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 3 2 1\n")
        prec = infer_precedences(profile)
        fixed, swaps = repair_steps(Schedule((1, 2, 3)), prec)
        assert fixed.order == (3, 2, 1)
        assert swaps == [(1, 2), (2, 3), (1, 2)]
        # the reversed total order takes one swap per pair: the bound is tight
        n = 60
        edges = frozenset((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))
        total = PrecedenceGraph(n, edges)
        fixed, swaps = repair_steps(Schedule(tuple(range(n, 0, -1))), total)
        assert fixed.order == tuple(range(1, n + 1))
        assert len(swaps) == n * (n - 1) // 2 == 1770

    def test_repair_result_always_satisfies_graph(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            profile = random_order_profile(rng, n, rng.randint(1, 5))
            prec = infer_precedences(profile)
            start = random_schedule(rng, n)
            fixed, swaps = repair_steps(start, prec)
            assert satisfied_by(prec, fixed)
            assert len(swaps) <= n * (n - 1) // 2

    def test_graph_that_is_not_closed_is_met_through_its_own_edges(self):
        # Slot 2's task 4 passes its parent 7 first, so slot 3's task 6 then
        # finds 4 behind it and passes it too: 6 goes behind its ancestor 7
        # with no edge 7 -> 6. Past 4 alone it would give (2, 7, 6, 4, 5, 3, 1).
        prec = PrecedenceGraph(7, frozenset({(2, 3), (4, 6), (7, 4), (7, 5)}))
        fixed, swaps = repair_steps(Schedule((2, 4, 6, 7, 5, 3, 1)), prec)
        assert fixed.order == (2, 7, 4, 6, 5, 3, 1)
        assert swaps == [(4, 7), (6, 4)]
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            hidden = random_schedule(rng, n).order
            pairs = (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(1, n)))
            prec = PrecedenceGraph(n, frozenset((hidden[a], hidden[b]) for a, b in pairs))
            fixed, swaps = repair_steps(random_schedule(rng, n), prec)
            assert satisfied_by(prec, fixed)
            assert len(swaps) <= n * (n - 1) // 2

    def test_repair_preserves_distance_optimality(self):
        # Each swap moves x behind a predecessor y that every voter completes
        # first, so no distance cost rises: an optimum stays optimal, and a
        # random schedule gets no dearer at any step of the swap log. The
        # graphs are the inferred one and a random subset of its edges, which
        # need not be transitively closed.
        for encoding in EncodingKind:
            for seed in range(40):
                rng = random.Random(seed)
                profile = random_order_profile(rng, rng.randint(2, 7), rng.randint(1, 5))
                solution = solve(profile, "distance", encoding)
                inferred = infer_precedences(profile)
                subset = frozenset(edge for edge in sorted(inferred.edges) if rng.random() < 0.5)
                for prec in (inferred, PrecedenceGraph(profile.n, subset)):
                    fixed, _ = repair_steps(solution.schedule, prec)
                    assert satisfied_by(prec, fixed)
                    assert (
                        profile_cost(fixed, profile, CriterionKind.DISTANCE, encoding)
                        == solution.cost
                    )
                    start = random_schedule(rng, profile.n)
                    order = list(start.order)
                    cost = profile_cost(start, profile, CriterionKind.DISTANCE, encoding)
                    for x, y in repair_steps(start, prec)[1]:
                        i, j = order.index(x), order.index(y)
                        order[i], order[j] = y, x
                        step = profile_cost(
                            Schedule(tuple(order)), profile, CriterionKind.DISTANCE, encoding
                        )
                        assert step <= cost
                        cost = step
                    assert satisfied_by(prec, Schedule(tuple(order)))


class TestSolveInferred:
    @pytest.mark.parametrize("encoding", list(EncodingKind))
    def test_distance_matches_graph_filtered_oracle(self, encoding):
        for seed in range(20):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 6), rng.randint(1, 5))
            solution = solve(profile, "distance", encoding, prec="inferred")
            schedule, cost = solution.schedule, solution.cost
            graph = infer_precedences(profile)
            assert satisfied_by(graph, schedule)
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
            unconstrained = solve(profile, "distance", "tardiness").cost
            constrained = solve(profile, "distance", "tardiness", prec="inferred").cost
            assert constrained == unconstrained

    @pytest.mark.parametrize("encoding", [EncodingKind.LATE_TASKS, EncodingKind.EXACT_POSITION])
    def test_binary_matches_graph_filtered_oracle(self, encoding):
        for seed in range(20):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 6), rng.randint(1, 5))
            solution = solve(profile, "binary", encoding, prec="inferred")
            schedule, cost = solution.schedule, solution.cost
            graph = infer_precedences(profile)
            assert satisfied_by(graph, schedule)
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
        constrained = solve(profile, "binary", EncodingKind.LATE_TASKS, prec="inferred").cost
        assert constrained > unconstrained.best_cost


class TestSolveWithGraph:
    def test_empty_graph_equals_plain_matching(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 4))
            empty = PrecedenceGraph(n=n, edges=frozenset())
            matrix = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
            dp_cost = matrix.price(solve_with_graph(matrix, empty))
            match_cost = solve(profile, "binary", "late_tasks").cost
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
            matrix = build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
            schedule = solve_with_graph(matrix, graph)
            cost = matrix.price(schedule)
            oracle = exhaustive_optimum(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, graph=graph
            )
            assert cost == oracle.best_cost
            assert satisfied_by(graph, schedule)

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
            matrix = build_cost_matrix(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows
            )
            schedule = solve_with_graph(matrix, graph)
            cost = matrix.price(schedule)
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
            matrix = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
            free = matrix.price(solve_with_graph(matrix, empty))
            bound = matrix.price(solve_with_graph(matrix, one))
            assert bound >= free

    def test_empty_graph_at_the_size_limit_equals_matching(self):
        # n = 20 is past the oracle's reach; the matching is the exact reference.
        n = DEFAULT_DP_LIMIT
        profile = random_order_profile(random.Random(2020), n, 7)
        empty = PrecedenceGraph(n=n, edges=frozenset())
        matrix = build_cost_matrix(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
        dp_cost = matrix.price(solve_with_graph(matrix, empty))
        match_cost = solve(profile, "distance", "deviation").cost
        assert dp_cost == match_cost

    def test_totals_past_int64_are_refused(self):
        # The DP's int64 table used to wrap and return (1, 2), which costs 3 * 2**62.
        big = 3 * 2**61
        with pytest.raises(ValueError, match=r"largest allowed entry must be below 2\^62"):
            CostMatrix(2, [[big, 0], [0, big]])
        edge = CostMatrix(2, [[2**61 - 1, 0], [0, 2**61 - 1]])  # n * C = 2^62 - 2
        assert solve_with_graph(edge, PrecedenceGraph(2, frozenset())) == Schedule((2, 1))
        forbidden = np.array([[True, False], [False, True]])  # only the 0 cells are allowed
        allowed = CostMatrix(2, [[big, 0], [0, big]], forbidden)
        assert solve_with_graph(allowed, PrecedenceGraph(2, frozenset())) == Schedule((2, 1))

    def test_size_guard(self):
        n = DEFAULT_DP_LIMIT + 1
        profile = profile_of("order", [(range(1, n + 1), 1)])
        graph = PrecedenceGraph(n=n, edges=frozenset())
        matrix = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
        with pytest.raises(SizeLimitError):
            solve_with_graph(matrix, graph)

    def test_size_limit_is_adjustable(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        graph = PrecedenceGraph(n=3, edges=frozenset())
        matrix = build_cost_matrix(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
        with pytest.raises(SizeLimitError):
            solve_with_graph(matrix, graph, size_limit=2)

    @pytest.mark.parametrize("limit", ["5", -1])
    def test_size_limit_must_be_a_count(self, limit):
        profile = random_order_profile(random.Random(7), 7, 3)
        with pytest.raises(ValueError, match="size_limit must be an int >= 0") as exc:
            solve(profile, "distance", "deviation", method="dp", dp_limit=limit)
        assert exc.value.method == "dp"
