"""Exhaustive oracle: enumeration, filters, and the pairwise objective."""

from __future__ import annotations

import json
import random
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from conftest import random_mixed_profile, random_order_profile
from consched import _kernels, cli, oracle
from consched.axioms import (
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
)
from consched.criteria import (
    CriterionKind,
    interval_arrays,
    kendall_tau_distance,
    profile_cost,
)
from consched.errors import InfeasibleError, SizeLimitError
from consched.model import (
    EncodingKind,
    OrderPreference,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    parse_profile,
    serialize_profile,
)
from consched.oracle import (
    ORACLE_MAX_N,
    OracleResult,
    constrained_best,
    exhaustive_optimum,
    kendall_optimum,
    pair_weight_matrix,
)


class TestExhaustiveOptimum:
    def test_size_guard(self):
        n = ORACLE_MAX_N + 1
        profile = PreferenceProfile(
            mode="order",
            entries=((OrderPreference(Schedule(tuple(range(1, n + 1)))), 1),),
        )
        with pytest.raises(SizeLimitError):
            exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)

    def test_searched_counts_all_permutations(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 1\npref 1 : 1 2 3 4\n")
        res = exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
        assert res.searched == factorial(4)
        assert res.best_cost == 0
        assert res.optima == (Schedule((1, 2, 3, 4)),)

    def test_optima_reprice_to_best_and_are_lexicographic(self):
        for seed in range(15):
            rng = random.Random(seed)
            profile = random_order_profile(rng, rng.randint(2, 6), rng.randint(1, 5))
            res = exhaustive_optimum(profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
            orders = [s.order for s in res.optima]
            assert orders == sorted(orders)
            for s in res.optima:
                assert (
                    profile_cost(s, profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS)
                    == res.best_cost
                )
            # everything not listed costs strictly more
            listed = set(orders)
            for perm in permutations(range(1, profile.n + 1)):
                if perm not in listed:
                    s = Schedule(perm)
                    assert (
                        profile_cost(
                            s, profile, CriterionKind.BINARY, EncodingKind.LATE_TASKS
                        )
                        > res.best_cost
                    )

    def test_windows_shrink_the_search(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 1\npref 1 : 4 3 2 1\n")
        windows = TimeWindows(((0, 1), (0, 4), (0, 4), (0, 4)))  # task 1 first
        res = exhaustive_optimum(
            profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows=windows
        )
        assert res.searched == factorial(3)
        assert all(s.completion(1) == 1 for s in res.optima)

    def test_graph_filter_equals_manual_filter(self):
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            profile = random_order_profile(rng, n, 3)
            a, b = rng.sample(range(1, n + 1), 2)
            graph = PrecedenceGraph(n=n, edges=frozenset({(a, b)}))
            res = exhaustive_optimum(
                profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION, graph=graph
            )
            manual = min(
                profile_cost(
                    Schedule(p), profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION
                )
                for p in permutations(range(1, n + 1))
                if p.index(a) < p.index(b)
            )
            assert res.best_cost == manual
            assert res.searched == factorial(n) // 2

    def test_infeasible_constraints_raise(self):
        profile = parse_profile("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        windows = TimeWindows(((0, 1), (0, 1), (0, 3)))
        with pytest.raises(InfeasibleError):
            exhaustive_optimum(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, windows=windows
            )

    def test_interval_mode_forbids_encoding(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
        assert exhaustive_optimum(profile, CriterionKind.DISTANCE).best_cost == 0


class TestConstrainedBest:
    @pytest.mark.parametrize(
        "axiom, checker",
        [
            ("release", check_release_consistency),
            ("deadline", check_deadline_consistency),
            ("unanimity", check_temporal_unanimity),
        ],
    )
    def test_matches_checker_filtered_enumeration(self, axiom, checker):
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            profile = random_order_profile(rng, n, rng.randint(1, 4))
            res = constrained_best(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, axiom=axiom
            )
            manual = [
                profile_cost(
                    Schedule(p), profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS
                )
                for p in permutations(range(1, n + 1))
                if checker(Schedule(p), profile).ok
            ]
            assert res.searched == len(manual)
            assert res.best_cost == min(manual)

    def test_release_needs_order_mode(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            constrained_best(profile, CriterionKind.DISTANCE, axiom="release")

    def test_unknown_axiom_rejected(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with pytest.raises(ValueError):
            constrained_best(
                profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS, axiom="karma"
            )


class TestKendall:
    def test_pair_weight_matrix_counts_orderings(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 3\npref 2 : 1 2 3\npref 1 : 3 2 1\n"
        )
        w = pair_weight_matrix(profile)
        assert w[0, 1] == 2 and w[1, 0] == 1  # 1 before 2 twice, after once
        assert w[0, 2] == 2 and w[2, 0] == 1
        assert w[1, 2] == 2 and w[2, 1] == 1
        assert w.diagonal().tolist() == [0, 0, 0]

    def test_kendall_optimum_matches_enumeration(self):
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            profile = random_order_profile(rng, n, rng.randint(1, 5))
            res = kendall_optimum(profile)
            manual = min(
                kendall_tau_distance(Schedule(p), profile)
                for p in permutations(range(1, n + 1))
            )
            assert res.best_cost == manual
            for s in res.optima:
                assert kendall_tau_distance(s, profile) == manual

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kendall_optimum_matches_former_sweep(self, n):
        rng = random.Random(1500 + n)
        for _ in range(4):
            profile = random_mixed_profile(rng, n, "order")
            assert kendall_optimum(profile) == reference_kendall_optimum(profile)

    def test_unanimous_profile_has_zero_kendall_optimum(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 3\npref 3 : 2 4 1 3\n")
        res = kendall_optimum(profile)
        assert res.best_cost == 0
        assert res.optima == (Schedule((2, 4, 1, 3)),)


def reference_kendall_optimum(profile):
    """The former Kendall oracle: all n(n-1)/2 pair weights gathered per permutation."""
    n = profile.n
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    w = pair_weight_matrix(profile)
    iu, iw = np.triu_indices(n, k=1)
    costs = w[perms[:, iw] - 1, perms[:, iu] - 1].sum(axis=1)
    best = int(costs.min())
    optima = tuple(Schedule(tuple(int(t) for t in row)) for row in perms[costs == best])
    return OracleResult(best_cost=best, optima=optima, searched=len(perms))


def reference_perm_costs(perms, rel, due, mult, binary):
    """The oracle's former pricing: one sweep over all permutations per voter.

    ``perms`` holds one order per row; completions are recovered by argsort,
    so neither the cached tables nor the per-(task, completion) table is used.
    """
    comp = np.argsort(perms, axis=1) + 1
    out = np.zeros(len(perms), dtype=np.int64)
    for k in range(len(rel)):
        if binary:
            s = ((comp > due[k]) | (comp <= rel[k])).sum(axis=1)
        else:
            s = (np.maximum(comp - due[k], 0) + np.maximum(rel[k] - comp + 1, 0)).sum(axis=1)
        out += mult[k] * s
    return out


def reference_oracle(profile, criterion, encoding, windows=None, graph=None, axiom=None):
    """The former oracle end to end: itertools enumeration, per-voter sweep, filters."""
    n = profile.n
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    comp = np.argsort(perms, axis=1) + 1
    feasible = np.ones(len(perms), dtype=bool)
    if windows is not None:
        wr, wd = np.array(windows.windows, dtype=np.int64).T
        feasible &= ((comp > wr) & (comp <= wd)).all(axis=1)
    if graph is not None:
        for a, b in graph.edges:
            feasible &= comp[:, a - 1] < comp[:, b - 1]
    if axiom in ("release", "deadline"):
        voters = np.array([p.schedule.completions() for p, _ in profile.entries])
        if axiom == "release":
            feasible &= (comp >= voters.min(axis=0)).all(axis=1)
        else:
            feasible &= (comp <= voters.max(axis=0)).all(axis=1)
    elif axiom == "unanimity":
        if profile.mode == "order":
            voters = np.array([p.schedule.completions() for p, _ in profile.entries])
            unanimous = (voters == voters[0]).all(axis=0)
            lo, hi = voters[0] - 1, voters[0]
        else:
            rel = np.array([[r for r, _ in p.windows] for p, _ in profile.entries])
            due = np.array([[d for _, d in p.windows] for p, _ in profile.entries])
            unanimous = (rel == rel[0]).all(axis=0) & (due == due[0]).all(axis=0)
            lo, hi = rel[0], due[0]
        for j in np.flatnonzero(unanimous):
            feasible &= (comp[:, j] > lo[j]) & (comp[:, j] <= hi[j])
    rel, due, mult = interval_arrays(profile, encoding)
    costs = reference_perm_costs(perms, rel, due, mult, criterion is CriterionKind.BINARY)
    if not feasible.any():
        raise InfeasibleError("no permutation satisfies the constraints")
    masked = np.where(feasible, costs, np.iinfo(np.int64).max)
    best = int(masked.min())
    optima = tuple(Schedule(tuple(int(t) for t in row)) for row in perms[masked == best])
    return OracleResult(best_cost=best, optima=optima, searched=int(feasible.sum()))


def _cases(rng, n):
    """(profile, criterion, encoding) over both modes, both criteria, every encoding."""
    for mode in ("order", "interval"):
        profile = random_mixed_profile(rng, n, mode)
        encodings = list(EncodingKind) if mode == "order" else [None]
        for criterion in CriterionKind:
            for encoding in encodings:
                yield profile, criterion, encoding


def _random_windows(rng, n):
    return TimeWindows(
        tuple((r, rng.randint(r + 1, n)) for r in (rng.randint(0, n - 1) for _ in range(n)))
    )


class TestPricingMatchesPerVoterSweep:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cost_vector_equals_sweep(self, n):
        rng = random.Random(600 + n)
        perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
        comp = _kernels.completions_table(n)
        for _ in range(2):
            for profile, criterion, encoding in _cases(rng, n):
                rel, due, mult = interval_arrays(profile, encoding)
                want = reference_perm_costs(
                    perms, rel, due, mult, criterion is CriterionKind.BINARY
                )
                got = oracle._costs(profile, criterion, encoding, comp)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (n, criterion, encoding)

    def test_identical_voters_at_large_multiplicity(self):
        pref = OrderPreference(Schedule((3, 1, 4, 2, 5)))
        profile = PreferenceProfile(mode="order", entries=((pref, 1 << 40), (pref, 7)))
        perms = np.array(list(permutations(range(1, 6))), dtype=np.int64)
        for criterion in CriterionKind:
            for encoding in EncodingKind:
                rel, due, mult = interval_arrays(profile, encoding)
                want = reference_perm_costs(
                    perms, rel, due, mult, criterion is CriterionKind.BINARY
                )
                got = oracle._costs(profile, criterion, encoding, _kernels.completions_table(5))
                assert np.array_equal(got, want)
                res = exhaustive_optimum(profile, criterion, encoding)
                assert res == reference_oracle(profile, criterion, encoding)
                assert Schedule((3, 1, 4, 2, 5)) in res.optima

    def test_perm_costs_match_profile_cost(self):
        rng = random.Random(3)
        profile = random_order_profile(rng, 5, 4)
        perms = _kernels.perm_table(5)
        comp = _kernels.completions_table(5)
        for encoding in (EncodingKind.TARDINESS, EncodingKind.EXACT_POSITION):
            dist = oracle._costs(profile, CriterionKind.DISTANCE, encoding, comp)
            binary = oracle._costs(profile, CriterionKind.BINARY, encoding, comp)
            for _ in range(10):
                row = rng.randrange(len(perms))
                s = Schedule(tuple(int(x) for x in perms[row]))
                assert dist[row] == profile_cost(s, profile, CriterionKind.DISTANCE, encoding)
                assert binary[row] == profile_cost(s, profile, CriterionKind.BINARY, encoding)


class TestResultMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_with_windows(self, seed):
        rng = random.Random(700 + seed)
        n = rng.randint(1, 7)
        for profile, criterion, encoding in _cases(rng, n):
            windows = _random_windows(rng, n)
            try:
                want = reference_oracle(profile, criterion, encoding, windows=windows)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    exhaustive_optimum(profile, criterion, encoding, windows=windows)
                continue
            assert exhaustive_optimum(profile, criterion, encoding, windows=windows) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_with_precedence_graph(self, seed):
        rng = random.Random(800 + seed)
        n = rng.randint(2, 7)
        for profile, criterion, encoding in _cases(rng, n):
            edges = frozenset(
                (a, b)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                if rng.random() < 0.25
            )
            graph = PrecedenceGraph(n=n, edges=edges)
            got = exhaustive_optimum(profile, criterion, encoding, graph=graph)
            assert got == reference_oracle(profile, criterion, encoding, graph=graph)

    @pytest.mark.parametrize("axiom", ["release", "deadline", "unanimity"])
    def test_with_axiom_filter(self, axiom):
        rng = random.Random(900)
        for trial in range(12):
            n = trial % 6 + 2
            for profile, criterion, encoding in _cases(rng, n):
                if profile.mode == "interval" and axiom != "unanimity":
                    continue
                got = constrained_best(profile, criterion, encoding, axiom=axiom)
                assert got == reference_oracle(profile, criterion, encoding, axiom=axiom)


class TestScale:
    def test_peak_memory_stays_small(self):
        # The per-voter sweep over int64 completions peaked at ~80 MB here.
        profile = cli.generate_profile(9, 20, seed=1)
        _kernels.perm_table.cache_clear()  # measure the cold call, tables included
        _kernels.completions_table.cache_clear()
        tracemalloc.start()
        try:
            exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_n10_best_cost_equals_matching(self, tmp_path, capsys):
        profile = cli.generate_profile(10, 20, seed=2)
        path = tmp_path / "ten.prof"
        path.write_text(serialize_profile(profile))
        code = cli.main([
            "solve", "--profile", str(path), "--rule", "distance",
            "--encoding", "deviation", "--method", "matching", "--format", "json",
        ])
        assert code == cli.EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        res = exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
        assert res.searched == factorial(10)
        assert res.best_cost == solved["cost"]
        assert Schedule(tuple(solved["schedule"])) in res.optima
