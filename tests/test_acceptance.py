"""Acceptance gate: one numbered pass/fail line per criterion.

Each test computes its criterion's sub-checks first, prints a single
`ACCEPTANCE <k> <name>: PASS|FAIL` line on the real stdout (so the line
survives pytest's capture), and only then asserts.  A FAIL line therefore
always reaches the console together with the failing test.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from conftest import profile_of, random_order_profile
from consched import (
    CriterionKind,
    EncodingKind,
    PrecedenceGraph,
    RuleSpec,
    Schedule,
    build_cost_matrix,
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
    constrained_best,
    emd_schedule,
    exhaustive_optimum,
    infer_precedences,
    kendall_tau_distance,
    median_completion_times,
    min_cost_assignment,
    parse_profile,
    profile_cost,
    repair_steps,
    solve,
    solve_with_graph,
    spearman_distance,
)
from consched import cli, experiment
from consched.cli import fixture_text
from references import entries, late_at_slot, satisfied_by

DIST, BIN = CriterionKind.DISTANCE, CriterionKind.BINARY
DEV, TAR, EAR = EncodingKind.DEVIATION, EncodingKind.TARDINESS, EncodingKind.EARLINESS
LATE, POS = EncodingKind.LATE_TASKS, EncodingKind.EXACT_POSITION

LINES: list[str] = []  # replayed by conftest.pytest_terminal_summary


def load(name):
    return parse_profile(fixture_text(name))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_tail_profile_distance_story():
    t0 = time.perf_counter()
    profile = load("tail8x6")
    solution = solve(profile, RuleSpec(rule="distance", encoding="deviation"))
    schedule, cost = solution.schedule, solution.cost
    res = exhaustive_optimum(profile, DIST, DEV)
    filtered = constrained_best(profile, DIST, DEV, axiom="deadline")
    elapsed = time.perf_counter() - t0

    cost_ok = cost == 54 and res.best_cost == 54
    count_ok = len(res.optima) == 2
    filter_ok = filtered.best_cost == 56
    ok = cost_ok and count_ok and filter_ok and elapsed < 1.0
    report(
        1,
        "tail profile: deviation optimum, optimum count, deadline filter",
        ok,
        f"cost={cost}, optima={len(res.optima)} (expected exactly 2), "
        f"deadline-filtered={filtered.best_cost}, {elapsed:.2f}s",
    )
    assert cost_ok and filter_ok and elapsed < 1.0
    assert count_ok, (
        f"expected exactly two deviation optima, enumeration found {len(res.optima)}: "
        f"{[s.order for s in res.optima]}"
    )


def test_criterion_02_late_count_profile_unique_optimum():
    t0 = time.perf_counter()
    profile = load("late7x3")
    solution = solve(profile, RuleSpec(rule="binary", encoding="late_tasks"))
    schedule, cost = solution.schedule, solution.cost
    res = exhaustive_optimum(profile, BIN, LATE)
    filtered = constrained_best(profile, BIN, LATE, axiom="deadline")
    elapsed = time.perf_counter() - t0

    cost_ok = cost == 3 and res.best_cost == 3
    unique_ok = res.optima == (Schedule((1, 2, 3, 5, 6, 7, 4)),)
    filter_ok = filtered.best_cost >= 4
    ok = cost_ok and unique_ok and filter_ok and elapsed < 1.0
    report(
        2,
        "late-count profile: cost 3, unique optimum, deadline filter >= 4",
        ok,
        f"cost={cost}, optima={[s.order for s in res.optima]} "
        f"(expected only (1,2,3,5,6,7,4)), deadline-filtered={filtered.best_cost}, "
        f"{elapsed:.2f}s",
    )
    assert cost_ok and filter_ok and elapsed < 1.0
    assert unique_ok, (
        f"expected the unique optimum (1,2,3,5,6,7,4), enumeration found "
        f"{[s.order for s in res.optima]}"
    )


def test_criterion_03_interval_profile_unanimity_gap():
    t0 = time.perf_counter()
    profile = load("window8x6")
    solution = solve(profile, RuleSpec(rule="distance"))
    schedule, cost = solution.schedule, solution.cost
    filtered = constrained_best(profile, DIST, axiom="unanimity")
    flagged = check_temporal_unanimity(schedule, profile)
    elapsed = time.perf_counter() - t0

    ok = (
        cost == 48
        and filtered.best_cost == 50
        and not flagged.ok
        and {v.task for v in flagged.violations} <= {7, 8}
        and elapsed < 1.0
    )
    report(
        3,
        "interval profile: cost 48, unanimity filter 50, checker flags 7/8",
        ok,
        f"cost={cost}, filtered={filtered.best_cost}, "
        f"flagged={sorted(v.task for v in flagged.violations)}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_04_inferred_precedence_strict_gap():
    t0 = time.perf_counter()
    profile = load("chain5x6")
    res = exhaustive_optimum(profile, BIN, LATE)
    inferred = infer_precedences(profile)
    solution = solve(profile, RuleSpec("binary", LATE, prec="inferred"))
    schedule, cost = solution.schedule, solution.cost
    elapsed = time.perf_counter() - t0

    unique_ok = res.optima == (Schedule((1, 2, 5, 4, 3)),)
    violates = not satisfied_by(inferred.graph, Schedule((1, 2, 5, 4, 3)))
    feasible = satisfied_by(inferred.graph, schedule)
    gap_ok = cost > res.best_cost
    ok = unique_ok and violates and feasible and gap_ok and elapsed < 1.0
    report(
        4,
        "inferred precedences force a strictly costlier late-count optimum",
        ok,
        f"unconstrained={res.best_cost} (unique={unique_ok}, violates edge={violates}), "
        f"constrained={cost} (feasible={feasible}), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_05_median_fixtures_and_checker_reports():
    profile_a, profile_b = load("median4x3a"), load("median4x3b")
    medians_a = median_completion_times(profile_a)
    medians_b = median_completion_times(profile_b)
    emd_a, emd_b = emd_schedule(profile_a), emd_schedule(profile_b)
    release = check_release_consistency(emd_a, profile_a)
    deadline = check_deadline_consistency(emd_b, profile_b)

    ok = (
        medians_a == (2, 3, 3, 4)
        and medians_b == (3, 1, 2, 2)
        and [(v.task, v.got) for v in release.violations] == [(1, 1)]
        and [v.task for v in deadline.violations] == [1]
    )
    report(
        5,
        "median tables and the reported release/deadline violations",
        ok,
        f"medians={medians_a}/{medians_b}, release={release.violations}, "
        f"deadline={deadline.violations}",
    )
    assert ok


def test_criterion_06_cost_identities_on_random_pairs():
    rng = random.Random(6)
    failures = []
    for trial in range(1000):
        n, v = rng.randint(2, 10), rng.randint(1, 10)
        profile = random_order_profile(rng, n, v)
        schedule = Schedule(tuple(rng.sample(range(1, n + 1), n)))
        dev = profile_cost(schedule, profile, DIST, DEV)
        tar = profile_cost(schedule, profile, DIST, TAR)
        ear = profile_cost(schedule, profile, DIST, EAR)
        slot_sum = sum(late_at_slot(schedule, profile, y) for y in range(1, n + 1))
        if not (dev == 2 * tar and tar == ear and tar == slot_sum):
            failures.append((trial, "aggregate", dev, tar, ear, slot_sum))
            continue
        for pref, _ in entries(profile):
            single = profile_of("order", [(pref.order, 1)])
            delta = kendall_tau_distance(schedule, single)
            rho = spearman_distance(schedule, single)
            if not (delta <= rho <= 2 * delta):
                failures.append((trial, "per-voter", delta, rho))
    ok = not failures
    report(
        6,
        "exact identities over 1,000 random (schedule, profile) pairs",
        ok,
        "Dev=2T, T=E, T=sum k_y, delta<=rho<=2delta" if ok else f"failures={failures[:3]}",
    )
    assert ok, failures[:5]


def test_criterion_07_matching_equals_oracle_all_encodings():
    t0 = time.perf_counter()
    combos = [(DIST, enc) for enc in (DEV, TAR, EAR, LATE, POS)]
    combos += [(BIN, enc) for enc in (DEV, TAR, EAR, LATE, POS)]
    rng = random.Random(7)
    mismatches = []
    for trial in range(200):
        n = rng.randint(2, 7)
        profile = random_order_profile(rng, n, rng.randint(1, 6))
        for criterion, encoding in combos:
            _, cost = min_cost_assignment(build_cost_matrix(profile, criterion, encoding))
            best = exhaustive_optimum(profile, criterion, encoding).best_cost
            if cost != best:
                mismatches.append((trial, criterion.value, encoding.value, cost, best))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    report(
        7,
        "matching equals oracle on 200 instances x 10 criterion/encoding pairs",
        ok,
        f"{elapsed:.1f}s" if ok else f"mismatches={mismatches[:3]}, {elapsed:.1f}s",
    )
    assert ok, mismatches[:5]


def test_criterion_08_emd_double_bound_experiment():
    t0 = time.perf_counter()
    reports = []
    trials_per_cell = 850
    seed = 800
    for n in (4, 5, 6, 7):
        for v in (3, 5, 7):
            config = experiment.ExperimentConfig(
                trials=trials_per_cell, n=n, v=v, seed=seed,
                generator="uniform_permutations", swaps=0, exact=True,
            )
            reports.append(experiment.run_ratio_experiment(config))
            seed += 1
    elapsed = time.perf_counter() - t0

    total = trials_per_cell * 12
    max_t = max(r.max_tardiness_ratio for r in reports)
    max_k = max(r.max_kendall_ratio for r in reports)
    slots = sum(r.slots_checked for r in reports)
    violations = [v for r in reports for v in r.violations]
    ok = (
        total >= 10_000
        and max_t <= 2.0
        and max_k <= 4.0
        and not violations
        and all(r.ok for r in reports)
        and elapsed < 600.0
    )
    report(
        8,
        "EMD double bound over >=10,000 uniform profiles",
        ok,
        f"trials={total}, max T-ratio={max_t:.3f}, max Kendall ratio={max_k:.3f}, "
        f"slot checks={slots}, violations={len(violations)}, {elapsed:.1f}s",
    )
    assert ok, violations[:5]


def test_criterion_09_repair_preserves_cost_within_swap_budget():
    rng = random.Random(9)
    failures = []
    for trial in range(300):
        n = rng.randint(2, 8)
        profile = random_order_profile(rng, n, rng.randint(1, 6))
        inferred = infer_precedences(profile)
        for encoding in (DEV, TAR):
            schedule, cost = min_cost_assignment(build_cost_matrix(profile, DIST, encoding))
            repaired, swaps = repair_steps(schedule, inferred)
            repaired_cost = profile_cost(repaired, profile, DIST, encoding)
            if not (
                satisfied_by(inferred.graph, repaired)
                and repaired_cost == cost
                and len(swaps) <= n * n
            ):
                failures.append((trial, encoding.value, cost, repaired_cost, len(swaps)))
    ok = not failures
    report(
        9,
        "repair keeps deviation/tardiness optimal within n^2 swaps (300 profiles)",
        ok,
        "" if ok else f"failures={failures[:3]}",
    )
    assert ok, failures[:5]


def test_criterion_10_graph_dp_equals_filtered_oracle():
    rng = random.Random(10)
    mismatches = []
    for trial in range(300):
        n = rng.randint(2, 8)
        profile = random_order_profile(rng, n, rng.randint(1, 5))
        topo = list(range(1, n + 1))
        rng.shuffle(topo)
        edges = frozenset(
            (topo[i], topo[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.25
        )
        graph = PrecedenceGraph(n=n, edges=edges)
        for criterion, encoding in ((DIST, TAR), (DIST, DEV), (BIN, LATE)):
            schedule, cost = solve_with_graph(profile, graph, criterion, encoding)
            best = exhaustive_optimum(profile, criterion, encoding, graph=graph).best_cost
            if cost != best or not satisfied_by(graph, schedule):
                mismatches.append((trial, encoding.value, cost, best))
    ok = not mismatches
    report(
        10,
        "subset DP equals precedence-filtered oracle (300 profile/DAG pairs)",
        ok,
        "tardiness, deviation, late_tasks" if ok else f"mismatches={mismatches[:3]}",
    )
    assert ok, mismatches[:5]


def test_criterion_11_scale_smoke_100_tasks_100_voters(tmp_path):
    path = tmp_path / "big.prof"
    assert cli.main(["gen", "--tasks", "100", "--voters", "100", "--seed", "1100",
                     "--out", str(path)]) == 0
    t0 = time.perf_counter()
    code = cli.main(
        ["solve", "--profile", str(path), "--rule", "distance", "--encoding", "deviation"]
    )
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 5.0
    report(
        11,
        "n=100, v=100 deviation solve under five seconds",
        ok,
        f"exit={code}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_12_hardness_substituted_by_properties():
    profile = load("chain5x6")
    unconstrained = exhaustive_optimum(profile, BIN, LATE).best_cost
    constrained = exhaustive_optimum(
        profile, BIN, LATE, graph=infer_precedences(profile).graph
    ).best_cost
    gap_ok = constrained > unconstrained
    report(
        12,
        "hardness claims carry no numeric artifact; substituted",
        gap_ok,
        "covered by criterion 10 (exact constrained solver) and the strict "
        f"inferred-precedence gap {unconstrained}->{constrained} of criterion 4",
    )
    assert gap_ok
