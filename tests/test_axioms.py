"""Axiom checkers and which rules satisfy them."""

from __future__ import annotations

import random

import pytest

from conftest import random_mixed_profile, random_order_profile, random_schedule
from consched import axioms
from consched.axioms import (
    AxiomReport,
    Violation,
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
)
from consched.model import (
    IntervalPreference,
    OrderPreference,
    PreferenceProfile,
    Schedule,
    parse_profile,
    reverse_profile,
    reverse_schedule,
)
from consched.rules import RuleSpec, emd_schedule, solve


def profile_with_unanimous_slot(rng: random.Random, n: int, v: int, task: int, slot: int):
    """Random order profile where every voter runs `task` at `slot`."""
    entries = []
    for _ in range(v):
        rest = [t for t in range(1, n + 1) if t != task]
        rng.shuffle(rest)
        order = rest[: slot - 1] + [task] + rest[slot - 1:]
        entries.append((OrderPreference(Schedule(tuple(order))), 1))
    return PreferenceProfile(mode="order", entries=tuple(entries))


class TestCheckers:
    def test_release_fires_on_too_early_completion(self):
        # all voters run task 3 in slot 2 or later; schedule starts with it
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1 3 2\npref 1 : 2 3 1\n"
        )
        report = check_release_consistency(Schedule((3, 1, 2)), profile)
        assert not report.ok
        assert [(v.task, v.window, v.got) for v in report.violations] == [(3, (1, 3), 1)]

    def test_deadline_fires_on_too_late_completion(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1 3 2\npref 1 : 3 1 2\n"
        )
        # both voters end task 3 by slot 2; schedule ends with it
        report = check_deadline_consistency(Schedule((1, 2, 3)), profile)
        assert [(v.task, v.window, v.got) for v in report.violations] == [(3, (0, 2), 3)]

    def test_unanimity_order_mode_needs_exact_slot_agreement(self):
        profile = profile_with_unanimous_slot(random.Random(0), 5, 4, task=2, slot=3)
        bad = Schedule((2, 1, 3, 4, 5))  # task 2 in slot 1, agreed slot is 3
        report = check_temporal_unanimity(bad, profile)
        assert [(v.task, v.window, v.got) for v in report.violations] == [(2, (2, 3), 1)]
        good_order = [t for t in (1, 3, 4, 5)]
        good_order.insert(2, 2)
        assert check_temporal_unanimity(Schedule(tuple(good_order)), profile).ok

    def test_unanimity_interval_mode_needs_identical_windows(self):
        profile = parse_profile(
            "profile interval\ntasks 3\nvoters 2\n"
            "pref 1 : (0,2) (1,3) (0,3)\npref 1 : (0,2) (1,3) (1,2)\n"
        )
        # tasks 1 and 2 have unanimous windows, task 3 does not
        report = check_temporal_unanimity(Schedule((2, 3, 1)), profile)
        assert [(v.task, v.window, v.got) for v in report.violations] == [
            (1, (0, 2), 3),  # lands past its agreed deadline
            (2, (1, 3), 1),  # starts before its agreed release
        ]
        report = check_temporal_unanimity(Schedule((1, 2, 3)), profile)
        assert report.ok

    def test_order_only_checkers_reject_interval_mode(self):
        profile = parse_profile("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n")
        with pytest.raises(ValueError):
            check_release_consistency(Schedule((1, 2)), profile)
        with pytest.raises(ValueError):
            check_deadline_consistency(Schedule((1, 2)), profile)

    def test_reports_list_every_offending_task(self):
        profile = parse_profile("profile order\ntasks 4\nvoters 2\npref 2 : 4 3 2 1\n")
        report = check_deadline_consistency(Schedule((1, 2, 3, 4)), profile)
        assert {v.task for v in report.violations} == {3, 4}

    def test_violation_formula_is_exact(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            profile = random_order_profile(rng, n, rng.randint(1, 5))
            s = random_schedule(rng, n)
            comp = {j: s.completion(j) for j in range(1, n + 1)}
            mins = {
                j: min(p.schedule.completion(j) for p in profile.iter_voters())
                for j in range(1, n + 1)
            }
            maxs = {
                j: max(p.schedule.completion(j) for p in profile.iter_voters())
                for j in range(1, n + 1)
            }
            rel = {v.task for v in check_release_consistency(s, profile).violations}
            assert rel == {j for j in comp if comp[j] < mins[j]}
            dl = {v.task for v in check_deadline_consistency(s, profile).violations}
            assert dl == {j for j in comp if comp[j] > maxs[j]}
            un = {v.task for v in check_temporal_unanimity(s, profile).violations}
            assert un == {
                j for j in comp if mins[j] == maxs[j] and comp[j] != mins[j]
            }


class TestReversalDuality:
    def test_release_and_deadline_swap_under_reversal(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            profile = random_order_profile(rng, n, rng.randint(1, 5))
            s = random_schedule(rng, n)
            rel = check_release_consistency(s, profile).violations
            dual = check_deadline_consistency(
                reverse_schedule(s), reverse_profile(profile)
            ).violations
            assert {v.task for v in rel} == {v.task for v in dual}
            flipped = {(v.task, n + 1 - v.got) for v in rel}
            assert flipped == {(v.task, v.got) for v in dual}


class TestRulesAgainstAxioms:
    @pytest.mark.parametrize("encoding", ["tardiness", "deviation", "earliness"])
    def test_distance_rule_output_fulfills_temporal_unanimity(self, encoding):
        # every summed-distance optimum places a unanimously-slotted task
        # at that slot, so the returned schedule must comply
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            profile = profile_with_unanimous_slot(
                rng, n, rng.randint(1, 5), task=rng.randint(1, n), slot=rng.randint(1, n)
            )
            schedule, _ = solve(profile, RuleSpec("distance", encoding))
            assert check_temporal_unanimity(schedule, profile).ok

    @pytest.mark.parametrize("encoding", ["late_tasks", "exact_position"])
    def test_binary_rule_admits_a_unanimity_consistent_optimum(self, encoding):
        # the binary guarantee is existential: among the optima, one always
        # complies (the solver's tie-break may legitimately pick another)
        from consched.criteria import CriterionKind
        from consched.oracle import constrained_best, exhaustive_optimum

        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            profile = profile_with_unanimous_slot(
                rng, n, rng.randint(1, 5), task=rng.randint(1, n), slot=rng.randint(1, n)
            )
            best = exhaustive_optimum(profile, CriterionKind.BINARY, encoding).best_cost
            consistent = constrained_best(
                profile, CriterionKind.BINARY, encoding, axiom="unanimity"
            ).best_cost
            assert consistent == best

    def test_binary_rule_admits_consistent_optimum_on_intervals(self):
        from consched.criteria import CriterionKind
        from consched.oracle import constrained_best, exhaustive_optimum

        from consched.model import validate_interval_preference

        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            slot = rng.randint(1, n)
            # each voter's windows come from a permutation placing task 1 at
            # the shared slot, then widen all other windows: individually
            # feasible by construction, unanimous exactly on task 1
            entries = []
            for _ in range(rng.randint(1, 4)):
                rest = [t for t in range(2, n + 1)]
                rng.shuffle(rest)
                order = rest[: slot - 1] + [1] + rest[slot - 1:]
                comp = Schedule(tuple(order)).completions()
                windows = []
                for task, c in enumerate(comp, start=1):
                    if task == 1:
                        windows.append((slot - 1, slot))
                    else:
                        windows.append((rng.randint(0, c - 1), rng.randint(c, n)))
                pref = IntervalPreference(tuple(windows))
                assert validate_interval_preference(pref)
                entries.append((pref, 1))
            profile = PreferenceProfile(mode="interval", entries=tuple(entries))
            best = exhaustive_optimum(profile, CriterionKind.BINARY).best_cost
            consistent = constrained_best(
                profile, CriterionKind.BINARY, axiom="unanimity"
            ).best_cost
            assert consistent == best

    def test_emd_can_break_every_axiom_the_exact_rules_keep(self):
        profile = parse_profile(
            "profile order\ntasks 4\nvoters 3\n"
            "pref 1 : 2 1 3 4\npref 1 : 3 1 2 4\npref 1 : 4 1 2 3\n"
        )
        med = emd_schedule(profile)
        assert med.order == (1, 2, 3, 4)
        report = check_temporal_unanimity(med, profile)
        assert [(v.task, v.window, v.got) for v in report.violations] == [(1, (1, 2), 1)]
        assert not check_release_consistency(med, profile).ok


def reference_completion_bounds(profile):
    """The former per-task (min, max) walk over ``entries``."""
    lo = [profile.n + 1] * profile.n
    hi = [0] * profile.n
    for pref, _ in profile.entries:
        for idx, c in enumerate(pref.schedule.completions()):
            lo[idx] = min(lo[idx], c)
            hi[idx] = max(hi[idx], c)
    return lo, hi


def reference_temporal_unanimity(schedule, profile):
    """The former checker: one set of windows per task, built from ``entries``."""
    violations = []
    for j in range(1, profile.n + 1):
        if profile.mode == "order":
            slots = {pref.schedule.completion(j) for pref, _ in profile.entries}
            if len(slots) != 1:
                continue
            c = slots.pop()
            window = (c - 1, c)
        else:
            windows = {pref.windows[j - 1] for pref, _ in profile.entries}
            if len(windows) != 1:
                continue
            window = windows.pop()
        got = schedule.completion(j)
        if not window[0] < got <= window[1]:
            violations.append(Violation(task=j, window=window, got=got))
    return AxiomReport("temporal_unanimity", tuple(violations))


def _report_key(report):
    """Everything a report holds, with the value types (no numpy ints may leak)."""
    return report.axiom, [
        (type(v.task), v.task, type(v.window[0]), v.window, type(v.got), v.got)
        for v in report.violations
    ]


class TestArrayCheckersMatchReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_order_profiles(self, seed):
        rng = random.Random(1300 + seed)
        n = rng.randint(1, 7)
        if seed % 3 == 0:
            profile = profile_with_unanimous_slot(
                rng, n, rng.randint(1, 4), task=rng.randint(1, n), slot=rng.randint(1, n)
            )
        else:
            profile = random_mixed_profile(rng, n, "order")
        lo, hi = reference_completion_bounds(profile)
        assert axioms._completion_bounds(profile) == (lo, hi)
        for _ in range(5):
            schedule = random_schedule(rng, n)
            assert _report_key(check_temporal_unanimity(schedule, profile)) == _report_key(
                reference_temporal_unanimity(schedule, profile)
            )
            release = check_release_consistency(schedule, profile)
            deadline = check_deadline_consistency(schedule, profile)
            assert [(v.task, v.window, v.got) for v in release.violations] == [
                (j, (lo[j - 1] - 1, n), schedule.completion(j))
                for j in range(1, n + 1) if schedule.completion(j) < lo[j - 1]
            ]
            assert [(v.task, v.window, v.got) for v in deadline.violations] == [
                (j, (0, hi[j - 1]), schedule.completion(j))
                for j in range(1, n + 1) if schedule.completion(j) > hi[j - 1]
            ]

    @pytest.mark.parametrize("seed", range(60))
    def test_interval_profiles(self, seed):
        rng = random.Random(1400 + seed)
        n = rng.randint(1, 7)
        profile = random_mixed_profile(rng, n, "interval")
        if seed % 2:  # one entry only: every window is unanimous
            profile = PreferenceProfile(mode="interval", entries=profile.entries[:1])
        for _ in range(5):
            schedule = random_schedule(rng, n)
            assert _report_key(check_temporal_unanimity(schedule, profile)) == _report_key(
                reference_temporal_unanimity(schedule, profile)
            )
