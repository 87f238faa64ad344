"""Profile model: parsing, validation, encodings, reversal."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consched.errors import ProfileError
from consched.model import (
    EncodingKind,
    IntervalPreference,
    OrderPreference,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    order_to_interval,
    parse_precedence,
    parse_profile,
    parse_time_windows,
    reverse_profile,
    reverse_schedule,
    serialize_profile,
    validate_interval_preference,
)

perms = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestSchedule:
    def test_completion_is_one_based_slot(self):
        s = Schedule((3, 1, 2))
        assert s.completion(3) == 1
        assert s.completion(1) == 2
        assert s.completion(2) == 3
        assert s.completions() == (2, 3, 1)

    @pytest.mark.parametrize("order", [(), (1, 1), (1, 3), (0, 1), (2,)])
    def test_rejects_non_permutations(self, order):
        with pytest.raises(ValueError):
            Schedule(order)

    def test_str_is_space_separated(self):
        assert str(Schedule((2, 1))) == "2 1"


class TestParseProfile:
    def test_order_round_trip(self):
        text = (
            "profile order\n"
            "tasks 3\n"
            "voters 4\n"
            "pref 3 : 1 2 3\n"
            "pref 1 : 3 2 1\n"
        )
        profile = parse_profile(text)
        assert profile.mode == "order"
        assert profile.n == 3 and profile.v == 4
        assert serialize_profile(parse_profile(serialize_profile(profile))) == serialize_profile(profile)

    def test_interval_round_trip(self):
        text = (
            "profile interval\n"
            "tasks 2\n"
            "voters 2\n"
            "pref 1 : (0,1) (1,2)\n"
            "pref 1 : (0,2) (0,2)\n"
        )
        profile = parse_profile(text)
        assert profile.mode == "interval"
        again = parse_profile(serialize_profile(profile))
        assert again.entries == profile.entries

    def test_comments_and_blank_lines_ignored(self):
        text = "# hello\n\nprofile order\ntasks 2\nvoters 1\n# mid\npref 1 : 2 1\n"
        assert parse_profile(text).n == 2

    def test_accepts_file_objects(self, tmp_path):
        path = tmp_path / "p.prof"
        path.write_text("profile order\ntasks 2\nvoters 1\npref 1 : 1 2\n")
        with open(path) as fh:
            assert parse_profile(fh).v == 1

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("profile sideways\ntasks 2\nvoters 1\npref 1 : 1 2\n", 1, "order.*interval"),
            ("profile order\ntasks x\nvoters 1\npref 1 : 1 2\n", 2, "tasks"),
            ("profile order\ntasks 2\nvoters 1\nxref 1 : 1 2\n", 4, "pref"),
            ("profile order\ntasks 2\nvoters 1\npref 0 : 1 2\n", 4, "multiplicity"),
            ("profile order\ntasks 3\nvoters 1\npref 1 : 1 2\n", 4, "expected 3 task ids"),
            ("profile order\ntasks 2\nvoters 1\npref 1 : 1 1\n", 4, "permutation|duplicate"),
            ("profile order\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n", 4, "interval pair"),
            ("profile interval\ntasks 2\nvoters 1\npref 1 : (0,1)\n", 4, "pairs"),
            ("profile interval\ntasks 2\nvoters 1\npref 1 : (1,1) (0,2)\n", 4, "window"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno, message):
        with pytest.raises(ProfileError, match=rf"line {lineno}: .*({message})"):
            parse_profile(text)

    def test_multiplicities_must_sum_to_voters(self):
        text = "profile order\ntasks 2\nvoters 3\npref 1 : 1 2\npref 1 : 2 1\n"
        with pytest.raises(ProfileError, match="sum to 2.*voters 3"):
            parse_profile(text)

    @pytest.mark.parametrize("voters", [2 * (1 << 61), 1 << 63])
    def test_cost_totals_past_int64_rejected(self, voters):
        # v * n * (n + 1) bounds every cost total; past 2**63 - 1 it could wrap.
        text = f"profile order\ntasks 3\nvoters {voters}\npref {voters} : 1 2 3\n"
        with pytest.raises(ProfileError, match="line 3: .*overflow int64"):
            parse_profile(text)

    def test_cost_bound_is_inclusive(self):
        # 3 tasks: v * 12 <= 2**63 - 1 holds up to v = (2**63 - 1) // 12.
        voters = (2**63 - 1) // 12
        text = "profile order\ntasks 3\nvoters {0}\npref {0} : 1 2 3\n"
        assert parse_profile(text.format(voters)).v == voters
        with pytest.raises(ProfileError, match="overflow int64"):
            parse_profile(text.format(voters + 1))

    def test_unsatisfiable_interval_preference_is_rejected(self):
        # two tasks compete for the single first slot
        text = "profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (0,1)\n"
        with pytest.raises(ProfileError, match="line 4: .*no feasible schedule"):
            parse_profile(text)


class TestValidateIntervalPreference:
    # Frozen from an inline enumeration oracle: a window set is satisfiable
    # iff some permutation meets every (r, d), i.e. r < C <= d for all tasks.
    @staticmethod
    def brute_force(windows):
        n = len(windows)
        return any(
            all(w[0] < c <= w[1] for w, c in zip(windows, Schedule(p).completions()))
            for p in map(tuple, permutations(range(1, n + 1)))
        )

    def test_known_satisfiable_triple(self):
        windows = ((0, 1), (1, 3), (0, 3))
        assert self.brute_force(windows) is True
        assert validate_interval_preference(IntervalPreference(windows)) is True

    def test_known_unsatisfiable_triple(self):
        windows = ((0, 1), (0, 1), (0, 3))
        assert self.brute_force(windows) is False
        assert validate_interval_preference(IntervalPreference(windows)) is False

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(
                    lambda w: w[0] < w[1]
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_brute_force(self, windows):
        windows = tuple(windows)
        n = len(windows)
        pref = IntervalPreference(windows)
        assert validate_interval_preference(pref) is self.brute_force(windows)


class TestOrderToInterval:
    def test_single_slot_encodings_pin_the_position(self):
        pref = OrderPreference(Schedule((1, 2, 3)))
        for enc in (EncodingKind.DEVIATION, EncodingKind.EXACT_POSITION):
            assert order_to_interval(pref, enc).windows == ((0, 1), (1, 2), (2, 3))

    def test_prefix_encodings_open_the_release(self):
        pref = OrderPreference(Schedule((1, 2, 3)))
        for enc in (EncodingKind.TARDINESS, EncodingKind.LATE_TASKS):
            assert order_to_interval(pref, enc).windows == ((0, 1), (0, 2), (0, 3))

    def test_suffix_encoding_opens_the_deadline(self):
        pref = OrderPreference(Schedule((2, 1)))
        assert order_to_interval(pref, EncodingKind.EARLINESS).windows == ((1, 2), (0, 2))

    def test_windows_follow_the_preference_not_task_id(self):
        pref = OrderPreference(Schedule((3, 1, 2)))
        enc = order_to_interval(pref, EncodingKind.DEVIATION)
        assert enc.windows == ((1, 2), (2, 3), (0, 1))

    @given(perms, st.sampled_from(list(EncodingKind)))
    def test_every_encoding_is_satisfiable(self, order, encoding):
        pref = OrderPreference(Schedule(order))
        interval = order_to_interval(pref, encoding)
        assert validate_interval_preference(interval)
        # the preferred schedule itself always satisfies its own windows
        comps = Schedule(order).completions()
        assert all(r < c <= d for (r, d), c in zip(interval.windows, comps))


class TestReversal:
    def test_reverse_schedule(self):
        assert reverse_schedule(Schedule((1, 2, 3))).order == (3, 2, 1)

    @given(perms)
    def test_reverse_is_involutive(self, order):
        s = Schedule(order)
        assert reverse_schedule(reverse_schedule(s)) == s

    def test_reverse_profile_flips_every_entry(self):
        profile = parse_profile(
            "profile order\ntasks 3\nvoters 3\npref 2 : 1 2 3\npref 1 : 2 3 1\n"
        )
        flipped = reverse_profile(profile)
        assert [(e.schedule.order, m) for e, m in flipped.entries] == [
            ((3, 2, 1), 2),
            ((1, 3, 2), 1),
        ]

    def test_reverse_profile_rejects_interval_mode(self):
        profile = parse_profile(
            "profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (1,2)\n"
        )
        with pytest.raises(ValueError):
            reverse_profile(profile)


class TestPrecedenceGraph:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            PrecedenceGraph(n=2, edges=frozenset({(1, 2), (2, 1)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            PrecedenceGraph(n=2, edges=frozenset({(1, 1)}))

    def test_topological_order_respects_edges(self):
        g = PrecedenceGraph(n=4, edges=frozenset({(3, 1), (1, 4), (3, 4)}))
        topo = g.topological_order()
        assert sorted(topo) == [1, 2, 3, 4]
        assert topo.index(3) < topo.index(1) < topo.index(4)

    def test_satisfied_by(self):
        g = PrecedenceGraph(n=3, edges=frozenset({(2, 3)}))
        assert g.satisfied_by(Schedule((1, 2, 3)))
        assert not g.satisfied_by(Schedule((3, 2, 1)))

    def test_parse_precedence(self):
        g = parse_precedence("1 -> 2\n# c\n2 -> 3\n", 3)
        assert g.edges == {(1, 2), (2, 3)}

    @pytest.mark.parametrize("text", ["1 => 2\n", "1 -> x\n", "0 -> 2\n", "1 -> 4\n"])
    def test_parse_precedence_errors(self, text):
        with pytest.raises(ProfileError):
            parse_precedence(text, 3)


class TestParseTimeWindows:
    def test_defaults_to_whole_horizon(self):
        tw = parse_time_windows("task 2 : 1 3\n", 3)
        assert tw.windows == ((0, 3), (1, 3), (0, 3))
        assert tw.allows(2, 2) and tw.allows(2, 3) and not tw.allows(2, 1)

    def test_duplicate_task_rejected(self):
        with pytest.raises(ProfileError, match="duplicate"):
            parse_time_windows("task 1 : 0 2\ntask 1 : 0 1\n", 3)

    def test_bounds_checked(self):
        with pytest.raises(ProfileError):
            parse_time_windows("task 1 : 2 2\n", 3)


class TestProfileAccessors:
    def test_iter_voters_expands_multiplicities(self):
        profile = parse_profile(
            "profile order\ntasks 2\nvoters 3\npref 2 : 1 2\npref 1 : 2 1\n"
        )
        seen = [pref.schedule.order for pref in profile.iter_voters()]
        assert seen == [(1, 2), (1, 2), (2, 1)]

    def test_cost_bound_checked_on_construction(self):
        pref = OrderPreference(Schedule((1, 2, 3)))
        with pytest.raises(ProfileError, match="overflow int64"):
            PreferenceProfile(mode="order", entries=((pref, 1 << 61), (pref, 1 << 61)))

    def test_mismatched_sizes_rejected(self):
        a = OrderPreference(Schedule((1, 2)))
        b = OrderPreference(Schedule((1, 2, 3)))
        with pytest.raises(ValueError):
            PreferenceProfile(mode="order", entries=((a, 1), (b, 1)))
