"""Profile model: parsing, validation, encodings, reversal."""

from __future__ import annotations

import copy
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from conftest import profile_of
from consched import _lines, cli, model
from consched.assignment import CostMatrix
from consched.axioms import AxiomReport, Violation
from consched.experiment import ExperimentConfig, RatioReport, generate_profile
from consched.criteria import interval_arrays, profile_cost
from consched.errors import ProfileError
from consched.model import (
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    Schedule,
    TimeWindows,
    parse_precedence,
    parse_profile,
    parse_time_windows,
    serialize_profile,
)
from consched.oracle import OracleResult
from consched.rules import Solution, solve
from references import reference_parse_profile, reverse_profile, reverse_schedule, satisfied_by

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
        assert ref.entries(again) == ref.entries(profile) == [
            (((0, 1), (1, 2)), 1),
            (((0, 2), (0, 2)), 1),
        ]

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
            ("profile order\ntasks 0\nvoters 1\npref 1 : 1\n", 2, "task count must be >= 1"),
            ("profile order\ntasks 2\nvoters 0\npref 1 : 1 2\n", 3, "voter count must be >= 1"),
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

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "profile order\ntasks 2\nvoters 1\n# no pref line\n",
    ])
    def test_a_short_header_names_no_line(self, text):
        with pytest.raises(ProfileError) as exc:
            parse_profile(text)
        assert exc.value.line is None
        assert str(exc.value) == "profile needs a 3-line header and at least one pref line"

    def test_multiplicities_must_sum_to_voters(self):
        text = "profile order\ntasks 2\nvoters 3\npref 1 : 1 2\npref 1 : 2 1\n"
        with pytest.raises(ProfileError, match="sum to 2.*voters 3"):
            parse_profile(text)

    @pytest.mark.parametrize("voters", [2 * (1 << 61), 1 << 63])
    def test_cost_totals_past_int64_rejected(self, voters):
        # v * n * (n + 1) bounds every cost total; past 2**62 - 1 the matching could wrap.
        text = f"profile order\ntasks 3\nvoters {voters}\npref {voters} : 1 2 3\n"
        with pytest.raises(ProfileError, match="line 3: .*overflow int64"):
            parse_profile(text)

    def test_cost_bound_is_inclusive(self):
        # 3 tasks: v * 12 <= 2**62 - 1 holds up to v = (2**62 - 1) // 12.
        voters = (2**62 - 1) // 12
        text = "profile order\ntasks 3\nvoters {0}\npref {0} : 1 2 3\n"
        assert parse_profile(text.format(voters)).v == voters
        with pytest.raises(ProfileError, match="overflow int64"):
            parse_profile(text.format(voters + 1))

    def test_unsatisfiable_interval_preference_is_rejected(self):
        # two tasks compete for the single first slot
        text = "profile interval\ntasks 2\nvoters 1\npref 1 : (0,1) (0,1)\n"
        with pytest.raises(ProfileError, match="line 4: .*no feasible schedule"):
            parse_profile(text)


class TestIntervalFeasibility:
    # Frozen from an inline enumeration oracle: a window set is satisfiable
    # iff some permutation meets every (r, d), i.e. r < C <= d for all tasks.
    @staticmethod
    def brute_force(windows):
        n = len(windows)
        return any(
            all(w[0] < c <= w[1] for w, c in zip(windows, Schedule(p).completions()))
            for p in map(tuple, permutations(range(1, n + 1)))
        )

    @staticmethod
    def parses(windows):
        """Whether a one-voter interval profile with these windows parses."""
        try:
            profile_of("interval", [(windows, 1)])
        except ProfileError as exc:
            assert str(exc) == "line 4: windows admit no feasible schedule"
            return False
        return True

    def test_known_satisfiable_triple(self):
        windows = ((0, 1), (1, 3), (0, 3))
        assert self.brute_force(windows) is True
        assert self.parses(windows) is True

    def test_known_unsatisfiable_triple(self):
        windows = ((0, 1), (0, 1), (0, 3))
        assert self.brute_force(windows) is False
        assert self.parses(windows) is False

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
        assert self.parses(windows) is self.brute_force(windows)


def encoded_windows(order, encoding):
    """The windows ``interval_arrays`` gives a one-voter profile preferring ``order``."""
    rel, due, _ = interval_arrays(profile_of("order", [(order, 1)]), encoding)
    return tuple(zip(rel[0].tolist(), due[0].tolist()))


class TestEncodingWindows:
    def test_single_slot_encodings_pin_the_position(self):
        for enc in (EncodingKind.DEVIATION, EncodingKind.EXACT_POSITION):
            assert encoded_windows((1, 2, 3), enc) == ((0, 1), (1, 2), (2, 3))

    def test_prefix_encodings_open_the_release(self):
        for enc in (EncodingKind.TARDINESS, EncodingKind.LATE_TASKS):
            assert encoded_windows((1, 2, 3), enc) == ((0, 1), (0, 2), (0, 3))

    def test_suffix_encoding_opens_the_deadline(self):
        assert encoded_windows((2, 1), EncodingKind.EARLINESS) == ((1, 2), (0, 2))

    def test_windows_follow_the_preference_not_task_id(self):
        assert encoded_windows((3, 1, 2), EncodingKind.DEVIATION) == ((1, 2), (2, 3), (0, 1))

    @given(perms, st.sampled_from(list(EncodingKind)))
    def test_every_encoding_is_satisfiable(self, order, encoding):
        windows = encoded_windows(order, encoding)
        assert windows == ref.order_windows(Schedule(order), encoding)
        assert profile_of("interval", [(windows, 1)]).n == len(order)
        # the preferred schedule itself always satisfies its own windows
        comps = Schedule(order).completions()
        assert all(r < c <= d for (r, d), c in zip(windows, comps))


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
        assert [(e.order, m) for e, m in ref.entries(flipped)] == [
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

    @pytest.mark.parametrize("n, message", [
        (-1, "precedence graph n must be >= 1, got -1"),
        (0, "precedence graph n must be >= 1, got 0"),
        (2.5, "precedence graph n must be an integer, got 2.5"),
        ("3", "precedence graph n must be an integer, got '3'"),
        (None, "precedence graph n must be an integer, got None"),
    ])
    def test_bad_n_is_refused_by_name(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PrecedenceGraph(n=n, edges=frozenset())

    def test_n_is_read_as_an_int(self):
        g = PrecedenceGraph(n=np.int64(3), edges=frozenset({(np.int64(1), 2)}))
        assert type(g.n) is int and g == PrecedenceGraph(3, frozenset({(1, 2)}))

    @staticmethod
    def scan_order(n, edges):
        """Smallest task whose predecessors are all placed, one whole-edge scan at a time."""
        left, out = set(range(1, n + 1)), []
        while left:
            ready = [t for t in left if not any(b == t and a in left for a, b in edges)]
            if not ready:
                return None
            out.append(min(ready))
            left.remove(out[-1])
        return out

    def test_accepts_exactly_the_graphs_a_scan_can_order(self):
        rng = random.Random(15)
        for trial in range(400):
            n = trial % 12 + 1
            hidden = rng.sample(range(1, n + 1), n)
            density = rng.choice([0.0, 0.1, 0.3, 0.7])
            edges = {
                (hidden[i], hidden[j])
                for i in range(n) for j in range(i + 1, n) if rng.random() < density
            }
            planted = n >= 2 and trial % 2 == 1
            if planted:  # a back edge along a path i -> ... -> j
                i, j = sorted(rng.sample(range(n), 2))
                edges |= {(hidden[k], hidden[k + 1]) for k in range(i, j)}
                edges.add((hidden[j], hidden[i]))
            edges = frozenset(edges)
            assert (self.scan_order(n, edges) is None) == planted, trial
            if planted:
                with pytest.raises(ValueError, match="^precedence graph has a cycle$"):
                    PrecedenceGraph(n=n, edges=edges)
            else:
                assert PrecedenceGraph(n=n, edges=edges).edges == edges, trial
        # A cycle with a task hanging off it: the tail never becomes ready either.
        edges = frozenset({(1, 2), (2, 3), (3, 1), (4, 1), (3, 5)})
        assert self.scan_order(5, edges) is None
        with pytest.raises(ValueError, match="cycle"):
            PrecedenceGraph(n=5, edges=edges)

    def test_satisfied_by(self):
        g = PrecedenceGraph(n=3, edges=frozenset({(2, 3)}))
        assert satisfied_by(g, Schedule((1, 2, 3)))
        assert not satisfied_by(g, Schedule((3, 2, 1)))

    def test_parse_precedence(self):
        g = parse_precedence("1 -> 2\n# c\n2 -> 3\n", 3)
        assert g.edges == {(1, 2), (2, 3)}

    @pytest.mark.parametrize("text", ["1 => 2\n", "1 -> x\n", "0 -> 2\n", "1 -> 4\n"])
    def test_parse_precedence_errors(self, text):
        with pytest.raises(ProfileError):
            parse_precedence(text, 3)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [("1 -> 2\n2 -> 9\n", 2, "edge (2,9) outside task range 1..3"),
         ("0 -> 2\n", 1, "edge (0,2) outside task range 1..3"),
         ("# c\n1 -> 2\n\n3 -> 3\n", 4, "self-loop on task 3"),
         ("2 -> 2\n1 -> 7\n", 1, "self-loop on task 2")],
    )
    def test_bad_edge_names_its_line(self, text, lineno, message):
        with pytest.raises(ProfileError) as exc:
            parse_precedence(text, 3)
        assert exc.value.line == lineno
        assert str(exc.value) == f"line {lineno}: {message}"

    def test_cycle_is_a_whole_file_error(self):
        with pytest.raises(ProfileError) as exc:
            parse_precedence("1 -> 2\n2 -> 3\n3 -> 1\n", 3)
        assert exc.value.line is None
        assert str(exc.value) == "precedence graph has a cycle"

    def test_graph_and_parser_share_the_edge_check(self):
        for edges, message in [({(2, 9)}, "edge (2,9) outside task range 1..3"),
                               ({(3, 3)}, "self-loop on task 3")]:
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                PrecedenceGraph(n=3, edges=frozenset(edges))


class TestParseTimeWindows:
    def test_defaults_to_whole_horizon(self):
        tw = parse_time_windows("task 2 : 1 3\n", 3)
        assert tw.windows == ((0, 3), (1, 3), (0, 3))

    def test_duplicate_task_rejected(self):
        with pytest.raises(ProfileError, match="duplicate"):
            parse_time_windows("task 1 : 0 2\ntask 1 : 0 1\n", 3)

    def test_bounds_checked(self):
        with pytest.raises(ProfileError):
            parse_time_windows("task 1 : 2 2\n", 3)

    def test_malformed_line_names_its_line(self):
        with pytest.raises(ProfileError) as exc:
            parse_time_windows("task 1 : 0 2\n\ntask two : 0 1\n", 3)
        assert str(exc.value) == "line 3: expected 'task <j> : <r> <d>', got 'task two : 0 1'"

    @pytest.mark.parametrize(
        "text, lineno, window",
        [("task 2 : 3 1\n", 1, "task 2: window (3,1)"),
         ("task 1 : 0 2\n# note\ntask 4 : 2 6\n", 3, "task 4: window (2,6)"),
         ("task 3 : -1 2\ntask 5 : 4 4\n", 1, "task 3: window (-1,2)")],
    )
    def test_bad_window_names_its_line(self, text, lineno, window):
        with pytest.raises(ProfileError) as exc:
            parse_time_windows(text, 5)
        assert exc.value.line == lineno
        assert str(exc.value) == f"line {lineno}: {window} violates 0 <= r < d <= 5"

    def test_windows_and_interval_profiles_share_the_check(self):
        message = "task 2: window (2,1) violates 0 <= r < d <= 3"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            TimeWindows(((0, 3), (2, 1), (0, 3)))
        with pytest.raises(ProfileError, match=rf"^line 4: {re.escape(message)}$"):
            profile_of("interval", [(((0, 3), (2, 1), (0, 3)), 1)])


class TestProfileConstruction:
    def test_direct_construction_is_refused(self):
        with pytest.raises(TypeError, match="parse_profile or from_orders"):
            PreferenceProfile(mode="order", entries=())

    def test_cost_bound_checked_on_construction(self):
        with pytest.raises(ProfileError, match="overflow int64"):
            profile_of("order", [((1, 2, 3), 1 << 61), ((1, 2, 3), 1 << 61)])

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            profile_of("order", [((1, 2), 1), ((1, 2, 3), 1)])

    @pytest.mark.parametrize("build", [
        lambda: Schedule((1.7, 2.2)),
        lambda: TimeWindows(((0.5, 2.9), (0, 2))),
        lambda: PrecedenceGraph(n=3, edges={(1.9, 2)}),
        lambda: PreferenceProfile.from_orders([[1.7, 2.2]]),
        lambda: PreferenceProfile.from_orders([["1", "2"]]),
        lambda: PreferenceProfile.from_orders([[2**63, 1]]),
    ], ids=["schedule", "windows", "edge", "float-orders", "str-orders", "huge-orders"])
    def test_non_integers_are_refused_not_truncated(self, build):
        with pytest.raises(ValueError, match="integer"):
            build()


class TestRecords:
    """Every value type behaves as a frozen dataclass over its fields would.

    Each case: a factory, a record that differs from its product in one
    field, the field names, and the repr (a frozen dataclass's, except for
    the profile's summary). An array field is compared by value, and every
    copy's arrays stay read-only.
    """

    CASES = [
        (lambda: Schedule((2, 1, 3)), Schedule((1, 2, 3)), ("order",),
         "Schedule(order=(2, 1, 3))"),
        (lambda: PrecedenceGraph(3, frozenset({(1, 2)})), PrecedenceGraph(3, frozenset()),
         ("n", "edges"), "PrecedenceGraph(n=3, edges=frozenset({(1, 2)}))"),
        (lambda: TimeWindows(((0, 2), (1, 3), (0, 3))), TimeWindows(((0, 3),) * 3),
         ("windows",), "TimeWindows(windows=((0, 2), (1, 3), (0, 3)))"),
        (lambda: CostMatrix(2, np.array([[1, 2], [3, 4]])), CostMatrix(2, np.ones((2, 2), int)),
         ("n", "cost", "forbidden"),
         "CostMatrix(n=2, cost=array([[1, 2],\n       [3, 4]]), forbidden=None)"),
        (lambda: Solution(Schedule((2, 1)), 5, "matching"),
         Solution(Schedule((2, 1)), 5, "dp"), ("schedule", "cost", "method"),
         "Solution(schedule=Schedule(order=(2, 1)), cost=5, method='matching')"),
        (lambda: OracleResult(3, (Schedule((1, 2)), Schedule((2, 1))), 2),
         OracleResult(3, (Schedule((1, 2)),), 2), ("best_cost", "optima", "searched"),
         "OracleResult(best_cost=3, optima=(Schedule(order=(1, 2)), Schedule(order=(2, 1))), "
         "searched=2)"),
        (lambda: Violation(2, (0, 1), 2), Violation(2, (0, 1), 3), ("task", "window", "got"),
         "Violation(task=2, window=(0, 1), got=2)"),
        (lambda: AxiomReport("deadline_consistency", (Violation(2, (0, 1), 2),)),
         AxiomReport("deadline_consistency", ()), ("axiom", "violations"),
         "AxiomReport(axiom='deadline_consistency', "
         "violations=(Violation(task=2, window=(0, 1), got=2),))"),
        (lambda: PreferenceProfile.from_orders([[1, 2, 3], [2, 1, 3]]),
         PreferenceProfile.from_orders([[1, 2, 3], [1, 3, 2]]),
         ("mode", "v", "mult", "completions", "release", "due"),
         "PreferenceProfile(mode='order', n=3, v=2, distinct=2)"),
        (lambda: parse_profile("profile interval\ntasks 2\nvoters 3\npref 3 : (0,1) (0,2)\n"),
         parse_profile("profile interval\ntasks 2\nvoters 3\npref 3 : (0,2) (0,2)\n"),
         ("mode", "v", "mult", "completions", "release", "due"),
         "PreferenceProfile(mode='interval', n=2, v=3, distinct=1)"),
        (lambda: ExperimentConfig(2, 4, 3, 7), ExperimentConfig(2, 4, 3, 7, exact=True),
         ("trials", "n", "v", "seed", "generator", "swaps", "exact"),
         "ExperimentConfig(trials=2, n=4, v=3, seed=7, generator='uniform_permutations', "
         "swaps=0, exact=False)"),
        (lambda: RatioReport(ExperimentConfig(2, 4, 3, 7), 1.5, 1.25, 1.5, 1.25, None, None,
                             0, 0, 0, ()),
         RatioReport(ExperimentConfig(2, 4, 3, 7), 1.5, 1.25, 1.5, 1.25, None, None,
                     0, 0, 0, ("trial 1: tardiness bound",)),
         ("config", "max_tardiness_ratio", "mean_tardiness_ratio", "max_deviation_ratio",
          "mean_deviation_ratio", "max_kendall_ratio", "mean_kendall_ratio",
          "zero_tardiness_opt", "zero_kendall_opt", "slots_checked", "violations"),
         "RatioReport(config=ExperimentConfig(trials=2, n=4, v=3, seed=7, "
         "generator='uniform_permutations', swaps=0, exact=False), max_tardiness_ratio=1.5, "
         "mean_tardiness_ratio=1.25, max_deviation_ratio=1.5, mean_deviation_ratio=1.25, "
         "max_kendall_ratio=None, mean_kendall_ratio=None, zero_tardiness_opt=0, "
         "zero_kendall_opt=0, slots_checked=0, violations=())"),
    ]

    @pytest.mark.parametrize("make, other, fields, shown", CASES, ids=[
        "-".join(filter(None, re.match(r"(\w+)\((?:mode='(\w+))?", shown).groups()))
        for *_, shown in CASES])
    def test_record(self, make, other, fields, shown):
        record, twin = make(), make()
        assert repr(record) == shown
        assert record == record and hash(record) == hash(record)
        assert record != other and not record == other
        assert record != tuple(getattr(record, name) for name in fields)
        assert record == twin and not record != twin and hash(record) == hash(twin)
        copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
        assert copies == [record] * 3
        for got in copies:
            assert hash(got) == hash(record) and repr(got) == shown
            for value in got._values():
                assert not isinstance(value, np.ndarray) or not value.flags.writeable
        for name in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, getattr(other, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == shown

    def test_a_copied_schedule_keeps_its_completions(self):
        schedule = Schedule((3, 1, 2))
        for got in (copy.copy(schedule), pickle.loads(pickle.dumps(schedule))):
            assert got.completions() == schedule.completions() == (2, 3, 1)


# ---------------------------------------------------------------------------
# The array parser against the former line-by-line parser
# ---------------------------------------------------------------------------


def reference_arrays(want):
    """The former per-consumer stacking of the per-line preferences into arrays."""
    mult = np.array([m for _, m in want.entries], dtype=np.int64)
    if want.mode == "order":
        comp = np.array([p.completions() for p, _ in want.entries], dtype=np.int64)
        return mult, comp
    rel = np.array([[r for r, _ in p] for p, _ in want.entries], dtype=np.int64)
    due = np.array([[d for _, d in p] for p, _ in want.entries], dtype=np.int64)
    return mult, rel, due


def reference_serialize(want):
    """The former serializer, written from the per-line preferences."""
    out = [f"profile {want.mode}", f"tasks {want.n}", f"voters {want.v}"]
    for pref, mult in want.entries:
        if want.mode == "order":
            body = " ".join(map(str, pref.order))
        else:
            body = " ".join(f"({r},{d})" for r, d in pref)
        out.append(f"pref {mult} : {body}")
    return "\n".join(out) + "\n"


def profile_arrays(profile):
    if profile.mode == "order":
        return profile.mult, profile.completions
    return profile.mult, profile.release, profile.due


def random_profile_text(rng, n, mode):
    """A valid profile file with comments, blank lines, uneven spacing and repeats."""
    lines = [f"profile {mode}", f"tasks {n}", None]
    bodies = []
    for _ in range(rng.randint(1, 8)):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        if mode == "order":
            body = " ".join(map(str, perm))
        else:
            comp = Schedule(tuple(perm)).completions()
            body = " ".join(f"({rng.randint(0, c - 1)},{rng.randint(c, n)})" for c in comp)
        bodies.append(body)
        if rng.random() < 0.3:
            bodies.append(body)  # an identical voter on its own line
    total = 0
    for body in bodies:
        mult = rng.choice((1, 2, 3, rng.randint(1, 1 << 40)))
        total += mult
        if rng.random() < 0.3:
            lines.append("# a comment line")
        if rng.random() < 0.2:
            lines.append("")
        sep = rng.choice((" : ", ":", "  :  "))
        tail = rng.choice(("", "  # trailing comment"))
        lines.append(f"pref {mult}{sep}{body}{tail}")
    lines[2] = f"voters {total}"
    return "\n".join(lines) + "\n"


def assert_same_profile(got, want):
    """``got`` (a parsed profile) holds exactly the reference profile ``want``."""
    assert (got.mode, got.n, got.v) == (want.mode, want.n, want.v)
    for a, b in zip(profile_arrays(got), reference_arrays(want), strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)
    assert ref.entries(got) == list(want.entries)
    text = serialize_profile(got)
    assert text == reference_serialize(want)
    again = parse_profile(text)
    assert again == got and got == again
    assert hash(again) == hash(got)


def _ids(edit):
    """An edit of a line's ids that reads one of them; an empty id list passes unchanged."""
    return lambda line, n: {**line, "ids": edit(line["ids"])} if line["ids"] else line


def _unicode_digits(token):
    """``token`` with each ASCII digit written as its Arabic-Indic digit."""
    return "".join(chr(0x660 + int(c)) if "0" <= c <= "9" else c for c in token)


# Each edit rewrites one pref line, held as its parts: into another form the
# parser accepts, plain or not, or into one of the errors a line can carry.
_EDITS = {
    "comment line": lambda line, n: {**line, "pre": "# a comment\n"},
    "blank line": lambda line, n: {**line, "pre": "  \n"},
    "trailing comment": lambda line, n: {**line, "post": "  # note"},
    "trailing space": lambda line, n: {**line, "post": " "},
    "tab": lambda line, n: {**line, "join": "\t"},
    "double space": lambda line, n: {**line, "join": "  "},
    "loose head": lambda line, n: {**line, "sep": "  :"},
    "stray colon": _ids(lambda ids: [ids[0] + ":", *ids[1:]]),
    "plus sign": _ids(lambda ids: ["+" + ids[0], *ids[1:]]),
    "leading zeros": _ids(lambda ids: ["00" + ids[0], *ids[1:]]),
    "unicode digits": _ids(lambda ids: [_unicode_digits(ids[0]), *ids[1:]]),
    "19 digits": _ids(lambda ids: [ids[0].zfill(19), *ids[1:]]),
    "19-digit id": lambda line, n: {**line, "ids": ["1" + "0" * 18, *line["ids"][1:]]},
    "id past int64": lambda line, n: {**line, "ids": [*line["ids"][:-1], "9" * 19]},
    "multiplicity 0": lambda line, n: {**line, "mult": "0"},
    "multiplicity 0-padded": lambda line, n: {**line, "mult": "0" + line["mult"]},
    "multiplicity off the sum": lambda line, n: {**line, "mult": str(int(line["mult"]) + 1)},
    "one id short": lambda line, n: {**line, "ids": line["ids"][:-1]},
    "one id over": _ids(lambda ids: [*ids, ids[0]]),
    "duplicate id": _ids(lambda ids: [ids[-1], *ids[1:]]),
    "id 0": lambda line, n: {**line, "ids": ["0", *line["ids"][1:]]},
    "id n+1": lambda line, n: {**line, "ids": [*line["ids"][:-1], str(n + 1)]},
}


@st.composite
def perturbed_order_profiles(draw):
    """A valid order profile's text with up to three edits, and CRLF or LF line ends."""
    n = draw(st.integers(1, 6))
    prefs = draw(st.lists(st.tuples(st.permutations(range(1, n + 1)), st.integers(1, 5)),
                          min_size=1, max_size=6))
    lines = [{"pre": "", "mult": str(m), "sep": " : ", "ids": [str(t) for t in order],
              "join": " ", "post": ""} for order, m in prefs]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = _EDITS[draw(st.sampled_from(sorted(_EDITS)))](lines[k], n)
    body = [f"{x['pre']}pref {x['mult']}{x['sep']}{x['join'].join(x['ids'])}{x['post']}"
            for x in lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = ["profile order", f"tasks {n}", f"voters {sum(m for _, m in prefs)}"]
    return "\n".join(header + body).replace("\n", end) + draw(st.sampled_from(["", end]))


# Edits of an interval line's pairs: spacing the parser accepts, and bad or too long pairs.
_PAIR_EDITS = [
    lambda body: body,
    lambda body: body.replace("(", "( ").replace(",", " ,\t"),
    lambda body: body.replace(") (", ")("),
    lambda body: body.replace(")", "", 1),
    lambda body: body + " (0,1)",
    lambda body: body.replace(" ", " x ", 1),
    lambda body: body.replace("(", "(-", 1),
    lambda body: body.replace("(", "(" + "0" * 4300, 1),
]


@st.composite
def drawn_interval_profiles(draw):
    """An interval profile's text with windows drawn at random, feasible or not, and pair edits."""
    n = draw(st.integers(1, 6))
    window = st.integers(0, n - 1).flatmap(lambda r: st.tuples(st.just(r), st.integers(r + 1, n)))
    prefs = draw(st.lists(st.tuples(st.lists(window, min_size=n, max_size=n), st.integers(1, 3)),
                          min_size=1, max_size=4))
    edits = draw(st.lists(st.sampled_from(_PAIR_EDITS), min_size=len(prefs), max_size=len(prefs)))
    body = [f"pref {m} : " + edit(" ".join(f"({r},{d})" for r, d in ws))
            for (ws, m), edit in zip(prefs, edits)]
    header = ["profile interval", f"tasks {n}", f"voters {sum(m for _, m in prefs)}"]
    return "\n".join(header + body) + "\n"


# Every line boundary that str.splitlines knows.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def broken_lines(draw, lines, ends):
    """``lines`` with blank and comment lines among them, each ended by a draw from ``ends``."""
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "  ", "# note"]), max_size=2))
        out.append(line)
    return "".join(line + draw(ends) for line in out)


def assert_parses_like_reference(text):
    """``parse_profile`` gives the reference's profile, or its error message and line."""
    try:
        want = reference_parse_profile(text)
    except ProfileError as exc:
        with pytest.raises(ProfileError) as got:
            parse_profile(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert_same_profile(parse_profile(text), want)


def _refuse(*args):
    raise AssertionError("plain body read line by line")


# Task counts at which the longest id gains a digit, and the ones just past.
_DIGIT_COUNT_BOUNDARIES = [1, 9, 10, 99, 100, 101, 999, 1000]


def _with_ids(n, edit):
    """A generated 3-voter profile on n tasks, its second line's ids rewritten by ``edit``."""
    lines = serialize_profile(generate_profile(n, 3, n)).splitlines()
    lines[4] = "pref 1 : " + " ".join(edit(lines[4].split(":")[1].split()))
    return "\n".join(lines) + "\n"


class TestParseMatchesReference:
    @pytest.mark.parametrize("mode", ["order", "interval"])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_profiles(self, mode, seed):
        rng = random.Random(900 + seed)
        n = rng.choice((1, 1, 2, 3, 5, 8, 13))
        text = random_profile_text(rng, n, mode)
        assert_same_profile(parse_profile(text), reference_parse_profile(text))

    @pytest.mark.parametrize("mode", ["order", "interval"])
    def test_identical_voters_at_large_multiplicity(self, mode):
        body = "3 1 2" if mode == "order" else "(1,2) (0,3) (0,1)"
        mult = 1 << 40
        text = f"profile {mode}\ntasks 3\nvoters {3 * mult}\n" + f"pref {mult} : {body}\n" * 3
        got = parse_profile(text)
        assert_same_profile(got, reference_parse_profile(text))
        assert got.v == 3 * mult and len(got.mult) == 3

    def test_constructed_profiles_equal_parsed_ones(self):
        text = random_profile_text(random.Random(5), 6, "order")
        parsed = parse_profile(text)
        want = reference_parse_profile(text)
        assert_same_profile(parsed, want)
        orders = [pref.order for pref, _ in want.entries]
        ones = profile_of("order", [(order, 1) for order in orders])
        assert PreferenceProfile.from_orders(orders) == ones
        assert ones != parsed or all(m == 1 for _, m in want.entries)

    @pytest.mark.parametrize(
        "orders, message",
        [([[1, 1]], "duplicate task 1"), ([[1, 2], [3, 1]], "task id 3 outside 1..2"),
         ([[]], "empty schedule"), (np.zeros((0, 3)), "no entries"), ([1, 2], "array")],
    )
    def test_from_orders_rejects_non_permutations(self, orders, message):
        with pytest.raises(ValueError, match=message):
            PreferenceProfile.from_orders(orders)

    def test_generated_profile(self):
        text = serialize_profile(generate_profile(40, 300, 11))
        assert_same_profile(parse_profile(text), reference_parse_profile(text))

    @pytest.mark.parametrize(
        "body, reads",
        [("2  1 3", 0), ("2\t1 3", 0), ("+2 1 3", 100), ("2 1 \u0663", 100),
         ("2 1 0000000000000000003", 100), ("2 1 " + "0" * 40 + "3", 100)],
        ids=["double space", "tab", "plus sign", "arabic-indic digit", "19 chars", "41 chars"],
    )
    def test_line_path_reads_what_the_c_conversion_refuses(self, body, reads, monkeypatch):
        # Not plain, so the profile is read line by line. Its ids, single-spaced,
        # go to the bulk reader, and only ids valid for int() but not for the
        # bulk reader are checked one line at a time.
        lines = [f"pref 1 : {order}" for order in ("1 2 3", "3 1 2") * 50]
        lines[57] = f"pref 1 : {body}"
        text = "profile order\ntasks 3\nvoters 100\n" + "\n".join(lines) + "\n"
        read = []
        real = _lines._check_order_line
        monkeypatch.setattr(
            _lines, "_check_order_line", lambda body, *args: read.append(body) or real(body, *args)
        )
        got = parse_profile(text)
        assert len(read) == reads
        monkeypatch.undo()
        assert_same_profile(got, reference_parse_profile(text))
        assert ref.entries(got)[57][0].order == (2, 1, 3)

    def test_respaced_wide_bodies_read_their_ids_in_bulk(self, monkeypatch):
        # `consched gen --tasks 60 --voters 4000 --seed 1` with every space
        # doubled, or written as a tab.
        plain = serialize_profile(generate_profile(60, 4000, 1))
        want = parse_profile(plain)
        monkeypatch.setattr(_lines, "_check_order_line", _refuse)
        for text in (plain.replace(" ", "  "), plain.replace(" ", "\t")):
            assert parse_profile(text) == want

    def test_serialized_profiles_take_the_byte_reader(self, capsys, monkeypatch):
        # What `consched gen` and serialize_profile write is read in one pass
        # over the body's bytes, never line by line.
        assert cli.main(["gen", "--tasks", "60", "--voters", "400", "--seed", "7"]) == 0
        texts = [capsys.readouterr().out, serialize_profile(generate_profile(60, 400, 7)),
                 serialize_profile(generate_profile(1, 5, 7))]
        wants = [reference_parse_profile(text) for text in texts]
        monkeypatch.setattr(_lines, "_read_body", _refuse)
        for text, want in zip(texts, wants):
            assert_same_profile(parse_profile(text), want)

    @pytest.mark.parametrize("n", _DIGIT_COUNT_BOUNDARIES)
    @pytest.mark.parametrize("width", [0, 2, 4, 5, 18])
    def test_digit_count_boundaries_take_the_byte_reader(self, n, width, monkeypatch):
        # A line's first and last id zero-padded to `width` characters (0: as
        # written). Ids of up to 4 digits are summed in int16, longer ones in intp.
        text = _with_ids(n, lambda ids: [tok.zfill(width) if k in (0, len(ids) - 1) else tok
                                         for k, tok in enumerate(ids)])
        want = reference_parse_profile(text)
        monkeypatch.setattr(_lines, "_read_body", _refuse)
        assert_same_profile(parse_profile(text), want)

    @pytest.mark.parametrize("n", _DIGIT_COUNT_BOUNDARIES)
    @pytest.mark.parametrize(
        "edit",
        [lambda ids: [ids[0].zfill(19), *ids[1:]], lambda ids: [*ids[:-1], "9" * 18],
         lambda ids: [*ids[:-1], "9" * 19], lambda ids: ["1" + "0" * 17, *ids[1:]],
         lambda ids: [*ids[:-1], str(len(ids) + 1).zfill(4)]],
        ids=["19 chars, leading zeros", "18 digits", "19 digits", "10**17", "id n+1"],
    )
    def test_long_ids_read_like_the_reference(self, n, edit):
        assert_parses_like_reference(_with_ids(n, edit))

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(perturbed_order_profiles())
    def test_perturbed_order_profiles(self, text):
        assert_parses_like_reference(text)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(drawn_interval_profiles())
    def test_drawn_interval_profiles(self, text):
        # The reference reads pairs with its own pattern and tests feasibility
        # by Hall's condition, so neither library check is its own witness.
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("brk", _LINE_BREAKS, ids=ascii)
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_line_numbers_follow_splitlines(self, brk, data):
        # The header, the windows and the edges are cut into lines lazily, the
        # body by one str.splitlines; both must number lines as splitlines does.
        ends = st.sampled_from([brk, brk, "\n", "\r"])
        prefs = data.draw(st.lists(st.tuples(st.permutations([1, 2, 3]), st.integers(1, 3)),
                                   min_size=1, max_size=4))
        lines = ["profile order", "tasks 3", f"voters {sum(m for _, m in prefs)}"]
        lines += [f"pref {m} : {' '.join(map(str, order))}" for order, m in prefs]
        if data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(
                ["tasks x", "xref 1 : 1 2 3", "pref 0 : 1 2 3", "pref 1 : 1 1 2", "pref 1 : 1 2"]
            ))
            lines[data.draw(st.integers(0, len(lines) - 1))] = bad
        assert_parses_like_reference(data.draw(broken_lines(lines, ends)))

        edges = ["1 -> 2", "2 -> 3"]
        windows = ["task 3 : 1 3", "task 1 : 0 2"]
        for parse, lines, bad in ((parse_precedence, edges, "3 -> 3"),
                                  (parse_time_windows, windows, "task 9 : 0 1")):
            if data.draw(st.booleans()):
                lines = [*lines, bad]
                text = data.draw(broken_lines(data.draw(st.permutations(lines)), ends))
                with pytest.raises(ProfileError) as got:
                    parse(text, 3)
                assert got.value.line == text.splitlines().index(bad) + 1
            else:
                assert parse(data.draw(broken_lines(lines, ends)), 3) == parse("\n".join(lines), 3)

    def test_byte_reader_raises_no_warning(self):
        text = serialize_profile(generate_profile(60, 300, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = parse_profile(text)
        assert_same_profile(profile, reference_parse_profile(text))

    def test_arrays_are_read_only(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 3\npref 2 : 1 2\npref 1 : 2 1\n")
        for arr in profile_arrays(profile):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(AttributeError):
            profile.n = 3


def _wide_case(lines, k, bad):
    """The generated profile's lines with pref line ``k`` replaced by ``bad(ids)``."""
    ids = lines[3 + k].split(":")[1].split()
    out = list(lines)
    out[3 + k] = bad(ids)
    return "\n".join(out) + "\n", 4 + k


_BAD_ORDER_LINES = {
    "bad prefix": lambda ids: "xref 1 : " + " ".join(ids),
    "multiplicity 0": lambda ids: "pref 0 : " + " ".join(ids),
    "wrong count": lambda ids: "pref 1 : " + " ".join(ids[:-1]),
    # n-1 spaces, but only n-1 ids
    "wrong count, a double space": lambda ids: "pref 1 : " + " ".join(ids[:29]) + "  "
    + " ".join(ids[29:-1]),
    "duplicate id": lambda ids: "pref 1 : " + " ".join([ids[1]] + ids[1:]),
    "id out of range": lambda ids: "pref 1 : " + " ".join(["61"] + ids[1:]),
    "id past int64": lambda ids: "pref 1 : " + " ".join(ids[:-1] + [str(1 << 70)]),
    "non-integer": lambda ids: "pref 1 : " + " ".join(ids[:30] + ["x"] + ids[31:]),
    "interval pair": lambda ids: "pref 1 : (0,1) " + " ".join(ids[1:]),
    "id 0": lambda ids: "pref 1 : " + " ".join(["0"] + ids[1:]),
    "id -1": lambda ids: "pref 1 : " + " ".join(ids[:7] + ["-1"] + ids[8:]),
    "id of 20 digits": lambda ids: "pref 1 : " + " ".join(ids[:-1] + ["9" * 20]),
    # 2**64 + 3: an id that would read as 3 if a conversion wrapped modulo 2**64
    "id 3 plus 2**64": lambda ids: "pref 1 : " + " ".join(
        str(2**64 + 3) if tok == "3" else tok for tok in ids
    ),
}


@pytest.fixture(scope="module")
def wide_lines():
    return serialize_profile(generate_profile(60, 4000, 5)).splitlines()


class TestErrorsAtScale:
    @pytest.mark.parametrize("k", [0, 2000, 3999])
    @pytest.mark.parametrize("case", sorted(_BAD_ORDER_LINES))
    def test_one_bad_line_in_4000(self, wide_lines, case, k):
        text, lineno = _wide_case(wide_lines, k, _BAD_ORDER_LINES[case])
        # the whole-text reader refuses the body rather than raise
        assert model._plain_body(text, len("\n".join(wide_lines[:3])) + 1, 60) is None
        with pytest.raises(ProfileError) as want:
            reference_parse_profile(text)
        with pytest.raises(ProfileError) as got:
            parse_profile(text)
        assert got.value.line == want.value.line == lineno
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "first, second", [("duplicate id", "bad prefix"), ("bad prefix", "duplicate id")]
    )
    def test_first_bad_line_wins(self, wide_lines, first, second):
        lines = list(wide_lines)
        for k, case in ((10, first), (3000, second)):
            ids = lines[3 + k].split(":")[1].split()
            lines[3 + k] = _BAD_ORDER_LINES[case](ids)
        text = "\n".join(lines) + "\n"
        with pytest.raises(ProfileError) as want:
            reference_parse_profile(text)
        with pytest.raises(ProfileError) as got:
            parse_profile(text)
        assert got.value.line == want.value.line == 14
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "first, second",
        [("duplicate id", "non-integer"), ("non-integer", "duplicate id"),
         ("id -1", "wrong count"), ("wrong count", "id 0"), ("id 0", "bad prefix")],
    )
    def test_first_bad_line_wins_on_either_conversion(self, wide_lines, first, second):
        lines = list(wide_lines)
        lines[3 + 5] = lines[3 + 5].replace(" ", "\t")  # a valid line that is not plain
        for k, case in ((10, first), (3000, second)):
            ids = lines[3 + k].split(":")[1].split()
            lines[3 + k] = _BAD_ORDER_LINES[case](ids)
        text = "\n".join(lines) + "\n"
        with pytest.raises(ProfileError) as want:
            reference_parse_profile(text)
        for text in (text, text.replace("\t", " ")):  # with and without a line that is not plain
            with pytest.raises(ProfileError) as got:
                parse_profile(text)
            assert got.value.line == want.value.line == 14
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k", [0, 2000, 3999])
    def test_empty_body_at_one_task(self, k):
        lines = ["profile order", "tasks 1", "voters 4000"] + ["pref 1 : 1"] * 4000
        lines[3 + k] = "pref 1 :"
        text = "\n".join(lines) + "\n"
        with pytest.raises(ProfileError) as want:
            reference_parse_profile(text)
        with pytest.raises(ProfileError) as got:
            parse_profile(text)
        assert got.value.line == want.value.line == 4 + k
        assert str(got.value) == str(want.value) == f"line {4 + k}: expected 1 task ids, got 0"

    @pytest.mark.parametrize("voters", [3, 1 << 70])
    def test_multiplicity_past_int64(self, voters, tmp_path):
        text = f"profile order\ntasks 3\nvoters {voters}\npref {1 << 70} : 1 2 3\n"
        with pytest.raises(ProfileError) as want:
            reference_parse_profile(text)
        with pytest.raises(ProfileError) as got:
            parse_profile(text)
        assert str(got.value) == str(want.value)
        path = tmp_path / "huge.prof"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "consched.cli", "solve", "--profile", str(path),
             "--rule", "emd"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {got.value}\n"

    def test_int_tokens_keep_int_acceptance(self):
        text = "profile order\ntasks 3\nvoters 1\npref 1 : +2 1 03\n"
        profile = parse_profile(text)
        assert ref.entries(profile)[0][0].order == (2, 1, 3)
        assert_same_profile(profile, reference_parse_profile(text))

    def test_crlf_and_comments_mid_body(self):
        plain = "profile order\ntasks 3\nvoters 3\npref 2 : 1 2 3\npref 1 : 3 1 2\n"
        messy = (
            "# header comment\r\nprofile order\r\ntasks 3\r\nvoters 3\r\n"
            "pref 2 : 1 2 3  # trailing\r\n# between entries\r\n\r\npref 1 : 3 1 2\r\n"
        )
        assert parse_profile(messy) == parse_profile(plain)
        assert_same_profile(parse_profile(messy), reference_parse_profile(messy))


class TestParseCost:
    def test_solves_match_the_cost_recheck(self):
        text = serialize_profile(generate_profile(12, 50, 3))
        profile = parse_profile(text)
        for rule, criterion, encoding in (
            ("distance", "distance", "tardiness"),
            ("binary", "binary", "late_tasks"),
            ("emd", "distance", "deviation"),
        ):
            solution = solve(profile, rule, encoding)
            schedule, cost = solution.schedule, solution.cost
            assert cost == profile_cost(schedule, profile, criterion, encoding)

    def test_tracemalloc_peak_on_wide_profile(self):
        # n=60, v=4000: 5.5 MB here, while the ids are read: the body's bytes,
        # the separator positions and the digit reader's buffers. A parser
        # that first lists every token string pays about 12.7 MB for that
        # list alone.
        text = serialize_profile(generate_profile(60, 4000, 1))
        tracemalloc.start()
        try:
            profile = parse_profile(text)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tokens = text.split()
            _, tokens_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del tokens
        assert profile.v == 4000
        assert peak < 10 * 2**20 < tokens_peak
