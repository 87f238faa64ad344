"""Profile model: parsing, validation, encodings, reversal."""

from __future__ import annotations

import random
import re
import subprocess
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from consched.cli import generate_profile
from consched.criteria import profile_cost
from consched.errors import ProfileError
from consched.model import (
    _PAIR_RE,
    _check_cost_bound,
    _logical_lines,
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
from consched.rules import RuleSpec, emd_schedule, solve

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


# ---------------------------------------------------------------------------
# The array parser against the former line-by-line parser
# ---------------------------------------------------------------------------


def reference_parse_profile(text):
    """The former parser: one validated Schedule or IntervalPreference per line."""
    lines = list(_logical_lines(text))
    if len(lines) < 4:
        raise ProfileError("profile needs a 3-line header and at least one pref line")
    (no1, l1), (no2, l2), (no3, l3) = lines[0], lines[1], lines[2]
    m = re.fullmatch(r"profile\s+(order|interval)", l1)
    if not m:
        raise ProfileError("expected 'profile order' or 'profile interval'", no1)
    mode = m.group(1)
    m = re.fullmatch(r"tasks\s+(\d+)", l2)
    if not m:
        raise ProfileError("expected 'tasks <n>'", no2)
    n = int(m.group(1))
    if n < 1:
        raise ProfileError("task count must be >= 1", no2)
    m = re.fullmatch(r"voters\s+(\d+)", l3)
    if not m:
        raise ProfileError("expected 'voters <v>'", no3)
    v = int(m.group(1))
    if v < 1:
        raise ProfileError("voter count must be >= 1", no3)
    _check_cost_bound(n, v, no3)
    entries = []
    for no, line in lines[3:]:
        m = re.fullmatch(r"pref\s+(\d+)\s*:\s*(.*)", line)
        if not m:
            raise ProfileError(f"expected 'pref <mult> : ...', got {line!r}", no)
        mult = int(m.group(1))
        if mult < 1:
            raise ProfileError("multiplicity must be >= 1", no)
        body = m.group(2).strip()
        if mode == "order":
            if "(" in body:
                raise ProfileError("interval pair in an order-mode profile", no)
            try:
                tasks = [int(tok) for tok in body.split()]
            except ValueError:
                raise ProfileError(f"non-integer task id in {body!r}", no) from None
            if len(tasks) != n:
                raise ProfileError(f"expected {n} task ids, got {len(tasks)}", no)
            try:
                pref = OrderPreference(Schedule(tuple(tasks)))
            except ValueError as exc:
                raise ProfileError(str(exc), no) from None
        else:
            pairs = _PAIR_RE.findall(body)
            if len(pairs) != n or _PAIR_RE.sub("", body).strip():
                raise ProfileError(f"expected {n} '(r,d)' pairs", no)
            try:
                pref = IntervalPreference(tuple((int(r), int(d)) for r, d in pairs))
            except ValueError as exc:
                raise ProfileError(str(exc), no) from None
            if not validate_interval_preference(pref):
                raise ProfileError("windows admit no feasible schedule", no)
        entries.append((pref, mult))
    total = sum(m for _, m in entries)
    if total != v:
        raise ProfileError(f"multiplicities sum to {total}, header declares voters {v}")
    return PreferenceProfile(mode=mode, entries=tuple(entries))


def reference_arrays(profile):
    """The former per-consumer stacking of ``entries`` into arrays."""
    mult = np.array([m for _, m in profile.entries], dtype=np.int64)
    if profile.mode == "order":
        comp = np.array([p.schedule.completions() for p, _ in profile.entries], dtype=np.int64)
        return mult, comp
    rel = np.array([[r for r, _ in p.windows] for p, _ in profile.entries], dtype=np.int64)
    due = np.array([[d for _, d in p.windows] for p, _ in profile.entries], dtype=np.int64)
    return mult, rel, due


def reference_serialize(profile):
    """The former serializer, written from ``entries``."""
    out = [f"profile {profile.mode}", f"tasks {profile.n}", f"voters {profile.v}"]
    for pref, mult in profile.entries:
        if isinstance(pref, OrderPreference):
            body = " ".join(map(str, pref.schedule.order))
        else:
            body = " ".join(f"({r},{d})" for r, d in pref.windows)
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
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert (got.mode, got.n, got.v) == (want.mode, want.n, want.v)
    for a, b in zip(profile_arrays(got), reference_arrays(want), strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)
    assert got.entries == want.entries
    text = serialize_profile(got)
    assert text == reference_serialize(want)
    assert parse_profile(text) == got


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
        built = PreferenceProfile(mode="order", entries=reference_parse_profile(text).entries)
        assert_same_profile(parsed, built)
        orders = [pref.schedule.order for pref, _ in built.entries]
        ones = PreferenceProfile(mode="order", entries=[(p, 1) for p, _ in built.entries])
        assert PreferenceProfile.from_orders(orders) == ones
        assert ones != parsed or all(m == 1 for _, m in built.entries)

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

    def test_arrays_are_read_only(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 3\npref 2 : 1 2\npref 1 : 2 1\n")
        for arr in profile_arrays(profile):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(AttributeError):
            profile.n = 3

    def test_entries_are_built_once_on_demand(self):
        profile = parse_profile("profile order\ntasks 2\nvoters 3\npref 2 : 1 2\npref 1 : 2 1\n")
        assert profile._entries is None
        entries = profile.entries
        assert profile.entries is entries
        assert [(p.schedule.order, m) for p, m in entries] == [((1, 2), 2), ((2, 1), 1)]


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
    "duplicate id": lambda ids: "pref 1 : " + " ".join([ids[1]] + ids[1:]),
    "id out of range": lambda ids: "pref 1 : " + " ".join(["61"] + ids[1:]),
    "id past int64": lambda ids: "pref 1 : " + " ".join(ids[:-1] + [str(1 << 70)]),
    "non-integer": lambda ids: "pref 1 : " + " ".join(ids[:30] + ["x"] + ids[31:]),
    "interval pair": lambda ids: "pref 1 : (0,1) " + " ".join(ids[1:]),
}


@pytest.fixture(scope="module")
def wide_lines():
    return serialize_profile(generate_profile(60, 4000, 5)).splitlines()


class TestErrorsAtScale:
    @pytest.mark.parametrize("k", [0, 2000, 3999])
    @pytest.mark.parametrize("case", sorted(_BAD_ORDER_LINES))
    def test_one_bad_line_in_4000(self, wide_lines, case, k):
        text, lineno = _wide_case(wide_lines, k, _BAD_ORDER_LINES[case])
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
        assert profile.entries[0][0].schedule.order == (2, 1, 3)
        assert profile == reference_parse_profile(text)

    def test_crlf_and_comments_mid_body(self):
        plain = "profile order\ntasks 3\nvoters 3\npref 2 : 1 2 3\npref 1 : 3 1 2\n"
        messy = (
            "# header comment\r\nprofile order\r\ntasks 3\r\nvoters 3\r\n"
            "pref 2 : 1 2 3  # trailing\r\n# between entries\r\n\r\npref 1 : 3 1 2\r\n"
        )
        assert parse_profile(messy) == parse_profile(plain) == reference_parse_profile(messy)


class TestParseCost:
    def test_solvers_never_build_entries(self):
        text = serialize_profile(generate_profile(12, 50, 3))
        profile = parse_profile(text)
        for rule, criterion, encoding in (
            ("distance", "distance", "tardiness"),
            ("binary", "binary", "late_tasks"),
            ("emd", "distance", "deviation"),
        ):
            schedule, cost = solve(profile, RuleSpec(rule, encoding))
            assert cost == profile_cost(schedule, profile, criterion, encoding)
        emd_schedule(profile)
        assert profile._entries is None

    def test_tracemalloc_peak_on_wide_profile(self):
        # n=60, v=4000: 6.4 MB here. A parser that first lists every token
        # string pays about 12.7 MB for that list alone.
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
