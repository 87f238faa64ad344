"""Command-line interface: exit codes, output formats, and determinism."""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import factorial
from pathlib import Path

import pytest

from conftest import latin_square
from consched import cli, criteria, experiment, rules
from consched.assignment import build_cost_matrix
from consched.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_SIZE_LIMIT, EXIT_USAGE
from consched.model import (
    PrecedenceGraph,
    Schedule,
    parse_precedence,
    parse_profile,
    parse_time_windows,
    serialize_profile,
)
from consched.oracle import exhaustive_optimum
from consched.precedence import infer_precedences
from consched.rules import Solution
from references import satisfied_by, voters


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def order_profile(tmp_path):
    path = tmp_path / "p.prof"
    path.write_text("profile order\ntasks 3\nvoters 2\npref 1 : 1 2 3\npref 1 : 3 2 1\n")
    return str(path)


class TestSolve:
    def test_text_output_and_exit_ok(self, capsys):
        code, out, _ = run(
            capsys,
            ["solve", "--profile", "fixture:late7x3", "--rule", "binary", "--encoding", "late"],
        )
        assert code == EXIT_OK
        assert "schedule: 4 2 3 5 6 7 1" in out
        assert "cost: 3" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", "fixture:tail8x6", "--rule", "distance",
                "--encoding", "deviation", "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"schedule", "cost", "method", "feasible"}
        assert payload["feasible"] is True
        assert payload["cost"] == 54
        assert sorted(payload["schedule"]) == list(range(1, 9))

    def test_infeasible_windows_exit_2(self, capsys, order_profile, tmp_path):
        windows = tmp_path / "w.txt"
        windows.write_text("task 1 : 0 1\ntask 2 : 0 1\n")
        code, out, err = run(
            capsys,
            [
                "solve", "--profile", order_profile, "--rule", "distance",
                "--encoding", "tardiness", "--time", str(windows), "--format", "json",
            ],
        )
        assert code == EXIT_INFEASIBLE
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["schedule"] is None
        assert "infeasible" in err

    def test_inferred_distance_repairs_the_matching(self, capsys, tmp_path):
        # Both voters put 3 before 2; the matching optimum 1 2 3 4 does not.
        path = tmp_path / "p.prof"
        path.write_text("profile order\ntasks 4\nvoters 2\npref 1 : 3 2 1 4\npref 1 : 1 4 3 2\n")
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "distance",
                "--encoding", "deviation", "--prec-mode", "inferred", "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "matching+repair"
        assert payload["schedule"] == [1, 3, 2, 4]
        assert payload["cost"] == 8

    def test_inferred_distance_with_windows_runs_the_dp(self, capsys, tmp_path):
        # Task 3 must take slot 1 or 2, and every voter completes task 4 before
        # it, so the windowed matching optimum (26) breaks an inferred edge.
        windows = tmp_path / "w.txt"
        windows.write_text("task 3 : 0 2\n")
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", "fixture:late7x3", "--rule", "distance",
                "--encoding", "deviation", "--prec-mode", "inferred",
                "--time", str(windows), "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "dp"
        profile = parse_profile(cli.fixture_text("late7x3"))
        best = exhaustive_optimum(
            profile, "distance", "deviation", parse_time_windows("task 3 : 0 2\n", 7),
            infer_precedences(profile),
        )
        assert payload["cost"] == best.best_cost == 28
        assert Schedule(tuple(payload["schedule"])) in best.optima

    def test_dp_optimum_at_two_to_the_59_is_feasible(self, capsys, tmp_path):
        # The true optimum, 4 * 2**57, must not be mistaken for unreachable.
        mult = 1 << 57
        path = tmp_path / "huge.prof"
        path.write_text(
            f"profile order\ntasks 3\nvoters {2 * mult}\n"
            f"pref {mult} : 1 2 3\npref {mult} : 3 2 1\n"
        )
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "distance",
                "--encoding", "deviation", "--method", "dp", "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cost"] == 1 << 59
        assert payload["schedule"] == [3, 2, 1]

    def test_matching_optimum_at_two_to_the_59_is_feasible(self, capsys, tmp_path):
        # Was exit 2, "time windows admit no feasible schedule", with no windows given.
        mult = 1 << 57
        path = tmp_path / "huge.prof"
        path.write_text(
            f"profile order\ntasks 3\nvoters {2 * mult}\n"
            f"pref {mult} : 1 2 3\npref {mult} : 3 2 1\n"
        )
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "distance",
                "--encoding", "deviation", "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cost"] == 1 << 59
        assert payload["method"] == "matching"

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("encoding", sorted(cli._ENCODING_FLAGS))
    @pytest.mark.parametrize("windowed", [False, True], ids=["plain", "windows"])
    def test_matching_equals_dp_at_the_parse_bound(self, capsys, tmp_path, n, encoding, windowed):
        # The largest v the parse bound v * n * (n + 1) <= 2^62 - 1 allows:
        # every cost matrix passes the kernel's bound n * C < 2^62.
        v = (2**62 - 1) // (n * (n + 1))
        mults = (v - 2 * (v // 8), v // 8, v // 8)
        orders = (range(1, n + 1), range(n, 0, -1), (2, 1, *range(3, n + 1)))
        path = tmp_path / "bound.prof"
        path.write_text(
            f"profile order\ntasks {n}\nvoters {v}\n"
            + "".join(f"pref {m} : {' '.join(map(str, o))}\n" for m, o in zip(mults, orders))
        )
        kind = cli._ENCODING_FLAGS[encoding]
        rule = rules.canonical_criterion(kind).value
        window = "task 1 : 1 3\n"  # task 1 may not take slot 1
        (tmp_path / "w.txt").write_text(window)
        time = ["--time", str(tmp_path / "w.txt")] if windowed else []
        windows = parse_time_windows(window, n) if windowed else None
        # CostMatrix refuses n * C >= 2^62 over the allowed cells: the build passes.
        build_cost_matrix(parse_profile(path.read_text()), rule, kind, windows)
        answers = {}
        for method in ("auto", "dp"):
            code, out, _ = run(
                capsys,
                [
                    "solve", "--profile", str(path), "--rule", rule, *time,
                    "--encoding", encoding, "--method", method, "--format", "json",
                ],
            )
            assert code == EXIT_OK
            answers[method] = json.loads(out)
        assert answers["auto"]["method"] == "matching"
        assert answers["auto"]["cost"] == answers["dp"]["cost"]

    @pytest.mark.parametrize("mults", [(1 << 61, 1 << 61), (1 << 63,)])
    def test_cost_past_int64_exit_1(self, capsys, tmp_path, mults):
        # Was an AssertionError traceback (wrapped cost) and a raw numpy OverflowError.
        path = tmp_path / "huge.prof"
        lines = [f"pref {m} : {' '.join(map(str, order))}"
                 for m, order in zip(mults, ((1, 2, 3), (3, 2, 1)))]
        path.write_text(
            f"profile order\ntasks 3\nvoters {sum(mults)}\n" + "\n".join(lines) + "\n"
        )
        code, out, err = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "distance",
                "--encoding", "deviation", "--method", "dp", "--format", "json",
            ],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: line 3:" in err and "overflow int64" in err

    @pytest.mark.parametrize("method", ["auto", "dp"])
    def test_infeasible_json_names_the_failed_path(
        self, capsys, order_profile, tmp_path, method
    ):
        windows = tmp_path / "w.txt"
        windows.write_text("task 1 : 0 1\ntask 2 : 0 1\n")
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", order_profile, "--rule", "distance",
                "--encoding", "tardiness", "--time", str(windows), "--method", method,
                "--format", "json",
            ],
        )
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["method"] == ("dp" if method == "dp" else "matching")

    def test_inferred_binary_past_the_dp_limit_runs_the_matching(self, capsys, tmp_path):
        # 21 tasks, one past the default --dp-limit: the eight voters agree on no
        # pair, so the inferred graph has no edge. That used to exit 3.
        path = tmp_path / "gen.prof"
        code, _, _ = run(capsys, ["gen", "--tasks", "21", "--voters", "8", "--seed", "1",
                                  "--out", str(path)])
        assert code == EXIT_OK
        assert not infer_precedences(parse_profile(path.read_text())).edges
        answers = []
        for prec in ([], ["--prec-mode", "inferred"]):
            code, out, _ = run(capsys, ["solve", "--profile", str(path), "--rule", "binary",
                                        "--encoding", "late", *prec, "--format", "json"])
            assert code == EXIT_OK
            answers.append(json.loads(out))
        assert answers[1]["method"] == "matching"
        assert answers[1]["cost"] == answers[0]["cost"]

    def test_an_empty_imposed_graph_runs_the_matching(self, capsys, tmp_path):
        # A --prec file with no edge constrains nothing beyond the windows.
        (tmp_path / "empty.prec").write_text("")
        (tmp_path / "w.txt").write_text("task 1 : 2 5\ntask 4 : 0 2\n")
        answers = {}
        for method in ("auto", "dp"):
            code, out, _ = run(capsys, [
                "solve", "--profile", "fixture:tail8x6", "--rule", "distance",
                "--encoding", "deviation", "--time", str(tmp_path / "w.txt"),
                "--prec-mode", "graph", "--prec", str(tmp_path / "empty.prec"),
                "--method", method, "--format", "json",
            ])
            assert code == EXIT_OK
            answers[method] = json.loads(out)
        assert answers["auto"]["method"] == "matching"
        assert answers["dp"]["method"] == "dp"
        assert answers["auto"]["cost"] == answers["dp"]["cost"]

    @pytest.mark.parametrize("rule, encoding, expected", [
        ("distance", "deviation", 24), ("binary", "late", 5),
    ])
    def test_windows_and_an_imposed_edge_solve_by_the_dp(self, capsys, tmp_path, rule,
                                                         encoding, expected):
        (tmp_path / "w.txt").write_text("task 1 : 0 3\n")
        (tmp_path / "g.prec").write_text("2 -> 1\n")
        code, out, _ = run(capsys, [
            "solve", "--profile", "fixture:late7x3", "--rule", rule, "--encoding", encoding,
            "--time", str(tmp_path / "w.txt"), "--prec-mode", "graph",
            "--prec", str(tmp_path / "g.prec"), "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "dp"
        schedule = Schedule(tuple(payload["schedule"]))
        assert schedule.completion(1) <= 3
        assert schedule.completion(2) < schedule.completion(1)
        best = exhaustive_optimum(
            parse_profile(cli.fixture_text("late7x3")), rule, cli._ENCODING_FLAGS[encoding],
            parse_time_windows("task 1 : 0 3\n", 7), PrecedenceGraph(7, frozenset({(2, 1)})),
        )
        assert payload["cost"] == best.best_cost == expected
        assert schedule in best.optima

    def test_emd_with_two_to_the_40_voters_in_one_line(self, capsys, tmp_path):
        # The median comes from a histogram, not a list of 2**40 completion times.
        big = 1 << 40
        path = tmp_path / "wide.prof"
        path.write_text(
            f"profile order\ntasks 3\nvoters {big + 2}\n"
            f"pref {big} : 3 1 2\npref 1 : 1 2 3\npref 1 : 2 3 1\n"
        )
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "emd",
                "--encoding", "deviation", "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schedule"] == [3, 1, 2]
        assert payload["cost"] == 8  # 0 for the big line, 4 for each single voter

    def test_dp_size_limit_exit_3(self, capsys, tmp_path):
        path = tmp_path / "big.prof"
        n = 21
        order = " ".join(str(j) for j in range(1, n + 1))
        path.write_text(f"profile order\ntasks {n}\nvoters 1\npref 1 : {order}\n")
        code, _, err = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "binary",
                "--encoding", "late", "--prec-mode", "inferred", "--method", "dp",
            ],
        )
        assert code == EXIT_SIZE_LIMIT
        assert "size limit" in err

    def test_negative_dp_limit_is_a_usage_error(self, capsys):
        # It used to reach the solver and exit 3 with "exceeds the subset-DP limit -5".
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--profile", "fixture:late7x3", "--rule", "binary",
                      "--encoding", "late", "--prec-mode", "inferred", "--dp-limit", "-5"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: consched solve")
        assert err.endswith("error: argument --dp-limit: must be >= 0, got -5\n")

    @pytest.mark.parametrize("n, edge", [(50, "1 -> 2"), (60, "1 -> 2"), (64, "64 -> 1")])
    def test_dp_past_what_it_can_run_exit_3(self, capsys, tmp_path, n, edge):
        # Past n = 62 the predecessor bit masks overflow int64; below that the
        # 2^n-entry tables are far larger than any address space, so their
        # allocation fails at once and nothing is committed.
        order = " ".join(str(j) for j in range(1, n + 1))
        profile = tmp_path / "big.prof"
        profile.write_text(f"profile order\ntasks {n}\nvoters 1\npref 1 : {order}\n")
        prec = tmp_path / "dag.prec"
        prec.write_text(edge + "\n")
        code, _, err = run(
            capsys,
            [
                "solve", "--profile", str(profile), "--rule", "binary", "--encoding", "late",
                "--prec-mode", "graph", "--prec", str(prec), "--dp-limit", "100",
            ],
        )
        assert code == EXIT_SIZE_LIMIT
        assert "size limit" in err

    @pytest.mark.parametrize(
        "text",
        [
            "profile order\ntasks 1\nvoters 7\npref 7 : 1\n",
            "profile order\ntasks 5\nvoters 3\n" + "pref 1 : 2 4 1 5 3\n" * 3,
        ],
        ids=["n1-mult7", "n5-identical"],
    )
    @pytest.mark.parametrize(
        "method, argv, oracle_argv",
        [
            ("matching", ["--rule", "distance", "--encoding", "deviation"],
             ["--rule", "distance", "--encoding", "deviation"]),
            ("dp", ["--rule", "binary", "--encoding", "late", "--method", "dp"],
             ["--rule", "binary", "--encoding", "late"]),
            ("matching+repair",
             ["--rule", "distance", "--encoding", "tardiness", "--prec-mode", "inferred"],
             ["--rule", "distance", "--encoding", "tardiness", "--prec-mode", "inferred"]),
            ("dp", ["--rule", "binary", "--encoding", "exactpos", "--prec-mode", "inferred"],
             ["--rule", "binary", "--encoding", "exactpos", "--prec-mode", "inferred"]),
            ("emd", ["--rule", "emd", "--encoding", "deviation"],
             ["--rule", "distance", "--encoding", "deviation"]),
        ],
        ids=["matching", "dp", "repair", "inferred-dp", "emd"],
    )
    def test_edge_profiles_match_the_oracle_on_every_path(
        self, capsys, tmp_path, text, method, argv, oracle_argv
    ):
        path = tmp_path / "edge.prof"
        path.write_text(text)
        if "inferred" in argv and not infer_precedences(parse_profile(text)).edges:
            method = "matching"  # one task infers no edge
        code, out, _ = run(capsys, ["solve", "--profile", str(path), *argv, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == method
        code, out, _ = run(
            capsys, ["oracle", "--profile", str(path), *oracle_argv, "--format", "json"]
        )
        assert code == EXIT_OK
        assert payload["cost"] == json.loads(out)["best_cost"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rule", "binary", "--encoding", "late", "--prec-mode", "inferred"],
            ["--rule", "distance", "--encoding", "deviation", "--prec-mode", "inferred",
             "--method", "dp"],
        ],
    )
    def test_identical_voters_with_contrary_windows_exit_2(self, capsys, tmp_path, argv):
        # Every voter runs task 2 first, so the inferred graph puts it before
        # all others; its window allows only the last slot.
        path = tmp_path / "edge.prof"
        path.write_text("profile order\ntasks 5\nvoters 3\n" + "pref 1 : 2 4 1 5 3\n" * 3)
        windows = tmp_path / "w.time"
        windows.write_text("task 2 : 4 5\n")
        code, out, err = run(
            capsys,
            ["solve", "--profile", str(path), *argv, "--time", str(windows), "--format", "json"],
        )
        assert code == EXIT_INFEASIBLE
        assert json.loads(out) == {
            "schedule": None, "cost": None, "method": "dp", "feasible": False
        }
        assert "infeasible:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--profile", "fixture:late7x3", "--rule", "binary"],  # missing encoding
            ["solve", "--profile", "fixture:window8x6", "--rule", "distance", "--encoding", "deviation"],
            ["solve", "--profile", "fixture:nope", "--rule", "binary", "--encoding", "late"],
        ],
    )
    def test_semantic_errors_exit_1(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--rule", "binary", "--encoding", "late"],  # missing profile
            ["solve", "--profile", "fixture:late7x3", "--rule", "binary", "--encoding", "late", "--bogus"],
            ["solve", "--profile", "fixture:late7x3", "--rule", "distance", "--encoding", "deviation", "--prec-mode", "inferred", "--method", "repair"],
            # Was a refusal: the matching would break the inferred edges 1->5, 1->6, 1->7.
            ["solve", "--profile", "fixture:late7x3", "--rule", "binary", "--encoding", "late", "--prec-mode", "inferred", "--method", "matching"],
        ],
    )
    def test_argparse_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--rule", "emd"],
            ["solve", "--rule", "emd", "--encoding", "late"],
            ["solve", "--rule", "distance", "--encoding", "deviation"],
            ["solve", "--rule", "binary", "--encoding", "late", "--method", "dp"],
            ["solve", "--rule", "distance", "--encoding", "deviation", "--prec-mode", "inferred"],
            ["solve", "--rule", "binary", "--encoding", "late", "--prec-mode", "inferred"],
            ["check-axioms", "--rule", "emd"],
            ["check-axioms", "--rule", "distance", "--encoding", "deviation"],
            ["check-axioms", "--rule", "binary", "--encoding", "late", "--method", "dp"],
            ["check-axioms", "--rule", "distance", "--encoding", "deviation",
             "--prec-mode", "inferred"],
            ["solve", "--rule", "emd", "--prec-mode", "inferred"],
        ],
    )
    def test_recheck_catches_a_wrong_profile_cost(self, capsys, monkeypatch, argv):
        # The printed cost is rechecked with profile_cost; the solvers must
        # price their schedule some other way, or a faulty profile_cost would
        # agree with itself and pass the recheck.
        real = criteria.profile_cost
        for name, module in list(sys.modules.items()):
            if name == "consched" or name.startswith("consched."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, lambda *a, **k: real(*a, **k) + 1)
        with pytest.raises(AssertionError, match="!= recomputed cost"):
            cli.main([*argv, "--profile", "fixture:median4x3b"])
        capsys.readouterr()

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.prof"
        path.write_text("profile order\ntasks 3\nvoters 1\npref 1 : 1 2\n")
        code, _, err = run(
            capsys,
            ["solve", "--profile", str(path), "--rule", "distance", "--encoding", "deviation"],
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_bad_window_names_its_line(self, capsys, tmp_path):
        # Was "error: task 2: window (3,1) ...", the only parse error without a line.
        path = tmp_path / "p.prof"
        path.write_text("profile order\ntasks 5\nvoters 1\npref 1 : 1 2 3 4 5\n")
        windows = tmp_path / "w.time"
        windows.write_text("task 2 : 3 1\n")
        code, out, err = run(
            capsys,
            ["solve", "--profile", str(path), "--rule", "distance", "--encoding", "tardiness",
             "--time", str(windows)],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: line 1: task 2: window (3,1) violates 0 <= r < d <= 5\n"

    @pytest.mark.parametrize("edges, error", [
        ("1 -> 2\n2 -> 9\n", "line 2: edge (2,9) outside task range 1..3"),
        ("# c\n3 -> 3\n", "line 2: self-loop on task 3"),
        ("1 -> 2\n2 -> 1\n", "precedence graph has a cycle"),
    ], ids=["range", "self-loop", "cycle"])
    def test_bad_edge_names_its_line(self, capsys, tmp_path, edges, error):
        # Range and self-loop errors had no line; a cycle has none to name.
        path = tmp_path / "p.prof"
        path.write_text("profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n")
        prec = tmp_path / "g.prec"
        prec.write_text(edges)
        code, out, err = run(
            capsys,
            ["solve", "--profile", str(path), "--rule", "binary", "--encoding", "late",
             "--prec-mode", "graph", "--prec", str(prec)],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {error}\n"

    _HUGE = "9" * 5000  # past Python's 4,300-digit int() limit
    _ORDER3 = "profile order\ntasks 3\nvoters 1\npref 1 : 1 2 3\n"

    @pytest.mark.parametrize("profile, windows, edges, error", [
        (f"profile order\ntasks {_HUGE}\nvoters 1\npref 1 : 1\n", "", "",
         "line 2: number has too many digits"),
        (f"profile order\ntasks 3\nvoters {_HUGE}\npref 1 : 1 2 3\n", "", "",
         "line 3: number has too many digits"),
        (f"profile order\ntasks 3\nvoters 1\npref {_HUGE} : 1 2 3\n", "", "",
         "line 4: number has too many digits"),
        (f"profile order\ntasks 3\nvoters 1\npref 1 : 1 2 {_HUGE}\n", "", "",
         "line 4: number has too many digits"),
        (f"profile interval\ntasks 2\nvoters 1\npref 1 : (0,2) (0,{_HUGE})\n", "", "",
         "line 4: number has too many digits"),
        (_ORDER3, f"# c\ntask 2 : 0 {_HUGE}\n", "", "line 2: number has too many digits"),
        (_ORDER3, "", f"1 -> 2\n{_HUGE} -> 3\n", "line 2: number has too many digits"),
    ], ids=["tasks", "voters", "multiplicity", "task id", "interval pair", "window", "edge"])
    def test_number_past_the_int_digit_limit_names_its_line(self, capsys, tmp_path, profile,
                                                             windows, edges, error):
        # Each used to end in Python's bare "Exceeds the limit (4300 digits) ..." ValueError.
        for name, text in (("p.prof", profile), ("w.time", windows), ("g.prec", edges)):
            (tmp_path / name).write_text(text)
        code, out, err = run(
            capsys,
            ["solve", "--profile", str(tmp_path / "p.prof"), "--rule", "binary", "--encoding",
             "late", "--time", str(tmp_path / "w.time"), "--prec-mode", "graph", "--prec",
             str(tmp_path / "g.prec")],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("rule", [
        ["--rule", "emd"], ["--rule", "binary", "--encoding", "late"],
    ], ids=["emd", "binary"])
    @pytest.mark.parametrize("prec, error", [
        (["--prec", "{tmp}/dag.prec"], "--prec requires --prec-mode"),
        (["--prec-mode", "graph"], "--prec-mode graph requires --prec FILE"),
        (["--prec-mode", "graph", "--prec", "{tmp}/nope.prec"], "cannot read precedence file"),
        (["--prec-mode", "graph", "--prec", "{tmp}/cycle.prec"], "cycle"),
    ], ids=["no-mode", "no-file", "unreadable", "cyclic"])
    def test_every_rule_checks_the_prec_flags(self, capsys, order_profile, tmp_path, rule, prec,
                                              error):
        # emd ignores precedences, but rejects bad --prec flags as the other rules do.
        (tmp_path / "dag.prec").write_text("1 -> 2\n")
        (tmp_path / "cycle.prec").write_text("1 -> 2\n2 -> 1\n")
        prec = [arg.replace("{tmp}", str(tmp_path)) for arg in prec]
        code, out, err = run(capsys, ["solve", "--profile", order_profile, *rule, *prec])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and error in err

    @pytest.mark.parametrize("constraint", [
        ["--time", "{tmp}/w.txt"],
        ["--prec-mode", "graph", "--prec", "{tmp}/dag.prec"],
    ], ids=["time", "graph"])
    def test_emd_refuses_constraints_it_does_not_honor(self, capsys, order_profile, tmp_path,
                                                       constraint):
        # emd used to solve, ignore the constraint and print a note.
        (tmp_path / "w.txt").write_text("task 1 : 2 3\n")
        (tmp_path / "dag.prec").write_text("3 -> 1\n")
        constraint = [arg.replace("{tmp}", str(tmp_path)) for arg in constraint]
        code, out, err = run(
            capsys,
            ["solve", "--profile", order_profile, "--rule", "emd", *constraint,
             "--format", "json"],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: emd does not honor --time or --prec-mode graph\n"

    def test_emd_honors_inferred_precedences_without_a_note(self, capsys):
        # Ten inferred edges, among them 4 -> 3: every voter completes task 4
        # before task 3, and so does the median order.
        profile = parse_profile(cli.fixture_text("late7x3"))
        graph = infer_precedences(profile)
        assert (4, 3) in graph.edges
        code, out, err = run(capsys, [
            "solve", "--profile", "fixture:late7x3", "--rule", "emd",
            "--prec-mode", "inferred", "--format", "json",
        ])
        assert code == EXIT_OK
        assert err == ""
        assert satisfied_by(graph, Schedule(tuple(json.loads(out)["schedule"])))

    def test_emd_refuses_an_interval_profile_without_a_note(self, capsys, tmp_path):
        # The note used to be printed before the refusal.
        windows = tmp_path / "w.txt"
        windows.write_text("task 1 : 0 8\n")
        code, out, err = run(capsys, [
            "solve", "--profile", "fixture:window8x6", "--rule", "emd", "--time", str(windows),
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: emd requires an order-mode profile\n"

    def test_windows_and_an_edgeless_inferred_graph_run_the_matching(self, capsys, tmp_path):
        # The two voters agree on no pair, so only the windows constrain the answer.
        (tmp_path / "p.prof").write_text(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1 2 3\npref 1 : 3 2 1\n")
        (tmp_path / "w.txt").write_text("task 1 : 0 2\n")
        code, out, err = run(capsys, [
            "solve", "--profile", str(tmp_path / "p.prof"), "--rule", "distance",
            "--encoding", "deviation", "--time", str(tmp_path / "w.txt"),
            "--prec-mode", "inferred",
        ])
        assert (code, err) == (EXIT_OK, "")
        assert out.endswith("method: matching\n")

    def test_method_matching_is_a_usage_error(self, capsys):
        # auto runs the matching wherever --method matching used to be accepted.
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--profile", "fixture:late7x3", "--rule", "distance",
                      "--encoding", "deviation", "--method", "matching"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --method: invalid choice: 'matching' (choose from 'auto', 'dp')\n")

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_inferred_mode_refuses_a_prec_file(self, capsys, tmp_path, command):
        # The file used to be ignored with a note.
        (tmp_path / "dag.prec").write_text("1 -> 2\n")
        code, out, err = run(capsys, [
            command, "--profile", "fixture:late7x3", "--rule", "binary", "--encoding", "late",
            "--prec-mode", "inferred", "--prec", str(tmp_path / "dag.prec"),
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("error: --prec-mode inferred derives the graph from the profile; "
                       "--prec FILE applies to --prec-mode graph only\n")


class TestEval:
    def test_cost_matches_solver_fixture(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "eval", "--profile", "fixture:slots5x5", "--schedule", "1,2,3,4,5",
                "--criterion", "distance", "--encoding", "tardiness",
            ],
        )
        assert code == EXIT_OK
        assert out.strip() == "cost: 12"

    def test_schedule_length_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            [
                "eval", "--profile", "fixture:slots5x5", "--schedule", "1,2,3",
                "--criterion", "distance", "--encoding", "tardiness",
            ],
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("schedule, reason", [
        ("1 2 x", "invalid literal for int() with base 10: 'x'"),
        ("1,1,3,4,5", "duplicate task 1 in schedule"),
    ])
    def test_bad_schedule_exit_1(self, capsys, schedule, reason):
        code, out, err = run(capsys, [
            "eval", "--profile", "fixture:slots5x5", "--schedule", schedule,
            "--criterion", "distance", "--encoding", "tardiness",
        ])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: bad --schedule: {reason}\n"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, [
            "eval", "--profile", "fixture:slots5x5", "--schedule", "1,2,3,4,5",
            "--criterion", "distance", "--encoding", "tardiness", "--format", "json",
        ])
        assert code == EXIT_OK
        assert json.loads(out) == {"schedule": [1, 2, 3, 4, 5], "criterion": "distance",
                                   "encoding": "tardiness", "cost": 12}

    @pytest.mark.parametrize("encoding", [[], ["--encoding", "tardiness"]])
    def test_schedule_size_mismatch_names_both_sizes(self, capsys, order_profile, encoding):
        code, out, err = run(capsys, [
            "eval", "--profile", order_profile, "--schedule", "1 2",
            "--criterion", "distance", *encoding,
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: schedule has 2 tasks, profile 3\n"


class TestOracle:
    def test_axiom_filter_reports_constrained_best(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "oracle", "--profile", "fixture:late7x3", "--rule", "binary",
                "--encoding", "late", "--axiom-filter", "deadline",
            ],
        )
        assert code == EXIT_OK
        assert "best cost: 4" in out
        assert "searched 486" in out

    def test_unfiltered_lists_both_optima(self, capsys):
        code, out, _ = run(
            capsys,
            ["oracle", "--profile", "fixture:late7x3", "--rule", "binary", "--encoding", "late"],
        )
        assert code == EXIT_OK
        assert "best cost: 3" in out
        assert "1 2 3 5 6 7 4" in out
        assert "4 2 3 5 6 7 1" in out

    def test_max_optima_counts_the_rest(self, capsys):
        code, out, _ = run(capsys, [
            "oracle", "--profile", "fixture:tail8x6", "--rule", "distance",
            "--encoding", "deviation", "--max-optima", "1",
        ])
        assert code == EXIT_OK
        assert out == ("best cost: 54\noptima: 4 (searched 40320 feasible schedules)\n"
                       "  1 2 3 4 5 6 7 8\n  ... 3 more\n")

    @pytest.mark.parametrize("prec", [["--prec-mode", "inferred"], ["--prec-mode", "graph"]])
    def test_axiom_filter_rejects_prec_mode(self, capsys, prec):
        # --prec-mode was silently dropped, giving the unconstrained filtered optima.
        code, out, err = run(capsys, [
            "oracle", "--profile", "fixture:tail8x6", "--rule", "distance",
            "--encoding", "deviation", "--axiom-filter", "release", *prec,
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --axiom-filter cannot be combined with --time/--prec\n"

    @pytest.mark.parametrize("axiom", ["release", "deadline"])
    def test_order_axiom_filter_on_an_interval_profile_exit_1(self, capsys, axiom):
        code, out, err = run(capsys, [
            "oracle", "--profile", "fixture:window8x6", "--rule", "binary",
            "--axiom-filter", axiom,
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: the {axiom} filter needs an order-mode profile\n"

    @pytest.mark.parametrize("axiom", ["release", "deadline"])
    def test_size_guard_comes_before_the_axiom_check(self, capsys, tmp_path, axiom):
        path = tmp_path / "eleven.prof"
        windows = " ".join(f"({j},{j + 1})" for j in range(11))
        path.write_text(f"profile interval\ntasks 11\nvoters 1\npref 1 : {windows}\n")
        code, out, err = run(capsys, [
            "oracle", "--profile", str(path), "--rule", "binary", "--axiom-filter", axiom,
        ])
        assert code == EXIT_SIZE_LIMIT
        assert out == ""
        assert err.startswith("size limit: ")

    def test_every_permutation_ties(self, capsys, tmp_path):
        # Seven cyclic shifts put every task at every slot once, so under the
        # deviation encoding all 7! schedules cost the same.
        path = tmp_path / "latin.prof"
        path.write_text(serialize_profile(latin_square(7)))
        code, out, _ = run(capsys, [
            "oracle", "--profile", str(path), "--rule", "distance", "--encoding", "deviation",
            "--max-optima", "3", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["optima_count"] == payload["searched"] == factorial(7)
        assert payload["optima"] == [[1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 7, 6],
                                     [1, 2, 3, 4, 6, 5, 7]]

    def test_windows_and_precedences_admitting_no_schedule_exit_2(self, capsys, tmp_path):
        # Task 1 must finish last, yet it precedes task 2.
        (tmp_path / "w.txt").write_text("task 1 : 3 4\n")
        (tmp_path / "g.txt").write_text("1 -> 2\n")
        flags = ["--profile", "fixture:median4x3a", "--rule", "distance",
                 "--encoding", "deviation", "--time", str(tmp_path / "w.txt"),
                 "--prec-mode", "graph", "--prec", str(tmp_path / "g.txt")]
        for command in ("oracle", "solve"):
            code, out, err = run(capsys, [command, *flags])
            assert code == EXIT_INFEASIBLE, command
            assert out == ""
            assert err.startswith("infeasible: "), err

    @pytest.mark.parametrize("command", ["oracle", "solve"])
    def test_inferred_precedences_on_an_interval_profile_exit_1(self, capsys, command):
        code, out, err = run(capsys, [
            command, "--profile", "fixture:window8x6", "--rule", "binary",
            "--prec-mode", "inferred",
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --prec-mode inferred requires an order-mode profile\n"

    def test_n10_json_searches_every_schedule_in_bounded_memory(self, capsys, tmp_path):
        path = tmp_path / "ten.prof"
        path.write_text(serialize_profile(experiment.generate_profile(10, 20, seed=2)))
        tracemalloc.start()
        try:
            code = cli.main(["oracle", "--profile", str(path), "--rule", "distance",
                             "--encoding", "deviation", "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["searched"] == factorial(10)
        # Pricing from a cached 10! x 10 completions table peaked at 101 MB here.
        assert peak < 80 * 2**20

    def test_negative_max_optima_is_a_usage_error(self, capsys):
        # A negative slice bound would silently drop optima from the listing.
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--profile", "fixture:late7x3", "--rule", "binary",
                      "--encoding", "late", "--max-optima", "-1", "--format", "json"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: consched oracle")
        assert err.endswith("error: argument --max-optima: must be >= 0, got -1\n")


class TestCheckAxioms:
    def test_line_format_on_order_profile(self, capsys):
        code, out, _ = run(
            capsys,
            ["check-axioms", "--profile", "fixture:median4x3a", "--rule", "emd"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "schedule: 1 2 3 4" in lines
        assert "release_date_consistency: VIOLATION task=1 window=(1,4) got=1" in lines
        assert "deadline_consistency: PASS" in lines
        assert "temporal_unanimity: VIOLATION task=1 window=(1,2) got=1" in lines

    def test_interval_profile_skips_order_axioms(self, capsys):
        code, out, _ = run(
            capsys,
            ["check-axioms", "--profile", "fixture:window8x6", "--rule", "distance"],
        )
        assert code == EXIT_OK
        assert "temporal_unanimity: VIOLATION task=8 window=(5,7) got=8" in out
        assert "release_date_consistency: SKIPPED (order-mode axiom)" in out
        assert "deadline_consistency: SKIPPED (order-mode axiom)" in out


class TestGen:
    def test_deterministic_for_seed(self, capsys):
        _, first, _ = run(capsys, ["gen", "--tasks", "6", "--voters", "4", "--seed", "42"])
        _, second, _ = run(capsys, ["gen", "--tasks", "6", "--voters", "4", "--seed", "42"])
        _, other, _ = run(capsys, ["gen", "--tasks", "6", "--voters", "4", "--seed", "43"])
        assert first == second
        assert first != other
        assert first.startswith("# generator uniform_permutations seed 42 tasks 6 voters 4\n")

    def test_swap_noise_zero_swaps_is_identity(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "gen", "--tasks", "5", "--voters", "3", "--seed", "4",
                "--generator", "mallows_like_swap_noise", "--swaps", "0",
            ],
        )
        assert code == EXIT_OK
        assert out.count("pref 1 : 1 2 3 4 5") == 3

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--tasks", "6", "--voters", "5", "--seed", "1"],
             "37735ce3ec0cbd3681e3c67f3cffcfd043a90af4c2978fcaa3f47df12852bc2b"),
            (["--tasks", "8", "--voters", "7", "--seed", "1",
              "--generator", "mallows_like_swap_noise", "--swaps", "5"],
             "a2f7d3e1b1abe0f899b15f21cefa92c325127db0801ef7d1dfbf0565b57368db"),
            (["--tasks", "2", "--voters", "3", "--seed", "1",
              "--generator", "mallows_like_swap_noise", "--swaps", "3"],
             "3ba790bf843a4322cbc21078e3e1a2cd66e050a9643d287f4a068ade8d318585"),
            (["--tasks", "60", "--voters", "300", "--seed", "3"],
             "b4d60919c6e44ab1bb99c343b9a0137c8423bb9e2ce82a796f3e13923318270c"),
        ],
    )
    def test_frozen_bytes(self, capsys, argv, digest):
        # The benchmark writes its inputs with its own copy of the LCG and
        # checks them against these bytes; any change to the draw order shows.
        code, out, _ = run(capsys, ["gen", *argv])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ratio_experiment_draws_like_gen(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            experiment, "emd_schedule", lambda p: seen.append(p) or Schedule((1, 2, 3))
        )
        monkeypatch.setattr(
            experiment, "solve", lambda *a, **k: Solution(Schedule((1, 2, 3)), 1, "matching")
        )
        experiment.run_ratio_experiment(experiment.ExperimentConfig(trials=3, n=3, v=4, seed=8))
        rng = experiment.Lcg(8)
        assert seen == [
            experiment._draw_profile(rng, 3, 4, "uniform_permutations", 0) for _ in range(3)
        ]
        assert seen[0] == experiment.generate_profile(3, 4, 8)

    @pytest.mark.parametrize("command", [
        ["gen", "--tasks", "4", "--voters", "2", "--seed", "1"],
        ["ratio", "--trials", "2", "--tasks", "4", "--voters", "2", "--seed", "1"],
    ])
    def test_negative_swaps_is_a_usage_error(self, capsys, command):
        # gen used to write "swaps -2" into the header and draw no swap at all.
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--generator", "mallows_like_swap_noise", "--swaps", "-2"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: consched {command[0]}")
        assert err.endswith("error: argument --swaps: must be >= 0, got -2\n")

    def test_generate_profile_refuses_negative_swaps(self):
        # It used to draw no swap and return v identity voters.
        with pytest.raises(ValueError, match=r"^swaps must be >= 0, got -5$"):
            experiment.generate_profile(4, 3, 1, "mallows_like_swap_noise", -5)

    def test_generate_profile_refuses_an_unknown_generator(self):
        with pytest.raises(ValueError, match=r"^unknown generator 'gaussian'$"):
            experiment.generate_profile(4, 3, 1, "gaussian")

    def test_experiment_config_refuses_no_trials(self):
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            experiment.ExperimentConfig(trials=0, n=4, v=3, seed=1)

    def test_experiment_config_refuses_negative_swaps(self):
        with pytest.raises(ValueError, match=r"^swaps must be >= 0, got -1$"):
            experiment.ExperimentConfig(
                trials=2, n=4, v=3, seed=1, generator="mallows_like_swap_noise", swaps=-1
            )

    @pytest.mark.parametrize("command", [
        ["gen", "--tasks", "4", "--voters", "2", "--seed", "1"],
        ["ratio", "--trials", "2", "--tasks", "4", "--voters", "2", "--seed", "1"],
    ])
    def test_swaps_without_the_swap_generator_are_refused(self, capsys, command):
        # gen used to write "swaps 3" into the header and draw no swap at all.
        code, out, err = run(capsys, [*command, "--swaps", "3"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: swaps apply to mallows_like_swap_noise only, not uniform_permutations\n"
        )

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command, flag", [
        ("gen", "--tasks"), ("gen", "--voters"),
        ("ratio", "--tasks"), ("ratio", "--voters"), ("ratio", "--trials"),
    ])
    def test_non_positive_size_is_a_usage_error(self, capsys, command, flag, value):
        # gen and ratio used to exit 1 with "error: empty schedule", "error:
        # profile has no entries" or "error: trials must be >= 1".
        sizes = {"--tasks": "3", "--voters": "2"}
        if command == "ratio":
            sizes["--trials"] = "2"
        sizes[flag] = value
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "1", *(arg for item in sizes.items() for arg in item)])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: consched {command}")
        assert err.endswith(f"error: argument {flag}: must be >= 1, got {value}\n")

    def test_non_integer_count_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--tasks", "4", "--voters", "2", "--seed", "1", "--swaps", "two"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --swaps: invalid int value: 'two'\n"
        )

    def test_round_trip_through_solve(self, capsys, tmp_path):
        path = tmp_path / "gen.prof"
        code, _, _ = run(
            capsys, ["gen", "--tasks", "8", "--voters", "5", "--seed", "9", "--out", str(path)]
        )
        assert code == EXIT_OK
        code, out, _ = run(
            capsys,
            ["solve", "--profile", str(path), "--rule", "distance", "--encoding", "deviation"],
        )
        assert code == EXIT_OK
        assert "method: matching" in out

    def test_out_into_a_missing_directory_is_one_error_line(self, capsys, tmp_path):
        # gen used to end here in a FileNotFoundError traceback.
        path = tmp_path / "missing" / "x.prof"
        code, out, err = run(
            capsys, ["gen", "--tasks", "3", "--voters", "2", "--seed", "1", "--out", str(path)]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"error: cannot write profile {str(path)!r}: "
                       f"[Errno 2] No such file or directory: {str(path)!r}\n")


class TestRatio:
    def test_exact_text_report(self, capsys):
        code, out, _ = run(
            capsys,
            ["ratio", "--trials", "20", "--tasks", "5", "--voters", "3", "--seed", "11", "--exact"],
        )
        assert code == EXIT_OK
        assert "mode=exact" in out
        assert "violations: none" in out
        assert "per-slot double bound" in out

    SWAPS = ["ratio", "--trials", "3", "--tasks", "5", "--voters", "4", "--seed", "2",
             "--generator", "mallows_like_swap_noise", "--swaps", "3"]

    def test_text_header_names_the_swaps(self, capsys):
        code, out, _ = run(capsys, self.SWAPS)
        assert code == EXIT_OK
        assert out.startswith("ratio report: trials=3 n=5 v=4 seed=2 "
                              "generator=mallows_like_swap_noise swaps=3 mode=matching\n")

    def test_json_report_names_the_swaps(self, capsys):
        code, out, _ = run(capsys, [*self.SWAPS, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert list(payload)[4:7] == ["generator", "swaps", "exact"]
        assert payload["swaps"] == 3

    def test_fast_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "ratio", "--trials", "10", "--tasks", "6", "--voters", "3",
                "--seed", "2", "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["trials"] == 10
        assert payload["exact"] is False
        assert payload["kendall"] is None
        assert payload["violations"] == []
        assert payload["tardiness"]["max"] <= 2.0

    @staticmethod
    def reverse_the_median(monkeypatch):
        """Make the experiment schedule by the reversed median order; returns the profiles seen."""
        seen = []

        def reversed_median(profile):
            seen.append(profile)
            return Schedule(rules.emd_schedule(profile).order[::-1])

        monkeypatch.setattr(experiment, "emd_schedule", reversed_median)
        return seen

    # (kind, whether the optimum was 0) of every breach a reversed median order
    # draws: with 0 swaps all voters agree, so every optimum is 0.
    @pytest.mark.parametrize("swaps, kinds", [
        (0, {("kendall bound", True), ("per-slot bound", False), ("tardiness bound", True)}),
        (2, {("kendall bound", False), ("per-slot bound", False), ("tardiness bound", False),
             ("deviation bound", False)}),
    ])
    def test_breaches_are_reported(self, monkeypatch, swaps, kinds):
        seen = self.reverse_the_median(monkeypatch)
        config = experiment.ExperimentConfig(2, 5, 4, 1, "mallows_like_swap_noise", swaps, True)
        report = experiment.run_ratio_experiment(config)
        assert not report.ok
        assert len(seen) == 2
        found = set()
        for entry in report.violations:
            head, schedule, profile = entry.split("\n", 2)
            trial, kind, detail = head.split(": ", 2)
            t = int(trial.removeprefix("trial "))
            reversed_median = Schedule(rules.emd_schedule(seen[t]).order[::-1])
            assert schedule == f"  emd schedule: {reversed_median}"
            assert profile == serialize_profile(seen[t])
            found.add((kind, detail.startswith("optimum 0 but")))
        assert found == kinds
        if swaps == 0:  # no ratio is defined, so each statistic reads 1
            assert (report.zero_tardiness_opt, report.zero_kendall_opt) == (2, 2)
            assert report.max_tardiness_ratio == report.mean_kendall_ratio == 1.0

    def test_breaches_exit_1_with_their_list(self, capsys, monkeypatch):
        self.reverse_the_median(monkeypatch)
        code, out, _ = run(capsys, [
            "ratio", "--trials", "2", "--tasks", "5", "--voters", "4", "--seed", "1",
            "--generator", "mallows_like_swap_noise", "--swaps", "0", "--exact",
        ])
        assert code == 1
        assert "\n  VIOLATIONS (12):\ntrial 0: kendall bound: optimum 0 but emd 40\n" in out
        assert "violations: none" not in out


class TestFixtures:
    def test_list_names_all_bundled_profiles(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "list"])
        assert code == EXIT_OK
        for name in (
            "slots5x5", "tail8x6", "late7x3", "median4x3a",
            "median4x3b", "chain5x6", "window8x6",
        ):
            assert name in out

    def test_json_list_maps_each_name_to_its_description_and_path(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "list", "--format", "json"])
        assert code == EXIT_OK
        listed = json.loads(out)
        assert list(listed) == list(cli.FIXTURES)
        for name, entry in listed.items():
            assert entry == {"description": cli.FIXTURES[name],
                             "path": str(Path(cli.__file__).parent / "fixtures" / f"{name}.prof")}
            assert Path(entry["path"]).is_file()

    def test_path_points_at_readable_file(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "path", "window8x6"])
        assert code == EXIT_OK
        with open(out.strip()) as handle:
            assert handle.readline().startswith("#") or "profile" in handle.read()

    def test_unknown_fixture_exits_1(self, capsys):
        code, _, err = run(capsys, ["fixtures", "path", "nope"])
        assert code == EXIT_USAGE
        assert "error:" in err


# Help and usage-error text, captured from the CLI when it built every subcommand's
# parser up front, at 80 columns on Python 3.11's argparse.
USAGE = json.loads((Path(__file__).resolve().parent / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_and_usage_text_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


# Exit code, stdout and stderr of every request in the grid below, captured from the
# CLI by ``_recut_solve_outputs``, which is re-run only when an output changes on
# purpose. ``cases`` maps each request's label to its entry in ``outputs``; "{tmp}"
# stands for the directory that holds ``files``. `--dp-limit 7` on the dp method sends
# the n = 8 profiles to the size guard.
SOLVE_OUTPUTS = json.loads(
    (Path(__file__).resolve().parent / "cli_solve_outputs.json").read_text())
GRID_PROFILES = ("chain5x6", "late7x3", "median4x3a", "median4x3b", "slots5x5", "tail8x6",
                 "window8x6")
GRID_RULES = ("distance/deviation", "distance/tardiness", "distance/earliness",
              "binary/late", "binary/exactpos", "emd")
GRID_METHODS = {"none": [], "dp": ["--method", "dp", "--dp-limit", "7"]}
GRID_CONSTRAINTS = {
    "none": [],
    "time": ["--time", "{tmp}/w.txt"],
    "inferred": ["--prec-mode", "inferred"],
    "graph": ["--prec-mode", "graph", "--prec", "{tmp}/g.txt"],
    "time+graph": ["--time", "{tmp}/w.txt", "--prec-mode", "graph", "--prec", "{tmp}/g.txt"],
}


def _solve_grid():
    """(label, argv) of each request; the interval fixture takes no --encoding, so one per rule."""
    for command, profile, pair, method, constraint, fmt in itertools.product(
            ("solve", "check-axioms"), GRID_PROFILES, GRID_RULES, GRID_METHODS,
            GRID_CONSTRAINTS, ("text", "json")):
        rule, _, encoding = pair.partition("/")
        if profile == "window8x6":
            if encoding not in ("", "deviation", "late"):
                continue
            encoding = ""
        label = " ".join((command, profile, pair if encoding else rule, method, constraint, fmt))
        yield label, [command, "--profile", f"fixture:{profile}", "--rule", rule,
                      *(["--encoding", encoding] if encoding else []), *GRID_METHODS[method],
                      *GRID_CONSTRAINTS[constraint], "--format", fmt]


def _run_solve_grid(files, tmp):
    """(label, [exit code, stdout, stderr]) of each grid request, ``files`` written to ``tmp``."""
    for name, text in files.items():
        (tmp / name).write_text(text)
    for label, argv in _solve_grid():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        yield label, [code, *(buf.getvalue().replace(str(tmp), "{tmp}") for buf in (out, err))]


def _recut_solve_outputs(tmp):
    """The grid's outputs as ``cli_solve_outputs.json`` stores them, for a deliberate re-cut.

    ``files`` are the committed ones, ``outputs`` each distinct output in order of first
    use and ``cases`` each label's index into it. Write the file with
    ``json.dumps(_recut_solve_outputs(tmp), indent=0, separators=(",", ":"))``.
    """
    outputs, cases = [], {}
    for label, output in _run_solve_grid(SOLVE_OUTPUTS["files"], tmp):
        if output not in outputs:
            outputs.append(output)
        cases[label] = outputs.index(output)
    return {"files": SOLVE_OUTPUTS["files"], "outputs": outputs, "cases": cases}


def test_solve_and_check_axioms_outputs_are_unchanged(tmp_path):
    grid = dict(_run_solve_grid(SOLVE_OUTPUTS["files"], tmp_path))
    assert grid.keys() == SOLVE_OUTPUTS["cases"].keys()
    changed = [label for label, got in grid.items()
               if got != SOLVE_OUTPUTS["outputs"][SOLVE_OUTPUTS["cases"][label]]]
    assert not changed, f"{len(changed)} of {len(grid)} requests changed, first: {changed[:5]}"
    codes = {SOLVE_OUTPUTS["outputs"][i][0] for i in SOLVE_OUTPUTS["cases"].values()}
    assert codes == {EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_SIZE_LIMIT}


def test_every_snapshot_answer_honors_its_request():
    # Each exit-0 request's printed schedule meets the windows and the graph it
    # was given. The inferred graph is derived here, voter by voter.
    files = SOLVE_OUTPUTS["files"]
    broken, honored = [], set()
    for label, index in SOLVE_OUTPUTS["cases"].items():
        code, out, _ = SOLVE_OUTPUTS["outputs"][index]
        if code != EXIT_OK:
            continue
        _, name, *_, constraint, fmt = label.split()
        printed = json.loads(out)["schedule"] if fmt == "json" else out.split("\n")[0].split()[1:]
        schedule = Schedule(tuple(map(int, printed)))
        n = schedule.n
        edges = set()
        if constraint == "inferred":
            orders = [pref.completions() for pref in voters(parse_profile(cli.fixture_text(name)))]
            edges = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                     if all(comp[a - 1] < comp[b - 1] for comp in orders)}
        elif constraint.endswith("graph"):
            edges = parse_precedence(files["g.txt"], n).edges
        windows = parse_time_windows(files["w.txt"], n).windows if "time" in constraint else ()
        if not (satisfied_by(PrecedenceGraph(n, frozenset(edges)), schedule)
                and all(r < schedule.completion(j) <= d for j, (r, d) in enumerate(windows, 1))):
            broken.append(label)
        honored.add(constraint)
    assert not broken, f"{len(broken)} answers break their request, first: {broken[:5]}"
    # w.txt pins task 1 to slot 1 and g.txt puts task 2 before it, so every
    # time+graph request is infeasible or refused.
    assert honored == set(GRID_CONSTRAINTS) - {"time+graph"}


def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "consched.cli", "solve", "--profile", "fixture:chain5x6",
         "--rule", "binary", "--encoding", "late", "--prec-mode", "inferred", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["cost"] == 7
    assert payload["schedule"] == [4, 2, 5, 1, 3]


def test_the_console_script_is_the_process_entry():
    # Python 3.10 has no tomllib, so the target is read with a text match.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\nconsched = "([\w.]+):(\w+)"$', text, re.M)
    assert target is not None
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is cli.run


def _fresh(args, env=None, **popen):
    """``python <args>`` in a new interpreter, stdout and stderr captured as text.

    ``OPENBLAS_NUM_THREADS`` and ``PYTHONUNBUFFERED`` are unset, so the
    streams are block-buffered to pipes and files as they are for a user, and
    a missing flush loses output. ``popen`` passes on to ``subprocess.run``
    and may replace the captured streams.
    """
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    return subprocess.run([sys.executable, *args], text=True, timeout=120,
                          env={**clean, **(env or {})}, **popen)


def _entry_probe(argv, then, before=""):
    """A ``-c`` program: ``before``, then the request ``python -m consched.cli <argv>`` in process.

    ``then`` runs as an at-exit callback registered before the request, so
    it sees the request however the process ends.
    """
    return (
        "import atexit, runpy, sys\n"
        f"atexit.register(exec, {then!r}, globals())\n"
        + before
        + f"sys.argv = ['consched', *{argv!r}]\n"
        "runpy.run_module('consched.cli', run_name='__main__')\n"
    )


class TestFreshProcess:
    """Each request is a new process that imports only what its subcommand runs.

    In-process tests share one interpreter in which every module is already
    loaded, so they would not notice a subcommand missing an import.
    """

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "g.txt").write_text("1 -> 2\n3 -> 4\n")
        (tmp_path / "w.txt").write_text("task 1 : 0 3\n")
        (tmp_path / "tight.txt").write_text("task 1 : 0 1\ntask 2 : 0 1\n")
        (tmp_path / "bad.prof").write_text(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1 2 2\npref 1 : 3 2 1\n")
        (tmp_path / "spaced.prof").write_text(
            "profile order\ntasks 3\nvoters 2\npref 1 : 1  2 3\npref 1 : 3 2 1\n")
        return tmp_path

    SOLVE = ["solve", "--profile", "fixture:chain5x6", "--rule", "binary", "--encoding", "late"]
    ORACLE = ["oracle", "--profile", "fixture:late7x3", "--rule", "binary", "--encoding", "late"]

    @pytest.mark.parametrize("argv", [
        SOLVE,
        SOLVE + ["--time", "{tmp}/w.txt"],
        SOLVE + ["--prec-mode", "inferred"],
        SOLVE + ["--prec-mode", "graph", "--prec", "{tmp}/g.txt"],
        ["solve", "--profile", "fixture:tail8x6", "--rule", "distance", "--encoding", "deviation",
         "--prec-mode", "inferred"],
        ["solve", "--profile", "fixture:median4x3a", "--rule", "emd", "--format", "json"],
        ["eval", "--profile", "fixture:late7x3", "--schedule", "4 2 3 5 6 7 1",
         "--criterion", "binary", "--encoding", "late"],
        ORACLE,
        ORACLE + ["--prec-mode", "inferred"],
        ORACLE + ["--axiom-filter", "deadline"],
        ["check-axioms", "--profile", "fixture:median4x3a", "--rule", "emd"],
        ["gen", "--tasks", "6", "--voters", "4", "--seed", "3",
         "--generator", "mallows_like_swap_noise", "--swaps", "2"],
        ["ratio", "--trials", "2", "--tasks", "4", "--voters", "3", "--seed", "5", "--exact"],
        ["fixtures", "list"],
        ["fixtures", "path", "late7x3"],
    ])
    def test_every_subcommand_runs_cold(self, capsys, files, argv):
        argv = [arg.replace("{tmp}", str(files)) for arg in argv]
        proc = _fresh(["-m", "consched.cli", *argv])
        assert proc.returncode == EXIT_OK, proc.stderr
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert proc.stdout == out

    @pytest.mark.parametrize("argv, expected", [
        (["solve", "--profile", "{tmp}/bad.prof", "--rule", "binary", "--encoding", "late"],
         EXIT_USAGE),
        (SOLVE + ["--time", "{tmp}/tight.txt"], EXIT_INFEASIBLE),
        (SOLVE + ["--method", "dp", "--dp-limit", "0"], EXIT_SIZE_LIMIT),
    ])
    def test_every_exit_class_runs_cold(self, capsys, files, argv, expected):
        argv = [arg.replace("{tmp}", str(files)) for arg in argv]
        proc = _fresh(["-m", "consched.cli", *argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv)
        assert proc.returncode == expected

    @pytest.mark.parametrize("case", [case for case in USAGE if case["argv"] in (
        [], ["--help"], ["solve", "--help"], ["solve"], ["fixtures", "path"])],
        ids=lambda case: " ".join(case["argv"]) or "(none)")
    def test_help_and_usage_errors_run_cold(self, case):
        proc = _fresh(["-m", "consched.cli", *case["argv"]], env={"COLUMNS": "80"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            case["code"], case["stdout"], case["stderr"])

    def test_import_consched_loads_no_numpy_and_no_submodule(self):
        proc = _fresh(["-c", "import sys, consched; print(sorted("
                       "m for m in sys.modules if m == 'numpy' or m.startswith('consched')))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['consched']\n"

    # Every module but ``cli``, which the probe runs as ``__main__``.
    MODULES = {"_commands", "_lines", "assignment", "axioms", "criteria", "errors", "experiment",
               "model", "oracle", "precedence", "rules"}
    # Loaded by no request: ``_lines`` reads only bodies the byte reader refuses,
    # and ``_commands`` holds the handlers of all but solve and oracle.
    COLD = {"_lines", "_commands"}

    @pytest.mark.parametrize("argv, unused", [
        (SOLVE, {"oracle", "axioms", "experiment", "precedence", *COLD}),
        (ORACLE, {"axioms", "experiment", "precedence", "rules", "assignment", *COLD}),
        (["fixtures", "list"],
         {"oracle", "axioms", "experiment", "precedence", "rules", "assignment", "criteria",
          "_lines"}),
        (["fixtures", "path", "late7x3"],
         {"oracle", "axioms", "experiment", "precedence", "rules", "assignment", "criteria",
          "_lines"}),
        (["eval", "--profile", "fixture:late7x3", "--schedule", "4 2 3 5 6 7 1",
          "--criterion", "binary", "--encoding", "late"],
         {"assignment", "precedence", "rules", "oracle", "axioms", "experiment", "_lines"}),
        (["solve", "--profile", "fixture:median4x3a", "--rule", "emd"],
         {"oracle", "axioms", "experiment", "precedence", *COLD}),
        (SOLVE + ["--prec-mode", "inferred"], {"oracle", "axioms", "experiment", *COLD}),
        (SOLVE + ["--prec-mode", "graph", "--prec", "{tmp}/g.txt", "--method", "dp"],
         {"oracle", "axioms", "experiment", *COLD}),
        (SOLVE + ["--time", "{tmp}/w.txt"], {"oracle", "axioms", "experiment", "precedence", *COLD}),
        (ORACLE + ["--axiom-filter", "release"],
         {"experiment", "precedence", "rules", "assignment", *COLD}),
        (["solve", "--profile", "fixture:window8x6", "--rule", "distance"],
         {"oracle", "axioms", "experiment", "precedence", "_commands"}),
        (["oracle", "--profile", "{tmp}/spaced.prof", "--rule", "distance",
          "--encoding", "deviation"],
         {"axioms", "experiment", "precedence", "rules", "assignment", "_commands"}),
        (["check-axioms", "--profile", "fixture:median4x3a", "--rule", "emd"],
         {"oracle", "experiment", "precedence", "_lines"}),
        (["gen", "--tasks", "6", "--voters", "4", "--seed", "3"],
         {"axioms", "precedence", "_lines"}),
        (["ratio", "--trials", "2", "--tasks", "4", "--voters", "3", "--seed", "5"],
         {"axioms", "precedence", "_lines"}),
        (SOLVE + ["--format", "json"], {"oracle", "axioms", "experiment", "precedence", *COLD}),
        (ORACLE + ["--format", "json"],
         {"axioms", "experiment", "precedence", "rules", "assignment", *COLD}),
        (["fixtures", "list", "--format", "json"],
         {"oracle", "axioms", "experiment", "precedence", "rules", "assignment", "criteria",
          "_lines"}),
        (["eval", "--profile", "fixture:late7x3", "--schedule", "4 2 3 5 6 7 1",
          "--criterion", "binary", "--encoding", "late", "--format", "json"],
         {"assignment", "precedence", "rules", "oracle", "axioms", "experiment", "_lines"}),
        (["check-axioms", "--profile", "fixture:median4x3a", "--rule", "emd", "--format", "json"],
         {"oracle", "experiment", "precedence", "_lines"}),
        (["ratio", "--trials", "2", "--tasks", "4", "--voters", "3", "--seed", "5",
          "--format", "json"],
         {"axioms", "precedence", "_lines"}),
    ])
    def test_a_request_loads_only_what_it_runs(self, files, argv, unused):
        argv = [arg.replace("{tmp}", str(files)) for arg in argv]
        proc = _fresh(["-c", _entry_probe(argv, (
            "print(sorted(m[9:] for m in sys.modules if m.startswith('consched.')))\n"
            "print('dataclasses' in sys.modules, 'json' in sys.modules, 'heapq' in sys.modules)\n"
        ))])
        assert proc.returncode == 0, proc.stderr
        *_, modules, loaded = proc.stdout.splitlines()
        assert set(eval(modules)) == self.MODULES - unused
        # Every record is a ``model._Record``, so no command loads ``dataclasses``,
        # only JSON output needs ``json``, and only an interval-mode profile (the
        # line reader's feasibility check) needs ``heapq``.
        json_out = "--format" in argv and argv[argv.index("--format") + 1] == "json"
        heapq = "fixture:window8x6" in argv  # the one interval-mode profile here
        assert loaded == f"False {json_out} {heapq}"

    def test_the_module_list_is_the_package(self):
        package = Path(cli.__file__).parent
        assert {p.stem for p in package.glob("*.py")} == self.MODULES | {"__init__", "cli"}

    THREADS = (
        "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
        "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
    )

    def test_cli_defaults_openblas_to_one_thread(self):
        proc = _fresh(["-c", "import consched.cli, numpy; " + self.THREADS])
        assert proc.returncode == 0, proc.stderr
        # One OS thread: OpenBLAS started no worker, so the default came first.
        assert proc.stdout == "1 1\n"

    def test_cli_keeps_the_callers_openblas_setting(self):
        proc = _fresh(["-c", "import consched.cli; " + self.THREADS],
                      env={"OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == "2"

    def test_the_entry_freezes_the_start_up_heap_and_keeps_the_collector_on(self):
        proc = _fresh(["-c", _entry_probe(
            self.SOLVE, "import gc; print(gc.isenabled(), gc.get_freeze_count() > 0)\n")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True True"

    def test_a_closed_stdout_ends_the_request_quietly(self):
        proc = _fresh(["-m", "consched.cli", *self.SOLVE], stdout=None,
                      preexec_fn=partial(os.close, 1))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    def test_json_sent_to_a_file_is_written_whole(self, capsys, tmp_path):
        argv = [*self.SOLVE, "--format", "json"]
        with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
            proc = _fresh(["-m", "consched.cli", *argv], stdout=out, stderr=err)
        assert proc.returncode == EXIT_OK
        assert (tmp_path / "out").read_text() == run(capsys, argv)[1]
        assert json.loads((tmp_path / "out").read_text())["cost"] == 6
        assert (tmp_path / "err").read_text() == ""

    def test_a_profiled_request_prints_its_profile(self, capsys):
        proc = _fresh(["-m", "cProfile", "-m", "consched.cli", *self.SOLVE])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(run(capsys, self.SOLVE)[1])
        assert "function calls" in proc.stdout and "cumtime" in proc.stdout

    # An object the normal exit deletes when it tears the modules down.
    TEARDOWN = (
        "class Mark:\n"
        "    def __del__(self, write=__import__('os').write):\n"
        "        write(1, b'teardown\\n')\n"
        "sys.mark = Mark()\n"
    )

    @pytest.mark.parametrize("flags, before, tail", [
        ([], "", ["at exit"]),
        ([], "sys.settrace(lambda *event: None)\n", ["at exit", "teardown"]),
        ([], "sys.setprofile(lambda *event: None)\n", ["at exit", "teardown"]),
        (["-i"], "", ["at exit", "teardown"]),
        # A second thread, which the normal exit waits for and ``os._exit`` would kill.
        ([], "import threading\nthreading.Thread(target=lambda: ("
             "threading.main_thread().join(), print('joined'))).start()\n",
         ["joined", "at exit", "teardown"]),
    ], ids=["alone", "tracer", "profiler", "inspect", "thread"])
    def test_at_exit_callbacks_run_and_only_a_lone_request_skips_the_teardown(
            self, capsys, flags, before, tail):
        proc = _fresh([*flags, "-c", _entry_probe(self.SOLVE, "print('at exit')\n",
                                                  before + self.TEARDOWN)],
                      stdin=subprocess.DEVNULL)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == run(capsys, self.SOLVE)[1].splitlines() + tail

    def test_main_keeps_the_callers_collector(self):
        proc = _fresh(["-c", (
            "import gc, consched.cli\n"
            f"code = consched.cli.main({self.SOLVE!r})\n"
            "print(code, gc.isenabled(), gc.get_freeze_count())\n"
        )])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True 0"

    def test_library_leaves_the_environment_alone(self):
        proc = _fresh(["-c", (
            "import os, consched\n"
            "p = consched.parse_profile('profile order\\ntasks 2\\nvoters 1\\npref 1 : 2 1\\n')\n"
            "print(consched.solve(p, 'distance', 'deviation').cost)\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\nNone\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_examples_run_as_shown(capsys, tmp_path, monkeypatch):
    block = re.search(r"```python\n(.*?)```", _readme_section("Solving"), re.S)[1]
    (tmp_path / "voters.prof").write_text(cli.fixture_text("tail8x6"))
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    solution = rules.solve(cli._load_profile("fixture:tail8x6"), "distance", "deviation")
    assert capsys.readouterr().out == (
        f"{solution.schedule} {solution.cost} {solution.method}\n"
    )

    transcripts = re.search(r"```bash\n(.*?)```", _readme_section("CLI"), re.S)[1]
    sessions = transcripts.split("\n\n")
    assert len(sessions) == 2
    for session in sessions:
        command, *shown = session.strip("\n").split("\n")
        assert command.startswith("$ consched ")
        cli.main(command.split()[2:])
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in shown)
