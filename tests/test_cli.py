"""Command-line interface: exit codes, output formats, and determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from consched import cli
from consched.assignment import build_cost_matrix
from consched.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_SIZE_LIMIT, EXIT_USAGE
from consched.model import Schedule, parse_profile


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

    def test_dp_optimum_at_two_to_the_60_is_feasible(self, capsys, tmp_path):
        # The true optimum, 4 * 2**58, must not be mistaken for unreachable.
        mult = 1 << 58
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
        assert payload["cost"] == 1 << 60
        assert payload["schedule"] == [3, 2, 1]

    @pytest.mark.parametrize("method", ["auto", "matching"])
    def test_matching_optimum_at_two_to_the_60_is_feasible(self, capsys, tmp_path, method):
        # Was exit 2, "time windows admit no feasible schedule", with no windows given.
        mult = 1 << 58
        path = tmp_path / "huge.prof"
        path.write_text(
            f"profile order\ntasks 3\nvoters {2 * mult}\n"
            f"pref {mult} : 1 2 3\npref {mult} : 3 2 1\n"
        )
        code, out, _ = run(
            capsys,
            [
                "solve", "--profile", str(path), "--rule", "distance",
                "--encoding", "deviation", "--method", method, "--format", "json",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cost"] == 1 << 60
        assert payload["method"] == "matching"

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("encoding", ["deviation", "tardiness"])
    def test_matching_equals_dp_at_the_parse_bound(self, capsys, tmp_path, n, encoding):
        # v * n * (n + 1) just below 2^63: n = 3 stays in int64, n = 5 needs
        # 2n * max(cost) past it and runs the matching on Python integers.
        v = (2**63 - 1) // (n * (n + 1))
        mults = (v - 2 * (v // 8), v // 8, v // 8)
        orders = (range(1, n + 1), range(n, 0, -1), (2, 1, *range(3, n + 1)))
        path = tmp_path / "bound.prof"
        path.write_text(
            f"profile order\ntasks {n}\nvoters {v}\n"
            + "".join(f"pref {m} : {' '.join(map(str, o))}\n" for m, o in zip(mults, orders))
        )
        matrix = build_cost_matrix(parse_profile(path.read_text()), "distance", encoding)
        assert (2 * n * int(matrix.cost.max()) >= 2**63 - 1) == (n == 5)
        costs = {}
        for method in ("matching", "dp"):
            code, out, _ = run(
                capsys,
                [
                    "solve", "--profile", str(path), "--rule", "distance",
                    "--encoding", encoding, "--method", method, "--format", "json",
                ],
            )
            assert code == EXIT_OK
            costs[method] = json.loads(out)["cost"]
        assert costs["matching"] == costs["dp"]

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

    @pytest.mark.parametrize("method", ["auto", "matching", "dp"])
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--profile", "fixture:late7x3", "--rule", "binary"],  # missing encoding
            ["solve", "--profile", "fixture:window8x6", "--rule", "distance", "--encoding", "deviation"],
            ["solve", "--profile", "fixture:late7x3", "--rule", "distance", "--encoding", "deviation", "--method", "repair"],
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
        ],
    )
    def test_argparse_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
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

    def test_emd_ignores_constraints_with_note(self, capsys, order_profile, tmp_path):
        windows = tmp_path / "w.txt"
        windows.write_text("task 1 : 2 3\n")
        code, out, err = run(
            capsys,
            ["solve", "--profile", order_profile, "--rule", "emd", "--time", str(windows)],
        )
        assert code == EXIT_OK
        assert "note: emd ignores" in err
        assert "method: emd" in out


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
        monkeypatch.setattr(cli, "emd_schedule", lambda p: seen.append(p) or Schedule((1, 2, 3)))
        monkeypatch.setattr(cli, "solve", lambda *a, **k: (None, 1))
        cli.run_ratio_experiment(cli.ExperimentConfig(trials=3, n=3, v=4, seed=8))
        rng = cli.Lcg(8)
        assert seen == [cli._draw_profile(rng, 3, 4, "uniform_permutations", 0) for _ in range(3)]
        assert seen[0] == cli.generate_profile(3, 4, 8)

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


class TestFixtures:
    def test_list_names_all_bundled_profiles(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "list"])
        assert code == EXIT_OK
        for name in (
            "slots5x5", "tail8x6", "late7x3", "median4x3a",
            "median4x3b", "chain5x6", "window8x6",
        ):
            assert name in out

    def test_path_points_at_readable_file(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "path", "window8x6"])
        assert code == EXIT_OK
        with open(out.strip()) as handle:
            assert handle.readline().startswith("#") or "profile" in handle.read()

    def test_unknown_fixture_exits_1(self, capsys):
        code, _, err = run(capsys, ["fixtures", "path", "nope"])
        assert code == EXIT_USAGE
        assert "error:" in err


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
