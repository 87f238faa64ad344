"""Every solve method against the brute-force oracle on generated adversarial inputs.

One property test draws n <= 7, a profile whose multiplicities reach up to
just under the v * n * (n + 1) parse bound (where the Hungarian leaves int64
for Python integers), optional global windows, and no, inferred or imposed
precedences. ``rules.solve`` runs every method on it. Each run must take the
documented path and return one of the oracle's optima under the request's
constraints, or raise ``InfeasibleError`` exactly when the oracle finds no
feasible schedule. emd must honour inferred precedences and refuse windows and
an imposed graph with ``ValueError``. One CLI request per example must give
the same outcome as its exit code and JSON.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_of
from consched import cli
from consched.criteria import CriterionKind, profile_cost
from consched.errors import InfeasibleError
from consched.model import (
    _COST_BOUND,
    EncodingKind,
    PrecedenceGraph,
    TimeWindows,
    serialize_profile,
)
from consched.oracle import exhaustive_optimum
from consched.precedence import infer_precedences
from consched.rules import METHODS, canonical_criterion, solve
from references import satisfied_by

ENCODING_FLAG = {kind: flag for flag, kind in cli._ENCODING_FLAGS.items()}


@st.composite
def instances(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))  # distinct pref lines
    cap = _COST_BOUND // (n * (n + 1)) // k  # k lines of at most cap keep v in bound
    mult = st.one_of(st.integers(1, 3), st.integers(max(1, cap - 3), cap))
    entries = [(draw(st.permutations(range(1, n + 1))), draw(mult)) for _ in range(k)]
    windows = None
    if draw(st.booleans()):
        windows = TimeWindows(tuple(
            draw(st.integers(0, n - 1).flatmap(lambda r: st.tuples(st.just(r), st.integers(r + 1, n))))
            for _ in range(n)
        ))
    prec = draw(st.sampled_from([None, "inferred", "graph"]))
    if prec == "graph":
        hidden = draw(st.permutations(range(1, n + 1)))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        prec = PrecedenceGraph(n, frozenset(
            (hidden[min(a, b)], hidden[max(a, b)]) for a, b in pairs if a != b
        ))
    criterion = draw(st.sampled_from(list(CriterionKind)))
    encoding = draw(st.sampled_from(list(EncodingKind)))
    return profile_of("order", entries), criterion, encoding, windows, prec


def planned(method, prec, graph, criterion, windows):
    """The path ``solve`` documents for a distance/binary request; a graph with no edge is none."""
    if method == "dp":
        return "dp"
    if prec is None or not graph.edges:
        return "matching"
    if prec == "inferred" and criterion is CriterionKind.DISTANCE and windows is None:
        return "matching+repair"
    return "dp"


def cli_request(tmp, profile, criterion, encoding, windows, prec, method):
    def write(name, text):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    argv = ["solve", "--profile", write("p.prof", serialize_profile(profile)),
            "--rule", criterion.value, "--encoding", ENCODING_FLAG[encoding],
            "--method", method, "--format", "json"]
    if windows is not None:
        lines = "".join(f"task {j} : {r} {d}\n" for j, (r, d) in enumerate(windows.windows, 1))
        argv += ["--time", write("w.time", lines)]
    if prec == "inferred":
        argv += ["--prec-mode", "inferred"]
    elif prec is not None:
        lines = "".join(f"{a} -> {b}\n" for a, b in sorted(prec.edges))
        argv += ["--prec-mode", "graph", "--prec", write("g.prec", lines)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(instances(), st.sampled_from(METHODS))
def test_every_path_matches_the_oracle(instance, cli_method):
    profile, criterion, encoding, windows, prec = instance
    graph = infer_precedences(profile) if prec == "inferred" else prec
    oracles = {}

    def oracle(windows, graph):
        if (windows, graph) not in oracles:
            try:
                found = exhaustive_optimum(profile, criterion, encoding, windows, graph)
            except InfeasibleError:
                found = None
            oracles[windows, graph] = found
        return oracles[windows, graph]

    outcome = {}
    for method in METHODS:
        path = planned(method, prec, graph, criterion, windows)
        request = (criterion.value, encoding, windows, prec, method)
        best = oracle(windows, graph)
        if best is None:
            with pytest.raises(InfeasibleError) as exc:
                solve(profile, *request)
            assert exc.value.method == path
            outcome[method] = (cli.EXIT_INFEASIBLE, {
                "schedule": None, "cost": None, "method": path, "feasible": False,
            })
            continue
        solution = solve(profile, *request)
        assert solution.method == path
        assert profile_cost(solution.schedule, profile, criterion, encoding) == solution.cost
        assert solution.cost == best.best_cost
        assert solution.schedule in best.optima
        outcome[method] = (cli.EXIT_OK, {
            "schedule": list(solution.schedule.order), "cost": solution.cost,
            "method": path, "feasible": True,
        })

    if windows is not None or isinstance(prec, PrecedenceGraph):
        with pytest.raises(ValueError):
            solve(profile, "emd", encoding, windows, prec)
    else:
        emd = solve(profile, "emd", encoding, windows, prec)
        assert emd.method == "emd"
        assert graph is None or satisfied_by(graph, emd.schedule)
        emd_criterion = canonical_criterion(encoding)
        assert emd.cost == profile_cost(emd.schedule, profile, emd_criterion, encoding)
        assert emd.cost >= exhaustive_optimum(profile, emd_criterion, encoding).best_cost

    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = cli_request(tmp, profile, criterion, encoding, windows, prec, cli_method)
    expected_code, expected_json = outcome[cli_method]
    assert code == expected_code, err
    assert json.loads(out) == expected_json
