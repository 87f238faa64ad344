"""Every solver path against the brute-force oracle on generated adversarial inputs.

One property test draws n <= 7, a profile whose multiplicities reach up to
just under the v * n * (n + 1) parse bound (where the Hungarian leaves int64
for Python integers), optional global windows and an optional DAG. Each path
must return the oracle's best cost under the constraints it honours, with a
schedule among the oracle's optima, or raise ``InfeasibleError`` exactly when
the oracle finds no feasible schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_of
from consched.criteria import CriterionKind, profile_cost
from consched.errors import InfeasibleError
from consched.model import EncodingKind, PrecedenceGraph, TimeWindows
from consched.oracle import exhaustive_optimum
from consched.precedence import infer_precedences, solve_by_repair, solve_with_graph
from consched.rules import RuleSpec, canonical_criterion, solve


@st.composite
def instances(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))  # distinct pref lines
    cap = (2**63 - 1) // (n * (n + 1)) // k  # k lines of at most cap keep v in bound
    mult = st.one_of(st.integers(1, 3), st.integers(max(1, cap - 3), cap))
    entries = [(draw(st.permutations(range(1, n + 1))), draw(mult)) for _ in range(k)]
    windows = None
    if draw(st.booleans()):
        windows = TimeWindows(tuple(
            draw(st.integers(0, n - 1).flatmap(lambda r: st.tuples(st.just(r), st.integers(r + 1, n))))
            for _ in range(n)
        ))
    graph = None
    if draw(st.booleans()):
        hidden = draw(st.permutations(range(1, n + 1)))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        graph = PrecedenceGraph(n, frozenset(
            (hidden[min(a, b)], hidden[max(a, b)]) for a, b in pairs if a != b
        ))
    criterion = draw(st.sampled_from(list(CriterionKind)))
    encoding = draw(st.sampled_from(list(EncodingKind)))
    return profile_of("order", entries), criterion, encoding, windows, graph


def agrees_with_oracle(run, profile, criterion, encoding, windows=None, graph=None):
    try:
        oracle = exhaustive_optimum(profile, criterion, encoding, windows, graph)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            run()
        return
    schedule, cost = run()
    assert cost == oracle.best_cost
    assert schedule in oracle.optima
    assert profile_cost(schedule, profile, criterion, encoding) == cost


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(instances())
def test_every_path_matches_the_oracle(instance):
    profile, criterion, encoding, windows, graph = instance
    agrees_with_oracle(  # matching
        lambda: solve(profile, RuleSpec(criterion.value, encoding, windows)),
        profile, criterion, encoding, windows,
    )
    agrees_with_oracle(  # dp
        lambda: solve_with_graph(
            profile, graph or PrecedenceGraph(profile.n, frozenset()), criterion, encoding, windows
        ),
        profile, criterion, encoding, windows, graph,
    )
    if criterion is CriterionKind.DISTANCE:  # matching+repair is exact for distance only
        prec = infer_precedences(profile)
        agrees_with_oracle(
            lambda: solve_by_repair(profile, prec, criterion, encoding),
            profile, criterion, encoding, graph=prec.graph,
        )
    emd, cost = solve(profile, RuleSpec("emd", encoding))
    emd_criterion = canonical_criterion(encoding)
    assert cost == profile_cost(emd, profile, emd_criterion, encoding)
    assert cost >= exhaustive_optimum(profile, emd_criterion, encoding).best_cost
