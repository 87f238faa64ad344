"""Proof that the benchmark's correctness gate bites.

    python3 perfbench/selfcheck.py

For each workload, sends one real request on the default-seed inputs, then
feeds the gate two corrupted copies of the response: one with two tasks of a
schedule swapped and one with the cost off by one. Each corruption must be
found by recomputation alone (without the stored digests) and must count as
a failed request, raising ``error_rate`` = failed / attempted. ``run.py``
repeats the same check on a warm-up response in every run.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import Tally  # noqa: E402


def corruptions(response: dict) -> list[tuple[str, dict]]:
    """A copy with the first and last task of a schedule swapped, and one with a wrong cost."""
    swapped, wrong = copy.deepcopy(response), copy.deepcopy(response)
    order = swapped["optima"][0] if "optima" in swapped else swapped["schedule"]
    order[0], order[-1] = order[-1], order[0]
    key = "best_cost" if "best_cost" in wrong else "cost"
    wrong[key] += 1
    return [("swapped schedule", swapped), ("wrong cost", wrong)]


def gate_bites(gate, kind: int, req, response: dict) -> list[str]:
    """Problems with the gate itself: a corruption it misses or does not count."""
    problems = []
    for label, bad in corruptions(response):
        if not gate.semantic(req, bad):
            problems.append(f"recomputation missed a {label}")
        tally = Tally()
        tally.record(gate.check(req, kind, response))
        tally.record(gate.check(req, kind, bad))
        if (tally.attempted, tally.failed) != (2, 1):
            problems.append(f"a {label} was not counted toward error_rate")
    return problems


def main() -> int:
    from check import Gate
    from run import ROOT, Runner, load_digests
    from workloads import DEFAULT_SEED, WORKLOADS, make_inputs

    work = ROOT / ".bench_out" / "selfcheck"
    failures = 0
    try:
        for name, workload in WORKLOADS.items():
            runner = Runner(workload, work)
            inputs = make_inputs(workload, DEFAULT_SEED, work / name)
            gate = Gate(inputs, load_digests().get(name))
            sample = runner.request(inputs, gate, 0)
            problems = sample.problems or gate_bites(gate, 0, workload.requests[0], sample.response)
            failures += bool(problems)
            print(f"{name}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
