"""Run the benchmark over several seeds and summarise it, as a baseline file.

    python3 perfbench/summarize.py --runs 10 [--workloads a,b] [--out FILE]

For each workload this runs ``run.py`` once per seed (seeds 1..RUNS) with
tracing off and once with tracing on (the default seed), each in its own
process, as a comparison of two commits would. For every end-to-end metric it
reports the median, the quartiles and the spread, which is the distance
between the quartiles as a share of the median; per-layer metrics come from
the traced run. The summary is printed and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"]
    return result


def summarize(workload: str, runs: int) -> dict:
    results = [run_once(workload, seed, 0) for seed in range(1, runs + 1)]
    traced = run_once(workload, 1, 1)
    metrics = {}
    for spec in BENCHMARK["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        metrics[spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / med, "bound": spec["bound"],
                                 "values": values}
    return {
        "correct": all(r["correct"] for r in results) and traced["correct"],
        "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
        "failed": sum(r["failed"] for r in results) + traced["failed"],
        "end_to_end": metrics,
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        "env": results[0]["env"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        summary[workload] = s = summarize(workload, args.runs)
        for name, m in s["end_to_end"].items():
            steady = m["spread"] <= m["bound"] / 3
            flag = "" if steady else "  <-- spread above bound/3"
            print(f"{workload:14} {name:16} median {m['median']:.4f} {m['unit']:5} "
                  f"spread {m['spread']:.2%} (bound {m['bound']:.0%}){flag}", flush=True)
        print(f"{workload:14} correct {s['correct']} attempted {s['attempted']} "
              f"failed {s['failed']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
