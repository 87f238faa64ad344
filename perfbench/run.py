"""End-to-end and per-layer benchmark of ``consched`` CLI requests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each request is ``python -m consched.cli``
as a fresh subprocess, one at a time (a closed loop with one client), timed
from spawn to exit, with CPU time and peak RSS read through ``os.wait4``.
Requests cycle through the workload's mix (see ``workloads.py``) and the run
ends on the whole-cycle boundary closest to ``--seconds``. Every response goes
through the correctness gate in ``check.py`` before it is counted.

Times are reported relative to ``reference_job.py``, a fixed job that does
not import ``consched``. It runs before the first request and after each
one, and each request's wall and CPU time is divided by the mean of the two
reference runs around it. On a shared host the machine's speed drifts by
tens of percent within minutes; the ratio cancels most of that drift, so the
spread between runs is about half that of raw seconds. Raw seconds are kept
in the record and printed to standard error. The latency and CPU metrics are
the mean over the mix's request kinds of each kind's median ratio, and the
throughput is requests completed per reference-job time.

Set-up is repeated ``SETUPS`` times, with the reference job before the
first and after each one. One set-up generates and writes the run's inputs
from ``--seed`` and sends one untimed warm-up request, always of the mix's
first kind, so that every set-up does the same work. ``setup_s`` is the
median over the set-ups of the set-up time divided by the mean of the two
reference runs around it, times ``REFERENCE_S``. ``BENCHMARK.json`` defines
``setup_s`` in seconds, so the ratio is rescaled to a machine on which the
reference job takes ``REFERENCE_S``. Raw set-up seconds drifted by up to 40%
between two sets of runs on a shared 2-core host. Warm-ups run on the inputs
of the default seed and their outputs must match the digests stored in
``digests.json``, so every run also catches a changed tie-break of the first
kind; on the default seed every timed request is checked against them too.

``--trace 1`` reports per-layer metrics instead, in raw seconds: it
alternates untraced cycles with cycles run through ``driver.py``, which
records a span around each layer call, then runs one cycle under
``tracemalloc`` for the memory peaks, and times a cold ``import
consched.cli``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
environment. A full record (samples, spans, environment) is written to
``.bench_out/`` in the checkout.

``--record-digests`` re-records the digests of the default-seed outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Gate, Tally, digest  # noqa: E402
from driver import LAYERS  # noqa: E402
from selfcheck import gate_bites  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, Inputs, Workload, generate_orders, make_inputs, profile_text,
)

SETUPS = 5
IMPORT_PAIRS = 5
CHILD_TIMEOUT_S = 120
REFERENCE_S = 0.3  # typical reference-job time on the 2-core host the bounds were set on
DIGESTS = HERE / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "CONSCHED_BACKEND")

LAYER_PEAKS = {"model.parse_profile_peak_mb": ("model.parse_profile",),
               "criteria.interval_arrays_peak_mb": ("criteria.interval_arrays",),
               "assignment.build_cost_matrix_peak_mb": ("assignment.build_cost_matrix",),
               "oracle.peak_mb": ("oracle.exhaustive_optimum", "oracle.constrained_best")}


@dataclass
class Sample:
    kind: int
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]
    response: dict | None = None
    spans: list[dict] = field(default_factory=list)
    ref_wall: float = 0.0
    ref_cpu: float = 0.0


class Runner:
    """Spawns requests for one workload and checks every response."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.tally = Tally()
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))

    def spawn(self, argv: list[str], env: dict | None = None
              ) -> tuple[float, float, float, int, str, str]:
        """Run a child to exit: (wall s, user+sys s, max RSS MB, exit code, stdout, stderr)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=env or self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code,
                out_path.read_text(), err_path.read_text())

    def request(self, inputs: Inputs, gate: Gate, kind: int, mode: str = "plain",
                rid: int = 0) -> Sample:
        """One checked request of kind ``kind``; ``mode`` is plain, time or memory (traced)."""
        req = self.workload.requests[kind]
        argv = ["-m", "consched.cli", *req.argv(inputs)]
        spans_file = self.work / "spans.json"
        if mode != "plain":
            argv = [str(HERE / "driver.py"), str(spans_file), str(rid), mode, *req.argv(inputs)]
        wall, cpu, rss, code, out, err = self.spawn(argv)
        response, problems = None, []
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-300:]}")
        else:
            try:
                response = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append("unparseable output")
        if not problems:
            problems = gate.check(req, kind, response)
        spans = []
        if mode != "plain" and spans_file.exists():
            trace = json.loads(spans_file.read_text())
            spans = trace["spans"]
            problems += [f"layer {name} no longer exists" for name in trace["missing"]]
            spans_file.unlink()
        self.tally.record(problems, f"{self.workload.name}[{kind}] seed {inputs.seed} {mode}: ")
        return Sample(kind, wall, cpu, rss, problems, response, spans)

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of the reference job, on one thread.

        With its default threads, OpenBLAS spins on the idle core at NumPy
        import, so the job's CPU time would follow how busy the other core is
        rather than the machine's speed.
        """
        env = dict(self.env, **{var: "1" for var in THREAD_VARS if var.endswith("THREADS")})
        wall, cpu, _, code, _, err = self.spawn([str(HERE / "reference_job.py")], env)
        if code != 0:
            raise RuntimeError(f"reference job failed: {err.strip()[-300:]}")
        return wall, cpu

    def cycles(self, inputs: Inputs, gate: Gate, seconds: float, modes: tuple[str, ...],
               reference: bool = False) -> tuple[dict, float]:
        """Whole cycles of the mix, one per mode in turn, for about ``seconds``.

        The phase ends on the cycle boundary closest to ``seconds``, judged by
        the length of the last cycle, so that a run takes ``seconds`` on
        average however long a cycle is.

        With ``reference``, the reference job runs before the first request and
        after each one, and every sample keeps the mean of the two reference
        runs around it. Returns the samples per mode and the elapsed time.
        """
        samples: dict[str, list[Sample]] = {m: [] for m in modes}
        start = time.perf_counter()
        before = self.reference() if reference else None
        rid = 0
        while True:
            cycle_start = time.perf_counter()
            for mode in modes:
                for kind in range(len(self.workload.requests)):
                    sample = self.request(inputs, gate, kind, mode, rid)
                    rid += 1
                    if reference:
                        after = self.reference()
                        sample.ref_wall = (before[0] + after[0]) / 2
                        sample.ref_cpu = (before[1] + after[1]) / 2
                        before = after
                    samples[mode].append(sample)
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds:
                return samples, now - start


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def environment() -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "consched"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def check_generator(runner: Runner, seed: int) -> list[str]:
    """The benchmark's LCG copy must write the same bytes as ``consched gen``."""
    w = runner.workload
    n, v = 7, 5
    argv = ["-m", "consched.cli", "gen", "--tasks", str(n), "--voters", str(v),
            "--seed", str(seed), "--generator", w.generator]
    if w.swaps:
        argv += ["--swaps", str(w.swaps)]
    _, _, _, code, out, err = runner.spawn(argv)
    if code != 0:
        return [f"consched gen failed: {err.strip()[-300:]}"]
    expected = profile_text(generate_orders(n, v, seed, w.generator, w.swaps), seed,
                            w.generator, w.swaps)
    if out != expected:
        return ["the benchmark's generator no longer matches consched gen"]
    return []


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mix_median(samples: list[Sample], value) -> float:
    """Mean over the request kinds of the mix of each kind's median ``value``.

    A median pooled over kinds of different cost jumps between kinds as the
    sample counts shift; averaging per-kind medians weighs each kind equally.
    """
    kinds = sorted({s.kind for s in samples})
    return statistics.mean(median([value(s) for s in samples if s.kind == k]) for k in kinds)


def layer_metrics(workload: Workload, traced: list[Sample], memory: list[Sample],
                  gate: Gate, untraced_p50: float, import_s: float) -> dict[str, tuple]:
    """Per-layer metrics from the spans of traced requests.

    A layer's time is its median per request over the requests that call it.
    Counts are means per request, over whole cycles of the mix.
    """
    busy: dict[str, list[float]] = {name: [] for name in LAYERS}
    graph_self, roots = [], []
    for s in traced:
        per: dict[str, float] = {}
        for sp in s.spans:
            per[sp["name"]] = per.get(sp["name"], 0.0) + sp["end"] - sp["start"]
            if sp["name"] == "precedence.solve_with_graph":
                children = sum(c["end"] - c["start"] for c in s.spans if c["parent"] == sp["id"])
                graph_self.append(sp["end"] - sp["start"] - children)
        for name, value in per.items():
            busy[name].append(value)
        roots.append(sum(sp["end"] - sp["start"] for sp in s.spans if sp["parent"] is None))
    out = {f"{name}_s": (median(values), "s") for name, values in busy.items()}
    out["precedence.solve_with_graph_self_s"] = (median(graph_self), "s")

    for metric, names in LAYER_PEAKS.items():
        peaks = [sp["peak_bytes"] for s in memory for sp in s.spans if sp["name"] in names]
        out[metric] = (max(peaks, default=0) / 2**20, "MB")

    traced_p50 = median([s.wall for s in traced])
    layer_sum = median(roots)
    out["trace.latency_p50_s"] = (traced_p50, "s")
    out["trace.layer_sum_s"] = (layer_sum, "s")
    out["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    out["cli.import_s"] = (import_s, "s")
    out["cli.other_s"] = (traced_p50 - layer_sum - import_s, "s")

    n = workload.n
    count = {"assignment.cells": 0, "precedence.dp_states": 0, "precedence.edges": 0,
             "oracle.searched": 0}
    for s in traced:
        names = [sp["name"] for sp in s.spans]
        count["assignment.cells"] += names.count("assignment.build_cost_matrix") * n * n
        count["precedence.dp_states"] += names.count("precedence.solve_with_graph") * 2**n
        mode = workload.requests[s.kind].prec_mode
        if mode is not None:
            edges = gate.inferred if mode == "inferred" else gate.inputs.dag
            count["precedence.edges"] += len(edges)
        count["oracle.searched"] += (s.response or {}).get("searched", 0)
    for name, total in count.items():
        out[name] = (total / max(len(traced), 1), "count")
    distinct = len({tuple(row) for row in gate.inputs.orders.tolist()})
    out["model.distinct_voters"] = (float(distinct), "count")
    return out


def measure_import(runner: Runner) -> float:
    """Median over pairs of a cold ``import consched.cli`` minus a bare interpreter start."""
    diffs = []
    for _ in range(IMPORT_PAIRS):
        bare = runner.spawn(["-c", "pass"])[0]
        full = runner.spawn(["-c", "import consched.cli"])[0]
        diffs.append(full - bare)
    return median(diffs)


def measure(args, workload: Workload, work: Path) -> tuple[dict, dict]:
    """One run: set-up, checks, then the timed or traced phase; returns (result, record)."""
    runner = Runner(workload, work)
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    problems = check_generator(runner, args.seed)

    digests = load_digests().get(workload.name)
    if digests is None:
        problems.append(f"no stored digests for {workload.name}")
    reference = make_inputs(workload, DEFAULT_SEED, work / "reference")
    ref_gate = Gate(reference, digests)
    ref_gate.prepare(workload.requests[:1])

    kinds = len(workload.requests)
    setups, setup_refs, warmups = [], [], []
    before = runner.reference()[0]
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = make_inputs(workload, args.seed, work / "inputs")
        warmups.append(runner.request(reference, ref_gate, 0))
        setups.append(time.perf_counter() - start)
        after = runner.reference()[0]
        setup_refs.append((before + after) / 2)
        before = after
    good = next((s for s in warmups if not s.problems), None)
    if good is not None:
        problems += gate_bites(ref_gate, good.kind, workload.requests[good.kind], good.response)

    gate = Gate(inputs, digests if args.seed == DEFAULT_SEED else None)
    gate.prepare(workload.requests)

    raw = {}
    if args.trace:
        import_s = measure_import(runner)
        samples, elapsed = runner.cycles(inputs, gate, args.seconds, ("plain", "time"))
        samples["memory"] = [runner.request(inputs, gate, k, "memory", 10_000 + k)
                             for k in range(kinds)]
        untraced_p50 = median([s.wall for s in samples["plain"]])
        metrics = layer_metrics(workload, samples["time"], samples["memory"], gate,
                                untraced_p50, import_s)
    else:
        samples, elapsed = runner.cycles(inputs, gate, args.seconds, ("plain",), reference=True)
        plain = samples["plain"]
        completed = sum(not s.problems for s in plain)
        reference_p50 = median([s.ref_wall for s in plain])
        metrics = {
            "latency_p50_ref": (mix_median(plain, lambda s: s.wall / s.ref_wall), "ref"),
            "throughput_ref": (completed / sum(s.wall / s.ref_wall for s in plain), "1/ref"),
            "cpu_p50_ref": (mix_median(plain, lambda s: s.cpu / s.ref_cpu), "ref"),
            "peak_rss_mb": (max(s.rss_mb for s in plain), "MB"),
            "setup_s": (median([t / r for t, r in zip(setups, setup_refs)]) * REFERENCE_S,
                        "s"),
        }
        raw = {"latency_p50_s": mix_median(plain, lambda s: s.wall),
               "cpu_p50_s": mix_median(plain, lambda s: s.cpu),
               "throughput_rps": completed / elapsed,
               "reference_p50_s": reference_p50, "setup_s": median(setups),
               "requests": len(plain)}
        print(json.dumps({"raw": raw}), file=sys.stderr)

    problems += runner.tally.problems
    result = {
        "correct": not problems,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setups_s": setups, "setup_refs_s": setup_refs,
        "elapsed_s": elapsed,
        "problems": problems, "raw": raw, "result": result,
        "samples": {mode: [{"kind": s.kind, "wall": s.wall, "cpu": s.cpu, "rss_mb": s.rss_mb,
                            "ref_wall": s.ref_wall, "ref_cpu": s.ref_cpu,
                            "problems": s.problems, "spans": s.spans} for s in ss]
                    for mode, ss in samples.items()},
    }
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    return result, record


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, record = measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    return result


def record_digests(workload: Workload) -> None:
    """Re-record the stored digests of every request kind on the default-seed inputs."""
    work = ROOT / ".bench_out" / f"digests-{workload.name}"
    try:
        runner = Runner(workload, work)
        inputs = make_inputs(workload, DEFAULT_SEED, work / "reference")
        gate = Gate(inputs)
        found = []
        for kind in range(len(workload.requests)):
            sample = runner.request(inputs, gate, kind)
            if sample.problems:
                raise SystemExit(f"refusing to record a failing output: {sample.problems}")
            found.append(digest(sample.response))
        digests = load_digests()
        digests[workload.name] = found
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"{workload.name}: {found}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "consched" / "cli.py").is_file():
        print(f"error: no consched sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(WORKLOADS[args.workload])
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
