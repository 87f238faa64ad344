"""Benchmark inputs and request mixes, generated independently of ``consched``.

Profiles, time windows and precedence DAGs come from the benchmark's own copy
of the 64-bit LCG that the README documents under "Reproducible generation",
so a refactor of the library's generator cannot change what is measured.
``run.py`` checks once per run that this copy still writes the same bytes as
``consched gen``.

Each workload loads one layer heavily and the others lightly:

* ``matching_deep``  -- n=200, v=100: the Hungarian dominates; every third
  request carries global time windows (the forbidden-mask path).
* ``profile_wide``   -- n=60, v=4000: parsing, window arrays, the (v, n, n)
  cost tensor, the recheck and the median dominate; the matching is tiny.
* ``precedence_dp``  -- n=16 swap-noise profile: the subset DP, once on the
  dense inferred DAG and once on a sparse external DAG.
* ``oracle_exact``   -- n=9: the brute-force oracle, the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

# Offsets that derive independent LCG streams for windows and DAGs from the
# workload seed; the profile itself uses the seed unchanged, as ``consched gen``.
_WINDOW_STREAM = 0x9E3779B97F4A7C15
_DAG_STREAM = 0xC2B2AE3D27D4EB4F


class Lcg:
    """The README's LCG: 31 uniform bits per draw, bounded draws by modulo."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def below(self, bound: int) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return (self.state >> 33) % bound

    def permutation(self, n: int) -> list[int]:
        items = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def generate_orders(n: int, v: int, seed: int, generator: str, swaps: int = 0) -> np.ndarray:
    """(v, n) array of preferred orders, row i = voter i's task ids by slot."""
    rng = Lcg(seed)
    rows = []
    for _ in range(v):
        if generator == "uniform_permutations":
            rows.append(rng.permutation(n))
        elif generator == "mallows_like_swap_noise":
            items = list(range(1, n + 1))
            for _ in range(swaps if n > 1 else 0):
                p = rng.below(n - 1)
                items[p], items[p + 1] = items[p + 1], items[p]
            rows.append(items)
        else:
            raise ValueError(f"unknown generator {generator!r}")
    return np.array(rows, dtype=np.int64)


def profile_text(orders: np.ndarray, seed: int, generator: str, swaps: int = 0) -> str:
    """The exact bytes ``consched gen`` writes for these orders."""
    v, n = orders.shape
    header = f"# generator {generator} seed {seed} tasks {n} voters {v}"
    if swaps:
        header += f" swaps {swaps}"
    lines = [header, "profile order", f"tasks {n}", f"voters {v}"]
    lines += ["pref 1 : " + " ".join(map(str, row)) for row in orders.tolist()]
    return "\n".join(lines) + "\n"


def hidden_windows(n: int, seed: int, every: int, radius: int) -> dict[int, tuple[int, int]]:
    """Windows of +-radius slots on every ``every``-th task around a hidden schedule.

    The hidden schedule satisfies every window, so the windows are feasible.
    """
    slot_of = {task: slot for slot, task in enumerate(Lcg(seed ^ _WINDOW_STREAM).permutation(n), 1)}
    return {
        j: (max(0, slot_of[j] - radius - 1), min(n, slot_of[j] + radius))
        for j in range(every, n + 1, every)
    }


def random_dag(n: int, seed: int, edges: int) -> list[tuple[int, int]]:
    """``edges`` distinct edges, each from earlier to later in a hidden order."""
    rng = Lcg(seed ^ _DAG_STREAM)
    hidden = rng.permutation(n)
    out: set[tuple[int, int]] = set()
    while len(out) < edges:
        a, b = rng.below(n), rng.below(n)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            out.add((hidden[lo], hidden[hi]))
    return sorted(out)


@dataclass(frozen=True)
class Request:
    """One request kind of a workload's mix.

    ``command`` is ``solve`` or ``oracle``; ``rule``/``encoding`` use the CLI
    spellings; ``extra`` holds further CLI flags, where the tokens
    ``{time}`` and ``{prec}`` name the workload's window and DAG files.
    """

    command: str
    rule: str
    encoding: str
    extra: tuple[str, ...] = ()

    def argv(self, files: "Inputs") -> list[str]:
        args = [self.command, "--profile", str(files.profile), "--rule", self.rule,
                "--encoding", self.encoding, "--format", "json"]
        subst = {"{time}": str(files.time), "{prec}": str(files.prec)}
        return args + [subst.get(tok, tok) for tok in self.extra]

    @property
    def windows(self) -> bool:
        return "--time" in self.extra

    @property
    def prec_mode(self) -> str | None:
        if "--prec-mode" in self.extra:
            return self.extra[self.extra.index("--prec-mode") + 1]
        return None

    @property
    def axiom_filter(self) -> str | None:
        if "--axiom-filter" in self.extra:
            return self.extra[self.extra.index("--axiom-filter") + 1]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    v: int
    generator: str
    requests: tuple[Request, ...]
    swaps: int = 0
    window_every: int = 0
    window_radius: int = 0
    dag_edges: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "matching_deep", n=200, v=100, generator="uniform_permutations",
            requests=(
                Request("solve", "distance", "deviation"),
                Request("solve", "binary", "late"),
                Request("solve", "distance", "tardiness", ("--time", "{time}")),
            ),
            window_every=10, window_radius=20,
        ),
        Workload(
            "profile_wide", n=60, v=4000, generator="uniform_permutations",
            requests=(
                Request("solve", "distance", "tardiness"),
                Request("solve", "binary", "late"),
                Request("solve", "emd", "deviation"),
            ),
        ),
        Workload(
            "precedence_dp", n=16, v=50, generator="mallows_like_swap_noise", swaps=16,
            requests=(
                Request("solve", "binary", "late", ("--prec-mode", "inferred")),
                Request("solve", "distance", "tardiness",
                        ("--prec-mode", "graph", "--prec", "{prec}", "--method", "dp")),
            ),
            dag_edges=16,
        ),
        Workload(
            "oracle_exact", n=9, v=20, generator="uniform_permutations",
            requests=(
                Request("oracle", "distance", "deviation"),
                Request("oracle", "binary", "late", ("--axiom-filter", "release")),
            ),
        ),
    )
}


@dataclass
class Inputs:
    """One workload's generated inputs, in memory and as files in ``directory``."""

    workload: Workload
    seed: int
    directory: Path
    orders: np.ndarray
    windows: dict[int, tuple[int, int]] = field(default_factory=dict)
    dag: list[tuple[int, int]] = field(default_factory=list)

    @property
    def profile(self) -> Path:
        return self.directory / "profile.prof"

    @property
    def time(self) -> Path:
        return self.directory / "windows.time"

    @property
    def prec(self) -> Path:
        return self.directory / "dag.prec"

    @property
    def completions(self) -> np.ndarray:
        """(v, n): completions[i, j-1] = slot of task j in voter i's order."""
        v, n = self.orders.shape
        comp = np.empty_like(self.orders)
        comp[np.arange(v)[:, None], self.orders - 1] = np.arange(1, n + 1)
        return comp


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the inputs from ``seed`` and write them under ``directory``."""
    w = workload
    orders = generate_orders(w.n, w.v, seed, w.generator, w.swaps)
    distinct = len({tuple(row) for row in orders.tolist()})
    if w.generator == "uniform_permutations" and distinct != w.v:
        raise RuntimeError(f"seed {seed} drew repeated voters for {w.name}")
    inputs = Inputs(w, seed, directory, orders)
    directory.mkdir(parents=True, exist_ok=True)
    inputs.profile.write_text(profile_text(orders, seed, w.generator, w.swaps))
    if w.window_every:
        inputs.windows = hidden_windows(w.n, seed, w.window_every, w.window_radius)
        lines = [f"task {j} : {r} {d}\n" for j, (r, d) in inputs.windows.items()]
        inputs.time.write_text("".join(lines))
    if w.dag_edges:
        inputs.dag = random_dag(w.n, seed, w.dag_edges)
        inputs.prec.write_text("".join(f"{a} -> {b}\n" for a, b in inputs.dag))
    return inputs
