"""Command-line interface: ``consched``.

Subcommands
-----------
solve         run a rule (distance / binary / emd) on a profile file
eval          price a given schedule against a profile
oracle        brute-force optimum, all optima, optional axiom filter
check-axioms  run a rule, then judge its output against the three axioms
gen           write a reproducible random profile
ratio         median-rule approximation-ratio experiment harness
fixtures      list bundled instance files / print one's path

Exit codes: 0 ok, 1 usage or parse error, 2 infeasible, 3 size limit.

Profiles are regular files; the bundled instances are addressable as
``fixture:<name>`` wherever a profile path is expected.

Random generation is specified exactly so that any implementation, in any
language, reproduces identical files from identical seeds: a 64-bit LCG
(state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64, output
= state >> 33), draws by modulo, Fisher-Yates from the last position down.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .axioms import (
    check_deadline_consistency,
    check_release_consistency,
    check_temporal_unanimity,
)
from .criteria import (
    CriterionKind,
    kendall_tau_distance,
    late_counts,
    profile_cost,
    spearman_distance,
)
from .errors import InfeasibleError, ProfileError, SizeLimitError
from .model import (
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
from .oracle import constrained_best, exhaustive_optimum, kendall_optimum
from .precedence import (
    DEFAULT_DP_LIMIT,
    infer_precedences,
    repair_to_inferred,
    solve_with_graph,
)
from .rules import RuleKind, RuleSpec, canonical_criterion, emd_schedule, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_SIZE_LIMIT = 3

_ENCODING_FLAGS = {
    "deviation": EncodingKind.DEVIATION,
    "tardiness": EncodingKind.TARDINESS,
    "earliness": EncodingKind.EARLINESS,
    "late": EncodingKind.LATE_TASKS,
    "exactpos": EncodingKind.EXACT_POSITION,
}

FIXTURES = {
    "slots5x5": "5 tasks, 5 voters; slot 1 contested three ways (choice-count demo)",
    "tail8x6": "8 tasks, 6 voters; all voters end tasks 7/8 by slot 7, the optimum does not",
    "late7x3": "7 tasks, 3 voters; every late-count optimum defers some task past all its deadlines",
    "median4x3a": "4 tasks, 3 voters; median order starts task 1 although no voter does",
    "median4x3b": "4 tasks, 3 voters; median order ends task 1 although every voter ends it by slot 3",
    "chain5x6": "5 tasks, 6 voters (mult 1/3/2); the late-count optimum reverses a unanimous pair",
    "window8x6": "8 tasks, 6 voters, interval mode; unanimous (5,7) window on tasks 7 and 8",
}


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise ProfileError(f"unknown fixture {name!r}; see 'consched fixtures list'")
    return (resources.files(__package__) / "fixtures" / f"{name}.prof").read_text()


def _load_profile(spec: str) -> PreferenceProfile:
    if spec.startswith("fixture:"):
        return parse_profile(fixture_text(spec[len("fixture:"):]))
    try:
        with open(spec, encoding="utf-8") as fh:
            return parse_profile(fh)
    except OSError as exc:
        raise ProfileError(f"cannot read profile {spec!r}: {exc}") from None


def _load_windows(path: Optional[str], n: int) -> Optional[TimeWindows]:
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_time_windows(fh, n)
    except OSError as exc:
        raise ProfileError(f"cannot read windows {path!r}: {exc}") from None


def _load_precedence(path: str, n: int) -> PrecedenceGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_precedence(fh, n)
    except OSError as exc:
        raise ProfileError(f"cannot read precedence file {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# deterministic generation
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """The documented 64-bit LCG; each draw yields 31 uniform bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u31(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state >> 33

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) via modulo (bound <= 2^31)."""
        return self.next_u31() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> tuple[int, ...]:
        items = list(range(1, n + 1))
        self.shuffle(items)
        return tuple(items)


GENERATORS = ("uniform_permutations", "mallows_like_swap_noise")


def generate_profile(
    n: int, v: int, seed: int, generator: str = "uniform_permutations", swaps: int = 0
) -> PreferenceProfile:
    """Deterministic random order profile; one entry per voter.

    ``uniform_permutations`` draws independent uniform permutations.
    ``mallows_like_swap_noise`` starts every voter at the identity permutation
    and applies ``swaps`` adjacent transpositions at LCG-drawn positions (0
    swaps means v identical voters).
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    return _draw_profile(Lcg(seed), n, v, generator, swaps)


def _draw_profile(rng: Lcg, n: int, v: int, generator: str, swaps: int) -> PreferenceProfile:
    """Draw v voters' orders from ``rng`` (see ``generate_profile``) into one profile."""
    orders = np.empty((max(v, 0), max(n, 0)), dtype=np.int64)
    for row in orders:
        if generator == "uniform_permutations":
            row[:] = rng.permutation(n)
        else:
            items = list(range(1, n + 1))
            for _ in range(swaps if n > 1 else 0):
                p = rng.below(n - 1)
                items[p], items[p + 1] = items[p + 1], items[p]
            row[:] = items
    return PreferenceProfile.from_orders(orders)


# ---------------------------------------------------------------------------
# ratio experiment harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """A reproducible ratio experiment: (seed, config) fixes every trial."""

    trials: int
    n: int
    v: int
    seed: int
    generator: str = "uniform_permutations"
    swaps: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")


@dataclass
class RatioReport:
    config: ExperimentConfig
    max_tardiness_ratio: float = 0.0
    mean_tardiness_ratio: float = 0.0
    max_deviation_ratio: float = 0.0
    mean_deviation_ratio: float = 0.0
    max_kendall_ratio: Optional[float] = None
    mean_kendall_ratio: Optional[float] = None
    zero_tardiness_opt: int = 0
    zero_kendall_opt: int = 0
    slots_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _ratio_stats(ratios: list[float]) -> tuple[float, float]:
    if not ratios:
        return 1.0, 1.0
    return max(ratios), sum(ratios) / len(ratios)


def run_ratio_experiment(config: ExperimentConfig, backend: Optional[str] = None) -> RatioReport:
    """Measure median-rule costs against exact optima over random profiles.

    Exact mode enumerates optima with the oracle, also checking the per-slot
    double bound (late choices of the median schedule at most twice those of
    every tardiness-optimal schedule, at every slot) and the pairwise
    (Kendall) ratio. Non-exact mode prices tardiness/deviation optima through
    the matching reduction only. Zero-optimum trials are excluded from
    ratios; in them the median schedule must also cost zero, else the trial
    is recorded as a violation. Any integer-exact bound breach (tardiness
    ratio > 2, Kendall ratio > 4, per-slot breach) lands in
    ``report.violations`` verbatim.
    """
    rng = Lcg(config.seed)
    report = RatioReport(config=config)
    t_ratios: list[float] = []
    dev_ratios: list[float] = []
    kendall_ratios: list[float] = []

    for trial in range(config.trials):
        profile = _draw_profile(rng, config.n, config.v, config.generator, config.swaps)

        emd = emd_schedule(profile)
        t_emd = profile_cost(emd, profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
        dev_emd = spearman_distance(emd, profile)

        def _flag(kind: str, detail: str) -> None:
            report.violations.append(
                f"trial {trial}: {kind}: {detail}\n"
                f"  emd schedule: {emd}\n"
                f"{serialize_profile(profile)}"
            )

        if config.exact:
            t_res = exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
            dev_res = exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.DEVIATION)
            t_opt, dev_opt = t_res.best_cost, dev_res.best_cost

            k_res = kendall_optimum(profile)
            kendall_emd = kendall_tau_distance(emd, profile)
            if k_res.best_cost == 0:
                report.zero_kendall_opt += 1
                if kendall_emd != 0:
                    _flag("kendall bound", f"optimum 0 but emd {kendall_emd}")
            else:
                if kendall_emd > 4 * k_res.best_cost:
                    _flag("kendall bound", f"emd {kendall_emd} > 4 * {k_res.best_cost}")
                kendall_ratios.append(kendall_emd / k_res.best_cost)

            emd_late = late_counts(emd, profile)
            for opt in t_res.optima:
                opt_late = late_counts(opt, profile)
                for y in range(1, config.n + 1):
                    report.slots_checked += 1
                    bound = 2 * opt_late[y - 1]
                    if emd_late[y - 1] > bound:
                        _flag(
                            "per-slot bound",
                            f"slot {y}: emd {emd_late[y - 1]} > {bound} (optimum {opt})",
                        )
        else:
            _, t_opt = solve(
                profile, RuleSpec("distance", EncodingKind.TARDINESS), backend=backend
            )
            _, dev_opt = solve(
                profile, RuleSpec("distance", EncodingKind.DEVIATION), backend=backend
            )

        if t_opt == 0:
            report.zero_tardiness_opt += 1
            if t_emd != 0:
                _flag("tardiness bound", f"optimum 0 but emd {t_emd}")
        else:
            if t_emd > 2 * t_opt:
                _flag("tardiness bound", f"emd {t_emd} > 2 * {t_opt}")
            t_ratios.append(t_emd / t_opt)
            if dev_emd > 2 * dev_opt:
                _flag("deviation bound", f"emd {dev_emd} > 2 * {dev_opt}")
            dev_ratios.append(dev_emd / dev_opt)

    report.max_tardiness_ratio, report.mean_tardiness_ratio = _ratio_stats(t_ratios)
    report.max_deviation_ratio, report.mean_deviation_ratio = _ratio_stats(dev_ratios)
    if config.exact:
        report.max_kendall_ratio, report.mean_kendall_ratio = _ratio_stats(kendall_ratios)
    return report


# ---------------------------------------------------------------------------
# rule routing shared by solve / check-axioms
# ---------------------------------------------------------------------------


def _run(method: str, solver, *args, **kwargs) -> tuple[Schedule, int, str]:
    """Call one solver path; an InfeasibleError it raises names the path."""
    try:
        schedule, cost = solver(*args, **kwargs)
    except InfeasibleError as exc:
        exc.method = method
        raise
    return schedule, cost, method


def _route(args, profile: PreferenceProfile) -> tuple[Schedule, int, str]:
    """Resolve flags into one solver run; returns (schedule, cost, method)."""
    rule = RuleKind(args.rule)
    encoding = _ENCODING_FLAGS[args.encoding] if args.encoding else None
    windows = _load_windows(args.time, profile.n)
    method = args.method

    if rule is RuleKind.EMD:
        if method != "auto":
            raise ProfileError("--method applies to the distance/binary rules only")
        if windows is not None or args.prec_mode:
            print("note: emd ignores --time/--prec constraints", file=sys.stderr)
        return _run("emd", solve, profile, RuleSpec(rule, encoding))

    criterion = CriterionKind(rule.value)
    if profile.mode == "order" and encoding is None:
        raise ProfileError(f"--rule {rule.value} needs --encoding on an order-mode profile")
    if profile.mode == "interval" and encoding is not None:
        raise ProfileError("interval-mode profiles take no --encoding")

    prec_mode = args.prec_mode
    if prec_mode is None:
        if args.prec:
            raise ProfileError("--prec requires --prec-mode {inferred,graph}")
        if method == "repair":
            raise ProfileError("--method repair requires --prec-mode inferred")
        if method == "dp":
            empty = PrecedenceGraph(n=profile.n, edges=frozenset())
            return _run(
                "dp", solve_with_graph,
                profile, empty, criterion, encoding, windows, size_limit=args.dp_limit,
            )
        return _run("matching", solve, profile, RuleSpec(rule, encoding, windows))

    if prec_mode == "inferred":
        if profile.mode != "order":
            raise ProfileError("--prec-mode inferred requires an order-mode profile")
        if args.prec:
            print("note: --prec-mode inferred derives the graph from the profile; "
                  "ignoring --prec file", file=sys.stderr)
        prec = infer_precedences(profile)
        graph = prec.graph
    else:
        if not args.prec:
            raise ProfileError("--prec-mode graph requires --prec FILE")
        graph = _load_precedence(args.prec, profile.n)

    if method == "matching":
        if windows is None and not graph.edges:
            pass  # plain matching is exact here anyway
        else:
            print("note: --method matching ignores precedence constraints", file=sys.stderr)
        return _run("matching", solve, profile, RuleSpec(rule, encoding, windows))

    if method == "repair" or (
        method == "auto" and prec_mode == "inferred" and criterion is CriterionKind.DISTANCE
    ):
        if prec_mode != "inferred":
            raise ProfileError("--method repair applies to inferred precedences only")
        if windows is not None:
            raise ProfileError("matching+repair does not honor --time; use --method dp")
        if criterion is not CriterionKind.DISTANCE:
            print(
                "note: repair guarantees optimality for the distance criterion only",
                file=sys.stderr,
            )
        base, _, _ = _run("matching+repair", solve, profile, RuleSpec(rule, encoding))
        schedule = repair_to_inferred(base, prec)
        cost = profile_cost(schedule, profile, criterion, encoding)
        return schedule, cost, "matching+repair"

    return _run(
        "dp", solve_with_graph,
        profile, graph, criterion, encoding, windows, size_limit=args.dp_limit,
    )


def _emit_solution(args, profile, schedule: Schedule, cost: int, method: str) -> None:
    # Printed costs are always recomputed from the schedule, independently of
    # whatever the solver reported; a mismatch would be a bug worth crashing on.
    if method == "emd":
        enc = _ENCODING_FLAGS[args.encoding] if args.encoding else EncodingKind.TARDINESS
        crit = canonical_criterion(enc)
        check = profile_cost(schedule, profile, crit, enc)
    else:
        enc = _ENCODING_FLAGS[args.encoding] if args.encoding else None
        check = profile_cost(schedule, profile, CriterionKind(args.rule), enc)
    if check != cost:
        raise AssertionError(f"solver cost {cost} != recomputed cost {check}")
    if args.format == "json":
        print(json.dumps(
            {"schedule": list(schedule.order), "cost": cost, "method": method, "feasible": True}
        ))
    else:
        print(f"schedule: {schedule}")
        print(f"cost: {cost}")
        print(f"method: {method}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    profile = _load_profile(args.profile)
    try:
        schedule, cost, method = _route(args, profile)
    except InfeasibleError as exc:
        if args.format == "json":
            print(json.dumps(
                {"schedule": None, "cost": None, "method": exc.method, "feasible": False}
            ))
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit_solution(args, profile, schedule, cost, method)
    return EXIT_OK


def cmd_eval(args) -> int:
    profile = _load_profile(args.profile)
    try:
        order = tuple(int(tok) for tok in args.schedule.replace(",", " ").split())
        schedule = Schedule(order)
    except ValueError as exc:
        raise ProfileError(f"bad --schedule: {exc}") from None
    if schedule.n != profile.n:
        raise ProfileError(f"schedule has {schedule.n} tasks, profile {profile.n}")
    encoding = _ENCODING_FLAGS[args.encoding] if args.encoding else None
    cost = profile_cost(schedule, profile, args.criterion, encoding)
    if args.format == "json":
        print(json.dumps({
            "schedule": list(schedule.order),
            "criterion": args.criterion,
            "encoding": encoding.value if encoding else None,
            "cost": cost,
        }))
    else:
        print(f"cost: {cost}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    profile = _load_profile(args.profile)
    encoding = _ENCODING_FLAGS[args.encoding] if args.encoding else None
    criterion = CriterionKind(args.rule)
    if args.axiom_filter:
        if args.time or args.prec:
            raise ProfileError("--axiom-filter cannot be combined with --time/--prec")
        result = constrained_best(profile, criterion, encoding, axiom=args.axiom_filter)
    else:
        windows = _load_windows(args.time, profile.n)
        graph = None
        if args.prec_mode == "inferred":
            graph = infer_precedences(profile).graph
        elif args.prec_mode == "graph":
            if not args.prec:
                raise ProfileError("--prec-mode graph requires --prec FILE")
            graph = _load_precedence(args.prec, profile.n)
        elif args.prec:
            raise ProfileError("--prec requires --prec-mode {inferred,graph}")
        result = exhaustive_optimum(profile, criterion, encoding, windows, graph)
    if args.format == "json":
        print(json.dumps({
            "best_cost": result.best_cost,
            "optima_count": len(result.optima),
            "optima": [list(s.order) for s in result.optima[: args.max_optima]],
            "searched": result.searched,
        }))
    else:
        print(f"best cost: {result.best_cost}")
        print(f"optima: {len(result.optima)} (searched {result.searched} feasible schedules)")
        for s in result.optima[: args.max_optima]:
            print(f"  {s}")
        if len(result.optima) > args.max_optima:
            print(f"  ... {len(result.optima) - args.max_optima} more")
    return EXIT_OK


def cmd_check_axioms(args) -> int:
    profile = _load_profile(args.profile)
    schedule, cost, method = _route(args, profile)
    reports = []
    if profile.mode == "order":
        reports.append(check_release_consistency(schedule, profile))
        reports.append(check_deadline_consistency(schedule, profile))
    reports.append(check_temporal_unanimity(schedule, profile))

    if args.format == "json":
        print(json.dumps({
            "schedule": list(schedule.order),
            "cost": cost,
            "method": method,
            "axioms": {
                r.axiom: [
                    {"task": v.task, "window": list(v.window), "got": v.got}
                    for v in r.violations
                ]
                for r in reports
            },
        }))
        return EXIT_OK

    print(f"schedule: {schedule}")
    print(f"cost: {cost}")
    for r in reports:
        if r.ok:
            print(f"{r.axiom}: PASS")
        else:
            for v in r.violations:
                print(
                    f"{r.axiom}: VIOLATION task={v.task} "
                    f"window=({v.window[0]},{v.window[1]}) got={v.got}"
                )
    if profile.mode == "interval":
        print("release_date_consistency: SKIPPED (order-mode axiom)")
        print("deadline_consistency: SKIPPED (order-mode axiom)")
    return EXIT_OK


def cmd_gen(args) -> int:
    profile = generate_profile(args.tasks, args.voters, args.seed, args.generator, args.swaps)
    header = (
        f"# generator {args.generator} seed {args.seed} tasks {args.tasks} "
        f"voters {args.voters}" + (f" swaps {args.swaps}" if args.swaps else "") + "\n"
    )
    text = header + serialize_profile(profile)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ratio(args) -> int:
    config = ExperimentConfig(
        trials=args.trials,
        n=args.tasks,
        v=args.voters,
        seed=args.seed,
        generator=args.generator,
        swaps=args.swaps,
        exact=args.exact,
    )
    report = run_ratio_experiment(config)
    if args.format == "json":
        payload = {
            "trials": config.trials,
            "n": config.n,
            "v": config.v,
            "seed": config.seed,
            "generator": config.generator,
            "exact": config.exact,
            "tardiness": {
                "max": report.max_tardiness_ratio,
                "mean": report.mean_tardiness_ratio,
                "zero_optimum_trials": report.zero_tardiness_opt,
            },
            "deviation": {
                "max": report.max_deviation_ratio,
                "mean": report.mean_deviation_ratio,
            },
            "kendall": None if report.max_kendall_ratio is None else {
                "max": report.max_kendall_ratio,
                "mean": report.mean_kendall_ratio,
                "zero_optimum_trials": report.zero_kendall_opt,
            },
            "slots_checked": report.slots_checked,
            "violations": report.violations,
        }
        print(json.dumps(payload))
    else:
        mode = "exact" if config.exact else "matching"
        print(
            f"ratio report: trials={config.trials} n={config.n} v={config.v} "
            f"seed={config.seed} generator={config.generator} mode={mode}"
        )
        print(
            f"  tardiness : max {report.max_tardiness_ratio:.4f} "
            f"mean {report.mean_tardiness_ratio:.4f} "
            f"(zero-optimum trials: {report.zero_tardiness_opt})"
        )
        print(
            f"  deviation : max {report.max_deviation_ratio:.4f} "
            f"mean {report.mean_deviation_ratio:.4f}"
        )
        if report.max_kendall_ratio is not None:
            print(
                f"  kendall   : max {report.max_kendall_ratio:.4f} "
                f"mean {report.mean_kendall_ratio:.4f} "
                f"(zero-optimum trials: {report.zero_kendall_opt})"
            )
            print(f"  per-slot double bound: {report.slots_checked} slot checks, all bounded")
        if report.violations:
            print(f"  VIOLATIONS ({len(report.violations)}):")
            for v in report.violations:
                print(v)
        else:
            print("  violations: none")
    return EXIT_OK if report.ok else 1


def cmd_fixtures(args) -> int:
    if args.action == "list":
        if args.format == "json":
            print(json.dumps({
                name: {"description": desc, "path": str(resources.files(__package__) / "fixtures" / f"{name}.prof")}
                for name, desc in FIXTURES.items()
            }))
        else:
            for name, desc in FIXTURES.items():
                print(f"{name:12} {desc}")
        return EXIT_OK
    # action == "path"
    if args.name not in FIXTURES:
        raise ProfileError(f"unknown fixture {args.name!r}; see 'consched fixtures list'")
    print(resources.files(__package__) / "fixtures" / f"{args.name}.prof")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_rule_flags(p) -> None:
    p.add_argument("--rule", required=True, choices=("distance", "binary", "emd"))
    p.add_argument("--encoding", choices=sorted(_ENCODING_FLAGS))
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--time", metavar="FILE", help="global time-window file")
    p.add_argument("--prec", metavar="FILE", help="precedence edge file (graph mode)")
    p.add_argument("--prec-mode", choices=("inferred", "graph"))
    p.add_argument("--method", choices=("auto", "matching", "dp", "repair"), default="auto")
    p.add_argument("--dp-limit", type=int, default=DEFAULT_DP_LIMIT,
                   help=f"subset-DP size guard (default {DEFAULT_DP_LIMIT})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="consched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="run an aggregation rule on a profile")
    _add_rule_flags(p)
    _add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="price a given schedule against a profile")
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--schedule", required=True, help="task ids, e.g. '1 2 3'")
    p.add_argument("--criterion", required=True, choices=("distance", "binary"))
    p.add_argument("--encoding", choices=sorted(_ENCODING_FLAGS))
    _add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="brute-force optimum and all optima")
    p.add_argument("--rule", required=True, choices=("distance", "binary"))
    p.add_argument("--encoding", choices=sorted(_ENCODING_FLAGS))
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--time", metavar="FILE")
    p.add_argument("--prec", metavar="FILE")
    p.add_argument("--prec-mode", choices=("inferred", "graph"))
    p.add_argument("--axiom-filter", choices=("release", "deadline", "unanimity"))
    p.add_argument("--max-optima", type=int, default=20, help="optima printed (default 20)")
    _add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check-axioms", help="run a rule and judge its output")
    _add_rule_flags(p)
    _add_format(p)
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("gen", help="write a reproducible random profile")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", choices=GENERATORS, default="uniform_permutations")
    p.add_argument("--swaps", type=int, default=0,
                   help="adjacent transpositions per voter (swap-noise generator)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ratio", help="median-rule approximation-ratio experiment")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", choices=GENERATORS, default="uniform_permutations")
    p.add_argument("--swaps", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="oracle-backed optima, Kendall ratio, per-slot checks (n <= 10)")
    _add_format(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("fixtures", help="bundled instance files")
    p.add_argument("action", choices=("list", "path"))
    p.add_argument("name", nargs="?", help="fixture name (for 'path')")
    _add_format(p)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fixtures" and args.action == "path" and not args.name:
        parser.error("fixtures path requires a fixture name")
    try:
        return args.func(args)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
