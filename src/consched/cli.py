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
This module reads flags and files and prints; ``rules.solve`` decides what runs.

Profiles are regular files; the bundled instances are addressable as
``fixture:<name>`` wherever a profile path is expected. ``gen`` and ``ratio``
run :mod:`consched.experiment`, which also specifies the random generator.

Each request is its own process, which compiles every module it imports
from source when no bytecode cache can be written. So at start-up this
module imports only ``argparse``, :mod:`consched.errors` and
:mod:`consched.model` (with NumPy), and holds only what ``solve`` and
``oracle`` run: the loaders, the fixtures table and those two handlers.
``json`` is imported only to print ``--format json``. The parser names
all seven subcommands, but adds a subcommand's arguments, with the choices
of the library's tables its handler loads, only when that subcommand
parses. The handlers of the other five are in ``consched._commands``, which
their parsers import, and every handler imports the rest when it runs.

The process entry, ``run``, keeps the garbage collector off the start-up
heap and, once a command has returned, ends the process itself: at-exit
callbacks run and stdout and stderr are flushed, but no module teardown
happens. Under a tracer, a profiler or ``-i``, beside a second thread, or
when the command raises, the process ends the normal way.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from functools import partial
from typing import Optional, Sequence, Union

# Set before NumPy loads: OpenBLAS spins a worker per core, and consched makes no BLAS call.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# A request keeps almost everything it imports until it exits, so collections
# during start-up walk the whole heap for next to nothing; ``run`` turns the
# collector back on.
if __name__ == "__main__":
    gc.disable()

from .errors import (  # noqa: E402
    DEFAULT_DP_LIMIT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SIZE_LIMIT,
    EXIT_USAGE,
    InfeasibleError,
    ProfileError,
    SizeLimitError,
)
from .model import (  # noqa: E402
    AXIOMS,
    EncodingKind,
    PrecedenceGraph,
    PreferenceProfile,
    TimeWindows,
    parse_precedence,
    parse_profile,
    parse_time_windows,
)

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


def _fixture_path(name: str):
    from importlib import resources

    if name not in FIXTURES:
        raise ProfileError(f"unknown fixture {name!r}; see 'consched fixtures list'")
    return resources.files(__package__) / "fixtures" / f"{name}.prof"


def fixture_text(name: str) -> str:
    return _fixture_path(name).read_text()


def _read(path: str, what: str, parse, *args):
    """``parse(file, *args)`` on the file at ``path``; an OS error names ``what`` it was."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh, *args)
    except OSError as exc:
        raise ProfileError(f"cannot read {what} {path!r}: {exc}") from None


def _load_profile(spec: str) -> PreferenceProfile:
    if spec.startswith("fixture:"):
        return parse_profile(fixture_text(spec[len("fixture:"):]))
    return _read(spec, "profile", parse_profile)


def _load_windows(path: Optional[str], n: int) -> Optional[TimeWindows]:
    return None if path is None else _read(path, "windows", parse_time_windows, n)


def _load_prec(args, n: int) -> Union[None, str, PrecedenceGraph]:
    """--prec/--prec-mode as solve's ``prec``: None, "inferred" or the graph read from --prec."""
    if args.prec_mode is None:
        if args.prec:
            raise ProfileError("--prec requires --prec-mode {inferred,graph}")
        return None
    if args.prec_mode == "inferred":
        if args.prec:
            raise ProfileError("--prec-mode inferred derives the graph from the profile; "
                               "--prec FILE applies to --prec-mode graph only")
        return "inferred"
    if not args.prec:
        raise ProfileError("--prec-mode graph requires --prec FILE")
    return _read(args.prec, "precedence file", parse_precedence, n)


def _solve(args, profile: PreferenceProfile):
    """The rule flags as one ``rules.solve`` request."""
    from .rules import solve

    encoding = _ENCODING_FLAGS[args.encoding] if args.encoding else None
    windows = _load_windows(args.time, profile.n)
    prec = _load_prec(args, profile.n)
    return solve(profile, args.rule, encoding, windows, prec, args.method, args.dp_limit)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    profile = _load_profile(args.profile)
    try:
        solution = _solve(args, profile)
    except InfeasibleError as exc:
        if args.format == "json":
            import json
            print(json.dumps(
                {"schedule": None, "cost": None, "method": exc.method, "feasible": False}
            ))
        raise
    if args.format == "json":
        import json
        print(json.dumps({
            "schedule": list(solution.schedule.order),
            "cost": solution.cost,
            "method": solution.method,
            "feasible": True,
        }))
    else:
        print(f"schedule: {solution.schedule}")
        print(f"cost: {solution.cost}")
        print(f"method: {solution.method}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .criteria import CriterionKind
    from .oracle import constrained_best, exhaustive_optimum

    profile = _load_profile(args.profile)
    encoding = _ENCODING_FLAGS[args.encoding] if args.encoding else None
    criterion = CriterionKind(args.rule)
    if args.axiom_filter:
        if args.time or args.prec or args.prec_mode:
            raise ProfileError("--axiom-filter cannot be combined with --time/--prec")
        result = constrained_best(profile, criterion, encoding, axiom=args.axiom_filter)
    else:
        windows = _load_windows(args.time, profile.n)
        prec = _load_prec(args, profile.n)
        result = exhaustive_optimum(profile, criterion, encoding, windows, prec)
    if args.format == "json":
        import json
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


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2).

    A subcommand's parser is made with ``build``, which adds its arguments
    and sets its handler the first time the parser parses, so a request
    builds only the subcommand it runs.
    """

    def __init__(self, *args, build=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def parse_known_args(self, args=None, namespace=None):
        if self._build is not None:
            build, self._build = self._build, None
            build(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type of an int >= low, with argparse's own message for a non-int."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_count = _at_least(0)
_positive = _at_least(1)


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_rule_flags(p) -> None:
    from .rules import METHODS, RULES

    p.add_argument("--rule", required=True, choices=RULES)
    p.add_argument("--encoding", choices=sorted(_ENCODING_FLAGS))
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--time", metavar="FILE", help="global time-window file")
    p.add_argument("--prec", metavar="FILE", help="precedence edge file (graph mode)")
    p.add_argument("--prec-mode", choices=("inferred", "graph"))
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--dp-limit", type=_count, default=DEFAULT_DP_LIMIT,
                   help=f"subset-DP size guard (default {DEFAULT_DP_LIMIT})")


def _build_solve(p) -> None:
    _add_rule_flags(p)
    _add_format(p)
    p.set_defaults(func=cmd_solve)


def _build_eval(p) -> None:
    from ._commands import cmd_eval

    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--schedule", required=True, help="task ids, e.g. '1 2 3'")
    p.add_argument("--criterion", required=True, choices=("distance", "binary"))
    p.add_argument("--encoding", choices=sorted(_ENCODING_FLAGS))
    _add_format(p)
    p.set_defaults(func=partial(cmd_eval, load_profile=_load_profile, encodings=_ENCODING_FLAGS))


def _build_oracle(p) -> None:
    p.add_argument("--rule", required=True, choices=("distance", "binary"))
    p.add_argument("--encoding", choices=sorted(_ENCODING_FLAGS))
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--time", metavar="FILE")
    p.add_argument("--prec", metavar="FILE")
    p.add_argument("--prec-mode", choices=("inferred", "graph"))
    p.add_argument("--axiom-filter", choices=AXIOMS)
    p.add_argument("--max-optima", type=_count, default=20, help="optima printed (default 20)")
    _add_format(p)
    p.set_defaults(func=cmd_oracle)


def _build_check_axioms(p) -> None:
    from ._commands import cmd_check_axioms

    _add_rule_flags(p)
    _add_format(p)
    p.set_defaults(func=partial(cmd_check_axioms, load_profile=_load_profile, solve=_solve))


def _build_gen(p) -> None:
    from ._commands import cmd_gen
    from .experiment import GENERATORS

    p.add_argument("--tasks", type=_positive, required=True)
    p.add_argument("--voters", type=_positive, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", choices=GENERATORS, default="uniform_permutations")
    p.add_argument("--swaps", type=_count, default=0,
                   help="adjacent transpositions per voter (swap-noise generator)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_gen)


def _build_ratio(p) -> None:
    from ._commands import cmd_ratio
    from .experiment import GENERATORS

    p.add_argument("--trials", type=_positive, required=True)
    p.add_argument("--tasks", type=_positive, required=True)
    p.add_argument("--voters", type=_positive, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", choices=GENERATORS, default="uniform_permutations")
    p.add_argument("--swaps", type=_count, default=0)
    p.add_argument("--exact", action="store_true",
                   help="oracle-backed optima, Kendall ratio, per-slot checks (n <= 10)")
    _add_format(p)
    p.set_defaults(func=cmd_ratio)


def _build_fixtures(p) -> None:
    from ._commands import cmd_fixtures

    p.add_argument("action", choices=("list", "path"))
    p.add_argument("name", nargs="?", help="fixture name (for 'path')")
    _add_format(p)
    p.set_defaults(func=partial(cmd_fixtures, fixtures=FIXTURES, fixture_path=_fixture_path,
                                usage_error=p.error))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="consched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="run an aggregation rule on a profile", build=_build_solve)
    sub.add_parser("eval", help="price a given schedule against a profile", build=_build_eval)
    sub.add_parser("oracle", help="brute-force optimum and all optima", build=_build_oracle)
    sub.add_parser("check-axioms", help="run a rule and judge its output",
                   build=_build_check_axioms)
    sub.add_parser("gen", help="write a reproducible random profile", build=_build_gen)
    sub.add_parser("ratio", help="median-rule approximation-ratio experiment", build=_build_ratio)
    sub.add_parser("fixtures", help="bundled instance files", build=_build_fixtures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ProfileError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT


def run() -> int:
    """The process entry of ``python -m consched.cli`` and the ``consched`` script.

    A request keeps almost everything it imports until it exits, so
    collecting it is wasted work. The start-up heap is frozen into the
    collector's permanent generation before the command, so the command's
    collections do not walk it. The command runs with the collector on, so
    whatever cycles a long command makes (``ratio`` runs thousands of
    trials) are still freed. ``main`` leaves the caller's collector alone.

    Once ``main`` has returned its exit code, the process ends here: the
    at-exit callbacks run, stdout and stderr are flushed, and ``os._exit``
    skips the module teardown (mostly NumPy's, about 4 ms) whose results
    nothing reads. Under a trace or profile function (coverage, cProfile,
    pdb), under ``-i``, or beside a second thread, and when a flush raises
    or ``main`` raises, ``run`` returns or raises instead, and the
    interpreter ends the normal way; whatever is still alive is then frozen
    again, so the shutdown collections do not walk it either.
    """
    gc.freeze()
    gc.enable()
    try:
        code = main()
    finally:
        gc.freeze()
    import threading
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile hooks in here
    if (sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect
            or threading.active_count() > 1
            or monitoring is not None and any(map(monitoring.get_tool, range(6)))):
        return code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start-up
                stream.flush()
    except (OSError, ValueError):  # the normal exit flushes again and reports it as before
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
