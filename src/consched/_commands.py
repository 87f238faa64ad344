"""The handlers of ``eval``, ``check-axioms``, ``gen``, ``ratio`` and ``fixtures``.

:mod:`consched.cli` imports this module only when one of these commands
runs, so a ``solve`` or ``oracle`` request never compiles it. A handler
takes the parsed arguments and, by keyword, the CLI helpers it uses (the
profile loader, the flag tables): under ``python -m consched.cli`` the CLI
runs as ``__main__``, and importing ``consched.cli`` from here would run it
a second time.
"""

from __future__ import annotations

import sys

from .errors import EXIT_OK, ProfileError
from .model import AXIOMS, Schedule, serialize_profile


def cmd_eval(args, load_profile, encodings) -> int:
    from .criteria import profile_cost

    profile = load_profile(args.profile)
    try:
        order = tuple(int(tok) for tok in args.schedule.replace(",", " ").split())
        schedule = Schedule(order)
    except ValueError as exc:
        raise ProfileError(f"bad --schedule: {exc}") from None
    encoding = encodings[args.encoding] if args.encoding else None
    cost = profile_cost(schedule, profile, args.criterion, encoding)
    if args.format == "json":
        import json
        print(json.dumps({
            "schedule": list(schedule.order),
            "criterion": args.criterion,
            "encoding": encoding.value if encoding else None,
            "cost": cost,
        }))
    else:
        print(f"cost: {cost}")
    return EXIT_OK


def cmd_check_axioms(args, load_profile, solve) -> int:
    from .axioms import _check_axiom

    profile = load_profile(args.profile)
    solution = solve(args, profile)
    schedule = solution.schedule
    checked = [axiom for axiom in AXIOMS if axiom == "unanimity" or profile.mode == "order"]
    reports = [_check_axiom(schedule, profile, axiom) for axiom in checked]

    if args.format == "json":
        import json
        print(json.dumps({
            "schedule": list(schedule.order),
            "cost": solution.cost,
            "method": solution.method,
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
    print(f"cost: {solution.cost}")
    for r in reports:
        if r.ok:
            print(f"{r.axiom}: PASS")
        else:
            for v in r.violations:
                print(
                    f"{r.axiom}: VIOLATION task={v.task} "
                    f"window=({v.window[0]},{v.window[1]}) got={v.got}"
                )
    for axiom, name in AXIOMS.items():
        if axiom not in checked:
            print(f"{name}: SKIPPED (order-mode axiom)")
    return EXIT_OK


def cmd_gen(args) -> int:
    from .experiment import generate_profile

    profile = generate_profile(args.tasks, args.voters, args.seed, args.generator, args.swaps)
    header = (
        f"# generator {args.generator} seed {args.seed} tasks {args.tasks} "
        f"voters {args.voters}" + (f" swaps {args.swaps}" if args.swaps else "") + "\n"
    )
    text = header + serialize_profile(profile)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ProfileError(f"cannot write profile {args.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ratio(args) -> int:
    from .experiment import ExperimentConfig, run_ratio_experiment

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
        import json
        payload = {
            **dict(zip(config._fields, config._values())),
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
            f"seed={config.seed} generator={config.generator} swaps={config.swaps} mode={mode}"
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


def cmd_fixtures(args, fixtures, fixture_path, usage_error) -> int:
    if args.action == "list":
        if args.format == "json":
            import json
            print(json.dumps({
                name: {"description": desc, "path": str(fixture_path(name))}
                for name, desc in fixtures.items()
            }))
        else:
            for name, desc in fixtures.items():
                print(f"{name:12} {desc}")
        return EXIT_OK
    # action == "path"
    if not args.name:
        usage_error("fixtures path requires a fixture name")
    print(fixture_path(args.name))
    return EXIT_OK
