"""Traced request: run one ``consched`` CLI request with a span around each layer call.

    python3 perfbench/driver.py SPANS_FILE REQUEST_ID {time,memory} <consched CLI args>

The driver wraps the public layer functions (``LAYERS``) wherever a
``consched`` module refers to them, then calls ``consched.cli.main`` with the
CLI arguments, so the calls happen in exactly the order ``consched solve`` /
``consched oracle`` makes them, and the process pays the same imports and
caches as an untraced request. Each span records name, start, end, parent and
request id; spans stay in memory and are written to SPANS_FILE as JSON at
exit. In ``memory`` mode each span also records the ``tracemalloc`` peak
reached inside it above the memory in use when it started; timings from that
mode are not used.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

LAYERS = (
    "model.parse_profile",
    "model.parse_time_windows",
    "model.parse_precedence",
    "criteria.interval_arrays",
    "criteria.profile_cost",
    "assignment.build_cost_matrix",
    "assignment.min_cost_assignment",
    "rules.solve",
    "rules.emd_schedule",
    "precedence.infer_precedences",
    "precedence.solve_with_graph",
    "oracle.exhaustive_optimum",
    "oracle.constrained_best",
)


class Tracer:
    def __init__(self, request: int, memory: bool):
        self.request = request
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)

        return traced

    def enter(self, name: str) -> dict:
        span = {"name": name, "request": self.request, "id": len(self.spans),
                "parent": self.stack[-1]["id"] if self.stack else None}
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1]["peak"] = max(self.stack[-1]["peak"], peak)
            tracemalloc.reset_peak()
            span["base"] = span["peak"] = current
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if self.memory:
            span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
            if self.stack:
                self.stack[-1]["peak"] = max(self.stack[-1]["peak"], span["peak"])
            span["peak_bytes"] = span.pop("peak") - span.pop("base")


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function in every loaded consched module; returns the missing ones."""
    targets, missing = {}, []
    for layer in LAYERS:
        module, attr = layer.split(".")
        fn = getattr(importlib.import_module(f"consched.{module}"), attr, None)
        if fn is None:
            missing.append(layer)
        else:
            targets[id(fn)] = tracer.wrap(layer, fn)
    for name, module in list(sys.modules.items()):
        if name == "consched" or name.startswith("consched."):
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    setattr(module, attr, targets[id(value)])
    return missing


def main(argv: list[str]) -> int:
    spans_file, request, mode, cli_args = argv[0], int(argv[1]), argv[2], argv[3:]
    import consched.cli

    tracer = Tracer(request, memory=mode == "memory")
    missing = install(tracer)
    if tracer.memory:
        tracemalloc.start()
    try:
        code = consched.cli.main(cli_args)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
