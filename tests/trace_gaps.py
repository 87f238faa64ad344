"""List the statements of ``src/consched`` functions that no test executes.

Coverage tools are an optional extra; this script needs only pytest. It runs
the suite in this process under ``sys.settrace``, recording each line that a
frame of a ``src/consched`` module reaches. Then it walks each module's AST
and prints every statement inside a function (methods and nested functions
included) none of whose own lines ran, one ``path:line  function  source``
line each. A statement's own lines are its lines minus those of the
statements nested in it, so an ``if`` counts as run when its test ran.
Module and class bodies, which run at import, are not listed, and neither
are docstrings, ``try`` and ``global`` statements, which compile to no line
of their own. Tests that run ``consched`` in a fresh process are not traced,
so what only they execute is listed too.

Usage::

    python tests/trace_gaps.py            # the whole suite, quietly
    python tests/trace_gaps.py -x tests/test_model.py

Arguments go to pytest as given. The script is not a test module, so pytest
does not collect it. It exits with pytest's status when pytest could not run
the suite (2 or more), and 0 otherwise: the suite has two tests that fail by
design.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "consched"
_SILENT = (ast.Try, getattr(ast, "TryStar", ast.Try), ast.Global, ast.Nonlocal)  # no line


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under a line tracer; (its status, lines run per module path)."""
    hits: dict[str, set[int]] = {}
    known: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None outside the package

    def lines_of(filename: str) -> set[int] | None:
        if filename not in known:
            path = Path(filename).resolve()
            known[filename] = (hits.setdefault(str(path), set())
                               if path.parent == PACKAGE else None)
        return known[filename]

    def on_call(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hits


def own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of ``stmt`` that belong to no statement nested in it."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.iter_child_nodes(stmt):
        for node in ast.walk(child):
            if isinstance(node, ast.stmt):
                lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def function_statements(body: list[ast.stmt], scope: str = "", in_function: bool = False):
    """(qualified function name, statement) for every statement inside a function."""
    for stmt in body:
        if in_function and not isinstance(stmt, _SILENT):
            yield scope, stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{stmt.name}" if scope else stmt.name
            if isinstance(stmt, ast.ClassDef):
                yield from function_statements(stmt.body, name, in_function)
            else:
                docstring = ast.get_docstring(stmt, clean=False) is not None
                yield from function_statements(stmt.body[docstring:], name, True)
        else:  # the bodies of a compound statement, its handlers' and its cases'
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, (ast.excepthandler, ast.match_case)):
                    yield from function_statements(child.body, scope, in_function)
            for field in ("body", "orelse", "finalbody"):
                yield from function_statements(getattr(stmt, field, []), scope, in_function)


def gaps(hits: dict[str, set[int]]) -> list[tuple[str, int, str, str]]:
    """(path, line, function, source line) of each function statement that never ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        seen = hits.get(str(path), set())
        for scope, stmt in function_statements(ast.parse(source).body):
            if not own_lines(stmt) & seen:
                out.append((str(path), stmt.lineno, scope, text[stmt.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    status, hits = trace_suite(argv or ["-q", "-p", "no:cacheprovider"])
    if status >= 2:
        return status
    missed = gaps(hits)
    root = PACKAGE.parents[1]
    for path, line, scope, text in missed:
        print(f"{Path(path).relative_to(root)}:{line}  {scope}  {text}")
    print(f"{len(missed)} function statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
