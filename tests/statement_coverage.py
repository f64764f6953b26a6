"""Statement coverage of ``src/tropsdp`` by the test suite, with no
coverage package.

Run from the repository root::

    python tests/statement_coverage.py [pytest arguments]

It runs ``pytest tests`` (or the given arguments) in this process under a
``sys.settrace`` hook that records line events only in frames whose file is
under ``src/tropsdp``, then prints, per module, the statements that never
ran.  Statements come from ``ast``; docstrings, ``def``/``class`` lines,
imports, ``try:`` headers and ``global``/``nonlocal`` declarations are not
counted.  A compound statement counts as run when a line of its header ran.
Tests that watch wall time may fail under the hook, which slows Python code
several times; the report is printed either way and the exit status is 0.
The script starts no thread or process of its own.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tropsdp")

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)


def statements(source: str) -> dict:
    """{first line: lines of its header} for each counted statement."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstring = body[0]
        else:
            docstring = None
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt) or child is docstring \
                    or isinstance(child, _SKIPPED):
                continue
            inner = [s.lineno for s in ast.iter_child_nodes(child)
                     if isinstance(s, ast.stmt)]
            last = max(child.lineno, min(inner) - 1) if inner else child.end_lineno
            found[child.lineno] = range(child.lineno, last + 1)
    return found


def unrun(source: str, ran: set) -> list:
    """First lines of the statements of ``source`` none of whose header
    lines is in ``ran``, in order."""
    return sorted(line for line, header in statements(source).items()
                  if ran.isdisjoint(header))


def recorder(prefix: str, hits: dict):
    """A ``sys.settrace`` hook that adds to hits[file] the lines run in
    frames whose file name starts with prefix."""

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    return on_call


def trace(argv: list) -> dict:
    """{file: lines run} under ``PACKAGE`` while pytest runs ``argv``."""
    import pytest

    hits: dict = {}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(recorder(PACKAGE + os.sep, hits))
    try:
        pytest.main(argv)
    finally:
        sys.settrace(None)
    return hits


def main(argv: list) -> int:
    hits = trace(argv or ["-q", "-p", "no:cacheprovider",
                          os.path.join(ROOT, "tests")])
    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = unrun(source, hits.get(path, set()))
        count = len(statements(source))
        total, missed = total + count, missed + len(lines)
        print(f"{name}: {count - len(lines)}/{count} statements run"
              + (f"; never run: {', '.join(map(str, lines))}" if lines else ""))
    print(f"total: {total - missed}/{total} statements run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
