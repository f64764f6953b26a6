"""The package's source: every module uses each name it imports; and the
statement finder of ``statement_coverage.py``, which reports what of it the
tests never run."""

import ast
import sys
from pathlib import Path

import pytest

from statement_coverage import recorder, statements, unrun

SRC = Path(__file__).resolve().parent.parent / "src" / "tropsdp"


def unused_imports(path: Path) -> list:
    """(line, name) of each name that the module imports but neither reads
    nor lists in ``__all__``; ``from __future__`` imports are directives,
    not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


SAMPLE = '''\
"""Module docstring."""
import os


def f(x):
    """Docstring."""
    global y
    if x > 0:
        return os.sep
    try:
        y = (x +
             1)
    except ValueError:
        pass
    for i in range(x): pass
    return [
        x]


class C:
    """Class docstring."""
    z = 1
'''


def test_statement_finder_counts_headers_and_skips_declarations():
    # docstrings, imports, def/class lines, try: and global are not counted;
    # a statement spans its lines, a compound one its header only
    assert statements(SAMPLE) == {8: range(8, 9), 9: range(9, 10),
                                  11: range(11, 13), 14: range(14, 15),
                                  15: range(15, 16), 16: range(16, 18),
                                  22: range(22, 23)}
    namespace, unrun_by_call = {}, []
    previous = sys.gettrace()  # the hook of a coverage run, if any
    for x in (None, 1, 0):
        hits = {}
        sys.settrace(recorder("<sample>", hits))
        try:
            if x is None:
                exec(compile(SAMPLE, "<sample>", "exec"), namespace)
            else:
                namespace["f"](x)
        finally:
            sys.settrace(previous)
        unrun_by_call.append(unrun(SAMPLE, hits.get("<sample>", set())))
    assert unrun_by_call == [[8, 9, 11, 14, 15, 16], [11, 14, 15, 16, 22],
                             [9, 14, 22]]
