"""Checks on the library's source text."""

import ast
from pathlib import Path

import qcvx

PACKAGE = Path(qcvx.__file__).parent


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so no invariant of the
    # library may rest on one; checks raise ConsistencyError instead.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
