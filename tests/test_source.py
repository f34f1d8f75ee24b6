"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

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


def _module_level_private_names(tree: ast.Module):
    """``(name, node)`` for each private name a module binds at its top
    level: functions, classes and assignment targets, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_no_orphan_private_helpers():
    # A module-level private name that no other code of the package reads
    # is dead: a helper left behind by a refactor.  References are names,
    # attributes and imports in the syntax tree, so a docstring or comment
    # that mentions a helper does not keep it alive.
    trees = {
        path.relative_to(PACKAGE): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert trees
    orphans = []
    for module, tree in trees.items():
        for name, definition in _module_level_private_names(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(
                id(node) not in own and _reads(node, name)
                for other in trees.values()
                for node in ast.walk(other)
            ):
                orphans.append(f"{module}:{definition.lineno} {name}")
    assert not orphans, orphans


def _reads(node: ast.AST, name: str) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name and not isinstance(node.ctx, ast.Store)
    if isinstance(node, ast.Attribute):
        return node.attr == name
    return isinstance(node, ast.alias) and node.name == name


def test_only_functions_locates_positions():
    # The structure index places a position in one module: the others
    # take located ends from the model (``_locate``) or from ``_pair``.
    calls = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "functions.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "locate"
    ]
    assert not calls, calls


KEY_LAYOUT_ATTRIBUTES = {"position_ratios", "value_lines", "piece_lines", "lsc_at"}
KEY_LAYOUT_NAMES = {"_cross", "_constant", "_line"}


def test_only_functions_reads_the_key_layout():
    # The structure index's integer layout is read in one module: the
    # threshold walk and its threshold arithmetic live beside the index,
    # and the other modules consume the walk's items.
    reads = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "functions.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in KEY_LAYOUT_ATTRIBUTES)
        or (isinstance(node, ast.Name) and node.id in KEY_LAYOUT_NAMES)
        or (isinstance(node, ast.alias) and node.name in KEY_LAYOUT_NAMES)
    ]
    assert not reads, reads


POSITION_ERRORS = {"OrderingError", "DomainError", "InteriorRequiredError"}


def test_only_functions_validates_positions():
    # Pair, interval and point checks live beside ``_locate``, so no other
    # module raises the errors that reject a position.
    raises = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "functions.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(isinstance(n, ast.Name) and n.id in POSITION_ERRORS for n in ast.walk(node.exc))
    ]
    assert not raises, raises


@pytest.mark.parametrize("module", ["certificates.py", "oracle.py"])
def test_certificates_and_oracle_do_not_import_violations(module):
    # The certificates stand on the structure index alone, and the oracle
    # shares nothing with the exact analyzer it checks.
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
        if name.endswith("violations")
    ]
    assert not imported, imported
