"""Static checks over the package source and its export list."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import codecert

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "codecert"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a check written as one vanishes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def test_all_is_exactly_the_public_names_of_the_package():
    # a name removed from the package cannot linger as an export, nor a new one go unexported
    bound = [name for name, value in vars(codecert).items() if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(codecert.__all__) == sorted(bound)


def _loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
#: Every name the package reads: a loaded name, or an attribute such as module._name.
PACKAGE_READS = set().union(
    *(_loaded_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} for tree in MODULES.values())
)


@pytest.mark.parametrize("name", MODULES)
def test_no_dead_imports_or_private_names(name):
    # a name the code no longer reads is deleted, not kept for a caller that is gone
    tree = MODULES[name]
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    unread = [] if name == "__init__.py" else sorted(set(imported) - _loaded_names(tree))
    assert unread == [], f"{name}: imported and never read: {unread}"
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))] + [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
    ]
    dead = sorted(d for d in defined if d.startswith("_") and not d.startswith("__") and d not in PACKAGE_READS)
    assert dead == [], f"{name}: private names read nowhere in the package: {dead}"
