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
