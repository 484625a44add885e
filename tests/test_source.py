"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blowup_rigidity"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_detects_a_leftover():
    assert unused_imports("import os\nimport sys\nos.getpid()\n") == ["sys"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def asserts(source: str) -> list[int]:
    """The line numbers of the module's `assert` statements."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_asserts_detects_an_assert():
    assert asserts("def f(x):\n    assert x > 0\n    return x\n") == [2]


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_in_package(module):
    # `python -O` strips assert, so no verdict or guard may rest on one
    assert asserts((PACKAGE / module).read_text(encoding="utf-8")) == []
