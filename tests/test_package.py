"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invariant_chains"


def imported_modules(path):
    """The top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        foreign = {name for name in imported_modules(path)
                   if name not in sys.stdlib_module_names and name != "invariant_chains"}
        assert not foreign, (path.name, foreign)


def test_the_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []


def test_no_module_holds_an_assert_statement():
    # `python -O` strips assert statements, so an inline check must raise
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_every_module_level_definition_is_used_or_exported():
    # src/ holds what the package runs: a function or class that no module
    # reads and `__init__` does not export belongs in the tests that use it.
    # A name some module imports counts as read, `__init__`'s exports included.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [(name, node.name) for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert not unused
