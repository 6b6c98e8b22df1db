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
