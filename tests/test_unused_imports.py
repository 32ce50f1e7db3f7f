"""No module of the package imports a name it never uses.

A stand-in for a linter's unused-import check, read from the source with
``ast``.  ``from __future__`` imports are directives, and the imports of
``__init__.py`` are the package's re-exports, so both are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadralg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom math import gcd as g, lcm\n"
              "print(sys.argv, lcm)\n")
    assert unused_imports(source) == [(2, "os"), (3, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
