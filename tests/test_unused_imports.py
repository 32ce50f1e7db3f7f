"""No module of the package imports a name it never uses, and no private
function, class or method of the package goes unreferenced.

Stand-ins for a linter's unused-import and dead-code checks, read from the
source with ``ast``.  ``from __future__`` imports are directives, and the
imports of ``__init__.py`` are the package's re-exports, so both are exempt
from the first check.  The second counts a private name (one leading
underscore, not a dunder) as referenced when any module of the package
reads it as a name or an attribute."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadralg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def unreferenced_private_definitions(sources):
    """(module, line, name) of each private function, class or method in
    ``sources`` ({module: source}) whose name no module reads."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, DEFINITIONS):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(d for d in defined if d[2] not in used)


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a.py": ("def _used():\n    pass\n\n\n"
                 "def _dead():\n    pass\n"),
        "b.py": ("from a import _used\n\n\n"
                 "class _Box:\n"
                 "    def __init__(self):\n        self._helper()\n\n"
                 "    def _helper(self):\n        _used()\n\n"
                 "    def _orphan(self):\n        pass\n\n\n"
                 "_Box()\n"),
    }
    assert unreferenced_private_definitions(sources) == [
        ("a.py", 5, "_dead"), ("b.py", 11, "_orphan")]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []
