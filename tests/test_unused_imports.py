"""No module of the package imports a name it never uses, and no function,
class or method of the package goes unreferenced.

Stand-ins for a linter's unused-import and dead-code checks, read from the
source with ``ast``.  ``from __future__`` imports are directives, and the
imports of ``__init__.py`` are the package's re-exports, so both are exempt
from the first check.  A definition counts as referenced when some source
reads its name as a name or an attribute (an import alone does not count):
a private name (one leading underscore, not a dunder) must be read by a
module of the package, and a public name by any source of the package, its
tests, demos or benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quadralg"
READERS = ("src", "tests", "demos", "perfbench")
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


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def is_public(name):
    return not name.startswith("_")


def unreferenced_definitions(sources, readers, kind):
    """(module, line, name) of each function, class or method in
    ``sources`` ({module: source}) whose name passes ``kind`` and is read
    as a name or an attribute by none of the sources ``readers``."""
    used = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((module, node.lineno, node.name)
                  for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, DEFINITIONS) and kind(node.name)
                  and node.name not in used)


def package_sources():
    return {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


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
    assert unreferenced_definitions(sources, sources.values(),
                                    is_private) == [
        ("a.py", 5, "_dead"), ("b.py", 11, "_orphan")]


def test_no_unreferenced_private_definitions():
    sources = package_sources()
    assert unreferenced_definitions(sources, sources.values(),
                                    is_private) == []


def test_the_check_sees_an_unreferenced_public_definition():
    sources = {
        "m.py": ("def used():\n    pass\n\n\n"
                 "def exported():\n    pass\n\n\n"
                 "class Box:\n"
                 "    def method(self):\n        pass\n\n"
                 "    def spare(self):\n        pass\n\n"
                 "    def __repr__(self):\n        return 'Box'\n"),
    }
    readers = [*sources.values(),
               "from m import Box, exported, used\n\nused(Box().method)\n"]
    assert unreferenced_definitions(sources, readers, is_public) == [
        ("m.py", 5, "exported"), ("m.py", 13, "spare")]


def test_no_unreferenced_public_definitions():
    readers = [p.read_text() for d in READERS
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_definitions(package_sources(), readers,
                                    is_public) == []
