"""No module of the package divides with ``/`` outside ``scalars.py``.

A rational scalar is an ``int`` when it is integral, and an int divided by
an int is a float, so scalars are divided with ``field.div`` and
``field.inv``.  A stand-in for a lint rule, read from the source with
``ast``: every true division (``/`` or ``/=``) fails the check, and floor
division ``//``, exact on ints, is allowed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadralg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "scalars.py")


def true_divisions(source):
    """The line numbers of the true divisions in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_the_check_sees_a_planted_division():
    source = ("def f(a, b):\n    c = a // b\n    c //= b\n"
              "    c /= b\n    return a / b + c\n")
    assert true_divisions(source) == [4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_true_division(path):
    assert true_divisions(path.read_text()) == []
