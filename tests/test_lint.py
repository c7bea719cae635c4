"""No ``strbench`` module uses an ``assert`` statement.

``python -O`` strips asserts, so a check written as one would let bad input
through; the package checks its input with exceptions that survive ``-O``.
"""

import ast
from pathlib import Path

import pytest

import strbench

PACKAGE = Path(strbench.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_check_sees_nested_asserts():
    source = ("assert True\n"
              "class A:\n    def f(self, x):\n        if x:\n            assert x, 'msg'\n"
              "def g():\n    return 'assert'\n")
    assert assert_lines(source) == [1, 5]
