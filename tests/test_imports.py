"""Every name a ``strbench`` module imports is used in that module.

``__init__`` re-exports the package API, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import strbench

PACKAGE = Path(strbench.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; a star import binds nothing by name
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_every_import_form():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom .problems import a, b as c\n"
              "from .trs import *\n"
              "def f(x: c) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["os (line 2)", "a (line 4)"]
