"""Source hygiene: no module of valfield imports a name it never uses.

Every module-level ``import`` / ``from ... import`` binding in
``src/valfield`` must be referenced somewhere in its module, counting
names inside string annotations.  ``__init__.py`` is exempt: its imports
are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "valfield"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_in(node, out):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # a quoted annotation such as "LaurentSeries"
            try:
                _names_in(ast.parse(sub.value, mode="eval"), out)
            except SyntaxError:
                pass


def unused_imports(source: str):
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _names_in(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            _names_in(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _names_in(node.annotation, used)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append((stmt.lineno, name))
    return unused


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = (
        "from typing import List, Optional\n"
        "import re\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == [(1, "List"), (2, "re")]
