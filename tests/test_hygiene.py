"""Source hygiene: valfield imports nothing it never uses, and defines
nothing public that no caller uses.

Every module-level ``import`` / ``from ... import`` binding in
``src/valfield`` must be referenced somewhere in its module, counting
names inside string annotations.  ``__init__.py`` is exempt: its imports
are the package's public re-exports.

Every module-level public function and class must be referenced outside
its own definition and the ``__init__`` re-export: in library code, in
``scripts/`` or ``perfbench/``, or among the names that the acceptance
gate ``tests/test_acceptance.py`` imports.  Code that only the other
tests call belongs beside them, in ``tests/oracles.py``.

The digit tree's core, ``extremality._DigitTree``, owns no field
arithmetic: its class body reads no ring field, base field, characteristic,
scale or shift, and calls none of the Lucas shift helpers, which live
behind the ring adapters.  Its one leaf walk, ``_DigitTree.leaves``, is the
only caller of an adapter's ``child`` step, so no second walk of the tree
can come back beside it.

The span solver's generator loop, ``additive._digit_generators``, builds
each generator by shift and scale: it calls neither ``evaluate`` nor
``from_terms``, so no series product per generator can come back unseen.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valfield"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
GATE = ROOT / "tests" / "test_acceptance.py"


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


def _references(tree):
    """Names, attribute names and dotted strings (such as "additive.decompose"
    or a quoted annotation) used in tree."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        stack.extend(ast.iter_child_nodes(node))
    return out


def uncalled_public_names(modules, callers, gate):
    """(module, name) for each module-level public function or class that
    no other top-level statement of the modules, no caller and no gate
    import references."""
    outside = set()
    for path in callers:
        outside |= _references(ast.parse(path.read_text()))
    for node in ast.walk(ast.parse(gate.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("valfield"):
            outside |= {alias.name for alias in node.names}
    statements = [
        (path.stem, stmt, _references(stmt))
        for path in modules
        for stmt in ast.parse(path.read_text()).body
    ]
    # how many top-level statements reference each name; a definition that
    # references itself counts once for itself
    count = Counter(name for *_, refs in statements for name in refs)
    return [
        (module, stmt.name)
        for module, stmt, refs in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in outside
        and count[stmt.name] == (stmt.name in refs)
    ]


def test_every_public_name_has_a_caller():
    assert uncalled_public_names(MODULES, CALLERS, GATE) == []


def test_checker_flags_a_name_only_tests_call(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Orphan: pass\n"
        "def gated(): pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("import lib\nlib.used()\n")
    gate = tmp_path / "gate.py"
    gate.write_text("from valfield.lib import gated\n")
    assert uncalled_public_names([lib], [caller], gate) == [
        ("lib", "recursive"),
        ("lib", "Orphan"),
    ]


SEAM_ATTRIBUTES = {"field", "base", "p", "scale", "shift"}
SEAM_NAMES = {"_lucas", "_chain_count", "_shift_table"}


def seam_leaks(source: str, cls: str = "_DigitTree"):
    """(line, name) for each attribute in SEAM_ATTRIBUTES and each name in
    SEAM_NAMES that the body of class cls uses."""
    body = next(n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == cls)
    leaks = []
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute) and node.attr in SEAM_ATTRIBUTES:
            leaks.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in SEAM_NAMES:
            leaks.append((node.lineno, node.id))
    return sorted(leaks)


def test_the_digit_tree_core_owns_no_field_arithmetic():
    assert seam_leaks((PACKAGE / "extremality.py").read_text()) == []


def test_checker_flags_field_arithmetic_in_the_core():
    source = (
        "class _Adapter:\n"
        "    def child(self, g):\n"
        "        return _shift_table(g, self.field.base.p)\n"
        "class _DigitTree:\n"
        "    def __init__(self, ring):\n"
        "        self.q, self.p = ring.residue.q, ring.field.base.p\n"
        "        self.table = _lucas(3, self.p)\n"
        "    def child(self, c):\n"
        "        return self.ring.shift(self.ring.scale(c, 2), 1)\n"
    )
    assert seam_leaks(source) == [
        (6, "base"), (6, "field"), (6, "p"), (6, "p"),
        (7, "_lucas"), (7, "p"),
        (9, "scale"), (9, "shift"),
    ]


def child_call_sites(source: str):
    """Each call of a ``child`` method, named by the module-level function
    or the class and method whose body holds it."""
    sites = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            scopes = [(f"{stmt.name}.{f.name}", f) for f in stmt.body if isinstance(f, ast.FunctionDef)]
        else:
            scopes = [(getattr(stmt, "name", "<module>"), stmt)]
        for name, scope in scopes:
            sites += [name for node in ast.walk(scope)
                      if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "child"]
    return sorted(sites)


def test_the_leaf_walk_is_the_one_caller_of_the_child_step():
    assert child_call_sites((PACKAGE / "extremality.py").read_text()) == ["_DigitTree.leaves"]


def test_checker_flags_a_second_walk_of_the_tree():
    source = (
        "class _DigitTree:\n"
        "    def leaves(self):\n"
        "        return self.ring.child(g, y, k)\n"
        "def valuation_multiset(tree):\n"
        "    def step(g, y, k):\n"
        "        return tree.ring.child(g, y, k)\n"
        "    return step\n"
        "children = ring.child({}, (0,), 1)\n"
    )
    assert child_call_sites(source) == ["<module>", "_DigitTree.leaves", "valuation_multiset"]


PRODUCT_CALLS = {"evaluate", "from_terms"}


def product_calls(source: str, func: str = "_digit_generators"):
    """(line, name) for each call of a name or method in PRODUCT_CALLS in
    the body of the module-level function func."""
    body = next(n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == func)
    calls = []
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in PRODUCT_CALLS:
                calls.append((node.lineno, name))
    return sorted(calls)


def test_the_generator_loop_builds_no_series_product():
    assert product_calls((PACKAGE / "additive.py").read_text()) == []


def test_checker_flags_a_product_in_the_generator_loop():
    source = (
        "def evaluate_all(g, xs):\n"
        "    return [g.evaluate([x]) for x in xs]\n"
        "def _digit_generators(f, out_prec, in_low):\n"
        "    mono = f.field.from_terms({in_low: 1}, inf)\n"
        "    gens = [f.at_monomial(1, in_low), f.evaluate([mono])]\n"
        "    return gens + [evaluate(f, mono)]\n"
    )
    assert product_calls(source) == [(4, "from_terms"), (5, "evaluate"), (6, "evaluate")]
