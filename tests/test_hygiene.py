"""Source hygiene: valfield imports nothing it never uses, and defines
nothing public that no caller uses.

Every module-level ``import`` / ``from ... import`` binding in
``src/valfield`` must be referenced somewhere in its module, counting
names inside string annotations.  ``__init__.py`` is exempt: its imports
are the package's public re-exports.

Every ``def``, methods and nested functions too, reads each of its
parameters somewhere in its body: a parameter that the inputs already
determine, and that the body never reads, goes.

Every module-level public function and class must be referenced outside
its own definition and the ``__init__`` re-export: in library code, in
``scripts/`` or ``perfbench/``, or among the names that the acceptance
gate ``tests/test_acceptance.py`` imports.  Code that only the other
tests call belongs beside them, in ``tests/oracles.py``.

The digit tree's core, ``extremality._DigitTree``, owns no field
arithmetic: its class body reads no ring field, base field, characteristic,
scale or shift, and calls none of the Lucas shift helpers, which live
behind the ring adapters.  The adapters' shift step reads one cached
expansion per monomial: ``_LucasShift.prepare`` only charges, and assigns
no attribute of ``self``, so no per-tree table can come back.  Its one leaf walk, ``_DigitTree.leaves``, is the
only caller of an adapter's ``child`` step, so no second walk of the tree
can come back beside it.  In the same way ``padic._remainder_walk`` is the
one Euclidean loop of the p-adic layer: besides it only the reduction
``PAdicExtRing._reduce`` calls ``dense_divmod``, so ``inverse`` and
``ext_valuation`` share the walk.  Likewise ``laurent._newton_inverse``
is the one Newton-inverse loop of the series layer: no other function
both multiplies packed codes and negates them, the step that turns the
error term of unit * inv into the next digits, so ``LaurentSeries.inverse``
and ``hensel_lift`` share it.

The p-adic layer and the Newton polygons, ``padic.py`` and ``polygon.py``,
import nothing from the series layer ``laurent``: a valuation result is a
``value_group`` type, and Q_p[X]/(f) needs no Laurent series.

The exact layers ``padic.py`` and ``polygon.py`` keep a rational as an
``int`` where its denominator is 1, so a true division there must not see
two ints: every ``/`` has a ``Fraction(...)`` call as its left operand.

The span solver's generator loop, ``additive._digit_generators``, builds
each generator by shift and scale: it calls neither ``evaluate`` nor
``from_terms``, so no series product per generator can come back unseen.

Typed term text has one reader: only ``polynomials._Reader.factor``, the
term grammar behind ``parse_sum``, reads an error term ``O(t^N)``, by its
token ``O`` and the ``(`` after it; no other scope tests for the two, or
holds a regular expression for them, so no second reader of series text
can come back.

Dense polynomials have one core, the ``dense_*`` helpers of
``polynomials.py``: no other module holds a loop that pops a list after
testing its last element for zero, the hand-written trailing-zero trim
that ``dense_trim`` owns.
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


def unread_parameters(source: str):
    """(line, function, parameter) for each parameter of a ``def`` that its
    body, nested functions included, never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = {
            sub.id for stmt in node.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        found += [(node.lineno, node.name, a.arg) for a in params if a.arg not in read]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_checker_flags_a_parameter_never_read():
    source = (
        "def independent(leaders, field, nu, *samples, **opts):\n"
        "    field = None\n"
        "    return [b.frobenius(nu) for b in leaders]\n"
        "class Dec:\n"
        "    def pullback(self, ys, field):\n"
        "        def inner(y, k):\n"
        "            return y + ys[0]\n"
        "        return self.pack(map(inner, ys))\n"
        "    def sum_evaluate(self, ys):\n"
        "        return sum(ys, self.zero)\n"
        "skip = lambda k: 0\n"
    )
    assert unread_parameters(source) == [
        (1, "independent", "field"), (1, "independent", "opts"), (1, "independent", "samples"),
        (5, "pullback", "field"), (6, "inner", "k"),
    ]


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
SEAM_NAMES = {"_lucas", "_chain_count", "_expansion"}


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
        "    def child(self, g, nu):\n"
        "        return _expansion(nu, self.field.base.p, 4)\n"
        "class _DigitTree:\n"
        "    def __init__(self, ring):\n"
        "        self.q, self.p = ring.residue.q, ring.field.base.p\n"
        "        self.table = _lucas(3, self.p) + _expansion((), self.p, self.q)\n"
        "    def child(self, c):\n"
        "        return self.ring.shift(self.ring.scale(c, 2), 1)\n"
    )
    assert seam_leaks(source) == [
        (6, "base"), (6, "field"), (6, "p"), (6, "p"),
        (7, "_expansion"), (7, "_lucas"), (7, "p"), (7, "p"),
        (9, "scale"), (9, "shift"),
    ]


def self_stores(source: str, cls: str = "_LucasShift", method: str = "prepare"):
    """(line, name) for each attribute of self that the method of class cls
    assigns, augments or deletes."""
    body = next(n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == cls)
    func = next(n for n in body.body if isinstance(n, ast.FunctionDef) and n.name == method)
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def test_the_shift_step_builds_no_per_tree_table():
    assert self_stores((PACKAGE / "extremality.py").read_text()) == []


def test_checker_flags_a_table_built_in_prepare():
    source = (
        "class _LucasShift:\n"
        "    def prepare(self, monomials, budget):\n"
        "        self.table, other.x = {}, 1\n"
        "        self.spent += 1\n"
        "        for nu in monomials:\n"
        "            self.table[nu] = _expansion(nu, self.residue.p, 4)\n"
        "        del self.cache\n"
        "        return self.spent\n"
        "    def child(self, g, y, k):\n"
        "        self.last = k\n"
    )
    assert self_stores(source) == [(3, "table"), (4, "spent"), (7, "cache")]


def _scopes(source: str):
    """(name, node) for each module-level function or statement and each
    method, named ``function``, ``Class.method`` or ``<module>``."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{f.name}", f) for f in stmt.body if isinstance(f, ast.FunctionDef))
        else:
            yield getattr(stmt, "name", "<module>"), stmt


def call_sites(source: str, callee: str):
    """Each call of a function or method named callee, named by the
    module-level function or the class and method whose body holds it."""
    return sorted(
        name for name, scope in _scopes(source) for node in ast.walk(scope)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == callee
    )


def test_the_leaf_walk_is_the_one_caller_of_the_child_step():
    assert call_sites((PACKAGE / "extremality.py").read_text(), "child") == ["_DigitTree.leaves"]


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
    assert call_sites(source, "child") == ["<module>", "_DigitTree.leaves", "valuation_multiset"]


def test_the_remainder_walk_is_the_one_euclidean_loop_in_padic():
    assert call_sites((PACKAGE / "padic.py").read_text(), "dense_divmod") == [
        "PAdicExtRing._reduce", "_remainder_walk",
    ]


def test_checker_flags_a_second_remainder_loop():
    source = (
        "class PAdicExtRing:\n"
        "    def _reduce(self, coeffs):\n"
        "        return dense_divmod(coeffs, self.modulus)[1]\n"
        "def _remainder_walk(a, b):\n"
        "    while len(b) > 1:\n"
        "        q, r = dense_divmod(a, b)\n"
        "        yield q, b, r\n"
        "        a, b = b, r\n"
        "def _second_loop(f, g):\n"
        "    while len(g) > 1:\n"
        "        f, g = g, polynomials.dense_divmod(f, g)[1]\n"
    )
    assert call_sites(source, "dense_divmod") == [
        "PAdicExtRing._reduce", "_remainder_walk", "_second_loop",
    ]


def newton_inverse_steps(source: str):
    """The scopes, as ``call_sites`` names them, that call both ``_mul_codes``
    and ``_neg_codes``: those that hold a Newton-inverse step."""
    return sorted(set(call_sites(source, "_mul_codes")) & set(call_sites(source, "_neg_codes")))


def test_the_newton_inverse_is_the_one_inverse_loop_in_laurent():
    assert newton_inverse_steps((PACKAGE / "laurent.py").read_text()) == ["_newton_inverse"]


def test_checker_flags_a_second_newton_inverse_loop():
    source = (
        "class LaurentSeries:\n"
        "    def __neg__(self):\n"
        "        return _neg_codes(self.field.base, self.coeffs)\n"
        "    def inverse(self):\n"
        "        while len(inv) < rel:\n"
        "            err = _mul_codes(base, unit, inv, n)[m:]\n"
        "            inv += _mul_codes(base, inv, _neg_codes(base, err), n - m)\n"
        "def _newton_inverse(base, unit, inv, rel):\n"
        "    err = _mul_codes(base, unit, inv, rel)\n"
        "    return inv + _mul_codes(base, inv, _neg_codes(base, err), rel)\n"
        "def hensel_lift(coeffs, x0, target_prec):\n"
        "    neg = _neg_codes(base, _mul_codes(base, unit, inv, n))\n"
        "    return laurent._mul_codes(base, inv, neg, n)\n"
    )
    assert newton_inverse_steps(source) == ["LaurentSeries.inverse", "_newton_inverse", "hensel_lift"]


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


def series_imports(source: str):
    """(line, name) for each name imported from the series layer, by
    ``from .laurent import`` (or ``valfield.laurent``) or ``import`` of it,
    anywhere in the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            whole = (node.module or "").split(".")[-1] == "laurent"
            found += [(node.lineno, alias.name) for alias in node.names if whole or alias.name == "laurent"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.endswith(".laurent")]
    return sorted(found)


@pytest.mark.parametrize("name", ["padic.py", "polygon.py"])
def test_the_p_adic_layer_imports_nothing_from_the_series_layer(name):
    assert series_imports((PACKAGE / name).read_text()) == []


def test_checker_flags_an_import_from_the_series_layer():
    source = (
        "from .laurent import ValuationResult\n"
        "from . import laurent\n"
        "from .value_group import Value\n"
        "import valfield.laurent\n"
        "def f():\n"
        "    from valfield.laurent import LaurentSeries\n"
        "    return LaurentSeries\n"
    )
    assert series_imports(source) == [
        (1, "ValuationResult"), (2, "laurent"), (4, "valfield.laurent"), (6, "LaurentSeries"),
    ]


def bare_divisions(source: str):
    """(line, left operand) for each true division, ``/`` or ``/=``, whose
    left operand is not a ``Fraction(...)`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            left = node.target
        else:
            continue
        called = getattr(left, "func", None)
        if getattr(called, "id", getattr(called, "attr", None)) != "Fraction":
            found.append((node.lineno, ast.unparse(left)))
    return sorted(found)


@pytest.mark.parametrize("name", ["padic.py", "polygon.py"])
def test_every_true_division_in_the_exact_layers_divides_a_fraction(name):
    assert bare_divisions((PACKAGE / name).read_text()) == []


def test_checker_flags_a_division_of_two_ints():
    source = (
        "def monicize(cs, lead):\n"
        "    out = [Fraction(c) / lead for c in cs] + [fractions.Fraction(1) / lead]\n"
        "    return out + [a / b, c[0] / lead, 1 / lead, float(a) / b, Fraction(a // b, 2)]\n"
        "def scale(x):\n"
        "    x /= 2\n"
        "    return x\n"
    )
    assert bare_divisions(source) == [(3, "1"), (3, "a"), (3, "c[0]"), (3, "float(a)"), (5, "x")]


def _zero_tested_tail(node):
    """The list whose last element node tests for zero (``x[-1] == 0``,
    ``0 == x[-1]`` or ``not x[-1]``), as source text, or None."""
    def last_of(sub):
        if isinstance(sub, ast.Subscript) and ast.unparse(sub.slice) == "-1":
            return ast.unparse(sub.value)
        return None

    def is_zero(sub):
        return isinstance(sub, ast.Constant) and sub.value == 0

    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return last_of(node.operand)
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq):
        left, right = node.left, node.comparators[0]
        if is_zero(right):
            return last_of(left)
        if is_zero(left):
            return last_of(right)
    return None


def hand_trims(source: str):
    """(line, list) for each loop that pops a list and tests that list's
    last element for zero, in its condition or its body."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        tested = {_zero_tested_tail(node) for node in ast.walk(loop)} - {None}
        popped = {
            ast.unparse(node.func.value) for node in ast.walk(loop)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "pop"
        }
        found |= {(loop.lineno, name) for name in tested & popped}
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polynomials.py"], ids=lambda p: p.name)
def test_no_trailing_zero_trim_outside_the_dense_core(path):
    assert hand_trims(path.read_text()) == []


def test_checker_flags_a_hand_written_trim():
    source = (
        "def trim(c):\n"
        "    while c and c[-1] == 0:\n"
        "        c.pop()\n"
        "def rem(a, b):\n"
        "    while len(a) >= len(b):\n"
        "        if 0 == a[-1]:\n"
        "            a.pop()\n"
        "            continue\n"
        "        a.pop()\n"
        "def monic(self):\n"
        "    while self.cs and not self.cs[-1]:\n"
        "        self.cs.pop()\n"
        "def hull(points, hull):\n"
        "    for pt in points:\n"
        "        while len(hull) >= 2 and cross(hull[-2], hull[-1], pt) <= 0:\n"
        "            hull.pop()\n"
        "        if not points[-1]:\n"
        "            stack.pop()\n"
    )
    assert hand_trims(source) == [(2, "c"), (5, "a"), (11, "self.cs")]


def _reads_error_term(node) -> bool:
    """A test for the token ``O`` and a ``(`` in one boolean expression, or
    a regular expression with ``O\\(``."""
    if isinstance(node, ast.BoolOp):
        compared = {c.value for cmp in node.values if isinstance(cmp, ast.Compare)
                    for c in [cmp.left, *cmp.comparators] if isinstance(c, ast.Constant)}
        return {"O", "("} <= compared
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and "O\\(" in node.value


def error_term_reads(source: str):
    """The scopes, as ``call_sites`` names them, that read an error term
    ``O(t^N)`` from text."""
    return sorted({name for name, scope in _scopes(source) for node in ast.walk(scope) if _reads_error_term(node)})


def test_an_error_term_is_read_only_by_the_term_grammar():
    reads = {path.name: error_term_reads(path.read_text()) for path in MODULES}
    assert {name: r for name, r in reads.items() if r} == {"polynomials.py": ["_Reader.factor"]}


def test_checker_flags_a_second_error_term_reader():
    source = (
        "class _Reader:\n"
        "    def factor(self):\n"
        "        if tok == 'O' and self.peek() == '(':\n"
        "            return self.error_term()\n"
        "def parse_series(field, text):\n"
        "    m = re.search(r'O\\(\\s*' + re.escape(field.var) + r'\\^(-?\\d+)\\s*\\)\\s*$', text)\n"
        "def to_text(self):\n"
        "    return f'{body} + O({self.field.var}^{self.prec})'\n"
        "def error_name(var):\n"
        "    return f'O({var})'\n"
        "def parse_any_field(text):\n"
        "    if var == 'O':\n"
        "        raise ParseError(text)\n"
        "bare = text[i] == 'O' and text[i + 1] == '('\n"
    )
    assert error_term_reads(source) == ["<module>", "_Reader.factor", "parse_series"]
