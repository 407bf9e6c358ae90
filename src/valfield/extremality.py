"""Extremality searches, ball transfer, and rank-2 desk checks.

One Hensel digit tree (as in Berthomieu-Lecerf-Quintin, "Polynomial root
finding over local rings", AAECC 24, 2013) answers every search: over a
ball of F_q((t)), ``extremal_search`` (the maximum of v(f)) and
``valuation_multiset`` (every value of f, one per class mod t^upto); over
the truncated valuation ring O_v of F_q((u))((t)), whose residue field is
F_q too, ``composite_extremal_search``.  A node is a point a known to a
digit slot s_k (t^k, or u^i t^j in lex (j, i) order) and the coefficients
of g(Y) = f(a + s_k Y), every one kept with its own error order.  When the
least value m among them lies below the cap and below every error order,
the coefficients of value m form a residue polynomial R over F_q: a digit
y with R(y) != 0 gives exactly m on its whole subtree, and only the zeros
of R become children g(y + (s_(k+1) / s_k) Y).  Any other node above the
horizon branches on all q^n digits, and a branch ends once m reaches the
cap, where nothing can beat it.

One walk, ``_DigitTree.leaves``, yields the leaves of the tree.  The
searches take their maximum, up to the first leaf at the cap; the multiset
walks to depth upto, where a node is one class, and counts every leaf by
the classes under it, as in the usual recursion for points mod t^k (Denef,
"Report on Igusa's local zeta function", Sem. Bourbaki 741).

The core, ``_DigitTree``, handles the walk, the floor m, R, the split of a
node's digits by R and the budget, and reads F_q only as ``ring.residue``.
A ring adapter handles the slots, the reads and the shift step;
``_BallDigits`` and ``_RingDigits`` share the characteristic-p step of
``_LucasShift``, whose shift table is reduced by Lucas's theorem.
Exhaustive enumeration is left to the oracles of the tests.

A search over a truncated ring can never certify extremality of the
infinite field; every search therefore returns an explicit verdict:
``MaxAttained`` when every value found was exact, or ``Indeterminate``
when some value was only bounded and only a lower bound for the maximum
survives.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .composite import CompositeElement, CompositeField
from .errors import DEFAULT_BUDGET, PrecisionError, ValfieldError, check_budget, check_power
from .laurent import LaurentField, LaurentSeries, ValuationResult
from .polynomials import MultiPoly
from .value_group import Value

MAX_ATTAINED = "MaxAttained"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Ball:
    """B_radius(center) = { x : v(x - center) >= radius }; O is Ball(0, 0)."""

    center: LaurentSeries
    radius: int

    def to_text(self) -> str:
        return f"v>={self.radius} around {self.center.to_text()}"


@dataclass(frozen=True)
class SearchResult:
    witness: tuple
    value: ValuationResult
    verdict: str

    def to_dict(self) -> dict:
        return {
            "witness": [w.to_text() for w in self.witness],
            "value": self.value.to_text(),
            "verdict": self.verdict,
        }


# -- the maximum over a walk ----------------------------------------------


def search_max(walk: Iterator[Tuple[tuple, ValuationResult]]) -> SearchResult:
    """The maximum of v(f(a)) over a walk of (a, value) pairs.

    The first maximum wins, and a bound beats an equal exact value.  Any
    bound on the walk makes the verdict Indeterminate; the reported value
    is then the best certain lower bound.
    """
    witness, best = next(walk)
    bounded = not best.exact
    for args, vr in walk:
        bounded = bounded or not vr.exact
        if vr.value > best.value or (best.exact and not vr.exact and vr.value == best.value):
            witness, best = args, vr
    if bounded:
        return SearchResult(witness, ValuationResult.at_least(best.value), INDETERMINATE)
    return SearchResult(witness, best, MAX_ATTAINED)


# -- the Hensel digit tree -------------------------------------------------


def _lucas(e: int, p: int) -> List[Tuple[int, int]]:
    """(m, C(e, m) mod p) for every m with C(e, m) prime to p: by Lucas's
    theorem, the m whose base-p digits are at most those of e."""
    out, place = [(0, 1)], 1
    while e:
        e, d = divmod(e, p)
        out = [(m + j * place, b * math.comb(d, j) % p) for m, b in out for j in range(d + 1)]
        place *= p
    return out


def _chain_count(e: int, p: int) -> int:
    """The number of pairs m <= m' <= e, digitwise in base p."""
    count = 1
    while e:
        e, d = divmod(e, p)
        count *= (d + 1) * (d + 2) // 2
    return count


def _reduced(monomial: Iterable[Tuple[int, int]], q: int) -> tuple:
    """A sparse monomial, (variable, exponent) pairs, with the zero
    exponents left out and the others reduced to 1..q-1: y^e is
    y^(reduced e) for every digit y of F_q, since y^(q-1) is 1 for y != 0."""
    return tuple((i, (e - 1) % (q - 1) + 1) for i, e in monomial if e)


def _times_monomial(code: int, y: tuple, monomial: tuple, powers, mul) -> int:
    """code * y^monomial, for a reduced monomial and powers[y][e] = y^e."""
    for i, e in monomial:
        code = mul(code, powers[y[i]][e])
    return code


@lru_cache(maxsize=None)
def _powers(residue) -> List[list]:
    """powers[y][e] = y^e in the residue field F_q, for e <= q - 1."""
    return [list(itertools.accumulate([y] * (residue.q - 1), residue.mul_codes, initial=1))
            for y in range(residue.q)]


class _LucasShift:
    """The shift step of a ring of characteristic p, shared by the adapters
    below: digit powers are F_q codes, multiplied into a coefficient by the
    adapter's ``scale``, and the binomial coefficients are reduced by
    Lucas's theorem."""

    def prepare(self, monomials: Iterable[tuple], budget: int) -> int:
        """The table of the shift Y -> y + s*Y, charged its (nu, mu) pairs
        before it is built; returns the charge.  Coefficient mu of the
        result collects C(nu, mu) y^(nu - mu) b_nu over every nu of the
        closure of the monomials with C(nu, mu) prime to p.  Monomials are
        sparse, as in ``_reduced``; an entry is (nu, C(nu, mu) mod p, nu - mu
        reduced)."""
        p, q = self.residue.p, self.residue.q
        spent = sum(math.prod(_chain_count(e, p) for _, e in nu) for nu in monomials)
        check_budget(spent, budget)
        closure = set()
        for nu in monomials:
            for ms in itertools.product(*([m for m, _ in _lucas(e, p)] for _, e in nu)):
                closure.add(tuple((i, m) for (i, _), m in zip(nu, ms) if m))
        self.table: Dict[tuple, list] = {}
        for nu in closure:
            for pairs in itertools.product(*(_lucas(e, p) for _, e in nu)):
                mu = tuple((i, m) for (i, _), (m, _) in zip(nu, pairs) if m)
                b = math.prod(c for _, c in pairs) % p
                diff = _reduced([(i, e - m) for (i, e), (m, _) in zip(nu, pairs)], q)
                self.table.setdefault(mu, []).append((nu, b, diff))
        return spent

    def child(self, g: dict, y: tuple, k: int) -> dict:
        """The coefficients of g(y + (s_k / s_(k-1)) Y) at depth k, every one
        kept, also when zero to its error order; one no term reaches is 0."""
        powers, mul, out = _powers(self.residue), self.residue.mul_codes, {}
        for mu, terms in self.table.items():
            acc = None
            for nu, code, diff in terms:
                c = g.get(nu)
                if c is None:
                    continue
                code = _times_monomial(code, y, diff, powers, mul)
                if code:
                    term = self.scale(c, code)
                    acc = term if acc is None else acc + term
            if acc is not None:
                out[mu] = self.shift(acc, sum(e for _, e in mu), k)
        return out


class _BallDigits(_LucasShift):
    """The digit points of a ball of F_q((t)) for the tree: slot k is t^k,
    from the ball's lowest exponent low, and below the radius only the
    centre's digit; integer values, and a horizon at the cap."""

    last = math.inf
    scale, value = staticmethod(LaurentSeries.times_code), staticmethod(Value.rank1)
    shift = staticmethod(lambda c, e, k: c.shift(e))
    read = staticmethod(lambda c: (c.valuation_floor(), c.prec, c.coeffs[0] if c.coeffs else 0))

    def __init__(self, field: LaurentField, ball: Ball, prec: int):
        if ball.center.prec < ball.radius:
            raise PrecisionError(
                f"ball centre known to O({field.var}^{ball.center.prec}), below its radius {ball.radius}"
            )
        self.field, self.residue, self.ball, self.cap, self.horizon = field, field.base, ball, prec, prec
        self.low = min(ball.radius, ball.center.valuation_floor())

    def free(self, k: int) -> int:
        """The first slot at or past depth k whose digit is free."""
        return max(k, self.ball.radius)

    def root(self, terms: Dict[tuple, LaurentSeries]) -> Dict[tuple, LaurentSeries]:
        return {nu: c.shift(self.low * sum(e for _, e in nu)) for nu, c in terms.items()}

    def fixed(self, k: int) -> Optional[int]:
        """The centre's digit at t^k below the radius, else None."""
        center, i = self.ball.center, k - self.ball.center.low
        if k < self.ball.radius:
            return center.coeffs[i] if 0 <= i < len(center.coeffs) else 0

    def point(self, digits: list, n: int) -> tuple:
        """The digit point, completed by the centre's digits below the
        radius, at error order max(prec, the exponent past its digits)."""
        digits = digits + [(self.fixed(k),) * n for k in range(self.low + len(digits), self.ball.radius)]
        order = max(self.cap, self.low + len(digits))
        return tuple(self.field.make(self.low, [y[i] for y in digits], order) for i in range(n))


class _RingDigits(_LucasShift):
    """The digit points of the truncated valuation ring O_v of
    F_q((u))((t)) for the tree: slot k is u^i t^j in lex (j, i) order, i
    from 0 at j = 0 and from u_floor at each j >= 1, up to prec_u - 1; pair
    values, and one exact point past the last slot."""

    low, value, read = 0, staticmethod(lambda m: Value.rank2(*m)), staticmethod(CompositeElement.read)
    root, fixed = staticmethod(lambda terms: terms), staticmethod(lambda k: None)

    def __init__(self, field: CompositeField, u_floor: int):
        if u_floor > 0 or field.prec_t < 1 or field.prec_u < 1:
            raise ValfieldError(
                "the truncated valuation ring needs u_floor <= 0 and prec_t, prec_u >= 1, got "
                f"u_floor={u_floor}, prec_t={field.prec_t}, prec_u={field.prec_u}"
            )
        self.field, self.residue, self.u_floor, self.width = field, field.base, u_floor, field.prec_u - u_floor
        self.last = self.horizon = field.prec_u + (field.prec_t - 1) * self.width
        self.cap = (field.prec_t, 0)

    @staticmethod
    def scale(c: CompositeElement, code: int) -> CompositeElement:
        return CompositeElement(c.field, {j: s.times_code(code) for j, s in c.coeffs.items()}, c.prec_t)

    def shift(self, c: CompositeElement, e: int, k: int) -> CompositeElement:
        """c times (slot k / slot k - 1)^e: u^e within a level, and
        (t*u^(u_floor - prec_u + 1))^e into a new one."""
        r = k - self.field.prec_u
        if r < 0 or r % self.width:
            return c.times(0, e)
        return c.times(e, e * (self.u_floor - self.field.prec_u + 1))

    def point(self, digits: list, n: int) -> tuple:
        """The exact digit point, level by level as far as its digits reach;
        t^0 gets zero digits below u^0, so that each level starts at u^u_floor."""
        digits, w, make = [(0,) * n] * -self.u_floor + digits, self.width, self.field.inner.make
        return tuple(
            self.field.make({a // w: make(self.u_floor, [y[i] for y in digits[a:a + w]], math.inf)
                             for a in range(0, len(digits), w)})
            for i in range(n)
        )


class _DigitTree:
    """The digit tree of f over the digit points of a ring adapter: the
    adapter's ``prepare`` charges what its shift step builds, the witness
    its n entries before the walk, and each expanded node its digits."""

    def __init__(self, f: MultiPoly, ring, budget: int):
        self.n, self.q, self.ring, self.budget = f.nvars, ring.residue.q, ring, budget
        self.spent = ring.prepare(f.terms, budget)
        self.root = ring.root(f.terms)
        self.all_digits = None

    def digits(self, k: int) -> list:
        """The digits of a node at depth k, charged to the budget."""
        fixed = self.ring.fixed(k)
        if fixed is not None:
            self.spent += 1
            check_budget(self.spent, self.budget)
            return [(fixed,) * self.n]
        self.spent = check_power(self.q, self.n, self.spent, self.budget)
        if self.all_digits is None:
            self.all_digits = list(itertools.product(range(self.q), repeat=self.n))
        return self.all_digits

    def floor(self, g: dict) -> tuple:
        """(m, R): g's least value m, and when m lies below every error
        order, also the residue form R of g's terms of value m, else None."""
        reads = [(nu, self.ring.read(c)) for nu, c in g.items()]
        m = min((r[0] for _, r in reads), default=self.ring.cap)
        if m >= min((r[1] for _, r in reads), default=self.ring.cap):
            return m, None
        return m, [(_reduced(nu, self.q), code) for nu, (v, _, code) in reads if v == m]

    def split(self, lead: Optional[list], digits: list) -> Tuple[list, list]:
        """(decided, children): g's terms of value m sum to R(y) times a unit
        of value m, so R(y) != 0 gives exactly m on y's subtree."""
        if lead is None:
            return [], digits
        residue, decided, children = self.ring.residue, [], []
        powers, add, mul = _powers(residue), residue.add_codes, residue.mul_codes
        for y in digits:
            r = 0
            for nu, code in lead:
                r = add(r, _times_monomial(code, y, nu, powers, mul))
            (decided if r else children).append(y)
        return decided, children

    def leaves(self, upto: float = math.inf) -> Iterator[Tuple[tuple, ValuationResult]]:
        """The leaves in digit order, each (its digits, newest first as nested
        pairs; the depth k past them; the digits at k it covers, None for all)
        with the value on its subtree.  A node whose floor m reaches the cap
        is a leaf at the cap, and one past the last slot at f's value there.
        Without upto, a node past the horizon with no residue form is a leaf
        at its floor.  With upto (ball adapters only) the horizon is off, and
        a node at depth upto or past it is one class: exactly m when its
        residue form decides every digit of the first free slot, else ">=m"."""
        ring = self.ring
        horizon = ring.horizon if upto == math.inf else math.inf
        stack = [(self.root, ring.low, None)]
        while stack:
            g, k, node = stack.pop()
            if node is not None:
                g = ring.child(g, node[0], k)
            if k == ring.last:  # one exact point, f(a) = g(0)
                g = {nu: c for nu, c in g.items() if not nu}
            m, lead = self.floor(g)
            if m >= ring.cap:
                yield (node, k, None), ValuationResult.at_least(ring.value(ring.cap))
                continue
            if k == ring.last:
                yield (node, k, None), ValuationResult(lead is not None, ring.value(m))
                continue
            if k >= upto:
                exact = lead is not None and not self.split(lead, self.digits(ring.free(k)))[1]
                yield (node, k, None), ValuationResult(exact, ring.value(m))
                continue
            digits = self.digits(k)
            if lead is None and k >= horizon:
                yield (node, k, None), ValuationResult.at_least(ring.value(m))
                continue
            decided, children = self.split(lead, digits)
            if decided:
                yield (node, k, decided), ValuationResult.exactly(ring.value(m))
            stack.extend((g, k + 1, (y, node)) for y in reversed(children))

    def search(self) -> SearchResult:
        """The best leaf, with the digit point through its first digit; the
        walk ends at the first leaf at the cap, which no later leaf can beat."""
        self.spent += self.n
        check_budget(self.spent, self.budget)
        capped = ValuationResult.at_least(self.ring.value(self.ring.cap))

        def walk():
            for leaf in self.leaves():
                yield leaf
                if leaf[1] == capped:
                    return

        result = search_max(walk())
        node, _, covered = result.witness
        digits = list(covered or ())[:1]
        while node is not None:
            y, node = node
            digits.insert(0, y)
        return SearchResult(self.ring.point(digits, self.n), result.value, result.verdict)


def extremal_search(
    f: MultiPoly,
    field: LaurentField,
    ball: Optional[Ball] = None,
    prec: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Max of v(f) over the ball (O by default) by the digit tree, capped
    at prec."""
    if ball is None:
        ball = Ball(field.zero(prec), 0)
    return _DigitTree(f, _BallDigits(field, ball, prec), budget).search()


def composite_extremal_search(
    f: MultiPoly,
    field: CompositeField,
    u_floor: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Max of v(f) over the truncated rank-2 valuation ring by the digit
    tree, capped at (prec_t, 0).  With exact coefficients, MaxAttained is
    the exact value at every exact digit point of the window, and a bound
    comes from the cap alone, or else from a coefficient known to an order."""
    return _DigitTree(f, _RingDigits(field, u_floor), budget).search()


# -- ball transfer (affine bijection between balls) ------------------------


def ball_transfer(
    f: MultiPoly,
    alpha: int,
    a: LaurentSeries,
    beta: int,
    b: LaurentSeries,
    c: LaurentSeries,
) -> MultiPoly:
    """g(Y...) = f(c(Y-a)+b, ...), carrying values of f on B_beta(b)^n
    over to values of g on B_alpha(a)^n; requires v(c) = beta - alpha."""
    vc = c.valuation().require_exact()
    if vc != Value.rank1(beta - alpha):
        raise ValfieldError(
            f"scale has valuation {vc.to_text()}, expected {beta - alpha}"
        )
    shift = b - c * a
    occurring = {i for nu in f.terms for i, _ in nu}
    return f.compose({i: MultiPoly(f.nvars, {((i, 1),): c, (): shift}) for i in occurring})


def valuation_multiset(
    f: MultiPoly,
    field: LaurentField,
    ball: Ball,
    upto: int,
    cap: int,
    budget: int = DEFAULT_BUDGET,
) -> List[str]:
    """Sorted texts of v(f) over the classes of the ball mod t^upto, read
    at ``cap``, counted over the leaves of the digit tree walked to depth
    upto.

    A leaf at depth k stands for q^(n*(upto - max(k, radius))) classes, and
    a digit that the residue form decides for q^(n*(upto - max(k + 1,
    radius))); at depth upto a leaf is one class, a + t^k O^n.  The entry
    count q^(n*(upto - radius)) is charged to the budget, together with
    the walk's digits.
    """
    tree = _DigitTree(f, _BallDigits(field, ball, cap), budget)
    n, q = f.nvars, field.base.q
    tree.spent = check_power(q, n * max(0, upto - ball.radius), tree.spent, budget)

    def classes(k: int) -> int:
        return q ** (n * max(0, upto - tree.ring.free(k)))

    counts: Counter = Counter()
    for (_, k, covered), vr in tree.leaves(upto):
        counts[vr.to_text()] += classes(k) if covered is None else len(covered) * classes(k + 1)
    return [text for text in sorted(counts) for _ in range(counts[text])]


# -- coarsening and the composite desk check -------------------------------


@dataclass(frozen=True)
class CompositeCheckReport:
    conclusion: str  # Confirmed | Inconclusive | Counterexample
    composite: SearchResult
    residue_level: SearchResult
    pushdown_value: Optional[str]

    def to_dict(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "composite": self.composite.to_dict(),
            "residueLevel": self.residue_level.to_dict(),
            "pushdownValue": self.pushdown_value,
        }


def check_vexbarwex(
    g: MultiPoly,
    comp_field: CompositeField,
    u_floor: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> CompositeCheckReport:
    """Desk-scale check that an exact composite maximum pushes down.

    g has coefficients in F_q((u)); it is lifted coefficientwise to the
    composite field as it is.  When the composite search attains an exact
    maximum at a witness, the witness's coarsening residues must attain a
    value for g that the residue-level search, capped at prec_u, cannot
    beat.  Both searches are truncated, so neither conclusion certifies
    anything about F_q((u))((t)) itself.
    """
    inner_field = comp_field.inner
    f = g.map_coeffs(comp_field.from_inner)
    comp_result = composite_extremal_search(f, comp_field, u_floor, budget)
    res_result = extremal_search(g, inner_field, None, comp_field.prec_u, budget)
    if comp_result.verdict != MAX_ATTAINED:
        return CompositeCheckReport("Inconclusive", comp_result, res_result, None)
    # a witness's residue at w = 0 is its t^0 coefficient; a witness of
    # larger outer valuation has residue 0
    pushed = tuple(w.coeffs.get(0, inner_field.zero(math.inf)) for w in comp_result.witness)
    vr = g.evaluate(pushed).valuation()
    if not vr.exact or res_result.verdict != MAX_ATTAINED:
        conclusion = "Inconclusive"
    elif res_result.value.value > vr.value:
        conclusion = "Counterexample"
    else:
        conclusion = "Confirmed"
    return CompositeCheckReport(conclusion, comp_result, res_result, vr.to_text())
