"""The digit tree over Z_p through an adapter that lives only here.

``_DigitTree`` holds the walk, the floor, the residue form, the split and
the budget; everything of the ring is behind its adapter.  Over Z_p the
shift Y -> y + p*Y needs every binomial coefficient, since Lucas's theorem
reduces nothing in characteristic 0, and a digit power is an integer, not
a residue.  ``ZpDigits`` does both on exact ``Fraction`` coefficients and
shares only the residue field F_p with the characteristic-p adapters; the
tree runs on it unchanged.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from valfield.errors import DEFAULT_BUDGET, check_budget
from valfield.extremality import INDETERMINATE, MAX_ATTAINED, _DigitTree
from valfield.finite_field import prime_field
from valfield.padic import vp_fraction
from valfield.polynomials import MultiPoly
from valfield.value_group import Value


class ZpDigits:
    """The digit points of Z_p: slot k is p^k, digits 0..p-1, exact
    coefficients, so every value below the cap is exact."""

    low, last = 0, math.inf
    value, fixed = staticmethod(Value.rank1), staticmethod(lambda k: None)
    root = staticmethod(dict)

    def __init__(self, p: int, cap: int):
        self.p, self.residue, self.cap, self.horizon = p, prime_field(p), cap, cap

    def read(self, c: Fraction) -> tuple:
        """(v(c), error order, the code of c / p^v(c) mod p)."""
        v = vp_fraction(Fraction(c), self.p)
        if v is None:
            return math.inf, math.inf, 0
        unit = Fraction(c) / Fraction(self.p) ** v
        return v, math.inf, unit.numerator * pow(unit.denominator, -1, self.p) % self.p

    def prepare(self, monomials, budget: int) -> int:
        """Every (nu, mu, nu - mu, C(nu, mu)) with mu <= nu exponentwise,
        over the monomials below f's, charged one per entry."""
        def below(nu):
            for ms in itertools.product(*(range(e + 1) for _, e in nu)):
                yield tuple((i, m) for (i, _), m in zip(nu, ms) if m), ms
        closure = {mu for nu in monomials for mu, _ in below(nu)}
        self.table = [
            (nu, mu, [(i, e - m) for (i, e), m in zip(nu, ms)],
             math.prod(math.comb(e, m) for (_, e), m in zip(nu, ms)))
            for nu in closure for mu, ms in below(nu)
        ]
        check_budget(len(self.table), budget)
        return len(self.table)

    def child(self, g: dict, y: tuple, k: int) -> dict:
        """The coefficients of g(y + p*Y): C(nu, mu) y^(nu - mu) p^|mu| g_nu."""
        out = {}
        for nu, mu, diff, binomial in self.table:
            if nu in g:
                term = g[nu] * binomial * math.prod(y[i] ** d for i, d in diff)
                out[mu] = out.get(mu, 0) + term * self.p ** sum(m for _, m in mu)
        return out

    def point(self, digits: list, n: int) -> tuple:
        return tuple(sum(y[i] * self.p ** k for k, y in enumerate(digits)) for i in range(n))


def _search(f: MultiPoly, p: int, cap: int):
    return _DigitTree(f, ZpDigits(p, cap), DEFAULT_BUDGET).search()


@pytest.mark.parametrize(
    "p, d, value",
    [(2, 5, "2"), (2, 17, ">=8"), (3, 3, "1"), (3, 7, ">=8")],
    ids=["Q2-5", "Q2-17", "Q3-3", "Q3-7"],
)
def test_square_landmarks(p, d, value):
    # a^2 = 1 mod 8 for odd a; 17 is a square in Z_2; 3 is p times a unit;
    # 7 = 1 mod 3 lifts to a square in Z_3
    f = MultiPoly(1, {((0, 2),): Fraction(1), (): Fraction(-d)})
    result = _search(f, p, 8)
    assert result.value.to_text() == value
    assert result.verdict == (INDETERMINATE if value.startswith(">=") else MAX_ATTAINED)
    (a,) = result.witness
    reached = vp_fraction(Fraction(a * a - d), p)
    assert reached >= 8 if result.verdict == INDETERMINATE else reached == int(value)


def _integral_instances():
    rng = random.Random(7)
    for _ in range(40):
        p, nvars = rng.choice([2, 3, 5]), rng.choice([1, 1, 2])
        terms = {(): Fraction(rng.randrange(1, p**3))}
        for _ in range(rng.randint(1, 3)):
            mono = tuple((i, e) for i in range(nvars) if (e := rng.randint(0, 4 // nvars)))
            terms[mono] = Fraction(rng.randrange(1, p) * p ** rng.randint(0, 2) * rng.choice((1, -1)))
        yield MultiPoly(nvars, terms), p, 3 if nvars == 2 and p > 2 else 4


def test_the_tree_over_z_p_agrees_with_the_enumeration():
    # integral coefficients: f(a) mod p^cap depends only on a mod p^cap
    for f, p, cap in _integral_instances():
        values = (vp_fraction(Fraction(f.evaluate(a)), p) for a in itertools.product(range(p**cap), repeat=f.nvars))
        best = max(cap if v is None else min(cap, v) for v in values)
        expected = f">={cap}" if best >= cap else str(best)
        assert _search(f, p, cap).value.to_text() == expected, (f, p, cap)
