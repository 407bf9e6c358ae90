"""Finite extensions Q_p[X]/(f), computed exactly over Q.

Every input to the p-adic layer is rational, so an element of Q_p[X]/(f)
is stored as its representative polynomial of degree < deg f with exact
rational coefficients, reduced modulo the monic defining polynomial f.
A coefficient whose denominator is 1 is an ``int`` and any other is a
``Fraction`` (``value_group.rational``), in the modulus and in every
representative alike, so integral moduli and elements compute on ints.
Nothing is truncated, so no working precision is chosen, and an answer is
never "zero to precision": the zero element is exactly zero, with
valuation infinity.  Valuations come from the valuation of a resultant:

    v(g(gen)) = v_p(Res(f, g)) / deg f

which is the norm route and needs no uniformizer towers.  It is read off
the Euclidean remainder sequence of (f, g), which ``inverse`` also walks:
Res(a, b) = +-lc(b)^(deg a - deg r) Res(b, r) for a = q*b + r, and
Res(b, c) = c^(deg b) for a constant c (Cohen, GTM 138, 3.3).  The
valuation needs f irreducible over Q_p, which one rule decides,
:func:`valfield.polygon.certify_extension`: degree one, a single polygon
segment whose slope denominator is the degree, a unit polynomial whose
residue is irreducible over F_p, or an external assertion, which
certificates record.  ``fundamental_equality_data`` asks it once per ring,
and ``ext_valuation`` refuses a ring that it does not certify; an asserted
ring is always certified, so ``ext_valuation`` skips its residue scan.

Polynomial arithmetic on representatives (product, reduction modulo f,
the remainder walk) runs on the dense helpers of
:mod:`valfield.polynomials`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import CertificationError, DescriptorMismatchError, ValfieldError
from .finite_field import _pmod_irreducible, is_prime
from .polygon import (
    FundamentalEqualityData,
    NewtonPolygon,
    certify_extension,
    newton_polygon_from_valuations,
)
from .polynomials import _ring_pow, dense_divmod, dense_mul, dense_sub, dense_trim
from .value_group import INFINITY, Rational, Value, ValuationResult, rational


def vp_int(n: int, p: int) -> Optional[int]:
    """p-adic valuation of an integer; None for 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Rational, p: int) -> Optional[int]:
    if q == 0:
        return None
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def monicize(coeffs: Sequence[Rational]) -> List[Rational]:
    """coeffs over the last nonzero one, each an int where integral; a
    monic input divides nothing, and neither does a zero."""
    cs = dense_trim([rational(c) for c in coeffs])
    if not cs:
        raise ValfieldError("cannot monicize the zero polynomial")
    lead = cs[-1]
    if lead == 1:
        return cs
    return [rational(Fraction(c) / lead) if c else 0 for c in cs]


class PAdicExtRing:
    """Q_p[X]/(f) with f monic and rational."""

    def __init__(
        self,
        p: int,
        modulus: Sequence[Rational],
        irreducible_asserted: bool = False,
    ):
        if not is_prime(p):
            raise ValfieldError(f"Q_p needs a prime p, got {p}")
        self.p = p
        self.modulus = monicize(modulus)
        self.degree = len(self.modulus) - 1
        if self.degree < 1:
            raise ValfieldError("modulus must have degree >= 1")
        self.irreducible_asserted = irreducible_asserted
        self._polygon: Optional[NewtonPolygon] = None
        self._data: Optional[FundamentalEqualityData] = None

    def polygon(self) -> NewtonPolygon:
        """Polygon of the modulus; a zero coefficient is passed as None."""
        if self._polygon is None:
            self._polygon = newton_polygon_from_valuations([
                None if not c
                else ValuationResult.exactly(Value.rank1(vp_fraction(c, self.p)))
                for c in self.modulus
            ])
        return self._polygon

    # -- elements ----------------------------------------------------------

    def element(self, rep) -> "PAdicExtElement":
        if isinstance(rep, PAdicExtElement):
            if rep.ring is not self:
                raise DescriptorMismatchError("element from a different ring")
            return rep
        return PAdicExtElement(self, self._reduce([rational(c) for c in rep]))

    def zero(self) -> "PAdicExtElement":
        return self.element([])

    def one(self) -> "PAdicExtElement":
        return self.element([1])

    def gen(self) -> "PAdicExtElement":
        return self.element([0, 1])

    def _reduce(self, coeffs: List[Rational]) -> Tuple[Rational, ...]:
        _, cs = dense_divmod(coeffs, self.modulus)
        return tuple(map(rational, cs)) + (0,) * (self.degree - len(cs))


class PAdicExtElement:
    """Representative polynomial of degree < deg f, modulo f."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: PAdicExtRing, rep: Tuple[Rational, ...]):
        self.ring = ring
        self.rep = rep

    def _check(self, other: "PAdicExtElement") -> None:
        if self.ring is not other.ring and (
            self.ring.p != other.ring.p or self.ring.modulus != other.ring.modulus
        ):
            raise DescriptorMismatchError("elements of different extension rings")

    def __add__(self, other: "PAdicExtElement") -> "PAdicExtElement":
        self._check(other)
        return PAdicExtElement(
            self.ring, tuple(rational(a + b) for a, b in zip(self.rep, other.rep))
        )

    def __neg__(self) -> "PAdicExtElement":
        return PAdicExtElement(self.ring, tuple(-a for a in self.rep))

    def __sub__(self, other: "PAdicExtElement") -> "PAdicExtElement":
        return self + (-other)

    def __mul__(self, other: "PAdicExtElement") -> "PAdicExtElement":
        self._check(other)
        prod = dense_mul(self.rep, other.rep)
        return PAdicExtElement(self.ring, self.ring._reduce(prod))

    def __pow__(self, e: int) -> "PAdicExtElement":
        if e < 0:
            return self.inverse() ** (-e)
        return _ring_pow(self, e) if e else self.ring.one()

    def inverse(self) -> "PAdicExtElement":
        """Extended-gcd inverse against the modulus."""
        # each remainder r_i = s_i * g (mod f); s_0 = [] is zero
        g = dense_trim(self.rep)
        last, s0, s1 = g, [], [1]
        for q, _, last in _remainder_walk(self.ring.modulus, g):
            s0, s1 = s1, dense_sub(s0, dense_mul(q, s1))
        if not last:
            raise ValfieldError("element is zero or not invertible modulo f")
        return self.ring.element([Fraction(c) / last[0] for c in s1])

    def is_zero(self) -> bool:
        return not any(self.rep)

    def valuation(self) -> ValuationResult:
        return ValuationResult.exactly(ext_valuation(self))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PAdicExtElement)
            and self.rep == other.rep
            and (self.ring.p, self.ring.modulus) == (other.ring.p, other.ring.modulus)
        )

    __hash__ = None

    def to_text(self) -> str:
        parts = [f"({c})*X^{i}" for i, c in enumerate(self.rep) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return self.to_text()


# -- resultant-based valuation ---------------------------------------------


def _remainder_walk(a: List[Rational], b: List[Rational]):
    """The Euclidean remainder sequence of a and b, b trimmed: each step
    yields (q, b, r) with a = q*b + r and r trimmed, then divides b by r,
    until the remainder is a constant or zero."""
    while len(b) > 1:
        q, r = dense_divmod(a, b)
        r = dense_trim(r)
        yield q, b, r
        a, b = b, r


def ext_valuation(a: PAdicExtElement) -> Value:
    """v(a) = v_p(Res(f, a)) / deg f, exact; infinity for the zero element.
    The ring must be certified by :func:`fundamental_equality_data`; an
    asserted ring always is, so its residue scan is skipped."""
    ring = a.ring
    if not ring.irreducible_asserted:
        fundamental_equality_data(ring)
    g = dense_trim(a.rep)
    if not g:
        return INFINITY
    # each step adds (deg a - deg r) v_p(lc b), deg a being deg q + deg b
    v, last, c = 0, ring.modulus, g
    for q, last, c in _remainder_walk(ring.modulus, g):
        v += (len(q) + len(last) - 1 - len(c)) * vp_fraction(last[-1], ring.p)
    if not c:
        raise CertificationError("the element shares a factor with the modulus, which is reducible")
    v += (len(last) - 1) * vp_fraction(c[0], ring.p)
    return Value.rank1(Fraction(v, ring.degree))


def fundamental_equality_data(ring: PAdicExtRing) -> FundamentalEqualityData:
    """Degree, ramification index and residue degree of Q_p[X]/(f), by the
    routes of :func:`certify_extension`, found once per ring; raises
    CertificationError when no route certifies f."""
    if ring._data is None:
        p = ring.p
        ring._data = certify_extension(
            ring.degree,
            ring.polygon(),
            lambda: _pmod_irreducible(
                tuple(c.numerator * pow(c.denominator, -1, p) % p for c in ring.modulus), p
            ),
            ring.irreducible_asserted,
        )
    return ring._data
