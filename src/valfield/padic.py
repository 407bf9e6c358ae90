"""Q_p at finite precision and finite extensions Q_p[X]/(f).

Numbers are stored as p^v * u with the whole number known modulo p^N
(absolute error order N, as in the Laurent module).  Extension elements are
representative polynomials modulo a monic defining polynomial; their
valuations come from the valuation of a resultant:

    v(g(gen)) = v(Res(f, g)) / deg f

which is the norm route and needs no uniformizer towers.  Irreducibility
over Q_p is certified by degree one or through the Newton polygon: a
single segment whose slope denominator equals the degree, or a unit
polynomial whose residue is irreducible over F_p.  Anything else must
carry an external irreducibility assertion, which is recorded downstream
in certificates.

When a resultant valuation comes out indeterminate the ring rebuilds
itself at doubled precision and retries, at most three times.

Polynomial arithmetic on representatives (product, reduction modulo f,
the extended-gcd inverse) runs on the dense helpers of
:mod:`valfield.polynomials`, which need no zero element: every
coefficient, including one that is zero to its precision, carries the
error order its own inputs give it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    CertificationError,
    DescriptorMismatchError,
    IndeterminateValuationError,
    PrecisionError,
    ValfieldError,
)
from .finite_field import _pmod_irreducible, is_prime, prime_field
from .laurent import ValuationResult
from .polygon import (
    FundamentalEqualityData,
    NewtonPolygon,
    certify_extension,
    newton_polygon_from_valuations,
)
from .polynomials import dense_divmod, dense_mul, dense_sub, dense_trim
from .value_group import INFINITY, Value


def vp_int(n: int, p: int) -> Optional[int]:
    """p-adic valuation of an integer; None for 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> Optional[int]:
    if q == 0:
        return None
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


class PAdicNumber:
    """An element of Q_p known modulo p^prec."""

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: Optional[int], unit: int, prec: int):
        self.p = p
        self.prec = prec
        # unit == 0 is tested before p**(prec - val) is built: zero
        # coefficients are multiplied and added like any other
        if val is None or val >= prec or unit == 0:
            self.val, self.unit = None, 0
            return
        rel = prec - val
        unit %= p**rel
        if unit == 0:
            self.val, self.unit = None, 0
            return
        shift = vp_int(unit, p)
        self.val = val + shift
        if self.val >= prec:
            self.val, self.unit = None, 0
            return
        self.unit = (unit // p**shift) % p ** (prec - self.val)

    @staticmethod
    def from_fraction(p: int, q: Union[int, Fraction], prec: int) -> "PAdicNumber":
        q = Fraction(q)
        if q == 0:
            return PAdicNumber(p, None, 0, prec)
        vn = vp_int(q.numerator, p)
        vd = vp_int(q.denominator, p)
        v = vn - vd
        num = q.numerator // p**vn
        den = q.denominator // p**vd
        rel = prec - v
        if rel <= 0:
            return PAdicNumber(p, None, 0, prec)
        unit = num * pow(den, -1, p**rel) % p**rel
        return PAdicNumber(p, v, unit, prec)

    # -- predicates --------------------------------------------------------

    def is_zero_to_prec(self) -> bool:
        return self.val is None

    def valuation_floor(self) -> int:
        return self.prec if self.val is None else self.val

    def valuation(self) -> ValuationResult:
        if self.val is None:
            return ValuationResult.at_least(Value.rank1(self.prec))
        return ValuationResult.exactly(Value.rank1(self.val))

    def _check(self, other: "PAdicNumber") -> None:
        if self.p != other.p:
            raise DescriptorMismatchError("numbers over different primes")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PAdicNumber") -> "PAdicNumber":
        self._check(other)
        prec = min(self.prec, other.prec)
        shift = min(self.valuation_floor(), other.valuation_floor(), 0)
        a = 0 if self.val is None else self.unit * self.p ** (self.val - shift)
        b = 0 if other.val is None else other.unit * other.p ** (other.val - shift)
        return PAdicNumber(self.p, shift, a + b, prec)

    def __neg__(self) -> "PAdicNumber":
        if self.val is None:
            return self
        return PAdicNumber(self.p, self.val, -self.unit, self.prec)

    def __sub__(self, other: "PAdicNumber") -> "PAdicNumber":
        return self + (-other)

    def __mul__(self, other: "PAdicNumber") -> "PAdicNumber":
        self._check(other)
        prec = min(
            self.prec + other.valuation_floor(),
            other.prec + self.valuation_floor(),
        )
        if self.val is None or other.val is None:
            return PAdicNumber(self.p, None, 0, prec)
        return PAdicNumber(
            self.p, self.val + other.val, self.unit * other.unit, prec
        )

    def inverse(self) -> "PAdicNumber":
        if self.val is None:
            raise IndeterminateValuationError("division by an indeterminate number")
        rel = self.prec - self.val
        if rel <= 0:
            raise PrecisionError("no digits left to invert")
        inv = pow(self.unit, -1, self.p**rel)
        return PAdicNumber(self.p, -self.val, inv, self.prec - 2 * self.val)

    def __truediv__(self, other: "PAdicNumber") -> "PAdicNumber":
        return self * other.inverse()

    def residue(self):
        """Image in F_p, for elements of nonnegative valuation."""
        if self.val is not None and self.val < 0:
            raise ValfieldError("residue of an element with negative valuation")
        if self.prec <= 0:
            raise PrecisionError("error order too small to read the residue")
        base = prime_field(self.p)
        if self.val is None or self.val > 0:
            return base.zero()
        return base.element(self.unit % self.p)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PAdicNumber)
            and self.p == other.p
            and self.val == other.val
            and self.unit == other.unit
            and self.prec == other.prec
        )

    def __hash__(self) -> int:
        return hash((self.p, self.val, self.unit, self.prec))

    def to_text(self) -> str:
        if self.val is None:
            return f"O({self.p}^{self.prec})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.prec})"

    def __repr__(self) -> str:
        return self.to_text()


# -- polynomials over Q_p --------------------------------------------------


def poly_from_fractions(
    p: int, coeffs: Sequence[Union[int, Fraction]], prec: int
) -> List[PAdicNumber]:
    return [PAdicNumber.from_fraction(p, c, prec) for c in coeffs]


def newton_polygon(coeffs: Sequence[PAdicNumber]) -> NewtonPolygon:
    """Polygon of a polynomial over Q_p (index = degree)."""
    return newton_polygon_from_valuations([c.valuation() for c in coeffs])


def monicize(coeffs: Sequence[Fraction]) -> List[Fraction]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValfieldError("cannot monicize the zero polynomial")
    lead = cs[-1]
    return [c / lead for c in cs]


class PAdicExtRing:
    """Q_p[X]/(f) with f monic, at a fixed working precision."""

    def __init__(
        self,
        p: int,
        modulus: Sequence[Union[int, Fraction]],
        prec: Optional[int] = None,
        denominator_bound: Optional[int] = None,
        irreducible_asserted: bool = False,
    ):
        if not is_prime(p):
            raise ValfieldError(f"Q_p needs a prime p, got {p}")
        self.p = p
        mod = monicize([Fraction(c) for c in modulus])
        self.modulus_fractions = mod
        self.degree = len(mod) - 1
        if self.degree < 1:
            raise ValfieldError("modulus must have degree >= 1")
        db = denominator_bound if denominator_bound is not None else self.degree
        self.denominator_bound = db
        self.prec = prec if prec is not None else 4 * self.degree * db
        self.modulus = poly_from_fractions(p, mod, self.prec)
        self.irreducible_asserted = irreducible_asserted
        self._polygon: Optional[NewtonPolygon] = None

    def polygon(self) -> NewtonPolygon:
        """Polygon of the exact modulus; a zero coefficient is passed as None."""
        if self._polygon is None:
            self._polygon = newton_polygon_from_valuations([
                None if c == 0
                else ValuationResult.exactly(Value.rank1(vp_fraction(c, self.p)))
                for c in self.modulus_fractions
            ])
        return self._polygon

    def irreducibility_certified(self) -> bool:
        """Degree one, or the slope-denominator criterion (totally ramified case)."""
        if self.degree == 1:
            return True
        slope = self.polygon().single_slope()
        if slope is None or self.polygon().start != 0:
            return False
        return slope.denominator == self.degree

    def _check_irreducible(self) -> None:
        if not (self.irreducibility_certified() or self.irreducible_asserted):
            raise CertificationError(
                "irreducibility not certifiable by the slope criterion; "
                "supply an external assertion"
            )

    # -- elements ----------------------------------------------------------

    def element(self, rep) -> "PAdicExtElement":
        if isinstance(rep, PAdicExtElement):
            if rep.ring is not self:
                raise DescriptorMismatchError("element from a different ring")
            return rep
        coeffs = [
            c if isinstance(c, PAdicNumber) else PAdicNumber.from_fraction(self.p, c, self.prec)
            for c in rep
        ]
        return PAdicExtElement(self, self._reduce(coeffs))

    def zero(self) -> "PAdicExtElement":
        return self.element([])

    def one(self) -> "PAdicExtElement":
        return self.element([1])

    def gen(self) -> "PAdicExtElement":
        return self.element([0, 1])

    def _reduce(self, coeffs: List[PAdicNumber]) -> Tuple[PAdicNumber, ...]:
        _, cs = dense_divmod(coeffs, self.modulus)
        cs += [PAdicNumber(self.p, None, 0, self.prec)] * (self.degree - len(cs))
        return tuple(cs)

    def at_precision(self, prec: int) -> "PAdicExtRing":
        return PAdicExtRing(
            self.p,
            self.modulus_fractions,
            prec=prec,
            denominator_bound=self.denominator_bound,
            irreducible_asserted=self.irreducible_asserted,
        )


class PAdicExtElement:
    """Representative polynomial of degree < deg f, modulo f."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: PAdicExtRing, rep: Tuple[PAdicNumber, ...]):
        self.ring = ring
        self.rep = rep

    def _check(self, other: "PAdicExtElement") -> None:
        if self.ring is not other.ring and (
            self.ring.p != other.ring.p
            or self.ring.modulus_fractions != other.ring.modulus_fractions
        ):
            raise DescriptorMismatchError("elements of different extension rings")

    def __add__(self, other: "PAdicExtElement") -> "PAdicExtElement":
        self._check(other)
        return PAdicExtElement(
            self.ring, tuple(a + b for a, b in zip(self.rep, other.rep))
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
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "PAdicExtElement":
        """Extended-gcd inverse against the modulus."""
        one = PAdicNumber.from_fraction(self.ring.p, 1, self.ring.prec)
        # (r0, s0) and (r1, s1) with ri = si * g (mod f); s0 = [] is zero
        r0, s0 = list(self.ring.modulus), []
        r1, s1 = list(self.rep), [one]
        while True:
            r1 = dense_trim(r1)
            if len(r1) == 0:
                raise IndeterminateValuationError(
                    "element is zero (or not invertible) at current precision"
                )
            if len(r1) == 1:
                inv = r1[0].inverse()
                return self.ring.element([c * inv for c in s1])
            q, r = dense_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, dense_sub(s0, dense_mul(q, s1))

    def is_zero_to_prec(self) -> bool:
        return all(c.is_zero_to_prec() for c in self.rep)

    def to_text(self) -> str:
        parts = [
            f"({c.to_text()})*X^{i}" for i, c in enumerate(self.rep)
            if not c.is_zero_to_prec()
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return self.to_text()


# -- resultant-based valuation ---------------------------------------------


def _sylvester_det_valuation(
    f: List[PAdicNumber], g: List[PAdicNumber]
) -> ValuationResult:
    """Valuation of det(Sylvester(f, g)) by elimination with valuation pivoting.

    Rows are sparse maps column -> entry.  A structural zero of the matrix
    is an absent entry: it is exact and lends no precision to anything.
    """
    m, n = len(f) - 1, len(g) - 1
    if n < 0:
        raise ValfieldError("resultant with the zero polynomial")
    if n == 0:
        # Res(f, c) = c^deg(f)
        acc = g[0].valuation()
        if not acc.exact:
            return acc
        return ValuationResult.exactly(acc.value.scale(m))
    size = m + n
    rows = [{i + j: c for j, c in enumerate(reversed(f))} for i in range(n)]
    rows += [{i + j: c for j, c in enumerate(reversed(g))} for i in range(m)]
    total = Fraction(0)
    for col in range(size):
        present = [r for r in range(col, size) if col in rows[r]]
        if not present:
            # a structurally empty column: the determinant is exactly zero
            return ValuationResult.exactly(INFINITY)
        nonzero = [r for r in present if not rows[r][col].is_zero_to_prec()]
        if not nonzero:
            bound = min(rows[r][col].prec for r in present)
            return ValuationResult.at_least(Value.rank1(bound))
        pivot_row = min(nonzero, key=lambda r: rows[r][col].val)
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        pv = pivot[col]
        total += pv.val
        for r in range(col + 1, size):
            row = rows[r]
            entry = row.get(col)
            if entry is None or entry.is_zero_to_prec():
                continue
            factor = entry / pv
            for c, y in pivot.items():
                row[c] = row[c] - factor * y if c in row else -(factor * y)
    return ValuationResult.exactly(Value.rank1(total))


def ext_valuation(a: PAdicExtElement) -> Value:
    """v(a) = v(Res(f, a)) / deg f.

    Raises PrecisionError when the resultant valuation is indeterminate at
    the ring's working precision; use :func:`with_precision_retry` to rerun
    a whole construction at doubled precision.
    """
    ring = a.ring
    ring._check_irreducible()
    if a.is_zero_to_prec():
        raise IndeterminateValuationError("valuation of a zero-to-precision element")
    g = dense_trim(a.rep)
    res = _sylvester_det_valuation(list(ring.modulus), g)
    if not res.exact:
        raise PrecisionError("resultant valuation indeterminate at working precision")
    return res.value.scale(Fraction(1, ring.degree))


def with_precision_retry(compute, initial_prec: int, attempts: int = 3):
    """Run compute(prec), doubling precision on PrecisionError, capped retries."""
    prec = initial_prec
    last = None
    for _ in range(attempts + 1):
        try:
            return compute(prec)
        except PrecisionError as exc:
            last = exc
            prec *= 2
    raise PrecisionError(f"still indeterminate after {attempts} precision raises") from last


def fundamental_equality_data(ring: PAdicExtRing) -> FundamentalEqualityData:
    """Degree, ramification index and residue degree of Q_p[X]/(f), by the
    routes of :func:`certify_extension`."""
    return certify_extension(
        ring.degree,
        ring.polygon(),
        lambda: _pmod_irreducible(
            tuple(c.residue().code for c in ring.modulus), ring.p
        ),
        ring.irreducible_asserted,
    )
