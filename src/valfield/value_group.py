"""Value groups of rank 1 and rank 2 (lexicographic), with a top element.

Elements are exact rationals; there is no floating point anywhere.  The top
element ``inf`` absorbs under addition and is greater than every group
element.  Rank-1 and rank-2 values never mix: cross-rank arithmetic or
comparison is a hard error, not a coercion.  A ``ValuationResult``, the
value every layer reads, is an exact value or only a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import IndeterminateValuationError, ParseError, RankMismatchError, ValfieldError

Rational = Union[int, Fraction]


def rational(q: Rational) -> Rational:
    """q as an ``int`` when its denominator is 1, else as a ``Fraction``:
    exact rationals outside ``Value`` carry a ``Fraction`` only where a
    real denominator does, so integral arithmetic stays on ints."""
    if q.denominator == 1:
        return q.numerator
    return q if type(q) is Fraction else Fraction(q)


_RANK1 = 1
_RANK2 = 2
_INF = 0  # rank tag for the top element


@dataclass(frozen=True)
class Value:
    """An element of a rank-1 or rank-2 ordered value group, or ``inf``.

    Use the constructors :meth:`rank1`, :meth:`rank2` and the module-level
    :data:`INFINITY` instead of calling the dataclass directly.
    """

    tag: int
    first: Optional[Fraction] = None
    second: Optional[Fraction] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rank1(q: Rational) -> "Value":
        return Value(_RANK1, Fraction(q))

    @staticmethod
    def rank2(a: Rational, b: Rational) -> "Value":
        return Value(_RANK2, Fraction(a), Fraction(b))

    # -- predicates --------------------------------------------------------

    @property
    def is_infinity(self) -> bool:
        return self.tag == _INF

    def _require_compatible(self, other: "Value") -> None:
        if self.tag == _INF or other.tag == _INF:
            return
        if self.tag != other.tag:
            raise RankMismatchError(
                f"cannot combine rank-{self.tag} and rank-{other.tag} values"
            )

    # -- group operations --------------------------------------------------

    def __add__(self, other: "Value") -> "Value":
        self._require_compatible(other)
        if self.tag == _INF or other.tag == _INF:
            return INFINITY
        if self.tag == _RANK1:
            return Value.rank1(self.first + other.first)
        return Value.rank2(self.first + other.first, self.second + other.second)

    def __neg__(self) -> "Value":
        if self.tag == _INF:
            raise ValfieldError("infinity has no additive inverse")
        if self.tag == _RANK1:
            return Value.rank1(-self.first)
        return Value.rank2(-self.first, -self.second)

    def __sub__(self, other: "Value") -> "Value":
        return self + (-other)

    # -- total order -------------------------------------------------------

    def _key(self):
        if self.tag == _RANK1:
            return (self.first,)
        return (self.first, self.second)

    def __lt__(self, other: "Value") -> bool:
        self._require_compatible(other)
        if self.tag == _INF:
            return False
        if other.tag == _INF:
            return True
        return self._key() < other._key()

    def __le__(self, other: "Value") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Value") -> bool:
        return other < self

    def __ge__(self, other: "Value") -> bool:
        return other <= self

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        if self.tag == _INF:
            return "inf"
        if self.tag == _RANK1:
            return str(self.first)
        return f"({self.first},{self.second})"

    @staticmethod
    def from_text(text: str) -> "Value":
        s = text.strip()
        if s == "inf":
            return INFINITY
        try:
            if s.startswith("(") and s.endswith(")"):
                parts = s[1:-1].split(",")
                if len(parts) != 2:
                    raise ValueError
                return Value.rank2(Fraction(parts[0]), Fraction(parts[1]))
            return Value.rank1(Fraction(s))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot parse value {text!r}") from None

    def __repr__(self) -> str:
        return f"Value({self.to_text()})"


INFINITY = Value(_INF)


@dataclass(frozen=True)
class ValuationResult:
    """Either an exact valuation or a lower bound carrying the error order."""

    exact: bool
    value: Value

    @staticmethod
    def exactly(v: Value) -> "ValuationResult":
        return ValuationResult(True, v)

    @staticmethod
    def at_least(v: Value) -> "ValuationResult":
        return ValuationResult(False, v)

    def require_exact(self) -> Value:
        if not self.exact:
            raise IndeterminateValuationError(f"valuation only known to be >= {self.value.to_text()}")
        return self.value

    def contradicts(self, other: "ValuationResult") -> bool:
        """Whether two answers for one valuation cannot both hold: two
        different exact values, or an exact value below the other's bound."""
        if self.exact and other.exact:
            return self.value != other.value
        return (self.exact and self.value < other.value) or (other.exact and other.value < self.value)

    def to_text(self) -> str:
        return self.value.to_text() if self.exact else f">={self.value.to_text()}"

    def __repr__(self) -> str:
        kind = "Exact" if self.exact else "AtLeast"
        return f"{kind}({self.value.to_text()})"
