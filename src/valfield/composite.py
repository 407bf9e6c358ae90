"""Composite valuations: truncated series in t over truncated series in u.

Elements model F_q((u))((t)) at desk scale: an outer window of t-exponents
whose coefficients are truncated Laurent series in u.  The valuation is
the lexicographic pair (outer t-exponent, u-valuation of the leading
coefficient), so coarsening to the outer valuation just drops the second
coordinate and the residue at the coarsening lives in F_q((u)).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from .errors import DescriptorMismatchError, IndeterminateValuationError
from .finite_field import FiniteFieldDescriptor
from .laurent import LaurentField, LaurentSeries
from .value_group import Value, ValuationResult


class CompositeField:
    """F_q((u))((t)) with independent truncation bounds for t and u."""

    def __init__(
        self,
        base: FiniteFieldDescriptor,
        inner_var: str = "u",
        outer_var: str = "t",
        prec_t: int = 4,
        prec_u: int = 4,
    ):
        self.base = base
        self.inner = LaurentField(base, inner_var)
        self.outer_var = outer_var
        self.prec_t = prec_t
        self.prec_u = prec_u

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompositeField)
            and self.base == other.base
            and self.inner.var == other.inner.var
            and self.outer_var == other.outer_var
        )

    def __hash__(self) -> int:
        return hash((self.base, self.inner.var, self.outer_var))

    def to_text(self) -> str:
        return f"{self.base.to_text()}(({self.inner.var}))(({self.outer_var}))"

    def __repr__(self) -> str:
        return self.to_text()

    # -- constructors ------------------------------------------------------

    def make(self, coeffs: Dict[int, LaurentSeries], prec_t: Optional[int] = None) -> "CompositeElement":
        nt = self.prec_t if prec_t is None else prec_t
        out = {}
        for e, c in coeffs.items():
            if e >= nt:
                continue
            if c.field != self.inner:
                raise DescriptorMismatchError("coefficient from a different inner field")
            # only an exact zero is left out: a zero to O(u^k) keeps its error
            # order, so that a sum does not depend on the order of its terms
            if c.coeffs or c.prec != math.inf:
                out[e] = c
        return CompositeElement(self, out, nt)

    def zero(self, prec_t: Optional[int] = None) -> "CompositeElement":
        return self.make({}, prec_t)

    def t_power(self, e: int) -> "CompositeElement":
        return self.make({e: self.inner.one(math.inf)})

    def from_inner(self, s: LaurentSeries) -> "CompositeElement":
        """Embed a series in u at t^0, as given."""
        return self.make({0: s})


class CompositeElement:
    """Outer t-window with inner u-series coefficients; immutable."""

    __slots__ = ("field", "coeffs", "prec_t")

    def __init__(self, field: CompositeField, coeffs: Dict[int, LaurentSeries], prec_t: int):
        self.field = field
        self.coeffs = dict(coeffs)
        self.prec_t = prec_t

    def _check(self, other: "CompositeElement") -> None:
        if self.field != other.field:
            raise DescriptorMismatchError("elements of different composite fields")

    def __add__(self, other: "CompositeElement") -> "CompositeElement":
        self._check(other)
        nt = min(self.prec_t, other.prec_t)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return self.field.make(out, nt)

    def __neg__(self) -> "CompositeElement":
        return self.field.make({e: -c for e, c in self.coeffs.items()}, self.prec_t)

    def __sub__(self, other: "CompositeElement") -> "CompositeElement":
        return self + (-other)

    def __mul__(self, other: "CompositeElement") -> "CompositeElement":
        self._check(other)
        lo_a = min(self.coeffs, default=self.prec_t)
        lo_b = min(other.coeffs, default=other.prec_t)
        # cut to the field's t-window too, so no value reads (prec_t, i) with
        # i < 0, lex below the bound (prec_t, 0) of an element past the window
        nt = min(self.prec_t + lo_b, other.prec_t + lo_a, self.field.prec_t)
        out: Dict[int, LaurentSeries] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if e >= nt:
                    continue
                c = ca * cb
                out[e] = out[e] + c if e in out else c
        return self.field.make(out, nt)

    def times(self, j: int, i: int) -> "CompositeElement":
        """x * t^j * u^i, exactly, cut to the field's t-window."""
        return self.field.make({e + j: c.shift(i) for e, c in self.coeffs.items()})

    # -- valuation and coarsening -----------------------------------------

    def read(self) -> Tuple[tuple, tuple, int]:
        """(floor, error order, code at the floor), pairs (t-level, u-order)
        read at the lowest t-level present: ``make`` drops only exact zeros,
        so a level zero to O(u^k) is a bound at (e, k).  With no level, the
        element is zero to the t-window, a bound at (prec_t, 0)."""
        if not self.coeffs:
            return (self.prec_t, 0), (self.prec_t, 0), 0
        e = min(self.coeffs)
        c = self.coeffs[e]
        return (e, c.valuation_floor()), (e, c.prec), c.coeffs[0] if c.coeffs else 0

    def is_zero_to_prec(self) -> bool:
        """Zero to its read error order: the valuation is only a bound."""
        return not self.valuation().exact

    def valuation(self) -> ValuationResult:
        floor, order, _ = self.read()
        return ValuationResult(floor < order, Value.rank2(*floor))

    def outer_valuation(self) -> int:
        """w(x): the coarsened (first lex coordinate) valuation."""
        floor, order, _ = self.read()
        if floor >= order:
            raise IndeterminateValuationError("outer valuation of an element zero to its leading error order")
        return floor[0]

    def coarsen(self) -> Tuple[int, LaurentSeries]:
        """(w(x), residue of x * t^(-w(x)) at w), the image in F_q((u))."""
        w = self.outer_valuation()
        return w, self.coeffs[w]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompositeElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
            and self.prec_t == other.prec_t
        )

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.prec_t))

    def to_text(self) -> str:
        var = self.field.outer_var
        parts = [
            f"({self.coeffs[e].to_text()})*{var}^{e}" for e in sorted(self.coeffs)
        ]
        parts.append(f"O({var}^{self.prec_t})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.to_text()
