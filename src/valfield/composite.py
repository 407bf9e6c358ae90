"""Composite valuations: truncated series in t over truncated series in u.

Elements model F_q((u))((t)) at desk scale: an outer window of t-exponents
whose coefficients are truncated Laurent series in u.  The valuation is
the lexicographic pair (outer t-exponent, u-valuation of the leading
coefficient), so coarsening to the outer valuation just drops the second
coordinate and the residue at the coarsening lives in F_q((u)).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .errors import DescriptorMismatchError, IndeterminateValuationError
from .finite_field import FiniteFieldDescriptor
from .laurent import LaurentField, LaurentSeries, ValuationResult
from .value_group import Value


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
        self.inner = LaurentField(base, inner_var, default_prec=prec_u)
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
            # an absent key means exactly zero; a computed zero-to-precision
            # coefficient stays, carrying its error order (dropping it would
            # silently promote O(u^k) to an exact zero)
            if not (c.is_zero_to_prec() and c.prec >= self.prec_u):
                out[e] = c
        return CompositeElement(self, out, nt)

    def zero(self, prec_t: Optional[int] = None) -> "CompositeElement":
        return self.make({}, prec_t)

    def one(self) -> "CompositeElement":
        return self.make({0: self.inner.one(self.prec_u)})

    def t_power(self, e: int) -> "CompositeElement":
        return self.make({e: self.inner.one(self.prec_u)})

    def from_inner(self, s: LaurentSeries) -> "CompositeElement":
        """Embed a series in u as a w-unit (coefficient of t^0), known to at
        most the u-horizon prec_u, so that a coefficient zero below it
        reads as absent."""
        return self.make({0: s.truncate(min(s.prec, self.prec_u))})


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
        nt = min(self.prec_t + lo_b, other.prec_t + lo_a)
        out: Dict[int, LaurentSeries] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if e >= nt:
                    continue
                c = ca * cb
                out[e] = out[e] + c if e in out else c
        return self.field.make(out, nt)

    def is_zero_to_prec(self) -> bool:
        return all(c.is_zero_to_prec() for c in self.coeffs.values())

    # -- valuation and coarsening -----------------------------------------

    def valuation(self) -> ValuationResult:
        if not self.coeffs:
            return ValuationResult.at_least(Value.rank2(self.prec_t, 0))
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            vr = c.valuation()
            if c.is_zero_to_prec():
                # the element might be nonzero already at this t-level, with
                # u-valuation at least the coefficient's error order
                return ValuationResult.at_least(Value.rank2(e, c.prec))
            if vr.exact:
                return ValuationResult.exactly(Value.rank2(e, vr.value.first))
            return ValuationResult.at_least(Value.rank2(e, vr.value.first))
        raise AssertionError("unreachable")

    def outer_valuation(self) -> int:
        """w(x): the coarsened (first lex coordinate) valuation."""
        for e in sorted(self.coeffs):
            if not self.coeffs[e].is_zero_to_prec():
                return e
            raise IndeterminateValuationError(
                "leading coefficient is zero only to its error order"
            )
        raise IndeterminateValuationError(
            "outer valuation of a zero-to-precision element"
        )

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
