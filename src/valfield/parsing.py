"""Text front end: field descriptors, series, polynomial expressions, balls.

Accepted field strings::

    F(2)                F(3^2; modulus=[1,0,1])
    F(2)((t))           F(2)((u))((t))          Q_3

Series and polynomial text is read by ``polynomials.parse_sum``, the one
term grammar: sums of signed products of integers, ``[c0,...]`` literals,
names, error terms ``O(t^N)`` and parenthesised sums, each optionally
raised to ``^e``, with ``/n`` dividing a product by an integer.  This
module only says what the names mean.  In a polynomial over a series
field, uniformizers (``t^-3``, ``u^2``) take any exponent and the
variables, ``X`` alone or the numbered family ``X1, X2, ...`` (``Y`` is
accepted as a synonym), take exponents >= 0; an integer polynomial knows
only ``X`` (or ``x``), over Q.  Balls are written ``v>=R around CENTER``
with CENTER a series.  No series variable may be named ``O``.

Every series coefficient, of a series, a polynomial's monomial or a ball
centre, is built by one rule, ``_series_by_monomial``: a sum without an
error term is exact, and ``O(t^N)*t^j`` sets the error order N + j, the
least one winning.  So ``parse_series`` and ``parse_poly`` invert
``to_text`` on exact and truncated coefficients alike.  Error terms are
not read over ``F(q)((u))((t))`` nor in an integer polynomial.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Union

from .composite import CompositeField
from .errors import DEFAULT_BUDGET, ParseError, PrecisionError, check_budget
from .extremality import Ball
from .finite_field import FiniteFieldDescriptor, is_prime, parse_field
from .laurent import LaurentField, LaurentSeries
from .polynomials import MultiPoly, _integer, dense_trim, error_name, parse_sum


@dataclass(frozen=True)
class PAdicFieldRef:
    """Marker for Q_p; actual extension rings carry their own modulus."""

    p: int


FieldRef = Union[FiniteFieldDescriptor, LaurentField, CompositeField, PAdicFieldRef]


def parse_any_field(
    text: str, prec: int = 8, prec_t: int = 4, prec_u: int = 4
) -> FieldRef:
    s = text.strip()
    m = re.fullmatch(r"Q_(\d+)", s)
    if m:
        p = _integer(m.group(1), 2)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime in {text!r}", 0)
        return PAdicFieldRef(p)
    vars_: List[str] = []
    while True:
        m = re.fullmatch(r"(.*)\(\((\w+)\)\)", s)
        if not m:
            break
        if m.group(2) == "O":
            raise ParseError(f"'O' starts an error term and names no series variable: {text!r}", 0)
        vars_.insert(0, m.group(2))
        s = m.group(1)
    base = parse_field(s)
    if not vars_:
        return base
    if len(vars_) == 1:
        return LaurentField(base, vars_[0], default_prec=prec)
    if len(vars_) == 2:
        return CompositeField(
            base, inner_var=vars_[0], outer_var=vars_[1],
            prec_t=prec_t, prec_u=prec_u,
        )
    raise ParseError(f"at most two series layers supported: {text!r}", 0)


# -- series and polynomial expressions ---------------------------------------


def _series_by_monomial(text: str, series: LaurentField, monomial: Callable) -> Dict[object, LaurentSeries]:
    """``parse_sum``'s terms grouped by ``monomial`` of their names but t =
    ``series.var`` and its error term, each group one series in t: its
    terms c*t^j summed by one ``from_terms`` to the least N + j of its
    O(t^N)*t^j, whose scalars are ignored (O - O stays O), and exact without
    one.  The dense window below that order is charged to the budget first."""
    var, err = series.var, error_name(series.var)
    groups: Dict[object, dict] = {}
    orders: Dict[object, int] = {}
    for key, c in parse_sum(text, series.base.element).items():
        names = dict(key)
        j, n = names.pop(var, 0), names.pop(err, None)
        mono = monomial(names)
        terms = groups.setdefault(mono, {})
        if n is None:
            terms[j] = terms[j] + c if j in terms else c
        else:
            orders[mono] = min(n + j, orders.get(mono, n + j))
    out = {}
    for mono, terms in groups.items():
        order = orders.get(mono, math.inf)
        terms = {e: c for e, c in terms.items() if e < order}
        if terms:
            check_budget(max(terms) - min(terms) + 1, DEFAULT_BUDGET)
        out[mono] = series.from_terms(terms, order)
    return out


def parse_series(field: LaurentField, text: str) -> LaurentSeries:
    """A sum in the series variable alone; the inverse of ``to_text()``."""
    def constant(names):
        if names:
            raise ParseError(f"unknown symbol {min(names)!r} in series {text!r}")
        return ()
    return _series_by_monomial(text, field, constant)[()]


_VAR = re.compile(r"[XY](\d*)")


def parse_poly(
    text: str,
    field: Union[LaurentField, CompositeField],
    nvars: Optional[int] = None,
) -> MultiPoly:
    """A polynomial with coefficients in a (possibly composite) series field.

    Uniformizers take any exponent; ``X``/``Y`` (variable 1) and ``X<n>``/
    ``Y<n>`` (variable n) take exponents >= 0.  A coefficient that is zero
    to its own order, which ``MultiPoly`` would drop as exact, is a
    ``PrecisionError``.  Over a composite field a coefficient is exact,
    ``make({j: c})`` with c the series in u at t^j."""
    composite = isinstance(field, CompositeField)
    series = field.inner if composite else field
    n = 0

    def monomial(names):
        nonlocal n
        outer = names.pop(field.outer_var, 0) if composite else None
        var_exps: Dict[int, int] = {}
        for name, e in names.items():
            m = _VAR.fullmatch(name)
            if not m:
                raise ParseError(f"unknown symbol {name!r}")
            if e < 0:
                raise ParseError(f"negative exponent on the variable {name!r}")
            var = _integer(m.group(1) or "1", None) - 1
            if var < 0:
                raise ParseError(f"variables are numbered from 1: {name!r}")
            n = max(n, var + 1)
            if e:
                var_exps[var] = var_exps.get(var, 0) + e
        mono = tuple(sorted(var_exps.items()))
        return (mono, outer) if composite else mono

    coeffs = _series_by_monomial(text, series, monomial)
    for mono, c in coeffs.items():
        if c.prec < math.inf and composite:
            raise ParseError("error terms are not read over F(q)((u))((t))")
        if c.prec < math.inf and not c.coeffs:
            term = "*".join(f"X{i + 1}^{e}" for i, e in mono) or "1"
            raise PrecisionError(f"the coefficient of {term} is zero to its order O({series.var}^{c.prec})")
    if composite:
        levels: Dict[tuple, dict] = {}
        for (mono, j), c in coeffs.items():
            levels.setdefault(mono, {})[j] = c
        coeffs = {mono: field.make(cs) for mono, cs in levels.items()}
    if nvars is not None:
        if n > nvars:
            raise ParseError(f"expression uses {n} variables, expected {nvars}")
        n = nvars
    n = max(n, 1)
    check_budget(n, DEFAULT_BUDGET)  # every point and witness holds n entries
    check_budget(sum(map(len, coeffs)), DEFAULT_BUDGET)  # the monomials' pairs
    return MultiPoly(n, coeffs)


def parse_int_poly(text: str) -> List[Fraction]:
    """Univariate polynomial in ``X`` (or ``x``) over Q as a dense list,
    e.g. ``3*(X^3 - X)^2 - 1/2``; trailing zeros are trimmed.  The list's
    length, degree + 1, is charged to the default budget before it is built."""
    terms = []
    for key, c in parse_sum(text, Fraction).items():
        names = dict(key)
        e = names.pop("X", 0) + names.pop("x", 0)
        if names:
            raise ParseError(f"unknown symbol {min(names)!r}")
        if e < 0:
            raise ParseError("negative exponent on X")
        terms.append((e, c))
    size = max((e for e, _ in terms), default=0) + 1
    check_budget(size, DEFAULT_BUDGET)
    coeffs = [Fraction(0)] * size
    for e, c in terms:
        coeffs[e] += c
    return dense_trim(coeffs) or [Fraction(0)]


# -- balls -----------------------------------------------------------------


_BALL = re.compile(r"v\s*>=\s*(-?\d+)\s+around\s+(.*)$")


def parse_ball(text: str, field: LaurentField) -> Ball:
    m = _BALL.fullmatch(text.strip())
    if not m:
        raise ParseError(f"expected 'v>=R around CENTER': {text!r}", 0)
    return Ball(parse_series(field, m.group(2)), _integer(m.group(1), None))
