"""Text front end: field descriptors, polynomial expressions, balls.

Accepted field strings::

    F(2)                F(3^2; modulus=[1,0,1])
    F(2)((t))           F(2)((u))((t))          Q_3

Series and polynomial text is read by ``polynomials.parse_sum``, the one
term grammar: sums of signed products of integers, ``[c0,...]`` literals,
names and parenthesised sums, each optionally raised to ``^e``.  This
module only says what the names mean.  In a polynomial over a series
field, uniformizers (``t^-3``, ``u^2``) take any exponent and the
variables, ``X`` alone or the numbered family ``X1, X2, ...`` (``Y`` is
accepted as a synonym), take exponents >= 0; an integer polynomial knows
only ``X`` (or ``x``).  Balls are written ``v>=R around CENTER`` with
CENTER a series.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Union

from .composite import CompositeField
from .errors import DEFAULT_BUDGET, ParseError, check_budget
from .extremality import Ball
from .finite_field import FiniteFieldDescriptor, is_prime, parse_field
from .laurent import LaurentField, parse_series
from .polynomials import MultiPoly, _integer, dense_trim, parse_sum


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


# -- polynomial expressions ------------------------------------------------


_VAR = re.compile(r"[XY](\d*)")


def parse_poly(
    text: str,
    field: Union[LaurentField, CompositeField],
    nvars: Optional[int] = None,
) -> MultiPoly:
    """A polynomial with coefficients in a (possibly composite) series field.

    Uniformizers take any exponent; ``X``/``Y`` (variable 1) and ``X<n>``/
    ``Y<n>`` (variable n) take exponents >= 0.  A coefficient c*t^j is
    exact, and so over a composite field is c*u^i*t^j, which is
    ``make({j: c*u^i})``."""
    composite = isinstance(field, CompositeField)
    series = field.inner if composite else field
    uniformizers = (series.var, field.outer_var) if composite else (series.var,)
    rows, n = [], 0
    for key, c in parse_sum(text, series.base.element).items():
        powers = dict(key)
        unif = [powers.pop(name, 0) for name in uniformizers]
        var_exps: Dict[int, int] = {}
        for name, e in powers.items():
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
        coeff = series.from_terms({unif[0]: c}, math.inf)
        if composite:
            coeff = field.make({unif[1]: coeff})
        rows.append((tuple(sorted(var_exps.items())), coeff))
    if nvars is not None:
        if n > nvars:
            raise ParseError(f"expression uses {n} variables, expected {nvars}")
        n = nvars
    n = max(n, 1)
    check_budget(n, DEFAULT_BUDGET)  # every point and witness holds n entries
    check_budget(sum(len(mono) for mono, _ in rows), DEFAULT_BUDGET)  # the monomials' pairs
    out: Dict[tuple, object] = {}
    for mono, coeff in rows:
        out[mono] = out[mono] + coeff if mono in out else coeff
    return MultiPoly(n, out)


def parse_int_poly(text: str) -> List[Fraction]:
    """Univariate polynomial in ``X`` (or ``x``) over Q as a dense list,
    e.g. ``3*(X^3 - X)^2 - 1``; trailing zeros are trimmed.  The list's
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
