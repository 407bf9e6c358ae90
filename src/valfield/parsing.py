"""Text front end: field descriptors, polynomial expressions, balls.

Accepted field strings::

    F(2)                F(3^2; modulus=[1,0,1])
    F(2)((t))           F(2)((u))((t))          Q_3

Polynomial expressions are sums of signed terms, each a ``*``-product of
integer literals, uniformizer powers (``t^-3``, ``u^2``) and variable
powers (``X^4``, ``X1^2``, ``Y2``).  Variables are ``X`` alone or the
numbered family ``X1, X2, ...`` (``Y`` is accepted as a synonym).  Balls
are written ``v>=R around CENTER`` with CENTER a series expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .composite import CompositeField
from .errors import ParseError
from .extremality import Ball
from .finite_field import FiniteFieldDescriptor, is_prime, parse_field
from .laurent import LaurentField, parse_series, split_terms
from .polynomials import MultiPoly, dense_add, dense_mul, dense_sub


@dataclass(frozen=True)
class PAdicFieldRef:
    """Marker for Q_p; actual extension rings carry their own modulus."""

    p: int

    def to_text(self) -> str:
        return f"Q_{self.p}"


FieldRef = Union[FiniteFieldDescriptor, LaurentField, CompositeField, PAdicFieldRef]


def parse_any_field(
    text: str, prec: int = 8, prec_t: int = 4, prec_u: int = 4
) -> FieldRef:
    s = text.strip()
    m = re.fullmatch(r"Q_(\d+)", s)
    if m:
        p = int(m.group(1))
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


@dataclass
class _Term:
    sign: int
    number: int
    unif: Dict[str, int]  # uniformizer name -> exponent
    vars: Dict[int, int]  # variable index (0-based) -> exponent


_VAR = re.compile(r"([A-Za-z]+)(\d*)$")


def _parse_factor(chunk: str, term: _Term, unif_names: Tuple[str, ...]) -> None:
    chunk = chunk.strip()
    if not chunk:
        raise ParseError("empty factor", 0)
    if "^" in chunk:
        base, _, exp_s = chunk.partition("^")
        base = base.strip()
        exp_s = exp_s.strip()
        if exp_s.startswith("(") and exp_s.endswith(")"):
            exp_s = exp_s[1:-1].strip()
        try:
            exp = int(exp_s)
        except ValueError:
            raise ParseError(f"bad exponent {exp_s!r}", 0)
    else:
        base, exp = chunk, 1
    if base.isdigit():
        if exp < 0:
            raise ParseError("negative exponent on an integer literal", 0)
        term.number *= int(base) ** exp
        return
    m = _VAR.fullmatch(base)
    if not m:
        raise ParseError(f"bad factor {base!r}", 0)
    name, idx = m.group(1), m.group(2)
    if name in unif_names and not idx:
        term.unif[name] = term.unif.get(name, 0) + exp
        return
    if name in ("X", "Y"):
        if exp < 0:
            raise ParseError("negative exponent on a variable", 0)
        var = int(idx) - 1 if idx else 0
        if var < 0:
            raise ParseError(f"variables are numbered from 1: {base!r}", 0)
        term.vars[var] = term.vars.get(var, 0) + exp
        return
    raise ParseError(f"unknown symbol {base!r}", 0)


def _parse_terms(text: str, unif_names: Tuple[str, ...]) -> List[_Term]:
    terms = []
    for sign, chunk in split_terms(text):
        term = _Term(sign, 1, {}, {})
        depth = 0
        start = 0
        parts = []
        for i, ch in enumerate(chunk):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                parts.append(chunk[start:i])
                start = i + 1
        parts.append(chunk[start:])
        for part in parts:
            _parse_factor(part, term, unif_names)
        terms.append(term)
    return terms


def _term_count_vars(terms: List[_Term]) -> int:
    mx = -1
    for t in terms:
        for var in t.vars:
            mx = max(mx, var)
    return mx + 1


def parse_poly(
    text: str,
    field: Union[LaurentField, CompositeField],
    nvars: Optional[int] = None,
) -> MultiPoly:
    """A polynomial with coefficients in a (possibly composite) series field."""
    if isinstance(field, CompositeField):
        unif = (field.inner.var, field.outer_var)
    else:
        unif = (field.var,)
    terms = _parse_terms(text, unif)
    n = _term_count_vars(terms)
    if nvars is not None:
        if n > nvars:
            raise ParseError(f"expression uses {n} variables, expected {nvars}", 0)
        n = nvars
    n = max(n, 1)
    out: Dict[tuple, object] = {}
    for t in terms:
        coeff = _coefficient(field, t)
        mono = tuple(t.vars.get(i, 0) for i in range(n))
        out[mono] = out[mono] + coeff if mono in out else coeff
    return MultiPoly(n, out)


def _coefficient(field: Union[LaurentField, CompositeField], t: _Term):
    c = t.sign * t.number
    if isinstance(field, CompositeField):
        inner = field.inner.t_power(t.unif.get(field.inner.var, 0), field.prec_u).scale(c)
        return field.make({t.unif.get(field.outer_var, 0): inner})
    return field.t_power(t.unif.get(field.var, 0)).scale(c)


_INT_POLY_TOKEN = re.compile(r"\s*(\d+|[Xx]|[()^*+-])")


def parse_int_poly(text: str) -> List[Fraction]:
    """Univariate polynomial with integer coefficients as a dense list.

    Supports parenthesized groups with integer powers, e.g.
    ``3*(X^3 - X)^2 - 1``."""
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _INT_POLY_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        tokens.append(m.group(1))
        pos = m.end()
    state = {"i": 0}

    def peek() -> Optional[str]:
        return tokens[state["i"]] if state["i"] < len(tokens) else None

    def take() -> str:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial", len(text))
        state["i"] += 1
        return tok

    def atom() -> List[Fraction]:
        tok = take()
        if tok == "(":
            inner = expr()
            if peek() != ")":
                raise ParseError("unbalanced parenthesis", 0)
            take()
            return inner
        if tok in ("X", "x"):
            return [Fraction(0), Fraction(1)]
        if tok.isdigit():
            return [Fraction(int(tok))]
        raise ParseError(f"unexpected token {tok!r}", 0)

    def factor() -> List[Fraction]:
        base = atom()
        if peek() == "^":
            take()
            exp_tok = take()
            if not exp_tok.isdigit():
                raise ParseError(f"bad exponent {exp_tok!r}", 0)
            result = [Fraction(1)]
            for _ in range(int(exp_tok)):
                result = dense_mul(result, base)
            return result
        return base

    def term() -> List[Fraction]:
        out = factor()
        while peek() == "*" or (peek() is not None and peek() not in ")+-^*"):
            if peek() == "*":
                take()
            out = dense_mul(out, factor())
        return out

    def expr() -> List[Fraction]:
        negate = peek() in ("+", "-") and take() == "-"
        out = dense_sub([], term()) if negate else term()
        while peek() in ("+", "-"):
            op = dense_sub if take() == "-" else dense_add
            out = op(out, term())
        return out

    if not tokens:
        raise ParseError("empty polynomial", 0)
    result = expr()
    if state["i"] != len(tokens):
        raise ParseError(f"trailing input near {tokens[state['i']]!r}", 0)
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return result


# -- balls -----------------------------------------------------------------


_BALL = re.compile(r"v\s*>=\s*(-?\d+)\s+around\s+(.*)$")


def parse_ball(text: str, field: LaurentField, prec: Optional[int] = None) -> Ball:
    m = _BALL.fullmatch(text.strip())
    if not m:
        raise ParseError(f"expected 'v>=R around CENTER': {text!r}", 0)
    radius = int(m.group(1))
    center_text = m.group(2).strip()
    prec = field.default_prec if prec is None else prec
    if re.fullmatch(r"-?\d+", center_text):
        center = field.constant(int(center_text), prec)
    else:
        center = parse_series(field, center_text, prec)
    return Ball(center, radius)
