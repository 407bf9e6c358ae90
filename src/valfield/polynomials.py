"""Sparse multivariate and dense univariate polynomials over any coefficient ring.

Coefficients only need +, -, * and equality-with-zero via ``is_zero`` /
``is_zero_to_prec`` when available.  This is deliberately generic: the same
code carries polynomials over truncated Laurent series, over composite
(rank-2) elements, over finite fields, over Q_p and over the rationals.

``MultiPoly`` is the sparse multivariate type.  It keys a term by its
monomial, the sorted tuple of (variable index, exponent >= 1) pairs: the
form in which ``parse_sum`` keys a term by names, and both multiply
monomials by one merge (``_mul_sums``).  The ``dense_*`` helpers work on
plain coefficient lists indexed by degree; none of them needs a zero
element of the ring, so a coefficient that is zero only to some precision
keeps its own error order instead of borrowing one from a made-up zero.

``parse_sum`` is the one reader of term text (series, polynomials over
series fields, integer polynomials), error terms ``O(t^N)`` included; the
front ends in ``parsing`` only decide what the names in its monomials mean.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DEFAULT_BUDGET, ParseError, ValfieldError, check_budget

Monomial = Tuple[Tuple[int, int], ...]


def _coeff_is_zero(c) -> bool:
    if hasattr(c, "is_zero_to_prec"):
        return c.is_zero_to_prec()
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


class MultiPoly:
    """Sparse polynomial in nvars variables: map from monomials to ring
    coefficients; the constant term is keyed ``()``."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Monomial, object]):
        for m in terms:
            if not all(0 <= i < nvars and e >= 1 for i, e in m) or any(
                a >= b for (a, _), (b, _) in zip(m, m[1:])
            ):
                raise ValfieldError(
                    f"monomial {m!r} is not sorted (variable < {nvars}, exponent >= 1) pairs"
                )
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if not _coeff_is_zero(c)}

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(): c})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValfieldError("polynomials in different numbers of variables")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.nvars, _mul_sums(self.terms, other.terms))

    def map_coeffs(self, fn: Callable) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: fn(c) for m, c in self.terms.items()})

    def evaluate(self, args: Sequence) -> object:
        """Evaluate at ring elements; args must be nonempty (gives the zero)."""
        if len(args) != self.nvars:
            raise ValfieldError("wrong number of arguments")
        if not args:
            raise ValfieldError("evaluation needs at least one argument")
        acc = None
        for m, c in self.terms.items():
            term = c
            for i, e in m:
                term = term * _ring_pow(args[i], e)
            acc = term if acc is None else acc + term
        if acc is None:
            a = args[0]
            return a - a
        return acc

    def compose(self, inner: Dict[int, "MultiPoly"]) -> "MultiPoly":
        """Substitute inner[i] for every variable i that occurs; all inner
        share one arity, self's when there is none."""
        nv = next(iter(inner.values())).nvars if inner else self.nvars
        acc = None
        for m, c in self.terms.items():
            term = MultiPoly.constant(nv, c)
            for i, e in m:
                term = term * _ring_pow(inner[i], e)
            acc = term if acc is None else acc + term
        if acc is None:
            return MultiPoly(nv, {})
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def to_text(self) -> str:
        """The terms in descending order of their dense exponent tuples."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: tuple((-i, e) for i, e in m), reverse=True):
            factors = [_coeff_text(self.terms[m])]
            for i, e in m:
                name = "X" if self.nvars == 1 else f"X{i + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"


def _coeff_text(c) -> str:
    if hasattr(c, "to_text"):
        t = c.to_text()
        return f"({t})" if ("+" in t or " " in t) else t
    return str(c)


def square_and_multiply(x, e: int, mul: Callable, one=None):
    """x^e by square-and-multiply with the product mul: one times x^e, or
    x^e itself for e >= 1 when one is None."""
    result = one
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _ring_pow(x, e: int):
    """x^e for e >= 1.  A ring with a Frobenius powers itself, so that the
    p-power part of e goes through Frobenius exactly; other rings multiply."""
    if hasattr(x, "frobenius"):
        return x**e
    return square_and_multiply(x, e, operator.mul)


# -- dense univariate polynomials (index = degree) ---------------------------


def _coeff_inverse(c):
    """1/c: a ring element inverts itself, and an int's inverse is an exact
    ``Fraction``, never the float that ``1 / c`` gives."""
    if hasattr(c, "inverse"):
        return c.inverse()
    return Fraction(1, c) if isinstance(c, int) else 1 / c


def dense_trim(a: Sequence) -> List:
    """The coefficient list without its trailing zeros."""
    out = list(a)
    while out and _coeff_is_zero(out[-1]):
        out.pop()
    return out


def dense_sub(a: Sequence, b: Sequence) -> List:
    """a - b; a's tail is copied and b's tail negated."""
    n = min(len(a), len(b))
    return [x - y for x, y in zip(a, b)] + list(a[n:]) + [-y for y in b[n:]]


def dense_mul(a: Sequence, b: Sequence) -> List:
    """a * b; each coefficient is a sum that starts at its first product."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    out = []
    for k in range(la + lb - 1):
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        acc = a[lo] * b[k - lo]
        for i in range(lo + 1, hi + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def dense_divmod(a: Sequence, b: Sequence) -> Tuple[List, List]:
    """(q, r) with a = q*b + r and len(r) < len(dense_trim(b)).

    Coefficients must come from a field unless b is monic: a leading 1
    takes no inverse, so the division is exact over any commutative ring,
    the integers included.  The remainder is not trimmed: it has
    min(len(a), deg b) entries, each carrying its own precision.
    """
    b = dense_trim(b)
    if not b:
        raise ValfieldError("division by the zero polynomial")
    inv_lead = 1 if b[-1] == 1 else _coeff_inverse(b[-1])
    db = len(b) - 1
    r = list(a)
    q = []
    for shift in range(len(r) - 1 - db, -1, -1):
        c = r[shift + db] * inv_lead
        q.append(c)
        for i in range(db):
            r[shift + i] = r[shift + i] - c * b[i]
    q.reverse()
    return q, r[:db]


def dense_rem_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """The remainder of a by a monic b over Z/p, each entry in range(p),
    with min(len(a), deg b) entries.

    Each quotient digit is reduced mod p as it is taken and then dropped,
    so an entry never grows past |a_i| + deg(b) * p * max|b_i| however
    long a is; over Z the digits of ``dense_divmod`` grow without bound.
    """
    db = len(b) - 1
    r = list(a)
    for shift in range(len(r) - 1 - db, -1, -1):
        c = r[shift + db] % p
        if c:
            for i in range(db):
                r[shift + i] -= c * b[i]
    return [c % p for c in r[:db]]


def dense_eval(a: Sequence, x):
    """a(x) by Horner's rule, starting at the leading coefficient."""
    if not a:
        raise ValfieldError("cannot evaluate an empty coefficient list")
    acc = a[-1]
    for i in range(len(a) - 2, -1, -1):
        acc = acc * x + a[i]
    return acc


# -- the term grammar ----------------------------------------------------------

# an integer, a [c0,...] literal, a name (letters, then digits), an operator
_TOKEN = re.compile(r"\s*(\d+|\[\s*[+-]?\d+(?:\s*,\s*[+-]?\d+)*\s*\]|[A-Za-z]+\d*|[-+*/^()])")

NameKey = Tuple[Tuple[str, int], ...]


def error_name(var: str) -> str:
    """The reserved name under which ``parse_sum`` keys the error term
    ``O(var^N)``, to the power N; no token spells it."""
    return f"O({var})"


def parse_sum(text: str, scalar: Callable) -> Dict[NameKey, object]:
    """Read a sum of signed products into {monomial: coefficient}.

    A monomial is the sorted tuple of its (name, exponent) pairs, one pair
    per name, exponents merged over the product.  ``scalar`` turns an int
    or a list of ints (a ``[c0,...]`` literal) into a coefficient.

    Grammar: a sum is products joined by signs; a leading run of signs,
    and a run of signs between products, multiplies into one sign.  A
    product is factors joined by an optional ``*``; a sign right after
    ``*`` belongs to the next factor, and ``/n`` (n an unsigned integer,
    not zero among the scalars) multiplies the product so far by 1/n.  A
    factor is an integer, a ``[c0,...]`` literal, a name, an error term or
    a parenthesised sum, optionally raised to ``^e`` or ``^(e)`` with e a
    signed integer; only names take negative exponents, and a literal or
    group is raised by ``_power_sum``.  An error term ``O(t^N)`` (``O(t)``
    is N = 1) takes no exponent and is the name ``error_name(t)`` to the
    power N: the merges key t^j*O(t^N) by both names, and O(t^a)*O(t^b) as
    O(t^(a+b)).
    A syntax error is a ``ParseError`` at the offset of the offending token.
    """
    reader = _Reader(text, scalar)
    try:
        out = reader.sum()
    except RecursionError:
        raise ParseError("expression nested too deeply", reader.position()) from None
    if reader.peek() is not None:
        raise ParseError(f"unexpected {reader.peek()!r}", reader.position())
    return out


class _Reader:
    """Recursive descent over the tokens of one text, which end in (None, len(text))."""

    def __init__(self, text: str, scalar: Callable):
        self.scalar = scalar
        self.one = scalar(1)
        self.tokens: List[Tuple[Optional[str], int]] = []
        pos = 0
        while m := _TOKEN.match(text, pos):
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        rest = text[pos:].lstrip()
        if rest:
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        self.tokens.append((None, len(text)))
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0]

    def position(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> str:
        tok, pos = self.tokens[self.i]
        if tok is None:
            raise ParseError("unexpected end of expression", pos)
        self.i += 1
        return tok

    def signs(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign

    def sum(self) -> Dict[NameKey, object]:
        out: Dict[NameKey, object] = {}
        while True:
            _add_into(out, self.product(self.signs()))
            if self.peek() not in ("+", "-"):
                return out

    def product(self, sign: int) -> Dict[NameKey, object]:
        out = self.factor()
        while self.peek() not in (None, "+", "-", ")"):
            if self.peek() == "/":
                inv = self.reciprocal()
                out = {k: c * inv for k, c in out.items()}
                continue
            if self.peek() == "*":
                self.take()
                sign *= self.signs()
            out = _mul_sums(out, self.factor())
        return out if sign > 0 else {k: -c for k, c in out.items()}

    def factor(self) -> Dict[NameKey, object]:
        pos = self.position()
        tok = self.take()
        if tok == "(":
            base = self.sum()
            self.close()
        elif tok[0].isdigit() or tok[0] == "[":
            value = _integer(tok, pos) if tok[0].isdigit() else [
                _integer(x, pos) for x in tok[1:-1].split(",")
            ]
            try:
                base = {(): self.scalar(value)}
            except (ValfieldError, TypeError) as exc:
                raise ParseError(f"bad coefficient {tok!r}: {exc}", pos) from None
        elif tok == "O" and self.peek() == "(":
            return self.error_term()
        elif tok[0].isalpha():
            return {((tok, self.exponent()),): self.one}
        else:
            raise ParseError(f"unexpected {tok!r}", pos)
        e = self.exponent()
        if e < 0:
            raise ParseError("only names take negative exponents", pos)
        return _power_sum(base, e, self.one)

    def error_term(self) -> Dict[NameKey, object]:
        """``(name^N)`` after an ``O``: the reserved name to the power N."""
        self.take()
        pos, name = self.position(), self.take()
        if not name[0].isalpha():
            raise ParseError(f"expected a name in an error term, got {name!r}", pos)
        key = ((error_name(name), self.exponent()),)
        self.close()
        if self.peek() == "^":
            raise ParseError("an error term takes no exponent", self.position())
        return {key: self.one}

    def reciprocal(self):
        """1/n for the ``/n`` at the current token."""
        pos = self.position()
        self.take()
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer after '/', got {tok!r}", pos)
        try:
            return self.one / self.scalar(_integer(tok, pos))
        except (ZeroDivisionError, ValfieldError):
            raise ParseError(f"division by {tok}, which is zero among the coefficients", pos) from None

    def exponent(self) -> int:
        """The exponent after a factor: 1 unless a ``^`` follows."""
        if self.peek() != "^":
            return 1
        self.take()
        group = self.peek() == "("
        if group:
            self.take()
        sign = self.signs()
        pos = self.position()
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"bad exponent {tok!r}", pos)
        if group:
            self.close()
        return sign * _integer(tok, pos)

    def close(self) -> None:
        if self.peek() != ")":
            raise ParseError("unbalanced parenthesis", self.position())
        self.take()


def _integer(text: str, pos: Optional[int]) -> int:
    """A decimal integer token; one longer than Python reads
    (``sys.get_int_max_str_digits``) is a parse error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long", pos) from None


def _add_into(out: Dict, part: Dict) -> None:
    for k, c in part.items():
        out[k] = out[k] + c if k in out else c


def _mul_sums(a: Dict, b: Dict) -> Dict:
    """The product of two sums keyed by monomials, sorted (key, exponent)
    pairs, whose exponents add over a key that occurs in both."""
    out: Dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            merged = dict(ka)
            for n, e in kb:
                merged[n] = merged.get(n, 0) + e
            k, c = tuple(sorted(merged.items())), ca * cb
            out[k] = out[k] + c if k in out else c
    return out


def _power_sum(base: Dict, e: int, one) -> Dict:
    """base^e by square-and-multiply, its cost charged to the default budget
    first: an m-term sum's power has at most C(e + m - 1, m - 1) monomials
    and each product pairs at most that many with as many; over Q a pair
    is charged once per 64 bits of the power's coefficients, which have at
    most e * (b + log2 m) bits for b the widest of the base's.  A rational
    scalar's power has at most e * b bits; a power of one F_q scalar or
    monomial is O(log e) products and free."""
    m, words = len(base), 1
    if isinstance(next(iter(base.values())), Fraction):
        b = max(c.numerator.bit_length() + c.denominator.bit_length() for c in base.values()) - 1
        if m == 1:
            check_budget(e * b, DEFAULT_BUDGET)
        words += e * (b + (m - 1).bit_length()) // 64
    if m > 1 and e > 1:
        check_budget(math.comb(e + m - 1, m - 1) ** 2 * words, DEFAULT_BUDGET)
    return square_and_multiply(base, e, _mul_sums, {(): one})
