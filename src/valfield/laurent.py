"""Laurent series over a finite field, with explicit error orders.

A series is stored as a window of coefficients starting at its lowest
exponent together with an error order N: the element is known modulo t^N.
The error order is an integer or ``math.inf``; ``inf`` means the series is
exact, a finite sum of its stored terms, as for values built from integers
(digit monomials, sections, zeros).  Every arithmetic operation propagates
error orders, so precision is lost only through operands that were truly
truncated.  A valuation is either exact (first nonzero stored coefficient,
or infinity for the exact zero) or only a lower bound "at least N" when
every stored coefficient of a truncated series vanishes.  Consumers must
branch on the two outcomes explicitly; an indeterminate valuation is never
silently promoted to infinity.

Coefficients are stored as the int codes of ``finite_field`` (over F_p a
code is the residue itself), and the arithmetic works on packed codes: a
run of digits becomes one Python int with a slot of 1, 2, 4 or 8 bytes
each, built and read back by ``bytes`` and ``array`` in C, so that one int
operation acts on every coefficient.  Over F_{p^k} a code takes 2k - 1
slots, its k digits and k - 1 zeros, from the descriptor's slot table.  A
product packs both operands and multiplies once (Kronecker substitution),
and a sum or a negation (times p - 1) is one packed operation too; the
slots are then reduced mod p by one ``bytes.translate`` at 1-byte slots
and in characteristic 2, and by a remainder per slot otherwise.  Over
F_{p^k} the reduced coordinates are read back as 2k - 1 packed columns,
the high ones folded into the low ones by the modulus and the low ones
combined into codes, a few int operations per column, whatever the
length.  In characteristic 2 a sum is an XOR of packed bytes (every code
of F_{2^k} is a byte) and negation the identity, and over F_p with
p < 256 negation is a translate.  Slots wider than 8 bytes (p near 2^31
and above) are packed and read with one int call each.  An inverse runs
Newton's iteration with doubling precision on those products, in the one
loop ``_newton_inverse``, which extends a given prefix of the inverse:
``inverse`` starts it from one code, and ``hensel_lift`` from the codes
it carries over from the last step's inverse of f'(x).  Frobenius
re-spaces the exponents and maps each code through the descriptor's
Frobenius table, unless the power is a power of q, which fixes every
code.
``coeff_at`` and ``residue`` hand a code out as an ``FFElement``;
``from_terms`` and ``scale`` take one (or an int or a coordinate list)
and keep its code.  Code tuples are built from lists, not generators:
``tuple()`` of a generator resizes a guessed length, and the short tuples
it frees pile up on the interpreter's free lists, raising peak memory.

A truncated series prints with its error term and round-trips bit-exactly:

    t^-2 + 3*t^0 + t^5 + O(t^8)

with coefficients in finite-field element syntax (plain integers for prime
fields, bracketed coefficient lists for extensions).  An exact series
prints as the plain sum of its terms, and the exact zero as ``0``.
Reading such text back is ``parsing.parse_series``.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import compress, count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    DescriptorMismatchError,
    IndeterminateValuationError,
    PrecisionError,
    ValfieldError,
)
from .finite_field import FFElement, FiniteFieldDescriptor
from .polynomials import dense_eval, square_and_multiply
from .value_group import INFINITY, Value, ValuationResult

ErrorOrder = Union[int, float]  # an integer N, or math.inf for an exact series


class LaurentField:
    """The field F_q((t)) as a context object: base field plus variable name."""

    def __init__(self, base: FiniteFieldDescriptor, var: str = "t", default_prec: int = 16):
        self.base = base
        self.var = var
        self.default_prec = default_prec

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentField)
            and self.base == other.base
            and self.var == other.var
        )

    def __hash__(self) -> int:
        return hash((self.base, self.var))

    def to_text(self) -> str:
        return f"{self.base.to_text()}(({self.var}))"

    def __repr__(self) -> str:
        return self.to_text()

    # -- constructors ------------------------------------------------------

    def make(self, low: int, codes: Sequence[int], prec: ErrorOrder) -> "LaurentSeries":
        """Normalized series from int codes: leading/trailing zeros trimmed,
        clamped to prec."""
        n = len(codes)
        start = next(compress(count(), codes), n)
        low += start
        stop = n if low + n - start <= prec else start + max(0, prec - low)
        if stop > start and not codes[stop - 1]:  # scan the zero tail down
            stop = next(compress(count(stop - 1, -1), reversed(codes[start:stop - 1])), start)
        if stop <= start:
            return LaurentSeries(self, prec, (), prec)
        return LaurentSeries(self, low, tuple(codes[start:stop]), prec)

    def zero(self, prec: Optional[ErrorOrder] = None) -> "LaurentSeries":
        n = self.default_prec if prec is None else prec
        return LaurentSeries(self, n, (), n)

    def one(self, prec: Optional[ErrorOrder] = None) -> "LaurentSeries":
        return self.t_power(0, prec)

    def t_power(self, e: int, prec: Optional[ErrorOrder] = None) -> "LaurentSeries":
        n = self.default_prec if prec is None else prec
        return self.make(e, [1], n)

    def from_terms(self, terms: Dict[int, object], prec: ErrorOrder) -> "LaurentSeries":
        """sum c_e t^e, each c_e an FFElement, an int or a coordinate list."""
        if not terms:
            return self.zero(prec)
        low = min(terms)
        codes = [0] * (max(terms) - low + 1)
        for e, c in terms.items():
            codes[e - low] = self.base.element(c).code
        return self.make(low, codes, prec)

    from_int_terms = from_terms


class LaurentSeries:
    """An element of F_q((t)) known modulo t^prec; prec = inf is exact.

    ``coeffs`` holds the int codes of the coefficients of t^low, t^(low+1),
    ...; the first and last are nonzero.
    """

    __slots__ = ("field", "low", "coeffs", "prec")

    def __init__(self, field: LaurentField, low: int, coeffs: Tuple[int, ...], prec: ErrorOrder):
        self.field = field
        self.low = low
        self.coeffs = coeffs
        self.prec = prec

    # -- basics ------------------------------------------------------------

    def is_zero_to_prec(self) -> bool:
        return not self.coeffs

    def valuation_floor(self) -> int:
        """Exact valuation, or the error order when indeterminate."""
        return self.low if self.coeffs else self.prec

    def valuation(self) -> ValuationResult:
        if self.coeffs:
            return ValuationResult.exactly(Value.rank1(self.low))
        if self.prec == math.inf:
            return ValuationResult.exactly(INFINITY)
        return ValuationResult.at_least(Value.rank1(self.prec))

    def coeff_at(self, e: int) -> FFElement:
        if e >= self.prec:
            raise PrecisionError(f"coefficient at t^{e} is beyond error order {self.prec}")
        i = e - self.low
        if 0 <= i < len(self.coeffs):
            return FFElement(self.field.base, self.coeffs[i])
        return self.field.base.zero()

    def residue(self) -> FFElement:
        """Image in the residue field, for elements of the valuation ring."""
        if self.coeffs and self.low < 0:
            raise ValfieldError("residue of an element with negative valuation")
        if self.prec <= 0:
            raise PrecisionError("error order too small to read the residue")
        return self.coeff_at(0)

    def _check(self, other: "LaurentSeries") -> None:
        if self.field is not other.field and self.field != other.field:
            raise DescriptorMismatchError("series over different fields")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return other.truncate(prec)
        if not other.coeffs:
            return self.truncate(prec)
        low = min(self.low, other.low)
        n = max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - low
        codes = _add_codes(self.field.base, self.coeffs, self.low - low, other.coeffs, other.low - low, n)
        return self.field.make(low, codes, prec)

    def __neg__(self) -> "LaurentSeries":
        codes = _neg_codes(self.field.base, self.coeffs)
        return LaurentSeries(self.field, self.low, tuple(codes), self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        prec = min(
            self.prec + other.valuation_floor(),
            other.prec + self.valuation_floor(),
        )
        if not self.coeffs or not other.coeffs:
            return self.field.zero(prec)
        low = self.low + other.low
        n = min(len(self.coeffs) + len(other.coeffs) - 1, max(0, prec - low))
        return self.field.make(low, _mul_codes(self.field.base, self.coeffs, other.coeffs, n), prec)

    def scale(self, c) -> "LaurentSeries":
        """c * self, for c an FFElement, an int or a coordinate list."""
        return self.times_code(self.field.base.element(c).code)

    def times_code(self, code: int) -> "LaurentSeries":
        """code * self for an F_q code; self itself when code is one, as
        series are immutable."""
        if code == 1:
            return self
        if not code:
            return self.field.zero(self.prec)
        mul = self.field.base.mul_codes
        return LaurentSeries(self.field, self.low, tuple([mul(x, code) for x in self.coeffs]), self.prec)

    def shift(self, e: int) -> "LaurentSeries":
        """Exact multiplication by t^e."""
        return LaurentSeries(self.field, self.low + e, self.coeffs, self.prec + e)

    def __pow__(self, e: int) -> "LaurentSeries":
        """Powers; the p-power part of e is taken by Frobenius, which loses
        no relative precision, and only the rest by multiplication."""
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return self.field.one(self.prec)
        p, a = self.field.base.p, 0
        while e % p == 0:
            e //= p
            a += 1
        result = square_and_multiply(self, e, LaurentSeries.__mul__)
        return result.frobenius(a) if a else result

    def frobenius(self, times: int = 1) -> "LaurentSeries":
        """p^times-th power; in characteristic p this acts coefficientwise,
        spreading the exponents by p^times."""
        base = self.field.base
        q = base.p**times
        if not self.coeffs:
            return self.field.zero(self.prec * q)
        codes = [0] * ((len(self.coeffs) - 1) * q + 1)
        if times % base.k:
            codes[::q] = [base.frobenius_code(c, times) for c in self.coeffs]
        else:  # the p^times-th power fixes every element of F_q
            codes[::q] = self.coeffs
        return LaurentSeries(self.field, self.low * q, tuple(codes), self.prec * q)

    def inverse(self) -> "LaurentSeries":
        if not self.coeffs:
            raise IndeterminateValuationError("division by a series of indeterminate valuation")
        base = self.field.base
        v = self.low
        if self.prec == math.inf:
            if len(self.coeffs) > 1:
                raise PrecisionError("an exact non-monomial has no finite inverse")
            return self.field.make(-v, [base.inverse_code(self.coeffs[0])], math.inf)
        inv = _newton_inverse(base, self.coeffs, [base.inverse_code(self.coeffs[0])], self.prec - v)
        return self.field.make(-v, inv, self.prec - 2 * v)

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        return self * other.inverse()

    def truncate(self, prec: ErrorOrder) -> "LaurentSeries":
        if prec > self.prec:
            raise PrecisionError("cannot raise the error order of a series")
        return self.field.make(self.low, self.coeffs, prec)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.low == other.low
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs, self.prec))

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        var = self.field.var
        base = self.field.base
        parts = [
            (
                f"{var}^{self.low + i}"
                if c == 1
                else f"{FFElement(base, c).to_text()}*{var}^{self.low + i}"
            )
            for i, c in enumerate(self.coeffs)
            if c
        ]
        if self.prec != math.inf:
            parts.append(f"O({var}^{self.prec})")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return self.to_text()


# -- packed code kernels ---------------------------------------------------
#
# A run of small ints is packed into one Python int, slot i at byte offset
# i * w, so that one int operation acts on every slot at once.  Slots of 1,
# 2, 4 or 8 bytes are converted by ``bytes`` and ``array`` in C (swapped on
# a big-endian machine, whose arrays hold their items big-endian); a wider
# slot, met only for p near 2^31 and above, takes one int call each.

_FORMATS = {array(f).itemsize: f for f in "QLIHB"}  # slot bytes -> array typecode
_BIG_ENDIAN = sys.byteorder == "big"


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for ints up to bound: 1, 2, 4 or 8, or the exact
    byte count when that is wider."""
    size = bound.bit_length() + 7 >> 3
    return size if size > 8 else 1 << (size - 1).bit_length()


def _pack(slots: Iterable[int], w: int) -> int:
    """One int with the i-th slot at byte offset i * w."""
    if w == 1:
        data = bytes(slots)
    elif w in _FORMATS:
        packed = array(_FORMATS[w], slots)
        if _BIG_ENDIAN:
            packed.byteswap()
        data = packed.tobytes()
    else:
        data = b"".join([s.to_bytes(w, "little") for s in slots])
    return int.from_bytes(data, "little")


def _unpack(data: bytes, w: int) -> List[int]:
    """The slots of little-endian data, w bytes each."""
    if w in _FORMATS:
        slots = array(_FORMATS[w])
        slots.frombytes(data)
        if _BIG_ENDIAN:
            slots.byteswap()
        return slots.tolist()
    return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]


def _pack_codes(base: FiniteFieldDescriptor, codes: Sequence[int], w: int) -> int:
    """One int holding each code in 2k - 1 slots of w bytes: the code itself
    over F_p, and over F_{p^k} its k digits and k - 1 zeros, from the
    descriptor's slot table."""
    if base.k == 1:
        return _pack(codes, w)
    return int.from_bytes(base.slot_bytes(codes, w), "little")


def _reduce(base: FiniteFieldDescriptor, data: bytes, w: int) -> Sequence[int]:
    """Slots of w bytes reduced mod p: bytes by one translate through the
    descriptor's byte table at w = 1, and in characteristic 2 on the low
    byte of each slot (a slot is even when its low byte is); a list of
    remainders per slot otherwise."""
    if w == 1 or base.p == 2:
        return data[::w].translate(base.mod_bytes)
    p = base.p
    return [s % p for s in _unpack(data, w)]


def _codes(base: FiniteFieldDescriptor, data: bytes, w: int) -> List[int]:
    """Codes from unreduced coordinate slots of w bytes.

    Over F_p a slot is a code, and ``_reduce`` takes it mod p.  Over
    F_{p^k} a code is a group of 2k - 1 slots, the coefficients of x^0 ..
    x^(2k-2), and the groups are reduced column by column: each coordinate
    column, reduced mod p, is packed into one int with a slot of
    ``_slot_bytes(q - 1)`` bytes; the k - 1 high columns are folded into
    the k low ones by the descriptor's ``_fold_rows`` (an XOR in
    characteristic 2, a multiply-add and one more reduction mod p
    otherwise, whose sums stay below q); and the codes sum col_i * p^i
    in one int."""
    digits = _reduce(base, data, w)
    k, p = base.k, base.p
    if k == 1:
        return list(digits)
    width, w = 2 * k - 1, _slot_bytes(base.q - 1)
    if w > 1:
        digits = list(digits)  # array() reads bytes as raw items
    m = len(digits) // width
    cols = [_pack(digits[j::width], w) for j in range(width)]
    for c, row in zip(cols[k:], base._fold_rows):
        for i, r in enumerate(row):
            if r:
                cols[i] = cols[i] ^ c if p == 2 else cols[i] + r * c
    if p != 2:
        digits = _reduce(base, b"".join([c.to_bytes(m * w, "little") for c in cols[:k]]), w)
        cols = [_pack(digits[i * m:i * m + m], w) for i in range(k)]
    code = 0
    for c in reversed(cols[:k]):
        code = code * p + c
    return _unpack(code.to_bytes(m * w, "little"), w)


def _mul_codes(base: FiniteFieldDescriptor, a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """The first n coefficient codes of a(t) * b(t), by Kronecker substitution.

    Coefficient i becomes the 2k - 1 slots i*(2k-1) .. i*(2k-1) + 2k-2 of one
    Python int, holding its k coordinates (from the descriptor's slot table)
    and k - 1 zeros.  A slot is 1, 2, 4 or 8 bytes (wider only past that),
    wide enough for any coordinate sum of the product, so one int product
    gives every product coefficient as 2k - 1 unreduced coordinates, and
    ``_codes`` reduces them mod p (and over F_{p^k} by the modulus, a whole
    coordinate column at a time).
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    k, p = base.k, base.p
    width = 2 * k - 1
    w = _slot_bytes(min(len(a), len(b)) * k * (p - 1) ** 2)
    m = min(n, len(a) + len(b) - 1)
    data = (_pack_codes(base, a, w) * _pack_codes(base, b, w)).to_bytes((len(a) + len(b) - 1) * width * w, "little")
    return _codes(base, data[:m * width * w], w) + [0] * (n - m)


def _add_codes(
    base: FiniteFieldDescriptor, a: Sequence[int], i: int, b: Sequence[int], j: int, n: int
) -> List[int]:
    """The n codes of t^i a(t) + t^j b(t).  In characteristic 2 every code
    is one byte (k <= 8) and a sum is an XOR of the packed bytes; otherwise
    it is one packed sum of the codes (over F_p) or of their slot runs
    (over F_{p^k}), read back by ``_codes``."""
    p = base.p
    if p == 2:
        return list(((_pack(a, 1) << 8 * i) ^ (_pack(b, 1) << 8 * j)).to_bytes(n, "little"))
    w, width = _slot_bytes(2 * (p - 1)), 2 * base.k - 1
    total = (_pack_codes(base, a, w) << 8 * w * width * i) + (_pack_codes(base, b, w) << 8 * w * width * j)
    return _codes(base, total.to_bytes(n * width * w, "little"), w)


def _neg_codes(base: FiniteFieldDescriptor, codes: Sequence[int]) -> Sequence[int]:
    """The negated codes: the codes themselves in characteristic 2, one
    translate over F_p with p < 256, and otherwise the codes (over F_p) or
    their slot runs (over F_{p^k}) packed and times p - 1, read back by
    ``_codes``."""
    p = base.p
    if p == 2:
        return codes
    if base.neg_bytes is not None:
        return list(bytes(codes).translate(base.neg_bytes))
    w, width = _slot_bytes((p - 1) ** 2), 2 * base.k - 1
    return _codes(base, (_pack_codes(base, codes, w) * (p - 1)).to_bytes(len(codes) * width * w, "little"), w)


def _newton_inverse(base: FiniteFieldDescriptor, unit: Sequence[int], inv: List[int], rel: int) -> List[int]:
    """The first rel codes of 1/unit(t), extending in place a list inv of
    its first codes (at least one, at most rel).  Newton's step inv <- inv *
    (2 - unit * inv) doubles the codes known: when inv holds m of them,
    unit * inv = 1 + t^m * err, and the next ones are those of -inv * err."""
    while len(inv) < rel:
        m = len(inv)
        n = min(2 * m, rel)
        err = _mul_codes(base, unit[:n], inv, n)[m:]
        inv += _mul_codes(base, inv, _neg_codes(base, err), n - m)
    return inv


# -- univariate polynomials over series ------------------------------------


def poly_derivative(coeffs: Sequence[LaurentSeries]) -> List[LaurentSeries]:
    return [c.scale(i) for i, c in enumerate(coeffs) if i]


MAX_NEWTON_STEPS = 64  # the iterations hensel_lift runs before it gives up


def hensel_lift(coeffs: Sequence[LaurentSeries], x0: LaurentSeries, target_prec: int) -> LaurentSeries:
    """Newton iteration x -> x - f(x)/f'(x) up to f(x) = 0 mod t^target_prec.

    Requires the Hensel condition v(f(x0)) > 2 v(f'(x0)), with v(f'(x0))
    exact and v(f(x0)) at least its floor.  With b = v(f'(x0)), a step
    from v(f(x)) = m lands at v(f) >= 2m - 2b, so it is worked at
    n = min(target_prec, 2m - b): f(x) is read to t^(n + b), f'(x) to the
    digits the quotient needs, and the new iterate is the exact point of
    its digits below n.  By Hensel's lemma the last iterate x agrees with
    the root of f, as far as f is known, modulo t^(v(f(x)) - b), and it is
    returned at that order.

    The inverse of f'(x) is carried from step to step.  The units of two
    derivatives read at their steps' orders agree in their first
    v(f'(x_new) - f'(x_old)) - v(f'(x_new)) codes, as the difference of the
    two reads shows, and so do their inverses: a step keeps that many
    codes of the last inverse, or starts again from the inverse of the
    leading code when none remain, and extends them by Newton doublings to
    its relative order n - m + b.  f'(x) is evaluated only for a step that
    follows; where it has no digit at the step's order the step raises
    IndeterminateValuationError.
    """
    coeffs = list(coeffs)
    deriv = poly_derivative(coeffs)
    fx, dfx = dense_eval(coeffs, x0), dense_eval(deriv, x0)
    dfx.valuation().require_exact()
    b = dfx.valuation_floor()  # inf when f'(x0) is exactly 0, which fails the condition
    if not fx.valuation_floor() > 2 * b:
        raise ValfieldError(
            f"Hensel condition fails: v(f(x0))={fx.valuation().to_text()} <= 2*v(f'(x0))={2 * b}"
        )
    field, base, x = x0.field, x0.field.base, x0
    last, inv = field.zero(math.inf), []  # f'(x) as the last step read it, and its unit's inverse codes
    for _ in range(MAX_NEWTON_STEPS):
        m = fx.valuation_floor()
        if m >= target_prec:
            return field.make(x.low, x.coeffs, m - b)
        if fx.is_zero_to_prec():
            raise PrecisionError("input precision insufficient for the requested lift")
        n = min(target_prec, 2 * m - b)
        if dfx is None:
            dfx = dense_eval(deriv, x)
        dfx = dfx.truncate(min(dfx.prec, n - m + 2 * b))
        if not dfx.coeffs:
            raise IndeterminateValuationError("division by a series of indeterminate valuation")
        v = dfx.low
        kept = (dfx - last).valuation_floor() - v  # leading codes the two units, so their inverses, share
        inv = inv[:kept] if kept > 0 else [base.inverse_code(dfx.coeffs[0])]
        inv = _newton_inverse(base, dfx.coeffs, inv, dfx.prec - v)
        y = x - fx.truncate(min(fx.prec, n + b)) * field.make(-v, inv, dfx.prec - 2 * v)
        x, last = field.make(y.low, y.coeffs, math.inf), dfx
        fx, dfx = dense_eval(coeffs, x), None
    raise PrecisionError("Newton iteration did not reach the target precision")


def artin_schreier_solve(a: LaurentSeries) -> Optional[LaurentSeries]:
    """Solve x^p - x = a in F_q((t)), to the precision of a.

    Returns None when no solution exists: at negative valuations not
    divisible by p, or when the residue equation y^p - y = res(a) has no
    root in F_q.  An exact input whose root is an infinite series raises
    PrecisionError.
    """
    field = a.field
    p = field.base.p
    if a.is_zero_to_prec():
        return field.zero(a.prec)

    base = field.base
    current, peeled = a, field.zero(a.prec)
    # peel leading terms of negative valuation
    while current.coeffs and current.low < 0:
        v = current.low
        if v % p != 0:
            return None
        root = base.frobenius_code(current.coeffs[0], -1)
        m = field.make(v // p, [root], current.prec)
        peeled, current = peeled + m, current - (m.frobenius() - m)
    if current.coeffs and current.low == 0:
        y = base.artin_schreier_root(current.coeffs[0])
        if y is None:
            return None
        m = field.make(0, [y], current.prec)
        peeled, current = peeled + m, current - (m.frobenius() - m)
    # now v(current) > 0 (or zero to precision): the root of positive
    # valuation is -(c + c^p + c^(p^2) + ...), and c^(p^i) is known to
    # O(t^N) from c mod t^ceil(N/p) before the Frobenius that raises it
    n = current.prec
    if n == math.inf and current.coeffs:
        raise PrecisionError("the root of an exact series of positive valuation has no finite form")
    term, x = current, peeled
    while not term.is_zero_to_prec():
        x = x - term
        term = term.truncate(-(-n // p)).frobenius()
    return x
