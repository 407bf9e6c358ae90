"""Arithmetic in F_p and F_{p^k}, the packing of small ints into one int,
and the one F_p echelon step.

Extensions are carried by explicit monic irreducible modulus polynomials.
When no modulus is supplied, one is found by trial search over monic
polynomials in lexicographic coefficient order, so the choice is
deterministic.  There is no factorization machinery beyond trial division
at desk scale, on the dense core of ``polynomials``.

An element is an int code, sum c_j p^j over its reduced coefficient vector
(the residue itself for k = 1).  The descriptor's ``*_code(s)`` methods and
``fold`` are the only scalar arithmetic, ``pow_code`` the one power rule,
and ``FFElement``, the public scalar type, is a descriptor and a code
whose operators each call into them.  Over F_{2^k} a code is the bitmask
of its coefficients, and a product is carry-less: shift and XOR, then the
bits past x^(k-1) cleared by the modulus's bitmask.

Runs of small ints are packed into one Python int, a slot of ``_slot_bytes``
bytes each (``_pack``, ``_unpack``), and reduced mod p all at once
(``_reduce``: one ``bytes.translate`` at 1-byte slots).  The Laurent series
kernels of ``laurent`` pack codes this way, and read the descriptor's
``neg_bytes`` table, its ``slot_bytes`` for the Kronecker slots of F_{p^k},
and ``_fold_rows``, which they apply to whole packed columns of
coordinates.

F_p-linear questions are answered by one echelon step on packed rows:
a row is one int, coordinate column c in slot c of ``_row_slot(p)`` bytes
(1 byte for p <= 16).  ``_fp_insert`` reduces a row by ``_fp_reduce``, which
finds its leading column by its lowest set bit and clears it by one XOR
over F_2, or by row + (p - x) * pivot and one reduction of every slot
otherwise, and stores what survives as a pivot row.  ``additive`` builds
its span rows this way, and ``artin_schreier_root`` solves y^p - y = c
over any F_q as the F_p-linear system it is, with no scan and no charge.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, DescriptorMismatchError, ParseError, ValfieldError, check_budget,
)
from .polynomials import dense_mul, dense_rem_mod, dense_trim, square_and_multiply


def is_prime(n: int) -> bool:
    """Whether n is prime, by the trial division of ``_prime_power``."""
    return _prime_power(n) == (n, 1)


def _monic_polys(p: int, d: int) -> Iterator[List[int]]:
    """All monic degree-d polynomials over F_p, lexicographic in (c0,...,c_{d-1})."""
    return ([*reversed(c), 1] for c in itertools.product(range(p), repeat=d))


def _pmod_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial-division irreducibility test for a monic poly over F_p.  Each
    divisor degree d is charged to the default budget before its divisors
    are tried, so a small factor ends the scan before a larger degree is
    charged: p^d divisors, each (deg - d + 1) * (d + 1) coefficient steps
    of ``dense_rem_mod``, which reduces mod p as it goes."""
    f = dense_trim(f)
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    spent = 0
    for d in range(1, deg // 2 + 1):
        spent += (deg - d + 1) * (d + 1) * p**d
        check_budget(spent, DEFAULT_BUDGET)
        for g in _monic_polys(p, d):
            if not any(dense_rem_mod(f, g, p)):
                return False
    return True


# -- packed slots -----------------------------------------------------------
#
# A run of small ints is packed into one Python int, slot i at byte offset
# i * w, so that one int operation acts on every slot at once.  Slots of 1,
# 2, 4 or 8 bytes are converted by ``bytes`` and ``array`` in C (swapped on
# a big-endian machine, whose arrays hold their items big-endian); a wider
# slot, met only for p near 2^31 and above, takes one int call each.  The
# series kernels of ``laurent`` and the echelon below share this packing.

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


def _reduce(p: int, data: bytes, w: int) -> Sequence[int]:
    """Slots of w bytes reduced mod p: bytes by one translate through the
    byte table of p at w = 1, and in characteristic 2 on the low byte of
    each slot (a slot is even when its low byte is); a list of remainders
    per slot otherwise."""
    if w == 1 or p == 2:
        return data[::w].translate(_byte_tables(p)[0])
    return [s % p for s in _unpack(data, w)]


# -- the F_p echelon on packed rows ------------------------------------------
#
# A row over F_p is one int, coordinate column c in slot c of
# ``_row_slot(p)`` bytes, wide enough for x + (p - x) * y with x, y < p.
# The leading column of a row is its lowest set bit's slot.  Over F_2 a row
# operation is one XOR; over odd p it is row + (p - x) * pivot, which turns
# the leading slot x into p, followed by one reduction of every slot mod p.


@lru_cache(maxsize=None)
def _row_slot(p: int) -> int:
    """Bytes per slot of a packed F_p row: room for p (p - 1)."""
    return _slot_bytes(p * (p - 1))


def _fp_row(digits: Iterable[int], p: int) -> int:
    """The packed F_p row with the i-th digit in slot i."""
    return _pack(digits, _row_slot(p))


def _fp_slots(row: int, n: int, p: int) -> List[int]:
    """Slots 0 .. n - 1 of a packed F_p row."""
    w = _row_slot(p)
    return _unpack((row & ((1 << 8 * w * n) - 1)).to_bytes(n * w, "little"), w)


def _fp_mod(row: int, p: int) -> int:
    """A packed row of nonnegative slots with every slot reduced mod p."""
    w = _row_slot(p)
    return _pack(_reduce(p, row.to_bytes(-(-row.bit_length() // (8 * w)) * w, "little"), w), w)


def _fp_sum(rows: Sequence[int], p: int) -> int:
    """The sum of reduced packed F_p rows, reduced: one XOR over F_2, and
    otherwise p rows, then p - 1 at a time added to the reduced sum so far,
    so that no slot passes p (p - 1) before it is reduced."""
    if p == 2:
        acc = 0
        for row in rows:
            acc ^= row
        return acc
    acc = sum(rows[:p])
    for i in range(p, len(rows), p - 1):
        acc = _fp_mod(acc, p) + sum(rows[i:i + p - 1])
    return _fp_mod(acc, p)


def _fp_reduce(
    pivots: Dict[int, int], row: int, stop: int, p: int, bounds: Optional[Dict[int, int]] = None
) -> Tuple[int, Optional[int], int]:
    """Reduce a packed row by the pivot rows of an F_p echelon {pivot
    column: row} at its leading columns below stop, and return (the reduced
    row, the first column below stop that survives without a pivot or None
    when none does, the stop).  A pivot row used lowers the stop to its
    entry in bounds, when bounds are given; pivots is not changed."""
    bits = 8 * _row_slot(p)
    mask = (1 << bits) - 1
    while row:
        col = ((row & -row).bit_length() - 1) // bits
        if col >= stop:
            break
        piv = pivots.get(col)
        if piv is None:
            return row, col, stop
        row = row ^ piv if p == 2 else _fp_mod(row + (p - (row >> col * bits & mask)) * piv, p)
        if bounds is not None:
            stop = min(stop, bounds[col])
    return row, None, stop


def _fp_insert(pivots: Dict[int, int], row: int, stop: int, p: int) -> Optional[int]:
    """Insert a packed row into an F_p echelon {pivot column: row}, the one
    echelon step.  The row is reduced by the pivot rows at its leading
    columns below stop (``_fp_reduce``); the first column below stop that
    survives without a pivot gets the row, scaled to 1 there, and is
    returned (None when nothing survives).  Columns past stop are carried
    along but never read.  A pivot row is zero below its pivot."""
    row, col, _ = _fp_reduce(pivots, row, stop, p)
    if col is not None:
        if p != 2:
            bits = 8 * _row_slot(p)
            x = row >> col * bits & ((1 << bits) - 1)
            if x != 1:
                row = _fp_mod(row * pow(x, -1, p), p)
        pivots[col] = row
    return col


@lru_cache(maxsize=None)
def _byte_tables(p: int) -> Tuple[bytes, Optional[bytes]]:
    """Each byte reduced mod p, and minus each byte mod p while that is a byte."""
    return bytes([i % p for i in range(256)]), bytes([-i % p for i in range(256)]) if p < 256 else None


class FiniteFieldDescriptor:
    """F_p (k = 1) or F_{p^k} given by a monic irreducible modulus."""

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValfieldError(f"{p} is not prime")
        if k < 1:
            raise ValfieldError("extension degree must be >= 1")
        if k > 8:
            raise ValfieldError("extension degree beyond desk scale (k <= 8)")
        self.p = p
        self.k = k
        self.q = p**k
        if modulus is None:
            modulus = (0, 1) if k == 1 else self._find_modulus(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValfieldError("modulus must be monic of degree k")
            if k > 1 and not _pmod_irreducible(modulus, p):
                raise ValfieldError("modulus is reducible")
        self.modulus = modulus
        # x^j mod the modulus for j = k .. 2k-2, as coefficient vectors
        self._fold_rows: List[List[int]] = [dense_rem_mod([0] * j + [1], modulus, p) for j in range(k, 2 * k - 1)]
        self._frobenius: Dict[int, int] = {}  # code -> code of its p-th power, filled on use
        self._inverse: Dict[int, int] = {}  # code -> code of its inverse over F_{p^k}, filled on use
        self._slots: Dict[int, Dict[int, bytes]] = {}  # slot width -> code -> its Kronecker slots, filled on use
        # the packed echelon of y^p - y at x^1 .. x^(k-1), filled on first use
        self._artin_schreier_rows: Optional[Dict[int, int]] = None
        # over F_{2^k} a code is the bitmask of its coefficients, and so is
        # the modulus
        self._modulus_bits = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None
        # the translate table of a negated code over F_p with p < 256
        self.neg_bytes = _byte_tables(p)[1] if k == 1 else None

    @staticmethod
    def _find_modulus(p: int, k: int) -> Tuple[int, ...]:
        for g in _monic_polys(p, k):
            if _pmod_irreducible(g, p):
                return tuple(g)
        raise ValfieldError("no irreducible modulus found")  # unreachable

    # -- element construction ---------------------------------------------

    def element(self, coeffs) -> "FFElement":
        """The element with coefficient vector coeffs (or an int for c_0)."""
        if isinstance(coeffs, FFElement):
            if coeffs.desc is not self and coeffs.desc != self:
                raise DescriptorMismatchError("element from a different field")
            return coeffs
        coeffs = [coeffs] if isinstance(coeffs, int) else list(coeffs)
        if len(coeffs) > self.k:
            raise ValfieldError("coefficient vector longer than k")
        return FFElement(self, self.fold(coeffs))

    def zero(self) -> "FFElement":
        return FFElement(self, 0)

    def one(self) -> "FFElement":
        return FFElement(self, 1)

    def elements(self) -> Iterator["FFElement"]:
        for code in range(self.q):
            yield FFElement(self, code)

    # -- int codes ---------------------------------------------------------
    # The code of an element is sum c_j p^j over its coefficient vector, so
    # for k = 1 it is the residue itself, 0 is zero and 1 is one, and
    # elements() runs through the codes 0 .. q-1 in order.

    def digits(self, code: int) -> List[int]:
        """The k coefficients of a code, lowest first."""
        out = []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            out.append(c)
        return out

    def slot_bytes(self, codes: Sequence[int], w: int) -> bytes:
        """The Kronecker slots of a code list as little-endian bytes, w
        bytes a slot: each code's k digits followed by k - 1 zeros, from a
        table per slot width filled per code met."""
        table = self._slots.setdefault(w, {})
        pad = bytes((self.k - 1) * w)
        for c in set(codes).difference(table):
            table[c] = b"".join([d.to_bytes(w, "little") for d in self.digits(c)]) + pad
        return b"".join(map(table.__getitem__, codes))

    def fold(self, vec: Sequence[int]) -> int:
        """The code of sum vec[j] x^j for any ints vec[j] and j <= 2k - 2,
        reduced mod p and mod the modulus."""
        p, k = self.p, self.k
        out = list(vec[:k])
        for c, row in zip(vec[k:], self._fold_rows):
            if c:
                for i in range(k):
                    out[i] += c * row[i]
        code = 0
        for c in reversed(out):
            code = code * p + c % p
        return code

    def add_codes(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.fold([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg_code(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self.fold([-x for x in self.digits(a)])

    def mul_codes(self, a: int, b: int) -> int:
        """a * b: over F_{2^k} a carry-less product of the bitmasks, whose
        bits past x^(k-1) are cleared from the top by the modulus's bitmask;
        over odd p with k > 1 ``dense_mul`` then ``fold``."""
        if self.k == 1:
            return a * b % self.p
        if self.p == 2:
            prod = 0
            while b:
                if b & 1:
                    prod ^= a
                a, b = a << 1, b >> 1
            k, m = self.k, self._modulus_bits
            while prod >> k:
                prod ^= m << (prod.bit_length() - k - 1)
            return prod
        return self.fold(dense_mul(self.digits(a), self.digits(b)))

    def pow_code(self, a: int, e: int) -> int:
        """a^e for e >= 0, the one power rule: ``pow`` over F_p, and over
        F_{p^k} square-and-multiply after e >= q folds to (e - 1) mod (q - 1)
        + 1, since y^(q-1) is 1 for y != 0 and 0^e stays 0."""
        if self.k == 1:
            return pow(a, e, self.p)
        if not e:
            return 1
        return square_and_multiply(a, (e - 1) % (self.q - 1) + 1, self.mul_codes)

    def inverse_code(self, a: int) -> int:
        """The inverse of a code: by ``pow`` over F_p, and over F_{p^k} as
        a^(q-2), remembered per descriptor as it is met."""
        if a == 0:
            raise ValfieldError("inverse of zero in finite field")
        if self.k == 1:
            return pow(a, -1, self.p)
        b = self._inverse.get(a)
        if b is None:
            b = self._inverse[a] = self.pow_code(a, self.q - 2)
        return b

    def frobenius_code(self, a: int, times: int = 1) -> int:
        """The p^times-th power of a code; a negative times gives the root.
        p-th powers are remembered per descriptor as they are met."""
        table = self._frobenius
        for _ in range(times % self.k):
            b = table.get(a)
            if b is None:
                b = table[a] = self.pow_code(a, self.p)
            a = b
        return a

    def artin_schreier_root(self, c: int) -> Optional[int]:
        """The least code y with y^p - y = c, or None.  y -> y^p - y is
        F_p-linear with kernel F_p, the codes 0 .. p - 1, so c has the p
        roots y + F_p or none, and the least has constant coordinate 0.  On
        the span of x^1 .. x^(k-1) the map is injective: its packed rows,
        each with an identity block in slots k .. 2k - 1, fill an echelon,
        and c is reduced against it.  A surviving coordinate means c is not
        in the image; otherwise the root is minus the identity block."""
        p, k = self.p, self.k
        if self._artin_schreier_rows is None:
            self._artin_schreier_rows = {}
            for i in range(1, k):
                image = self.add_codes(self.frobenius_code(p**i), self.neg_code(p**i))
                _fp_insert(self._artin_schreier_rows, _fp_row(self.digits(image) + [0] * i + [1], p), k, p)
        vec, col, _ = _fp_reduce(self._artin_schreier_rows, _fp_row(self.digits(c), p), k, p)
        if col is not None:
            return None
        return self.fold([-a for a in _fp_slots(vec >> 8 * _row_slot(p) * k, k, p)])

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteFieldDescriptor)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def to_text(self) -> str:
        if self.k == 1:
            return f"F({self.p})"
        mods = ",".join(str(c) for c in self.modulus)
        return f"F({self.p}^{self.k}; modulus=[{mods}])"

    def __repr__(self) -> str:
        return self.to_text()


class FFElement:
    """A field element: its descriptor and its int code."""

    __slots__ = ("desc", "code")

    def __init__(self, desc: FiniteFieldDescriptor, code: int):
        self.desc = desc
        self.code = code

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The reduced coefficient vector, lowest first."""
        return tuple(self.desc.digits(self.code))

    def _check(self, other: "FFElement") -> None:
        if self.desc is not other.desc and self.desc != other.desc:
            raise DescriptorMismatchError("elements of different fields")

    def __add__(self, other: "FFElement") -> "FFElement":
        self._check(other)
        return FFElement(self.desc, self.desc.add_codes(self.code, other.code))

    def __sub__(self, other: "FFElement") -> "FFElement":
        self._check(other)
        d = self.desc
        return FFElement(d, d.add_codes(self.code, d.neg_code(other.code)))

    def __neg__(self) -> "FFElement":
        return FFElement(self.desc, self.desc.neg_code(self.code))

    def __mul__(self, other: "FFElement") -> "FFElement":
        self._check(other)
        return FFElement(self.desc, self.desc.mul_codes(self.code, other.code))

    def inverse(self) -> "FFElement":
        return FFElement(self.desc, self.desc.inverse_code(self.code))

    def __truediv__(self, other: "FFElement") -> "FFElement":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "FFElement":
        if e < 0:
            return self.inverse() ** (-e)
        return FFElement(self.desc, self.desc.pow_code(self.code, e))

    def frobenius(self, times: int = 1) -> "FFElement":
        """The p^times-th power; a negative times gives the unique root."""
        return FFElement(self.desc, self.desc.frobenius_code(self.code, times))

    def is_zero(self) -> bool:
        return not self.code

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FFElement)
            and self.code == other.code
            and (self.desc is other.desc or self.desc == other.desc)
        )

    def __hash__(self) -> int:
        return hash((self.code, self.desc.q))

    def to_text(self) -> str:
        if self.desc.k == 1:
            return str(self.code)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"FF({self.to_text()} in {self.desc.to_text()})"


@lru_cache(maxsize=None)
def prime_field(p: int) -> FiniteFieldDescriptor:
    return FiniteFieldDescriptor(p)


def parse_field(text: str) -> FiniteFieldDescriptor:
    """Parse ``F(p)`` or ``F(p^k; modulus=[c0,...,ck])``."""
    s = text.strip()
    if not (s.startswith("F(") and s.endswith(")")):
        raise ParseError(f"cannot parse finite field {text!r}")
    body = s[2:-1]
    mod = None
    if ";" in body:
        body, modpart = body.split(";", 1)
        modpart = modpart.strip()
        if not modpart.startswith("modulus="):
            raise ParseError(f"expected modulus=... in {text!r}")
        lst = modpart[len("modulus="):].strip()
        if not (lst.startswith("[") and lst.endswith("]")):
            raise ParseError(f"modulus must be a bracketed list in {text!r}")
        try:
            mod = tuple(int(x) for x in lst[1:-1].split(","))
        except ValueError:
            raise ParseError(f"bad modulus list in {text!r}") from None
    body = body.strip()
    try:
        if "^" in body:
            ps, ks = body.split("^", 1)
            p, k = int(ps), int(ks)
        else:
            q = int(body)
            p, k = _prime_power(q)
            if p is None:
                raise ParseError(f"{q} is not a prime power in {text!r}")
    except ValueError:
        raise ParseError(f"bad field size in {text!r}") from None
    try:
        return FiniteFieldDescriptor(p, k, mod)
    except BudgetExceededError:
        raise
    except ValfieldError as exc:
        raise ParseError(f"{exc} in {text!r}") from None


def _prime_power(q: int):
    """(p, k) with q = p^k for prime p, or (None, None), by trial division
    up to sqrt(q), charged to the default budget first."""
    if q < 2:
        return None, None
    check_budget(math.isqrt(q), DEFAULT_BUDGET)
    d = 2
    while d * d <= q:
        if q % d == 0:
            k = 0
            while q % d == 0:
                q //= d
                k += 1
            return (d, k) if q == 1 else (None, None)
        d += 1
    return q, 1
