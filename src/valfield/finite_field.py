"""Arithmetic in F_p and F_{p^k}, and the one F_p echelon step.

Extensions are carried by explicit monic irreducible modulus polynomials.
When no modulus is supplied, one is found by trial search over monic
polynomials in lexicographic coefficient order, so the choice is
deterministic.  There is no factorization machinery beyond trial division
at desk scale, on the dense core of ``polynomials``.  F_p-linear questions
are answered by one echelon step, ``_fp_insert``, which ``additive`` shares:
``artin_schreier_root`` solves y^p - y = c over any F_q as the F_p-linear
system it is, with no scan and no charge.

An element is an int code, sum c_j p^j over its reduced coefficient vector
(the residue itself for k = 1).  The descriptor's ``*_code(s)`` methods and
``fold`` are the only scalar arithmetic, ``pow_code`` the one power rule,
and ``FFElement``, the public scalar type, is a descriptor and a code
whose operators each call into them.  Laurent series call them for a
leading inverse and in ``scale``; their kernels run on the descriptor's
tables instead: ``mod_bytes`` and ``neg_bytes`` for ``bytes.translate``,
``slot_bytes`` for the Kronecker slots of F_{p^k}, and ``_fold_rows``,
which the kernels apply to whole packed columns of coordinates.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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


def _fp_insert(pivots: Dict[int, List[int]], row: List[int], stop: int, p: int) -> Optional[int]:
    """Insert a row into an F_p echelon {pivot column: row}.  The row is
    reduced in place by the pivot rows at its leading columns below stop;
    the first column below stop that survives without a pivot gets the
    row, scaled to 1 there, and is returned (None when nothing survives).
    Entries past stop are carried along but never read."""
    for col in range(stop):
        x = row[col]
        if not x:
            continue
        piv = pivots.get(col)
        if piv is None:
            inv = pow(x, -1, p)
            row[col:] = [(y * inv) % p for y in row[col:]]
            pivots[col] = row
            return col
        row[col:] = [(y - x * w) % p for y, w in zip(row[col:], piv[col:])]
    return None


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
        # the echelon of y^p - y at x^1 .. x^(k-1), filled on first use
        self._artin_schreier_rows: Optional[Dict[int, List[int]]] = None
        # translate tables for packed codes: a byte reduced mod p, and over
        # F_p with p < 256 the negative of a code
        self.mod_bytes, neg_bytes = _byte_tables(p)
        self.neg_bytes = neg_bytes if k == 1 else None

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
        if self.k == 1:
            return a * b % self.p
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
        the span of x^1 .. x^(k-1) the map is injective: its rows, each with
        an identity block, fill an echelon, and c is reduced against a copy.
        A surviving coordinate means c is not in the image; otherwise the
        root is minus the identity block."""
        p, k = self.p, self.k
        if self._artin_schreier_rows is None:
            self._artin_schreier_rows = {}
            for i in range(1, k):
                row = self.digits(self.add_codes(self.frobenius_code(p**i), self.neg_code(p**i))) + [0] * k
                row[k + i] = 1
                _fp_insert(self._artin_schreier_rows, row, k, p)
        vec = self.digits(c) + [0] * k
        if _fp_insert(dict(self._artin_schreier_rows), vec, k, p) is not None:
            return None
        return self.fold([-a for a in vec[k:]])

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
