"""Reference arithmetic for building inputs and checking answers.

Nothing here imports valfield: a defect in valfield's arithmetic cannot
leak into the reference its answers are checked against.

A finite-field element is an int.  For F_p it is the residue; for
F_{p^k} it is the code sum(c_i * p^i) of its coefficient vector over a
monic modulus.  A series is a dict {exponent: nonzero element}.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Series = Dict[int, int]


class GF:
    """F_q for q <= 64 by addition and multiplication tables."""

    def __init__(self, p: int, modulus: Optional[Sequence[int]] = None):
        self.p = p
        self.modulus = tuple(modulus) if modulus is not None else (0, 1)
        self.k = len(self.modulus) - 1
        self.q = p**self.k
        q = self.q
        vecs = [self.decode(x) for x in range(q)]
        self.add = [[self.encode([(a + b) % p for a, b in zip(va, vb)]) for vb in vecs] for va in vecs]
        self.neg = [self.encode([(-a) % p for a in va]) for va in vecs]
        self.mul = [[self.encode(self._polymulmod(va, vb)) for vb in vecs] for va in vecs]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def decode(self, x: int) -> List[int]:
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def encode(self, c: Sequence[int]) -> int:
        x = 0
        for ci in reversed(list(c)):
            x = x * self.p + ci % self.p
        return x

    def _polymulmod(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        p, k, m = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(len(prod) - 1, k - 1, -1):
            c = prod[d]
            if c:
                for i in range(k + 1):
                    prod[d - k + i] = (prod[d - k + i] - c * m[i]) % p
        return prod[:k]

    def power(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul[r][a]
        return r

    def in_prime_field(self, a: int) -> bool:
        return a < self.p


# -- series ------------------------------------------------------------------


def s_add(F: GF, a: Series, b: Series) -> Series:
    out = dict(a)
    for e, c in b.items():
        v = F.add[out.get(e, 0)][c]
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def s_neg(F: GF, a: Series) -> Series:
    return {e: F.neg[c] for e, c in a.items()}


def s_sub(F: GF, a: Series, b: Series) -> Series:
    return s_add(F, a, s_neg(F, b))


def s_mul(F: GF, a: Series, b: Series, below: Optional[int] = None) -> Series:
    """Product, keeping only exponents < below when it is given."""
    acc: Dict[int, int] = {}
    mul, add = F.mul, F.add
    for ea, ca in a.items():
        row = mul[ca]
        for eb, cb in b.items():
            e = ea + eb
            if below is not None and e >= below:
                continue
            acc[e] = add[acc.get(e, 0)][row[cb]]
    return {e: c for e, c in acc.items() if c}


def s_pow(F: GF, a: Series, n: int, below: Optional[int] = None) -> Series:
    out: Series = {0: 1}
    for _ in range(n):
        out = s_mul(F, out, a, below)
    return out


def s_frobenius(F: GF, a: Series) -> Series:
    """a^p, which in characteristic p acts termwise."""
    return {e * F.p: F.power(c, F.p) for e, c in a.items()}


def s_truncate(a: Series, below: int) -> Series:
    return {e: c for e, c in a.items() if e < below}


def s_valuation(a: Series) -> Optional[int]:
    return min(a) if a else None


# -- text forms --------------------------------------------------------------

_PREC = re.compile(r"O\(\w+\^(-?\d+)\)$")
_TERM = re.compile(r"(?:(\[[\d,]+\]|\d+)\*)?\w+\^(-?\d+)$")


def parse_series_text(F: GF, text: str) -> Tuple[Series, int]:
    """Read valfield's series text form ``c*t^e + ... + O(t^N)``."""
    parts = [s.strip() for s in text.split(" + ")]
    m = _PREC.fullmatch(parts[-1])
    if not m:
        raise ValueError(f"no error order in {text!r}")
    out: Series = {}
    for part in parts[:-1]:
        t = _TERM.fullmatch(part)
        if not t:
            raise ValueError(f"cannot read term {part!r} of {text!r}")
        coeff, exp = t.group(1), int(t.group(2))
        if coeff is None:
            c = 1
        elif coeff.startswith("["):
            c = F.encode(int(x) for x in coeff[1:-1].split(","))
        else:
            c = int(coeff) % F.p
        if c:
            out[exp] = c
    return out, int(m.group(1))


# -- polynomials over F_p as coefficient lists (index = degree) -------------


def fp_poly_rem(a: List[int], b: List[int], p: int) -> List[int]:
    a = [x % p for x in a]
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def fp_irreducible(f: List[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for code in range(p**d):
            g = [(code // p**i) % p for i in range(d)] + [1]
            if not fp_poly_rem(f, g, p):
                return False
    return True


# -- p-adic valuations -------------------------------------------------------


def vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def eisenstein_element_valuation(coeffs: Sequence[int], p: int, n: int) -> Fraction:
    """v(sum c_i pi^i) for a uniformizer pi of valuation 1/n and i < n.

    The terms have distinct valuations modulo 1, so the minimum is attained
    exactly once and is the valuation of the sum."""
    return min(Fraction(vp(c, p)) + Fraction(i, n) for i, c in enumerate(coeffs) if c)


# -- best approximation over F_p((t)), by enumeration ------------------------


def best_approximation(p: int, terms: Dict[int, Tuple[int, int]], z: Series,
                       radius: int, depth: int, cap: int) -> Optional[int]:
    """max v(z - f(x)) over x in the ball v(x) >= radius modulo t^depth,
    for f = sum_k c_k t^j_k X^(p^k) with terms {k: (c_k, j_k)} over F_p.

    The value is clamped: None means it reaches the cap.  Over F_p,
    f(d t^e) = d * f(t^e), so f is summed from one column per digit."""
    levels = range(radius, depth)
    cols = []
    for e in levels:
        col: Dict[int, int] = {}
        for k, (c, j) in terms.items():
            exp = j + e * p**k
            if exp < cap:
                col[exp] = (col.get(exp, 0) + c) % p
        cols.append(col)
    lo = min([min(z)] + [min(col) for col in cols if col] + [cap])
    width = cap - lo
    base = [z.get(lo + i, 0) % p for i in range(width)]
    vecs = [[col.get(lo + i, 0) for i in range(width)] for col in cols]
    best = lo - 1
    for digits in itertools.product(range(p), repeat=len(vecs)):
        r = list(base)
        for d, vec in zip(digits, vecs):
            if d:
                r = [(a - d * b) % p for a, b in zip(r, vec)]
        v = next((i for i, a in enumerate(r) if a), None)
        if v is None:
            return None
        best = max(best, lo + v)
    return best
