"""Sparse multivariate and dense univariate polynomials over any coefficient ring.

Coefficients only need +, -, * and equality-with-zero via ``is_zero`` /
``is_zero_to_prec`` when available.  This is deliberately generic: the same
code carries polynomials over truncated Laurent series, over composite
(rank-2) elements, over finite fields, over Q_p and over the rationals.

``MultiPoly`` is the sparse multivariate type.  The ``dense_*`` helpers work
on plain coefficient lists indexed by degree; none of them needs a zero
element of the ring, so a coefficient that is zero only to some precision
keeps its own error order instead of borrowing one from a made-up zero.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from .errors import ValfieldError

Monomial = Tuple[int, ...]


def _coeff_is_zero(c) -> bool:
    if hasattr(c, "is_zero_to_prec"):
        return c.is_zero_to_prec()
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


class MultiPoly:
    """Sparse polynomial: map from exponent tuples to ring coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Monomial, object]):
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if not _coeff_is_zero(c)}
        for m in self.terms:
            if len(m) != nvars:
                raise ValfieldError("monomial arity mismatch")

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValfieldError("polynomials in different numbers of variables")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return MultiPoly(self.nvars, out)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: x * c for m, x in self.terms.items()})

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
            for i, e in enumerate(m):
                if e:
                    term = term * _ring_pow(args[i], e)
            acc = term if acc is None else acc + term
        if acc is None:
            a = args[0]
            return a - a
        return acc

    def compose(self, inner: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute inner[i] for variable i; all inner share one arity."""
        if len(inner) != self.nvars:
            raise ValfieldError("wrong number of inner polynomials")
        nv = inner[0].nvars if inner else self.nvars
        acc = None
        for m, c in self.terms.items():
            term = MultiPoly.constant(nv, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * inner[i]
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

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def to_text(self, var_names: Sequence[str] = None) -> str:
        if not self.terms:
            return "0"
        names = var_names or [f"X{i + 1}" for i in range(self.nvars)]
        if self.nvars == 1 and var_names is None:
            names = ["X"]
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [_coeff_text(c)]
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"


def _coeff_text(c) -> str:
    if hasattr(c, "to_text"):
        t = c.to_text()
        return f"({t})" if ("+" in t or " " in t) else t
    return str(c)


def _ring_pow(x, e: int):
    """x^e for e >= 1.  A ring with a Frobenius powers itself, so that the
    p-power part of e goes through Frobenius exactly; other rings multiply."""
    if hasattr(x, "frobenius"):
        return x**e
    result = None
    base = x
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


# -- dense univariate polynomials (index = degree) ---------------------------


def _coeff_inverse(c):
    return c.inverse() if hasattr(c, "inverse") else 1 / c


def dense_trim(a: Sequence) -> List:
    """The coefficient list without its trailing zeros."""
    out = list(a)
    while out and _coeff_is_zero(out[-1]):
        out.pop()
    return out


def dense_add(a: Sequence, b: Sequence) -> List:
    """a + b; the longer operand's tail is copied."""
    n = min(len(a), len(b))
    return [x + y for x, y in zip(a, b)] + list(a[n:]) + list(b[n:])


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

    Coefficients must come from a field.  The remainder is not trimmed:
    it has min(len(a), deg b) entries, each carrying its own precision.
    """
    b = dense_trim(b)
    if not b:
        raise ValfieldError("division by the zero polynomial")
    inv_lead = _coeff_inverse(b[-1])
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


def dense_eval(a: Sequence, x):
    """a(x) by Horner's rule, starting at the leading coefficient."""
    if not a:
        raise ValfieldError("cannot evaluate an empty coefficient list")
    acc = a[-1]
    for i in range(len(a) - 2, -1, -1):
        acc = acc * x + a[i]
    return acc
