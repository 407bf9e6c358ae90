"""Seeded invariant suites over the four arithmetic layers.

Each suite draws ``samples`` random elements and checks the valuation
axioms and arithmetic laws that every layer must satisfy:

* v(xy) = v(x) + v(y) whenever both sides are exact;
* v(x+y) >= min(v(x), v(y)), with equality when the valuations differ;
* x - x is zero to its error order; multiplication distributes;
* printing then parsing is the identity (Laurent layer);
* inverses multiply back to one at the available precision (exactly,
  in the p-adic layer).

A suite returns a list of failure descriptions; empty means pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List

from .composite import CompositeField
from .finite_field import FiniteFieldDescriptor, prime_field
from .laurent import LaurentField
from .padic import PAdicExtRing
from .parsing import parse_series
from .polynomials import _coeff_is_zero
from .sampling import Sampler
from .value_group import INFINITY, Value


def value_group_suite(seed: int = 0, samples: int = 1000) -> List[str]:
    s = Sampler(seed)
    fails: List[str] = []
    for i in range(samples):
        rank = 1 if i % 2 == 0 else 2
        a = s.value(rank)
        b = s.value(rank)
        c = s.value(rank)
        if (a + b) != (b + a):
            fails.append(f"add not commutative: {a.to_text()}, {b.to_text()}")
        if ((a + b) + c) != (a + (b + c)):
            fails.append("add not associative")
        if a + INFINITY != INFINITY:
            fails.append("infinity not absorbing")
        if not (a <= b or b <= a):
            fails.append("order not total")
        if a <= b and (a + c) > (b + c):
            fails.append("add not monotone")
        if Value.from_text(a.to_text()) != a:
            fails.append(f"value text round trip: {a.to_text()}")
    return fails


def _arith_laws(x, y, z, fails: List[str], label: str) -> None:
    d = x - x
    if not _coeff_is_zero(d):
        fails.append(f"{label}: x - x not zero to precision")
    lhs = x * (y + z)
    rhs = x * y + x * z
    if not _coeff_is_zero(lhs - rhs):
        fails.append(f"{label}: distributivity fails")
    vx, vy = x.valuation(), y.valuation()
    vxy = (x * y).valuation()
    if vx.exact and vy.exact:
        if vxy.exact and vxy.value != vx.value + vy.value:
            fails.append(f"{label}: v(xy) != v(x)+v(y)")
    vsum = (x + y).valuation()
    low = min(vx.value, vy.value)
    if vsum.exact and vsum.value < low:
        fails.append(f"{label}: ultrametric violated")
    if vx.exact and vy.exact and vx.value != vy.value:
        if vsum.exact and vsum.value != low:
            fails.append(f"{label}: strict ultrametric equality fails")


def laurent_suite(seed: int = 0, samples: int = 1000) -> List[str]:
    s = Sampler(seed)
    fails: List[str] = []
    # prime and extension fields of both characteristics, so the suite
    # runs the packed series kernels over F_p and over F_{p^k}
    fields = [
        LaurentField(base, "t", default_prec=8)
        for base in (prime_field(2), prime_field(3), FiniteFieldDescriptor(2, 2), FiniteFieldDescriptor(3, 2))
    ]
    for i in range(samples):
        K = fields[i % len(fields)]
        x = s.series(K, -3)
        y = s.series(K, -3)
        z = s.series(K, -3)
        _arith_laws(x, y, z, fails, "laurent")
        if parse_series(K, x.to_text()) != x:
            fails.append(f"laurent: text round trip fails for {x.to_text()}")
        u = s.unit_series(K, -2)
        prod = u * u.inverse()
        if not (prod - K.one(prod.prec)).is_zero_to_prec():
            fails.append("laurent: inverse fails")
    return fails


def padic_suite(seed: int = 0, samples: int = 1000) -> List[str]:
    s = Sampler(seed)
    fails: List[str] = []
    # Eisenstein rings, and an unramified one whose residue X^2 + 1 is
    # irreducible mod 3
    rings = [PAdicExtRing(2, [-2, 0, 1]), PAdicExtRing(3, [-2, 0, 1]), PAdicExtRing(5, [5, 10, 0, 1])]

    def element(ring: PAdicExtRing):
        return ring.element([
            s.fraction(-3, 3) * Fraction(ring.p) ** s.rng.randint(-3, 3)
            for _ in range(ring.degree)
        ])

    for i in range(samples):
        ring = rings[i % len(rings)]
        x, y, z = element(ring), element(ring), element(ring)
        _arith_laws(x, y, z, fails, "padic")
        if not x.is_zero() and x * x.inverse() != ring.one():
            fails.append(f"padic: inverse fails for {x.to_text()}")
    return fails


def composite_suite(seed: int = 0, samples: int = 1000) -> List[str]:
    s = Sampler(seed)
    fails: List[str] = []
    fields = [
        CompositeField(prime_field(2), prec_t=3, prec_u=3),
        CompositeField(prime_field(3), prec_t=3, prec_u=3),
    ]
    for i in range(samples):
        C = fields[i % 2]
        x = s.composite(C, lo_u=-2)
        y = s.composite(C, lo_u=-2)
        z = s.composite(C, lo_u=-2)
        _arith_laws(x, y, z, fails, "composite")
        vx = x.valuation()
        if vx.exact and not x.is_zero_to_prec():
            w, res = x.coarsen()
            if vx.value.first != w:
                fails.append("composite: coarsening disagrees with rank-2 valuation")
            vres = res.valuation()
            if not vres.exact or vres.value.first != vx.value.second:
                fails.append("composite: residue valuation disagrees")
    return fails


SUITES: Dict[str, Callable[[int, int], List[str]]] = {
    "value_group": value_group_suite,
    "laurent": laurent_suite,
    "padic": padic_suite,
    "composite": composite_suite,
}


def run_all(seed: int = 0, samples: int = 1000) -> Dict[str, List[str]]:
    return {name: suite(seed, samples) for name, suite in SUITES.items()}
