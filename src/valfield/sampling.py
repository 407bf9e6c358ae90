"""Seeded random generators for property suites and the CLI selftest.

Everything flows from one ``random.Random(seed)``, so a fixed seed yields
a fixed sample stream regardless of platform.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .additive import AdditivePolynomial
from .composite import CompositeElement, CompositeField
from .finite_field import FFElement, FiniteFieldDescriptor
from .laurent import LaurentField, LaurentSeries
from .polynomials import MultiPoly
from .value_group import Value


class Sampler:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    # -- scalars -----------------------------------------------------------

    def ff(self, desc: FiniteFieldDescriptor) -> FFElement:
        return desc.element([self.rng.randrange(desc.p) for _ in range(desc.k)])

    def ff_nonzero(self, desc: FiniteFieldDescriptor) -> FFElement:
        while True:
            x = self.ff(desc)
            if not x.is_zero():
                return x

    def fraction(self, lo: int, hi: int, max_den: int = 6) -> Fraction:
        den = self.rng.randrange(1, max_den + 1)
        num = self.rng.randrange(lo * den, hi * den + 1)
        return Fraction(num, den)

    def value(self, rank: int, lo: int = -6, hi: int = 6, max_den: int = 6) -> Value:
        if rank == 1:
            return Value.rank1(self.fraction(lo, hi, max_den))
        return Value.rank2(self.fraction(lo, hi, max_den), self.fraction(lo, hi, max_den))

    # -- series ------------------------------------------------------------

    def series(
        self, field: LaurentField, lo: int, prec: Optional[int] = None
    ) -> LaurentSeries:
        prec = field.default_prec if prec is None else prec
        terms = {}
        for e in range(lo, prec):
            c = self.ff(field.base)
            if not c.is_zero():
                terms[e] = c
        return field.from_terms(terms, prec)

    def nonzero_series(
        self, field: LaurentField, lo: int, prec: Optional[int] = None
    ) -> LaurentSeries:
        prec = field.default_prec if prec is None else prec
        while True:
            s = self.series(field, lo, prec)
            if not s.is_zero_to_prec():
                return s

    def unit_series(
        self, field: LaurentField, lo: int, prec: Optional[int] = None
    ) -> LaurentSeries:
        """A series with exact valuation, uniform leading level in [lo, 0]."""
        prec = field.default_prec if prec is None else prec
        lead = self.rng.randint(lo, max(lo, 0))
        s = self.series(field, lead + 1, prec)
        terms = {lead: self.ff_nonzero(field.base)}
        return field.from_terms(terms, prec) + s

    # -- composite ---------------------------------------------------------

    def composite(self, field: CompositeField, lo_t: int = 0, lo_u: int = 0) -> CompositeElement:
        coeffs = {}
        for e in range(lo_t, field.prec_t):
            c = self.series(field.inner, lo_u, field.prec_u)
            if not c.is_zero_to_prec():
                coeffs[e] = c
        return field.make(coeffs)

    # -- polynomials -------------------------------------------------------

    def additive(
        self,
        field: LaurentField,
        nvars: int,
        max_k: int,
        coeff_lo: int = -2,
        coeff_hi: int = 2,
        prec: Optional[int] = None,
        density: float = 0.7,
    ) -> AdditivePolynomial:
        """Coefficients are monomial-supported in {t^j : coeff_lo <= j <= coeff_hi}."""
        prec = field.default_prec if prec is None else prec
        terms = {}
        for i in range(nvars):
            for k in range(max_k + 1):
                if self.rng.random() > density:
                    continue
                c = self.ff(field.base)
                if c.is_zero():
                    continue
                j = self.rng.randint(coeff_lo, coeff_hi)
                terms[(i, k)] = field.t_power(j, prec).scale(c)
        return AdditivePolynomial(field, nvars, terms)

    def multipoly(
        self,
        field: LaurentField,
        nvars: int,
        max_deg: int,
        max_terms: int,
        coeff_lo: int = -2,
        prec: Optional[int] = None,
    ) -> MultiPoly:
        prec = field.default_prec if prec is None else prec
        terms = {}
        for _ in range(max_terms):
            mono = tuple((i, e) for i in range(nvars) if (e := self.rng.randint(0, max_deg)))
            c = self.nonzero_series(field, coeff_lo, prec)
            terms[mono] = terms[mono] + c if mono in terms else c
        kept = {m: c for m, c in terms.items() if not c.is_zero_to_prec()}
        if not kept:
            kept = {(): field.one(prec)}
        return MultiPoly(nvars, kept)
