import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield.errors import (
    CertificationError,
    IndeterminateValuationError,
    PrecisionError,
    ValfieldError,
)
from valfield.padic import (
    PAdicExtRing,
    PAdicNumber,
    ext_valuation,
    fundamental_equality_data,
    monicize,
    newton_polygon,
    poly_from_fractions,
    vp_fraction,
    vp_int,
    with_precision_retry,
)
from valfield.value_group import Value


class TestIntegerValuations:
    def test_vp_int(self):
        assert vp_int(12, 2) == 2
        assert vp_int(12, 3) == 1
        assert vp_int(7, 5) == 0
        assert vp_int(0, 3) is None

    def test_vp_fraction(self):
        assert vp_fraction(Fraction(9, 2), 3) == 2
        assert vp_fraction(Fraction(1, 27), 3) == -3
        assert vp_fraction(Fraction(0), 3) is None


@st.composite
def padics(draw, p=None):
    pp = p if p is not None else draw(st.sampled_from([2, 3, 5]))
    v = draw(st.integers(-3, 5))
    unit = draw(st.integers(0, pp**8 - 1))
    return PAdicNumber(pp, v, unit, 8)


class TestNumberArithmetic:
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_ring_laws(self, p, data):
        a = data.draw(padics(p=p))
        b = data.draw(padics(p=p))
        c = data.draw(padics(p=p))
        assert (a + b - b - a).is_zero_to_prec()
        assert ((a * (b + c)) - (a * b + a * c)).is_zero_to_prec()

    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_valuation_laws(self, p, data):
        a = data.draw(padics(p=p))
        b = data.draw(padics(p=p))
        va, vb, vm = a.valuation(), b.valuation(), (a * b).valuation()
        if va.exact and vb.exact and vm.exact:
            assert vm.value == va.value + vb.value
        vs = (a + b).valuation()
        if vs.exact:
            assert vs.value >= min(va.value, vb.value)

    def test_from_fraction_examples(self):
        x = PAdicNumber.from_fraction(3, Fraction(9, 2), 6)
        assert x.valuation().value == Value.rank1(2)
        y = PAdicNumber.from_fraction(3, Fraction(1, 3), 6)
        assert y.valuation().value == Value.rank1(-1)

    def test_inverse(self):
        x = PAdicNumber.from_fraction(5, 7, 8)
        prod = x * x.inverse()
        one = PAdicNumber.from_fraction(5, 1, prod.prec)
        assert (prod - one).is_zero_to_prec()

    def test_inverse_of_indeterminate_rejected(self):
        with pytest.raises(IndeterminateValuationError):
            PAdicNumber(3, None, 0, 6).inverse()

    def test_residue(self):
        assert PAdicNumber.from_fraction(3, 7, 6).residue().coeffs[0] == 1
        assert PAdicNumber.from_fraction(3, 9, 6).residue().is_zero()

    def test_text_round_mentions_precision(self):
        x = PAdicNumber.from_fraction(3, 7, 4)
        assert "O(3^4)" in x.to_text()


def counterexample_ring(p, prec=None):
    coeffs = [Fraction(0)] * (2 * p + 1)
    coeffs[2 * p] = Fraction(p)
    coeffs[p + 1] = Fraction(-2 * p)
    coeffs[2] = Fraction(p)
    coeffs[0] = Fraction(-1)
    return PAdicExtRing(p, coeffs, prec=prec, denominator_bound=2 * p)


class TestExtensionRing:
    def test_polygon_and_certified_irreducibility(self):
        ring = counterexample_ring(3)
        assert ring.polygon().segments == ((Fraction(1, 6), 6),)
        assert ring.irreducibility_certified()

    def test_generator_valuation(self):
        ring = counterexample_ring(3)
        assert ext_valuation(ring.gen()) == Value.rank1(Fraction(-1, 6))

    def test_s_valuation_and_ring_identity(self):
        ring = counterexample_ring(3)
        gen = ring.gen()
        s = gen**3 - gen
        assert ext_valuation(s) == Value.rank1(Fraction(-1, 2))
        identity = ring.element([3]) * s * s - ring.one()
        assert identity.is_zero_to_prec()

    def test_inverse_in_quotient(self):
        ring = counterexample_ring(3)
        gen = ring.gen()
        prod = gen * gen.inverse()
        assert (prod - ring.one()).is_zero_to_prec()

    def test_uncertified_ring_refuses_valuation(self):
        # X^2 - 1 is reducible; no certificate route applies
        ring = PAdicExtRing(3, [Fraction(-1), Fraction(0), Fraction(1)])
        with pytest.raises(CertificationError):
            ext_valuation(ring.gen())

    def test_monicize(self):
        assert monicize([Fraction(2), Fraction(4)]) == [
            Fraction(1, 2),
            Fraction(1),
        ]

    def test_newton_polygon_of_padic_poly(self):
        coeffs = poly_from_fractions(2, [Fraction(2), Fraction(2), Fraction(1)], 8)
        poly = newton_polygon(coeffs)
        assert poly.segments == ((Fraction(-1, 2), 2),)


class TestFundamentalEquality:
    def test_totally_ramified(self):
        data = fundamental_equality_data(counterexample_ring(3))
        assert (data.n, data.e, data.f_res) == (6, 6, 1)
        assert data.certified_by == "slope-denominator"
        assert data.equality_holds

    def test_eisenstein(self):
        ring = PAdicExtRing(3, [Fraction(-3), Fraction(0), Fraction(1)])
        data = fundamental_equality_data(ring)
        assert (data.n, data.e, data.f_res) == (2, 2, 1)

    def test_unramified(self):
        # X^2 - 2 over Q_3: residue X^2 + 1 is irreducible mod 3
        ring = PAdicExtRing(3, [Fraction(-2), Fraction(0), Fraction(1)])
        data = fundamental_equality_data(ring)
        assert (data.n, data.e, data.f_res) == (2, 1, 2)
        assert data.certified_by == "residue-irreducible"

    def test_asserted_route(self):
        # X^2 + X + 1 over Q_2 is irreducible (residue irreducible), but
        # force the asserted route by construction over Q_5 with an
        # irreducible assertion flag
        ring = PAdicExtRing(
            5, [Fraction(2), Fraction(0), Fraction(1)], irreducible_asserted=True
        )
        data = fundamental_equality_data(ring)
        assert data.n == 2
        assert data.certified_by in ("asserted", "residue-irreducible")


class TestPrecisionRetry:
    def test_retry_doubles_until_success(self):
        calls = []

        def compute(prec):
            calls.append(prec)
            if prec < 20:
                raise PrecisionError("too small")
            return prec

        assert with_precision_retry(compute, 6) == 24
        assert calls == [6, 12, 24]

    def test_retry_gives_up(self):
        def compute(prec):
            raise PrecisionError("never enough")

        with pytest.raises(PrecisionError):
            with_precision_retry(compute, 4, attempts=2)


SRC = Path(__file__).resolve().parent.parent / "src"


class TestRingGuards:
    def test_non_prime_p_rejected(self):
        with pytest.raises(ValfieldError):
            PAdicExtRing(4, [0, 1])

    def test_fundeq_with_p_one_terminates(self):
        # p = 1 used to loop forever in vp_int; the child is killed on timeout
        code = (
            "from valfield.certificates import fundeq_padic\n"
            "from valfield.errors import ValfieldError\n"
            "try:\n"
            "    fundeq_padic(1, [0, 1])\n"
            "except ValfieldError:\n"
            "    print('rejected')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.strip() == "rejected", proc.stderr

    def test_degree_one_modulus_is_irreducible(self):
        ring = PAdicExtRing(3, [0, 1])
        assert ring.irreducibility_certified()
        assert ext_valuation(ring.element([3])) == Value.rank1(1)
