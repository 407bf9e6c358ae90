import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield.errors import BudgetExceededError, CertificationError, ValfieldError
from valfield.finite_field import _pmod_irreducible
from valfield.padic import (
    PAdicExtRing,
    ext_valuation,
    fundamental_equality_data,
    monicize,
    vp_fraction,
    vp_int,
)
from valfield.polynomials import dense_mul, dense_trim
from valfield.value_group import INFINITY, Value

from oracles import sylvester_det


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


def _exact(cs):
    """cs, after checking that each entry is an int or a Fraction with a
    real denominator: never a float, never a Fraction equal to an int."""
    for c in cs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (cs, c)
    return cs


def counterexample_ring(p):
    coeffs = [Fraction(0)] * (2 * p + 1)
    coeffs[2 * p] = Fraction(p)
    coeffs[p + 1] = Fraction(-2 * p)
    coeffs[2] = Fraction(p)
    coeffs[0] = Fraction(-1)
    return PAdicExtRing(p, coeffs)


class TestExtensionRing:
    def test_polygon_and_certified_irreducibility(self):
        ring = counterexample_ring(3)
        assert ring.polygon().segments == ((Fraction(1, 6), 6),)
        assert fundamental_equality_data(ring).certified_by == "slope-denominator"

    def test_generator_valuation(self):
        ring = counterexample_ring(3)
        assert ext_valuation(ring.gen()) == Value.rank1(Fraction(-1, 6))

    def test_s_valuation_and_ring_identity(self):
        ring = counterexample_ring(3)
        gen = ring.gen()
        s = gen**3 - gen
        assert ext_valuation(s) == Value.rank1(Fraction(-1, 2))
        identity = ring.element([3]) * s * s - ring.one()
        assert identity.is_zero()

    def test_inverse_in_quotient(self):
        ring = counterexample_ring(3)
        gen = ring.gen()
        assert gen * gen.inverse() == ring.one()
        assert gen ** -2 * gen**2 == ring.one()
        assert gen**0 == ring.one()

    def test_zero_has_infinite_valuation(self):
        ring = counterexample_ring(3)
        assert ext_valuation(ring.zero()) == INFINITY
        assert ring.zero().valuation().exact

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ValfieldError):
            counterexample_ring(3).zero().inverse()

    def test_rational_valuations_in_degree_one(self):
        ring = PAdicExtRing(3, [0, 1])
        assert ext_valuation(ring.element([Fraction(9, 2)])) == Value.rank1(2)
        assert ext_valuation(ring.element([Fraction(1, 3)])) == Value.rank1(-1)

    def test_polygon_of_a_rational_modulus(self):
        # 2 + 2X + X^2 over Q_2, and its scaled copy with denominators
        for modulus in ([2, 2, 1], [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)]):
            assert PAdicExtRing(2, modulus).polygon().segments == ((Fraction(-1, 2), 2),)

    def test_uncertified_ring_refuses_valuation(self):
        # X^2 - 1 is reducible; no certificate route applies
        ring = PAdicExtRing(3, [Fraction(-1), Fraction(0), Fraction(1)])
        with pytest.raises(CertificationError):
            ext_valuation(ring.gen())

    def test_false_assertion_is_caught_by_a_common_factor(self):
        # X^2 - 1 = (X - 1)(X + 1): the resultant with X - 1 is zero
        ring = PAdicExtRing(3, [-1, 0, 1], irreducible_asserted=True)
        with pytest.raises(CertificationError):
            ext_valuation(ring.element([-1, 1]))

    def test_monicize(self):
        assert _exact(monicize([Fraction(2), Fraction(4)])) == [Fraction(1, 2), 1]
        assert _exact(monicize([Fraction(-4), 0, Fraction(2), 0])) == [-2, 0, 1]


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

    def test_residue_of_rational_coefficients(self):
        # X^2 + X/2 + 1/2 over Q_3 has residue X^2 + 2X + 2, irreducible mod 3
        ring = PAdicExtRing(3, [Fraction(1, 2), Fraction(1, 2), 1])
        data = fundamental_equality_data(ring)
        assert (data.n, data.e, data.f_res) == (2, 1, 2)
        assert data.certified_by == "residue-irreducible"


def _eisenstein_modulus(rng, p, n):
    """X^n + p * (c_{n-1} X^(n-1) + ... + c_0) with c_0 a unit."""
    lower = [p * rng.randrange(-p * p, p * p) for _ in range(n)]
    lower[0] = p * rng.choice([u for u in range(1, p * p) if u % p])
    return lower + [1]


def _unit_modulus(rng, p, n):
    """A monic lift of a random irreducible polynomial of degree n mod p."""
    while True:
        residue = [rng.randrange(p) for _ in range(n)] + [1]
        if _pmod_irreducible(residue, p):
            return [c + p * rng.randrange(-p, p) for c in residue[:-1]] + [1]


def _rational(rng, p):
    """A rational whose numerator and denominator both may carry p-powers."""
    num = rng.choice([c for c in range(-30, 31) if c])
    return Fraction(num, rng.choice((1, 2, 3, 5, 7, 11))) * Fraction(p) ** rng.randint(-4, 8)


def _element(rng, ring):
    return ring.element([
        _rational(rng, ring.p) if rng.random() < 0.8 else 0 for _ in range(ring.degree)
    ])


def _norm_valuation(a):
    """v_p(det of multiplication by a in the basis 1, X, ..., X^(n-1)) / n.

    Column j is a * X^j reduced modulo the monic f by shifting and
    subtracting; the determinant is Leibniz's sum over permutations."""
    f, n, p = a.ring.modulus, a.ring.degree, a.ring.p
    cols = [list(a.rep)]
    for _ in range(n - 1):
        top = cols[-1][-1]
        shifted = [Fraction(0)] + cols[-1][:-1]
        cols.append([c - top * fc for c, fc in zip(shifted, f)])
    det = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for j in range(n):
            term *= cols[j][perm[j]]
        det += term
    if det == 0:
        return INFINITY
    return Value.rank1(Fraction(vp_fraction(det, p), n))


def _ring_and_elements(p, n, eisenstein, seed, count):
    rng = random.Random(seed)
    if eisenstein:
        ring = PAdicExtRing(p, _eisenstein_modulus(rng, p, n))
    else:
        ring = PAdicExtRing(p, _unit_modulus(rng, p, n), irreducible_asserted=True)
    return ring, [_element(rng, ring) for _ in range(count)]


# Eisenstein rings and residue-irreducible unit rings over Q_p, p <= 7,
# degree <= 6, with rational elements whose denominators carry p-powers
exact_cases = given(
    st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.booleans(), st.integers(0, 2**32)
)


class TestExactOracle:
    @settings(max_examples=80, deadline=None)
    @exact_cases
    def test_valuation_matches_the_norm(self, p, n, eisenstein, seed):
        _, (x,) = _ring_and_elements(p, n, eisenstein, seed, 1)
        assert ext_valuation(x) == _norm_valuation(x)

    @settings(max_examples=60, deadline=None)
    @exact_cases
    def test_valuation_is_additive(self, p, n, eisenstein, seed):
        _, (x, y) = _ring_and_elements(p, n, eisenstein, seed, 2)
        assert ext_valuation(x * y) == ext_valuation(x) + ext_valuation(y)

    @settings(max_examples=60, deadline=None)
    @exact_cases
    def test_inverse_is_exact(self, p, n, eisenstein, seed):
        ring, (x,) = _ring_and_elements(p, n, eisenstein, seed, 1)
        if not x.is_zero():
            inv = x.inverse()
            assert x * inv == ring.one()
            _exact(inv.rep)

    @settings(max_examples=40, deadline=None)
    @exact_cases
    def test_ring_laws(self, p, n, eisenstein, seed):
        _, (x, y, z) = _ring_and_elements(p, n, eisenstein, seed, 3)
        assert (x - x).is_zero()
        assert (x + y) - y == x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


class TestResidueRoute:
    """Rings certified by an irreducible residue alone, with no assertion.
    A monic integral lift f of an irreducible residue of degree n gives an
    unramified extension whose residue field has basis 1, a, ..., a^(n-1)
    for a the class of X, so v(sum c_i X^i) = min v_p(c_i)."""

    def test_an_unramified_ring_needs_no_assertion(self):
        ring = PAdicExtRing(3, [-2, 0, 1])
        assert fundamental_equality_data(ring).certified_by == "residue-irreducible"
        assert ext_valuation(ring.gen()) == Value.rank1(0)
        assert ext_valuation(ring.element([3])) == Value.rank1(1)
        with pytest.raises(CertificationError):
            ext_valuation(PAdicExtRing(3, [-1, 0, 1]).gen())

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_valuation_is_the_least_coefficient_valuation(self, p):
        rng = random.Random(f"residue route {p}")
        for n in (2, 3, 4):
            for _ in range(5):
                modulus = _unit_modulus(rng, p, n)
                ring = PAdicExtRing(p, modulus)
                asserted = PAdicExtRing(p, modulus, irreducible_asserted=True)
                assert fundamental_equality_data(ring).certified_by == "residue-irreducible"
                for _ in range(4):
                    cs = [_rational(rng, p) if rng.random() < 0.7 else 0 for _ in range(n)]
                    cs[rng.randrange(n)] = _rational(rng, p)
                    expected = Value.rank1(min(vp_fraction(c, p) for c in cs if c))
                    assert ext_valuation(ring.element(cs)) == expected, (modulus, cs)
                    assert ext_valuation(asserted.element(cs)) == expected, (modulus, cs)

    def test_an_asserted_ring_skips_the_residue_scan(self):
        # X^24 + X^4 + 2 over Q_3: its residue scan exceeds the default
        # budget, but an asserted ring needs no certification to value
        modulus = [2, 0, 0, 0, 1] + [0] * 19 + [1]
        with pytest.raises(BudgetExceededError):
            fundamental_equality_data(PAdicExtRing(3, modulus))
        ring = PAdicExtRing(3, modulus, irreducible_asserted=True)
        assert ext_valuation(ring.gen()) == Value.rank1(0)
        assert ext_valuation(ring.element([3])) == Value.rank1(1)


def _sylvester_valuation(x):
    """v_p(det Sylvester(f, x)) / deg f, or None when the determinant is 0."""
    det = sylvester_det(x.ring.modulus, dense_trim(x.rep))
    if det == 0:
        return None
    return Value.rank1(Fraction(vp_fraction(det, x.ring.p), x.ring.degree))


def _monic(rng, p, n):
    """A monic rational polynomial of degree n whose lower coefficients
    carry p-powers, some of them zero."""
    return [_rational(rng, p) if rng.random() < 0.8 else 0 for _ in range(n)] + [1]


def _several_segments(rng, p, n):
    """A monic rational modulus of degree n whose polygon has at least two
    segments (one for n = 1)."""
    while True:
        modulus = _monic(rng, p, n)
        if n == 1 or len(PAdicExtRing(p, modulus).polygon().segments) > 1:
            return modulus


class TestRemainderWalk:
    """The valuation read off the Euclidean remainder sequence against the
    Sylvester determinant of the oracles."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_asserted_moduli_with_several_segments(self, p):
        rng = random.Random(f"remainder walk {p}")
        for n in range(1, 11):
            ring = PAdicExtRing(p, _several_segments(rng, p, n), irreducible_asserted=True)
            for _ in range(4):
                x = _element(rng, ring)
                if x.is_zero():
                    continue
                expected = _sylvester_valuation(x)
                if expected is None:
                    with pytest.raises(CertificationError):
                        ext_valuation(x)
                else:
                    assert ext_valuation(x) == expected, (ring.modulus, x.rep)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_shared_factor_is_refused(self, p):
        rng = random.Random(f"shared factor {p}")
        for n in range(2, 11):
            d = rng.randint(1, n - 1)
            h, k = _monic(rng, p, d), _monic(rng, p, n - d)
            ring = PAdicExtRing(p, dense_mul(h, k), irreducible_asserted=True)
            x = ring.element(h) * ring.element(_monic(rng, p, rng.randrange(n - d)))
            assert _sylvester_valuation(x) is None
            with pytest.raises(CertificationError, match="shares a factor"):
                ext_valuation(x)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_the_tmcne_s3_element(self, p):
        gen = counterexample_ring(p).gen()
        s = gen**p - gen
        assert ext_valuation(s) == _sylvester_valuation(s) == Value.rank1(Fraction(-1, 2))


class TestExactRepresentation:
    """The int/Fraction rule on the seeded families: integral Eisenstein and
    unit moduli, monic fractional and several-segment moduli (asserted),
    and each of them scaled by a rational lead, which monicize divides out."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_no_float_and_integral_values_are_ints(self, p):
        rng = random.Random(f"exact representation {p}")
        for n in range(1, 7):
            families = [
                (_eisenstein_modulus(rng, p, n), False),
                (_unit_modulus(rng, p, n), True),
                (_monic(rng, p, n), True),
                (_several_segments(rng, p, n), True),
            ]
            for modulus, asserted in families:
                lead = _rational(rng, p)
                assert _exact(monicize(modulus)) == modulus
                assert _exact(monicize([c * lead for c in modulus])) == modulus
                ring = PAdicExtRing(p, [c * lead for c in modulus], irreducible_asserted=asserted)
                _exact(ring.modulus)
                x = _element(rng, ring)
                y = ring.element([rng.randint(-9, 9) * p**rng.randint(0, 2) for _ in range(n)])
                for z in (x, y, x + y, x - y, x * y, y * y, x**3, y**2, -x):
                    _exact(z.rep)
                for z in (x, y):
                    if z.is_zero():
                        continue
                    try:
                        inv = z.inverse()
                    except ValfieldError:
                        # a reducible modulus shares a factor with z
                        continue
                    _exact(inv.rep)
                    _exact((z**-2).rep)
                    assert z * inv == ring.one()


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
        assert fundamental_equality_data(ring).certified_by == "degree-one"
        assert ext_valuation(ring.element([3])) == Value.rank1(1)
