import itertools
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield.errors import BudgetExceededError, ParseError, ValfieldError
from valfield.finite_field import (
    FFElement,
    FiniteFieldDescriptor,
    _fp_insert,
    _fp_row,
    _fp_slots,
    _pmod_irreducible,
    _row_slot,
    parse_field,
    prime_field,
)

from valfield.polynomials import dense_mul

from oracles import artin_schreier_root_by_scan, list_fp_insert, schoolbook_mul_code, trial_division_irreducible

SRC = Path(__file__).resolve().parent.parent / "src"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


FIELDS = [
    prime_field(2),
    prime_field(3),
    prime_field(5),
    FiniteFieldDescriptor(2, 2),
    FiniteFieldDescriptor(3, 2),
    FiniteFieldDescriptor(2, 3),
]

# the fields whose every code is checked against the root scan: F_16 under
# its default modulus x^4 + x + 1 and under x^4 + x^3 + 1
AS_FIELDS = [prime_field(p) for p in (2, 3, 5, 7)] + [
    FiniteFieldDescriptor(p, k) for p, k in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)]
] + [FiniteFieldDescriptor(2, 4, (1, 0, 0, 1, 1))]


@st.composite
def field_and_elements(draw, count=3):
    desc = draw(st.sampled_from(FIELDS))
    elems = [
        desc.element([draw(st.integers(0, desc.p - 1)) for _ in range(desc.k)])
        for _ in range(count)
    ]
    return desc, elems


class TestFieldAxioms:
    @given(field_and_elements())
    def test_ring_laws(self, data):
        desc, (a, b, c) = data
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + desc.zero() == a
        assert a * desc.one() == a
        assert a - a == desc.zero()

    @given(field_and_elements(count=1))
    def test_inverse(self, data):
        desc, (a,) = data
        if a.is_zero():
            with pytest.raises(ValfieldError):
                a.inverse()
        else:
            assert a * a.inverse() == desc.one()

    @given(field_and_elements(count=1))
    def test_frobenius_is_field_automorphism_inverse_pair(self, data):
        desc, (a,) = data
        assert a.frobenius().frobenius(-1) == a
        assert a.frobenius(-1).frobenius() == a

    @given(field_and_elements(count=2))
    def test_frobenius_additive_multiplicative(self, data):
        desc, (a, b) = data
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    def test_element_count_and_distinctness(self):
        for desc in FIELDS:
            elems = list(desc.elements())
            assert len(elems) == desc.q
            assert len(set(elems)) == desc.q


# -- the code layer against a schoolbook coordinate reference --------------
#
# The reference works on coordinate tuples (c_0, ..., c_{k-1}): sums
# coordinatewise, products by schoolbook multiplication and long division by
# the modulus, inverses by scanning the field.  It shares nothing with the
# descriptor's code arithmetic but the modulus and the code convention
# code = sum c_j p^j.

REFERENCE_FIELDS = FIELDS + [FiniteFieldDescriptor(2, 4)]
REFERENCE_IDS = ["F2", "F3", "F5", "F4", "F9", "F8", "F16"]


def _ref_coords(desc, code):
    return tuple(code // desc.p**j % desc.p for j in range(desc.k))


def _ref_code(desc, coords):
    return sum(c * desc.p**j for j, c in enumerate(coords))


def _ref_add(desc, a, b):
    return tuple((x + y) % desc.p for x, y in zip(a, b))


def _ref_neg(desc, a):
    return tuple(-x % desc.p for x in a)


def _ref_rem(a, b, p):
    """Remainder of a by the monic b over Z/p, as a length-(len(b)-1) tuple."""
    a = [x % p for x in a]
    for top in range(len(a) - 1, len(b) - 2, -1):
        q = a[top]
        for i, bi in enumerate(b):
            a[top - len(b) + 1 + i] = (a[top - len(b) + 1 + i] - q * bi) % p
    return tuple(a[: len(b) - 1])


def _ref_mul(desc, a, b):
    prod = [0] * (2 * desc.k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_rem(prod, desc.modulus, desc.p)


def _ref_pow(desc, a, e):
    out = _ref_coords(desc, 1)
    for _ in range(e):
        out = _ref_mul(desc, out, a)
    return out


def _ref_inverse(desc, a):
    one = _ref_coords(desc, 1)
    return next(
        (y for y in (_ref_coords(desc, c) for c in range(desc.q)) if _ref_mul(desc, a, y) == one),
        None,
    )


@pytest.mark.parametrize("desc", REFERENCE_FIELDS, ids=REFERENCE_IDS)
class TestCodeLayerAgainstReference:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_arithmetic(self, desc, data):
        ca, cb = data.draw(st.integers(0, desc.q - 1)), data.draw(st.integers(0, desc.q - 1))
        a, b = FFElement(desc, ca), FFElement(desc, cb)
        ra, rb = _ref_coords(desc, ca), _ref_coords(desc, cb)
        assert (a + b).code == _ref_code(desc, _ref_add(desc, ra, rb))
        assert (a - b).code == _ref_code(desc, _ref_add(desc, ra, _ref_neg(desc, rb)))
        assert (-a).code == _ref_code(desc, _ref_neg(desc, ra))
        assert (a * b).code == _ref_code(desc, _ref_mul(desc, ra, rb))
        assert a.coeffs == ra
        inv = _ref_inverse(desc, ra)
        if inv is None:
            with pytest.raises(ValfieldError):
                a.inverse()
        else:
            assert a.inverse().code == _ref_code(desc, inv)

    @given(data=st.data(), times=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_frobenius_and_its_inverse(self, desc, data, times):
        code = data.draw(st.integers(0, desc.q - 1))
        a, ra = FFElement(desc, code), _ref_coords(desc, code)
        assert a.frobenius(times).code == _ref_code(desc, _ref_pow(desc, ra, desc.p**times))
        root = a.frobenius(-times)
        assert _ref_pow(desc, root.coeffs, desc.p**times) == ra

    @given(data=st.data(), e=st.integers(-3, 20))
    @settings(max_examples=40, deadline=None)
    def test_pow(self, desc, data, e):
        code = data.draw(st.integers(0, desc.q - 1))
        a, ra = FFElement(desc, code), _ref_coords(desc, code)
        if e < 0:
            ra = _ref_inverse(desc, ra)
            if ra is None:
                with pytest.raises(ValfieldError):
                    a**e
                return
        assert (a**e).code == _ref_code(desc, _ref_pow(desc, ra, abs(e)))


POW_FIELDS = [prime_field(p) for p in (2, 3, 5)] + [
    FiniteFieldDescriptor(p, k) for p, k in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)]
]


@pytest.mark.parametrize("desc", POW_FIELDS, ids=lambda d: d.to_text())
def test_pow_code_is_repeated_multiplication(desc):
    # e up to 3q crosses the fold y^(q-1) = 1 twice; over F_256, where a
    # power costs about a dozen products, every e is checked on ten codes
    codes = range(desc.q) if desc.q < 256 else [0, 1, *random.Random(256).sample(range(2, 256), 8)]
    for a in codes:
        products = list(itertools.accumulate([a] * (3 * desc.q), desc.mul_codes, initial=1))
        assert [desc.pow_code(a, e) for e in range(3 * desc.q + 1)] == products, a


class TestModulusSelection:
    def test_modulus_deterministic(self):
        # same parameters, same auto-found modulus
        assert FiniteFieldDescriptor(2, 2).modulus == FiniteFieldDescriptor(2, 2).modulus
        assert FiniteFieldDescriptor(3, 4).modulus == FiniteFieldDescriptor(3, 4).modulus

    def test_f4_modulus_is_x2_x_1(self):
        # the only irreducible quadratic over F_2
        assert FiniteFieldDescriptor(2, 2).modulus == (1, 1, 1)

    def test_non_prime_p_rejected(self):
        with pytest.raises(ValfieldError):
            FiniteFieldDescriptor(4, 1)

    def test_k_bound(self):
        with pytest.raises(ValfieldError):
            FiniteFieldDescriptor(2, 9)

    def test_a_supplied_modulus_is_tested(self):
        with pytest.raises(ValfieldError, match="reducible"):
            FiniteFieldDescriptor(3, 2, (2, 0, 1))  # X^2 - 1

    def test_trial_division_is_charged_one_divisor_degree_at_a_time(self):
        # degree d costs 3^d divisors of (deg - d + 1) * (d + 1) steps: a
        # degree-12 residue is scanned in full, a degree-24 one with no factor
        # of degree <= 9 is refused at degree 10, and X^24 - 1 = (X + 1) * ...
        # is found reducible at degree 1, before any large degree is charged
        assert isinstance(_pmod_irreducible((2, 0, 0, 0, 1) + (0,) * 7 + (1,), 3), bool)
        with pytest.raises(BudgetExceededError, match="14348889 "):
            _pmod_irreducible((2, 0, 0, 0, 1) + (0,) * 19 + (1,), 3)
        assert _pmod_irreducible((2,) + (0,) * 23 + (1,), 3) is False

    def test_a_long_reducible_residue_is_decided_in_bounded_memory(self):
        # X^300000 + X + 1 has the root 5 over F_7, so the scan stops at
        # its first divisor degree; the quotient by X + 2 over Z would hold
        # about 4.5 * 10^10 bits.  The child runs under a 2 GB address-space
        # limit, and no route certifies the reducible residue (exit 3).
        proc = subprocess.run(
            [sys.executable, "-m", "valfield", "fundeq", "--field", "F(7)((t))", "--poly", "X^300000 + X + 1"],
            capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr


class TestDenseCoreAgainstReference:
    def test_irreducibility_matches_trial_division_mod_p(self):
        # remainders of the dense core against the old trial division and
        # its own remainder loop; leading coefficients any unit, and some
        # inputs carry trailing zeros
        rng = random.Random(20)
        decided = []
        for _ in range(1200):
            p = rng.choice((2, 3, 5, 7))
            deg = rng.randint(0, 8 if p < 5 else 6)
            f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)] + [0] * rng.randint(0, 2)
            expected = trial_division_irreducible(f, p)
            assert _pmod_irreducible(f, p) is expected, (f, p)
            decided.append(expected)
        assert 100 < sum(decided) < 1100

    @pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (2, 4)], ids=["F4", "F8", "F9", "F16"])
    def test_mul_codes_matches_the_schoolbook_product(self, p, k):
        desc = FiniteFieldDescriptor(p, k)
        for a in range(desc.q):
            for b in range(desc.q):
                assert desc.mul_codes(a, b) == schoolbook_mul_code(desc, a, b), (a, b)


    @pytest.mark.parametrize("k", [2, 4, 8], ids=["F4", "F16", "F256"])
    def test_carry_less_product_matches_fold_of_dense_mul(self, k):
        # over F_{2^k} mul_codes multiplies bitmasks without carries and
        # clears the high bits by the modulus; every pair of codes against
        # the digit product folded by the descriptor
        desc = FiniteFieldDescriptor(2, k)
        digits = [desc.digits(a) for a in range(desc.q)]
        for a in range(desc.q):
            assert [desc.mul_codes(a, b) for b in range(desc.q)] == [
                desc.fold(dense_mul(digits[a], db)) for db in digits
            ], a


class TestPackedEchelon:
    @pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 257])
    def test_packed_insert_matches_the_list_reference(self, p):
        """Seeded rows, each with an identity block after its coordinates
        as the span solver builds them, inserted in one order into the list
        echelon of ``oracles`` and into the packed one, with random stops:
        the returned columns and the pivot rows agree.  p = 2 runs on XOR,
        and the slots are 1 byte for p <= 13, 2 for p = 17 and 4 for
        p = 257.  Each matrix has more rows than columns, and some rows
        repeat an earlier one times a scalar, so that rows also reduce to
        nothing."""
        assert _row_slot(p) == {2: 1, 3: 1, 5: 1, 13: 1, 17: 2, 257: 4}[p]
        rng = random.Random(f"echelon:{p}")
        inserted = pivoted = 0
        for _ in range(40):
            width = rng.randint(1, 12)
            n = rng.randint(1, width + 4)
            rows = []
            for r in range(n):
                if rows and rng.random() < 0.2:
                    scalar = rng.randrange(1, p)
                    coords = [c * scalar % p for c in rng.choice(rows)[:width]]
                else:
                    coords = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(width)]
                rows.append(coords + [int(i == r) for i in range(n)])
            listed, packed = {}, {}
            for row in rows:
                stop = rng.randint(0, width)
                col = list_fp_insert(listed, list(row), stop, p)
                assert _fp_insert(packed, _fp_row(row, p), stop, p) == col
                inserted += 1
                pivoted += col is not None
            assert sorted(packed) == sorted(listed)
            for col, row in listed.items():
                assert _fp_slots(packed[col], width + n, p) == row, (col, row)
        assert 0 < pivoted < inserted


class TestTextForms:
    def test_parse_field_round_trip(self):
        for text in ["F(2)", "F(5)", "F(2^2; modulus=[1,1,1])"]:
            desc = parse_field(text)
            assert parse_field(desc.to_text()) == desc

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_field("GF(4)")


class TestRootScans:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_artin_schreier_xp_minus_x_minus_one_irreducible(self, p):
        # X^p - X - 1 never has a root in F_p (its roots generate a
        # degree-p extension)
        assert prime_field(p).artin_schreier_root(1) is None

    def test_artin_schreier_zero_splits(self):
        # X^p - X factors completely over F_p: 0 is its least root
        assert prime_field(3).artin_schreier_root(0) == 0

    @pytest.mark.parametrize("desc", FIELDS, ids=lambda d: d.to_text())
    def test_artin_schreier_root_is_the_least_root(self, desc):
        # y^p - y is additive with kernel F_p, so c has p roots or none
        for c in desc.elements():
            roots = [y for y in desc.elements() if y ** desc.p - y == c]
            found = desc.artin_schreier_root(c.code)
            assert found == (roots[0].code if roots else None), c
            assert len(roots) in (0, desc.p)

    @pytest.mark.parametrize("desc", AS_FIELDS, ids=lambda d: d.to_text())
    def test_artin_schreier_root_matches_the_scan(self, desc):
        answers = [desc.artin_schreier_root(c) for c in range(desc.q)]
        assert answers == [artin_schreier_root_by_scan(desc, c) for c in range(desc.q)]
        # the image of y^p - y is a hyperplane over F_p, or 0 over F_p itself
        assert answers.count(None) == desc.q - desc.q // desc.p

    def test_artin_schreier_root_over_f_101_cubed_answers_at_once(self):
        # x^p - x has the roots x + F_p, of which x (code 101) is the least;
        # 5 has trace 15 over F_101^3, and every y^p - y has trace 0
        desc = FiniteFieldDescriptor(101, 3)
        t0 = time.monotonic()
        c = desc.add_codes(desc.frobenius_code(101), desc.neg_code(101))
        assert (desc.artin_schreier_root(c), desc.artin_schreier_root(5)) == (101, None)
        assert time.monotonic() - t0 < 1.0

    def test_artin_schreier_root_over_a_large_prime_field_answers_at_once(self):
        # over F_p, y^p - y is zero: no scan of the p codes, and no charge
        desc = FiniteFieldDescriptor(10**7 + 19)
        assert (desc.artin_schreier_root(1), desc.artin_schreier_root(0)) == (None, 0)
