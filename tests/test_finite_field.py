import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield.errors import BudgetExceededError, ParseError, ValfieldError
from valfield.finite_field import (
    FFElement,
    FiniteFieldDescriptor,
    _pmod_irreducible,
    artin_schreier_irreducible,
    parse_field,
    prime_field,
)

from oracles import schoolbook_mul_code, trial_division_irreducible

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
        assert artin_schreier_irreducible(prime_field(p).one())

    def test_artin_schreier_zero_splits(self):
        # X^p - X factors completely over F_p
        assert not artin_schreier_irreducible(prime_field(3).zero())

    @pytest.mark.parametrize("desc", FIELDS, ids=lambda d: d.to_text())
    def test_artin_schreier_root_is_the_least_root(self, desc):
        # y^p - y is additive with kernel F_p, so c has p roots or none
        for c in desc.elements():
            roots = [y for y in desc.elements() if y ** desc.p - y == c]
            found = desc.artin_schreier_root(c.code)
            assert found == (roots[0].code if roots else None), c
            assert len(roots) in (0, desc.p)

    def test_artin_schreier_root_charges_the_whole_scan_first(self):
        # F_p for a prime p past the default budget: refused before any code is tried
        with pytest.raises(BudgetExceededError):
            FiniteFieldDescriptor(10**7 + 19).artin_schreier_root(1)
