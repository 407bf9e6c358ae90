import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield.errors import ParseError, PrecisionError, ValfieldError
from valfield.finite_field import FiniteFieldDescriptor, prime_field
from valfield.laurent import (
    LaurentField,
    ValuationResult,
    artin_schreier_solve,
    hensel_lift,
    parse_series,
    poly_derivative,
    split_terms,
)
from valfield.polynomials import dense_eval
from valfield.value_group import INFINITY, Value

F2 = prime_field(2)
F3 = prime_field(3)
K2 = LaurentField(F2, "t", default_prec=10)
K3 = LaurentField(F3, "t", default_prec=10)
K4 = LaurentField(FiniteFieldDescriptor(2, 2), "t", default_prec=8)


@st.composite
def series(draw, field=None, lo=-3, exact=False):
    """A series with digits on [lo, N): truncated at O(t^N), or, when
    exact is true, the exact finite sum; exact=None draws either kind."""
    K = field if field is not None else draw(st.sampled_from([K2, K3]))
    if exact is None:
        exact = draw(st.booleans())
    prec = draw(st.integers(lo + 1, K.default_prec))
    terms = {}
    for e in range(lo, prec):
        c = draw(st.integers(0, K.base.p - 1))
        if c:
            terms[e] = K.base.element([c])
    return K.from_terms(terms, math.inf if exact else prec)


@st.composite
def series_pair(draw, lo=-3):
    K = draw(st.sampled_from([K2, K3]))
    return draw(series(field=K, lo=lo, exact=None)), draw(series(field=K, lo=lo, exact=None))


class TestArithmetic:
    @given(series_pair())
    def test_add_commutes_sub_cancels(self, pair):
        a, b = pair
        assert a + b == b + a
        assert ((a + b) - b - a).is_zero_to_prec()

    @given(series_pair())
    def test_mul_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(series_pair())
    def test_valuation_laws(self, pair):
        a, b = pair
        va, vb = a.valuation(), b.valuation()
        vm = (a * b).valuation()
        if va.exact and vb.exact and vm.exact:
            assert vm.value == va.value + vb.value
        vs = (a + b).valuation()
        low = min(va.value, vb.value)
        if vs.exact:
            assert vs.value >= low
        if va.exact and vb.exact and va.value != vb.value and vs.exact:
            assert vs.value == low


class TestExactState:
    @given(series_pair())
    def test_error_orders(self, pair):
        a, b = pair
        assert (a + b).prec == min(a.prec, b.prec)
        exact_product = (a.prec == b.prec == math.inf) or any(
            x.prec == math.inf and x.is_zero_to_prec() for x in pair
        )
        assert ((a * b).prec == math.inf) == exact_product

    @given(series_pair(), st.integers(-3, 10))
    def test_truncating_an_operand_agrees_with_the_exact_result(self, pair, n):
        a, b = pair
        if n > a.prec:
            return
        cut = a.truncate(n)
        assert ((cut + b) - (a + b)).is_zero_to_prec()
        assert ((cut * b) - (a * b)).is_zero_to_prec()

    def test_exact_zero_has_infinite_valuation(self):
        a = K3.from_int_terms({-1: 1, 2: 2}, math.inf)
        for zero in (K3.zero(math.inf), a - a, a * K3.zero(math.inf)):
            assert zero.prec == math.inf
            assert zero.valuation() == ValuationResult.exactly(INFINITY)
        # an exact zero times a truncated zero is still exactly zero
        assert (K3.zero(math.inf) * K3.zero(4)).valuation().value == INFINITY

    def test_inverse_of_an_exact_monomial_is_exact(self):
        a = K3.make(-2, [F3.element([2])], math.inf)
        inv = a.inverse()
        assert inv == K3.make(2, [F3.element([2])], math.inf)
        assert a * inv == K3.one(math.inf)

    def test_inverse_of_an_exact_non_monomial_raises(self):
        with pytest.raises(PrecisionError):
            K3.from_int_terms({0: 1, 1: 1}, math.inf).inverse()

    def test_exact_text_has_no_error_term(self):
        assert K3.from_int_terms({-2: 1, 1: 2}, math.inf).to_text() == "t^-2 + 2*t^1"
        assert K3.zero(math.inf).to_text() == "0"
        assert K3.zero(5).to_text() == "O(t^5)"

    def test_exact_powers_and_frobenius(self):
        a = K2.from_int_terms({-1: 1, 0: 1}, math.inf)
        assert a**4 == a.frobenius(2) == K2.from_int_terms({-4: 1, 0: 1}, math.inf)
        assert a**0 == K2.one(math.inf)


class TestPrecisionRules:
    def test_add_takes_min_error_order(self):
        a = K2.t_power(0, 5)
        b = K2.t_power(1, 8)
        assert (a + b).prec == 5

    def test_mul_shifts_by_valuation(self):
        a = K2.t_power(2, 5)  # v=2, prec 5
        b = K2.t_power(-1, 7)  # v=-1, prec 7
        # min(5 + (-1), 7 + 2) = 4
        assert (a * b).prec == 4

    def test_frobenius_scales_precision_and_exponents(self):
        a = K3.from_int_terms({-1: 2, 1: 1}, 4)
        f = a.frobenius()
        assert f.prec == 12
        assert f.valuation() == ValuationResult.exactly(Value.rank1(-3))

    def test_inverse_precision(self):
        a = K2.from_int_terms({2: 1, 3: 1}, 7)  # v=2, prec 7
        inv = a.inverse()
        assert inv.prec == 7 - 2 * 2
        assert (a * inv - K2.one(3)).is_zero_to_prec()

    @given(series(field=K3, lo=-2))
    def test_inverse_round_trip(self, a):
        if a.is_zero_to_prec() or not a.valuation().exact:
            return
        v = a.valuation().value.first
        if a.prec - 2 * v <= v:
            return
        prod = a * a.inverse()
        assert (prod - K3.one(prod.prec)).is_zero_to_prec()

    def test_zero_is_bounded_not_infinite(self):
        z = K2.zero(6)
        vr = z.valuation()
        assert not vr.exact
        assert vr.value == Value.rank1(6)
        assert vr.value != INFINITY


class TestValuationResult:
    def test_require_exact(self):
        assert K2.t_power(3, 6).valuation().require_exact() == Value.rank1(3)
        with pytest.raises(Exception):
            K2.zero(6).valuation().require_exact()

    def test_text(self):
        assert K2.t_power(3, 6).valuation().to_text() == "3"
        assert K2.zero(6).valuation().to_text() == ">=6"


class TestTextRoundTrip:
    def test_spec_style_form(self):
        K5 = LaurentField(prime_field(5), "t", default_prec=8)
        text = "t^-2 + 3*t^0 + t^5 + O(t^8)"
        s = parse_series(K5, text)
        assert s.to_text() == text

    @given(series())
    def test_print_parse_identity(self, a):
        assert parse_series(a.field, a.to_text()) == a

    def test_extension_coefficients(self):
        x = K4.make(-1, [K4.base.element([1, 1]), K4.base.element([0, 1])], 5)
        assert parse_series(K4, x.to_text()) == x

    def test_parse_errors_reported(self):
        with pytest.raises(ParseError):
            parse_series(K2, "t^^2")
        with pytest.raises(ParseError):
            parse_series(K2, "")

    def test_leading_sign(self):
        assert parse_series(K3, "-t^2").to_text() == "2*t^2 + O(t^10)"
        assert parse_series(K3, "- t^-1 + t").to_text() == "2*t^-1 + t^1 + O(t^10)"

    def test_dangling_sign_rejected(self):
        with pytest.raises(ParseError):
            parse_series(K2, "t^2 +")
        with pytest.raises(ParseError):
            parse_series(K2, "-")

    def test_coefficient_vector_too_long_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_series(K4, "[1,1,1]*t^-1")


class TestSplitTerms:
    def test_signs_brackets_and_exponents(self):
        assert split_terms("-t^-2*X + [1,-1]*t - -X2") == [
            (-1, "t^-2*X"),
            (1, "[1,-1]*t"),
            (1, "X2"),
        ]

    def test_sign_after_star_stays_in_the_term(self):
        assert split_terms("2*-X + (t - 1)") == [(1, "2*-X"), (1, "(t - 1)")]


class TestHensel:
    def test_quadratic_example(self):
        # X^2 + X + t: simple residue root 0 lifts to t + t^2 + O(t^3)-ish
        one = K2.one(10)
        f = [K2.t_power(1, 10), one, one]
        x0 = K2.zero(10)
        root = hensel_lift(f, x0, 8)
        residual = dense_eval(f, root)
        assert residual.is_zero_to_prec() or residual.valuation_floor() >= 8
        expected = K2.from_int_terms({1: 1, 2: 1, 4: 1}, 8)
        assert (root - expected).valuation().value >= Value.rank1(8)

    def test_hensel_condition_enforced(self):
        # X^2 - t has no root; condition v(f(x0)) > 2 v(f'(x0)) fails
        f = [-K2.t_power(1, 10), K2.zero(10), K2.one(10)]
        with pytest.raises((PrecisionError, ValfieldError)):
            hensel_lift(f, K2.zero(10), 8)

    @given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
    @settings(max_examples=30)
    def test_lifted_root_solves(self, digits):
        # X^2 - (1 + a) with a in the ideal always has a root near 1
        a = K3.from_int_terms(
            {e + 1: d for e, d in enumerate(digits) if d}, 10
        )
        if a.is_zero_to_prec():
            return
        one = K3.one(10)
        f = [-(one + a), K3.zero(10), one]
        root = hensel_lift(f, one, 8)
        residual = dense_eval(f, root)
        assert residual.is_zero_to_prec() or residual.valuation_floor() >= 8


class TestArtinSchreier:
    def test_integral_case_frozen(self):
        # x^3 - x = t over F_3: solution -t - t^3 - ... ; frozen value
        # derived by back-substitution
        a = K3.t_power(1, 8)
        x = artin_schreier_solve(a)
        assert x is not None
        assert (x.frobenius() - x - a).is_zero_to_prec()
        assert x.coeff_at(1) == F3.element([2])

    def test_negative_support_needs_divisible_valuation(self):
        # v(a) = -1 not divisible by 3: no solution in F_3((t))
        assert artin_schreier_solve(K3.t_power(-1, 8)) is None

    def test_negative_support_solvable(self):
        # a = x^3 - x for x = t^-1, i.e. t^-3 + 2*t^-1: solvable by peeling
        a = K3.from_int_terms({-3: 1, -1: 2}, 8)
        x = artin_schreier_solve(a)
        assert x is not None
        assert (x.frobenius() - x - a).is_zero_to_prec()

    def test_unsolvable_mixed_support(self):
        # after peeling t^-3 the remainder has valuation -1, not divisible
        # by 3, so there is no solution
        assert artin_schreier_solve(K3.from_int_terms({-3: 1, -1: 1}, 8)) is None

    def test_residue_obstruction(self):
        # x^p - x = c is solvable over F_p only when the residue equation
        # has a root; c = 1 over F_3 does not
        assert artin_schreier_solve(K3.one(8)) is None

    @given(series(field=K2, lo=0))
    @settings(max_examples=40)
    def test_solution_validates(self, a):
        x = artin_schreier_solve(a)
        if x is not None:
            assert (x.frobenius() - x - a).is_zero_to_prec()


def test_poly_derivative():
    one = K2.one(8)
    f = [K2.t_power(1, 8), one, one]  # t + X + X^2
    d = poly_derivative(f)
    # derivative 1 + 2X = 1 over F_2
    assert (dense_eval(d, K2.t_power(1, 8)) - one).is_zero_to_prec()


def test_hensel_lift_of_an_empty_coefficient_list_is_an_error():
    with pytest.raises(ValfieldError):
        hensel_lift([], K2.zero(8), 4)
