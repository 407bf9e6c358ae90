import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield import laurent
from valfield.errors import (
    IndeterminateValuationError,
    ParseError,
    PrecisionError,
    ValfieldError,
)
from valfield.finite_field import FFElement, FiniteFieldDescriptor, _slot_bytes, prime_field
from valfield.laurent import (
    LaurentField,
    ValuationResult,
    _mul_codes,
    artin_schreier_solve,
    hensel_lift,
    poly_derivative,
)
from valfield.parsing import parse_series
from valfield.polynomials import MultiPoly, dense_eval, parse_sum
from valfield.value_group import INFINITY, Value

from oracles import artin_schreier_root_by_scan, fresh_inverse_lift, full_precision_lift

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
        a = K3.from_terms({-2: F3.element([2])}, math.inf)
        inv = a.inverse()
        assert inv == K3.from_terms({2: F3.element([2])}, math.inf)
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

    @given(series(exact=True))
    def test_exact_series_round_trip(self, a):
        # a sum typed without O(t^N) is exact, so a bare sum reads back as itself
        assert a.prec == math.inf
        assert parse_series(a.field, a.to_text()) == a

    def test_extension_coefficients(self):
        x = K4.from_terms({-1: K4.base.element([1, 1]), 0: K4.base.element([0, 1])}, 5)
        assert parse_series(K4, x.to_text()) == x

    def test_parse_errors_reported(self):
        with pytest.raises(ParseError):
            parse_series(K2, "t^^2")
        with pytest.raises(ParseError):
            parse_series(K2, "")

    def test_leading_sign(self):
        assert parse_series(K3, "-t^2").to_text() == "2*t^2"
        assert parse_series(K3, "- t^-1 + t").to_text() == "2*t^-1 + t^1"

    def test_dangling_sign_rejected(self):
        with pytest.raises(ParseError):
            parse_series(K2, "t^2 +")
        with pytest.raises(ParseError):
            parse_series(K2, "-")

    def test_coefficient_vector_too_long_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_series(K4, "[1,1,1]*t^-1")


class TestTermSigns:
    """The sign rules of the one term grammar, at the level of parse_sum."""

    F9 = FiniteFieldDescriptor(3, 2)

    def test_signs_brackets_and_exponents(self):
        e = self.F9.element
        assert parse_sum("-t^-2*X + [1,-1]*t - -X2", e) == {
            (("X", 1), ("t", -2)): e(-1),
            (("t", 1),): e([1, -1]),
            (("X2", 1),): e(1),
        }
        assert parse_sum("t^(-2) + t^+1", e) == {(("t", -2),): e(1), (("t", 1),): e(1)}

    def test_sign_after_star_stays_in_the_term(self):
        e = self.F9.element
        assert parse_sum("2*-X + (t - 1)", e) == {
            (("X", 1),): e(-2),
            (("t", 1),): e(1),
            (): e(-1),
        }

    @pytest.mark.parametrize("text", ["t^2 +", "-", "2*X -", "2*-", "t^-"])
    def test_dangling_sign_is_an_error(self, text):
        with pytest.raises(ParseError, match=f"at position {len(text)}"):
            parse_sum(text, self.F9.element)


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

    def test_a_residue_nonroot_fails_the_condition(self):
        # X^2 + X + 1 over F_2 at 0: v(f(0)) = 0 is not above 2 v(f'(0)) = 0
        one = K2.one(math.inf)
        with pytest.raises(ValfieldError, match="Hensel condition fails"):
            hensel_lift([one, one, one], K2.zero(math.inf), 8)

    def test_an_exactly_zero_derivative_fails_the_condition(self):
        # X^2 - 1 over F_3 at the exact 0: f'(0) = 2 * 0 is exactly 0
        f = [K3.from_int_terms({0: 2}, 8), K3.zero(math.inf), K3.one(8)]
        with pytest.raises(ValfieldError, match="Hensel condition fails"):
            hensel_lift(f, K3.zero(math.inf), 8)

    def test_a_root_known_only_to_the_input_order_cannot_be_lifted(self):
        # X^2 - 1 known to O(t^2) over F_3 at 1: f(1) is zero to O(t^2), so
        # no step can reach O(t^8)
        f = [K3.from_int_terms({0: 2}, 2), K3.zero(math.inf), K3.one(2)]
        with pytest.raises(PrecisionError, match="input precision insufficient"):
            hensel_lift(f, K3.one(math.inf), 8)

    def test_a_derivative_with_no_digit_at_a_step_order_is_indeterminate(self):
        # t^-2 (X^2 - X + t^5) over F_3 from 0: v(f') = -2, and the step
        # from v(f(x)) = 8 to the target 10 reads f'(x) to t^-2, below
        # its first digit
        f = [K3.t_power(3, math.inf), -K3.t_power(-2, math.inf), K3.t_power(-2, math.inf)]
        with pytest.raises(IndeterminateValuationError, match="indeterminate valuation"):
            hensel_lift(f, K3.zero(math.inf), 10)

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


def _lift_instances():
    """Seeded f = (X - r)(X - s) over F_2, F_3 and F_16 at prec 8..256,
    with s - r of valuation d in 0..3, so v(f'(r)) = d, and x0 the digits
    of r below d + 1 or d + 2 as a point known to the coefficients' order."""
    rng = random.Random(18)
    bases = [prime_field(2), prime_field(3), FiniteFieldDescriptor(2, 4, (1, 1, 0, 0, 1))]
    for n in range(120):
        base = bases[n % 3]
        prec = (8, 16, 32, 64, 128, 256)[n // 3 % 6]
        d = n // 18 % 4
        K = LaurentField(base, "t", prec)
        r = K.make(0, [rng.randrange(base.q) for _ in range(prec)], prec)
        unit = K.make(0, [rng.randrange(1, base.q)] + [rng.randrange(base.q) for _ in range(prec)], prec)
        s = r + unit.shift(d)
        k = d + 1 + rng.randrange(2)
        x0 = K.make(r.low, r.coeffs[:max(0, k - r.low)], prec)
        yield [r * s, -(r + s), K.one(prec)], x0, prec - rng.randrange(3), r, d


def test_lift_agrees_with_the_full_precision_route():
    """hensel_lift against the full-precision Newton route: where that
    route lifts, the same root digits at an order no higher than its own
    and at least target - v(f'); where it runs out of precision, the fast
    route either does too or returns a root that the true one confirms."""
    counts = {"same": 0, "beyond": 0}
    for f, x0, target, r, d in _lift_instances():
        try:
            ref = full_precision_lift(f, x0, target)
        except PrecisionError:
            ref = None
        try:
            y = hensel_lift(f, x0, target)
        except PrecisionError:
            assert ref is None
            continue
        if ref is not None:
            assert y.prec <= ref.prec and ref.truncate(y.prec) == y
            counts["same"] += 1
        else:
            counts["beyond"] += 1
        assert y.prec >= target - d
        assert (y - r).valuation_floor() >= y.prec
    assert min(counts.values()) >= 40, counts


def _scaled_lift_instances():
    """Seeded f = t^e (X - r)(X - s) over F_2, F_3, F_5, F_9 and F_16 for e
    in -3..1, with v(r) in -2..0 and v(s - r) = d in 0..3, so v(f'(r)) =
    d + e, and x0 the exact point of r's digits below an order that meets
    the Hensel condition, lifted to about the order f(x0) is known to.
    Where v(f') < 0 the unit of f'(x) changes from step to step, so a
    carried inverse keeps only the digits the two derivatives share."""
    rng = random.Random(35)
    bases = [prime_field(2), prime_field(3), prime_field(5), FiniteFieldDescriptor(3, 2),
             FiniteFieldDescriptor(2, 4, (1, 1, 0, 0, 1))]
    for n in range(300):
        base = bases[n % 5]
        e, vr, d = n // 5 % 5 - 3, n // 25 % 3 - 2, n // 75 % 4
        prec = rng.choice((16, 32, 64))
        K = LaurentField(base, "t", prec)
        r = K.make(vr, [rng.randrange(1, base.q)] + [rng.randrange(base.q) for _ in range(prec - vr)], prec)
        unit = K.make(0, [rng.randrange(1, base.q)] + [rng.randrange(base.q) for _ in range(prec)], prec)
        s = r + unit.shift(d)
        k = d + max(e, 0) + 1 + rng.randrange(2)
        x0 = K.make(r.low, r.coeffs[:k - r.low], math.inf)
        f = [c.shift(e) for c in (r * s, -(r + s), K.one(prec))]
        yield f, x0, dense_eval(f, x0).prec - rng.randrange(3 + 2 * abs(d + e)), r, d + e


def _outcome(lift, f, x0, target):
    """The lifted root's text, or the type and text of the error raised."""
    try:
        return lift(f, x0, target).to_text()
    except ValfieldError as error:
        return type(error), str(error)


def test_scaled_lifts_agree_with_the_full_precision_route():
    """hensel_lift against the full-precision Newton route on scaled f and
    roots of negative valuation.  Where both lift they agree to the lower
    of their orders: the full-precision route, dividing by an inexact
    point, may lose a digit the fast one keeps.  The fast route fails only
    where the full-precision one does, or, when v(f') < 0, where f'(x) has
    no digit at a step's order; a root it returns agrees with the true one
    to its order, at least target - v(f').  Its text, or its error, is
    that of the route that inverts f'(x) afresh at every step."""
    counts = {"same": 0, "beyond": 0, "indeterminate": 0}
    for f, x0, target, r, b in _scaled_lift_instances():
        assert _outcome(hensel_lift, f, x0, target) == _outcome(fresh_inverse_lift, f, x0, target)
        try:
            ref = full_precision_lift(f, x0, target)
        except PrecisionError:
            ref = None
        try:
            y = hensel_lift(f, x0, target)
        except PrecisionError:
            assert ref is None
            continue
        except IndeterminateValuationError:
            assert b < 0
            counts["indeterminate"] += 1
            continue
        if ref is not None:
            assert (y - ref).valuation_floor() >= min(y.prec, ref.prec)
            counts["same"] += 1
        else:
            counts["beyond"] += 1
        assert y.prec >= target - b
        assert (y - r).valuation_floor() >= y.prec
    assert min(counts.values()) >= 20, counts


def test_the_lift_extends_one_inverse_from_step_to_step(monkeypatch):
    """A prec-256 lift over F_3 with v(f') = 0 inverts f'(x) once to the
    target and then extends the carried inverse: the Newton-inverse
    helper makes at most 2 (steps + log2 256) products, where a fresh
    inverse per step makes about 2 log2 of each step's order."""
    rng = random.Random(3)
    K = LaurentField(F3, "t", 256)
    digits = [rng.randrange(3), 1 + rng.randrange(2)] + [rng.randrange(3) for _ in range(254)]
    r = K.make(0, digits, 256)
    s = r + K.make(0, [1 + rng.randrange(2)] + [rng.randrange(3) for _ in range(255)], 256)
    x0 = K.make(0, digits[:1], 256)
    inside, counts = [False], Counter()
    newton_inverse, mul_codes = laurent._newton_inverse, laurent._mul_codes

    def counted_newton_inverse(*args):
        counts["steps"] += 1
        inside[0] = True
        try:
            return newton_inverse(*args)
        finally:
            inside[0] = False

    def counted_mul_codes(*args):
        counts["products"] += inside[0]
        return mul_codes(*args)

    monkeypatch.setattr(laurent, "_newton_inverse", counted_newton_inverse)
    monkeypatch.setattr(laurent, "_mul_codes", counted_mul_codes)
    y = hensel_lift([r * s, -(r + s), K.one(256)], x0, 256)
    assert y.prec >= 256 and (y - r).valuation_floor() >= 256
    assert counts["steps"] >= 6
    assert counts["products"] <= 2 * (counts["steps"] + 8), counts


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

    @pytest.mark.parametrize("k", [2, 4], ids=["F4", "F16"])
    def test_residue_root(self, k):
        # 1 has trace 0 over F_4 and F_16, so y^2 - y = 1 has a root there
        # and the residue step adds it: no root over F_2, one here
        K = LaurentField(FiniteFieldDescriptor(2, k), "t", default_prec=8)
        a = K.from_int_terms({0: 1, 1: 1}, 8)
        x = artin_schreier_solve(a)
        assert x is not None and x.low == 0
        residual = x.frobenius() - x - a
        assert residual.prec >= a.prec and residual.is_zero_to_prec()

    @given(series(field=K2, lo=0))
    @settings(max_examples=40)
    def test_solution_validates(self, a):
        x = artin_schreier_solve(a)
        if x is not None:
            assert (x.frobenius() - x - a).is_zero_to_prec()

    @pytest.mark.parametrize("base", [F2, F3, FiniteFieldDescriptor(2, 4)], ids=["F2", "F3", "F16"])
    def test_positive_valuation_matches_the_hensel_route(self, base):
        # for v(c) > 0 the closed form -(c + c^p + ...) is the root that
        # Newton's iteration from 0 on X^p - X - c reaches: seeded inputs
        # truncated at O(t^8)..O(t^256), sparse and dense, and inputs that
        # are zero to their order
        rng = random.Random(base.q)
        for prec in (8, 9, 31, 64, 100, 256):
            K = LaurentField(base, "t", default_prec=prec)
            one = K.one(prec)
            for lo in (1, 2, 3, prec // 2, prec - 1, prec):
                for density in (1, 4):
                    c = K.from_int_terms(
                        {e: base.digits(rng.randrange(base.q)) for e in range(lo, prec) if rng.randrange(density) == 0},
                        prec,
                    )
                    poly = [-c, -one] + [K.zero(prec)] * (base.p - 2) + [one]
                    expected = hensel_lift(poly, K.zero(prec), prec)
                    assert artin_schreier_solve(c).to_text() == expected.to_text(), c.to_text()

    def test_exact_input(self):
        # a root that is a finite sum stays exact; an infinite one needs an
        # error order
        x = artin_schreier_solve(K2.from_int_terms({-2: 1, -1: 1}, math.inf))
        assert x == K2.t_power(-1, math.inf)
        with pytest.raises(PrecisionError):
            artin_schreier_solve(K2.t_power(1, math.inf))


def test_poly_derivative():
    one = K2.one(8)
    f = [K2.t_power(1, 8), one, one]  # t + X + X^2
    d = poly_derivative(f)
    # derivative 1 + 2X = 1 over F_2
    assert (dense_eval(d, K2.t_power(1, 8)) - one).is_zero_to_prec()


def test_hensel_lift_of_an_empty_coefficient_list_is_an_error():
    with pytest.raises(ValfieldError):
        hensel_lift([], K2.zero(8), 4)


# -- packed kernels against a schoolbook FFElement reference ----------------
#
# A reference series is (low, [FFElement, ...], prec), normalized as
# LaurentField.make normalizes; the reference arithmetic below is the plain
# per-coefficient algorithm, and results are compared as full
# (low, codes, prec) triples.

KERNEL_FIELDS = [
    prime_field(2), prime_field(3), prime_field(5),
    FiniteFieldDescriptor(2, 2), FiniteFieldDescriptor(3, 2), FiniteFieldDescriptor(2, 4),
    # product slots of 2 and 4 bytes (F_131), of 8 (F_65537), of 8 and
    # wider than 8 (F_{2^31-1}), and of 1 and 2 bytes with one-byte codes
    # (F_256), and odd p with codes wider than one byte (F_{3^6})
    prime_field(131), prime_field(65537), prime_field(2**31 - 1), FiniteFieldDescriptor(2, 8),
    FiniteFieldDescriptor(3, 6),
]


def _code(x):
    return sum(c * x.desc.p**j for j, c in enumerate(x.coeffs))


def _ref_norm(low, cs, prec):
    cs = list(cs)
    while cs and cs[0].is_zero():
        cs.pop(0)
        low += 1
    if low + len(cs) > prec:
        cs = cs[: max(0, prec - low)]
    while cs and cs[-1].is_zero():
        cs.pop()
    return (low, cs, prec) if cs else (prec, [], prec)


def _ref_codes(r):
    low, cs, prec = r
    return (low, tuple(_code(c) for c in cs), prec)


def _triple(s):
    return (s.low, s.coeffs, s.prec)


def _ref_floor(r):
    return r[0] if r[1] else r[2]


def _ref_add(base, a, b, negate=False):
    """a + b, or a - b when negate, coefficient by coefficient."""
    terms = {a[0] + i: c for i, c in enumerate(a[1])}
    for i, c in enumerate(b[1]):
        x = terms.get(b[0] + i, base.zero())
        terms[b[0] + i] = x - c if negate else x + c
    low = min(terms, default=0)
    cs = [terms.get(e, base.zero()) for e in range(low, max(terms, default=low - 1) + 1)]
    return _ref_norm(low, cs, min(a[2], b[2]))


def _ref_mul(base, a, b):
    prec = min(a[2] + _ref_floor(b), b[2] + _ref_floor(a))
    if not a[1] or not b[1]:
        return _ref_norm(prec, [], prec)
    low = a[0] + b[0]
    n = min(len(a[1]) + len(b[1]) - 1, max(0, prec - low))
    cs = [base.zero()] * n
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1][: max(0, n - i)]):
            cs[i + j] = cs[i + j] + x * y
    return _ref_norm(low, cs, prec)


def _ref_inverse(base, a):
    low, cs, prec = a
    if not cs:
        raise IndeterminateValuationError("zero")
    if prec == math.inf:
        if len(cs) > 1:
            raise PrecisionError("exact non-monomial")
        return _ref_norm(-low, [cs[0].inverse()], math.inf)
    inv = [cs[0].inverse()]
    for m in range(1, prec - low):
        s = base.zero()
        for j in range(1, min(m, len(cs) - 1) + 1):
            s = s + cs[j] * inv[m - j]
        inv.append(-(s * inv[0]))
    return _ref_norm(-low, inv, prec - 2 * low)


def _ref_frobenius(base, a, times):
    q = base.p**times
    low, cs, prec = a
    out = [base.zero()] * max(0, (len(cs) - 1) * q + 1)
    for i, c in enumerate(cs):
        out[i * q] = c.frobenius(times)
    return _ref_norm(low * q, out, prec * q)


def _ref_repeated(base, a, m):
    r = a
    for _ in range(m - 1):
        r = _ref_mul(base, r, a)
    return r


def _ref_pow(base, a, e):
    if e < 0:
        return _ref_pow(base, _ref_inverse(base, a), -e)
    if e == 0:
        return _ref_norm(0, [base.one()], a[2])
    times = 0
    while e % base.p == 0:
        e //= base.p
        times += 1
    return _ref_frobenius(base, _ref_repeated(base, a, e), times)


@st.composite
def kernel_series(draw, max_len=300, field=None):
    """(LaurentSeries, reference) over one of KERNEL_FIELDS: up to max_len
    stored digits from a negative or positive low, runs of zeros included,
    truncated at or past the last digit or exact."""
    base = field if field is not None else draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(0, max_len))
    low = draw(st.integers(-6, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = rng.choice([0.2, 0.9, 1.0])
    cs = [
        base.element(base.digits(rng.randrange(1, base.q))) if rng.random() < density else base.zero()
        for _ in range(n)
    ]
    exact = draw(st.booleans())
    prec = math.inf if exact else low + n + draw(st.integers(0, 4))
    K = LaurentField(base, "t", default_prec=16)
    s = K.from_terms({low + i: c for i, c in enumerate(cs) if not c.is_zero()}, prec)
    return s, _ref_norm(low, cs, prec)


KERNEL_IDS = ["F2", "F3", "F5", "F4", "F9", "F16", "F131", "F65537", "F2147483647", "F256", "F729"]


@pytest.mark.parametrize("base", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_artin_schreier_root_matches_the_scan_over_every_kernel_field(base):
    """The packed echelon's least root of y^p - y = c against the scan of
    every code in order: every c over fields of at most 256 elements, and
    otherwise the images of 24 seeded y, whose least root the scan meets
    within q codes, and 8 seeded codes.  A code outside the image makes
    the scan run through all q codes, so over F_{2^31 - 1}, where only 0
    is an image, the seeded codes are left out."""
    q, p = base.q, base.p
    if q <= 256:
        codes = list(range(q))
    else:
        rng = random.Random(f"artin-schreier:{q}")
        ys = [rng.randrange(q) for _ in range(24)]
        codes = [base.add_codes(base.frobenius_code(y), base.neg_code(y)) for y in ys]
        if q <= 65537:
            codes += [rng.randrange(q) for _ in range(8)]
    answers = [base.artin_schreier_root(c) for c in codes]
    assert answers == [artin_schreier_root_by_scan(base, c) for c in codes]
    # the least root has constant coordinate 0
    assert all(y is None or y % p == 0 for y in answers)


@pytest.mark.parametrize("base", KERNEL_FIELDS, ids=KERNEL_IDS)
class TestPackedKernels:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_mul_matches_schoolbook(self, base, data):
        a, ra = data.draw(kernel_series(field=base))
        b, rb = data.draw(kernel_series(field=base))
        assert _triple(a) == _ref_codes(ra)
        assert _triple(a * b) == _ref_codes(_ref_mul(base, ra, rb))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_add_matches_schoolbook(self, base, data):
        a, ra = data.draw(kernel_series(field=base))
        b, rb = data.draw(kernel_series(field=base))
        assert _triple(a + b) == _ref_codes(_ref_add(base, ra, rb))
        assert _triple(b + a) == _ref_codes(_ref_add(base, rb, ra))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_sub_matches_schoolbook(self, base, data):
        a, ra = data.draw(kernel_series(field=base))
        b, rb = data.draw(kernel_series(field=base))
        assert _triple(a - b) == _ref_codes(_ref_add(base, ra, rb, negate=True))
        assert _triple(a - a) == _ref_codes(_ref_add(base, ra, ra, negate=True))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_neg_matches_schoolbook(self, base, data):
        a, ra = data.draw(kernel_series(field=base))
        low, cs, prec = ra
        assert _triple(-a) == _ref_codes((low, [-c for c in cs], prec))

    @given(data=st.data(), code=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_scale_matches_schoolbook(self, base, data, code):
        a, ra = data.draw(kernel_series(field=base))
        c = base.element(base.digits(code % base.q))
        low, cs, prec = ra
        assert _triple(a.scale(c)) == _ref_codes(_ref_norm(low, [x * c for x in cs], prec))
        assert a.scale(1) is a

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_inverse_matches_schoolbook(self, base, data):
        a, ra = data.draw(kernel_series(field=base))
        try:
            expected = _ref_codes(_ref_inverse(base, ra))
        except (IndeterminateValuationError, PrecisionError) as exc:
            with pytest.raises(type(exc)):
                a.inverse()
            return
        assert _triple(a.inverse()) == expected

    @given(data=st.data(), times=st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_frobenius_matches_schoolbook(self, base, data, times):
        # the result stores (len - 1) * p^times + 1 codes, so for p > 100
        # a series has only as many digits as keep that near 10^4
        max_len = 300 if base.p < 100 else 1 + 10**4 // base.p**times
        a, ra = data.draw(kernel_series(max_len=max_len, field=base))
        assert _triple(a.frobenius(times)) == _ref_codes(_ref_frobenius(base, ra, times))

    @given(data=st.data(), e=st.integers(-3, 12))
    @settings(max_examples=15, deadline=None)
    def test_pow_matches_schoolbook(self, base, data, e):
        a, ra = data.draw(kernel_series(max_len=24, field=base))
        try:
            expected = _ref_codes(_ref_pow(base, ra, e))
        except (IndeterminateValuationError, PrecisionError) as exc:
            with pytest.raises(type(exc)):
                a**e
            return
        power = a**e
        assert _triple(power) == expected
        if e > 0:
            # repeated multiplication knows less, and agrees as far as it knows
            naive = _ref_repeated(base, ra, e)
            assert naive[2] <= power.prec
            assert _triple(power.truncate(naive[2])) == _ref_codes(naive)


# (p, length): a full product of two length-digit series over F_p needs
# slots of this many bytes (9: wider than 8, one int call per slot)
SLOT_WIDTH_PAIRS = {1: (3, 63), 2: (131, 3), 4: (131, 300), 8: (65537, 50), 9: (2**31 - 1, 40)}


def test_mul_codes_slot_widths():
    """``_mul_codes`` at every slot width against a plain integer
    convolution mod p, on seeded digits and on all digits p - 1, whose
    product fills each slot to its bound."""
    for width, (p, length) in SLOT_WIDTH_PAIRS.items():
        base = prime_field(p)
        assert _slot_bytes(length * (p - 1) ** 2) == width
        rng = random.Random(f"slots:{p}:{length}")
        seeded = ([rng.randrange(p) for _ in range(length)], [rng.randrange(p) for _ in range(length)])
        for a, b in (seeded, ([p - 1] * length,) * 2):
            full = [0] * (2 * length - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    full[i + j] += x * y
            expected = [c % p for c in full] + [0, 0]
            for n in (1, length, 2 * length - 1, 2 * length + 1):
                assert _mul_codes(base, a, b, n) == expected[:n], (width, p, length, n)


# (p, k, length): a full product of two length-digit series over F_{p^k}
# needs coordinate slots of this many bytes
EXTENSION_SLOT_WIDTH_PAIRS = {1: (2, 4, 16), 2: (2, 4, 64), 4: (5, 4, 1024)}


def _convolve_and_reduce(base, a, b):
    """The codes of a(t) * b(t) by an integer convolution of digit vectors,
    then each coordinate vector reduced mod p and by the modulus."""
    p, k, modulus = base.p, base.k, base.modulus
    cols_a = list(zip(*map(base.digits, a)))
    rev_b = [col[::-1] for col in zip(*map(base.digits, b))]
    codes = []
    for i in range(len(a) + len(b) - 1):
        # the pairs a[j] * b[i - j], j in lo .. hi - 1, coordinate by coordinate
        lo, hi = max(0, i - len(b) + 1), min(i, len(a) - 1) + 1
        at = len(b) - 1 - i
        vec = [0] * (2 * k - 1)
        for r in range(k):
            for s in range(k):
                vec[r + s] += sum(map(operator.mul, cols_a[r][lo:hi], rev_b[s][at + lo:at + hi]))
        vec = [c % p for c in vec]
        for d in range(2 * k - 2, k - 1, -1):  # x^d = x^(d-k) * (x^k - modulus)
            top, vec[d] = vec[d], 0
            for e, m in enumerate(modulus[:k]):
                vec[d - k + e] = (vec[d - k + e] - top * m) % p
        codes.append(sum(c * p**e for e, c in enumerate(vec[:k])))
    return codes


def test_mul_codes_extension_slot_widths():
    """``_mul_codes`` over F_{p^k} at coordinate slots of 1, 2 and 4 bytes
    against ``_convolve_and_reduce``, on seeded codes and on all codes
    q - 1, whose digits p - 1 fill each slot to its bound."""
    for width, (p, k, length) in EXTENSION_SLOT_WIDTH_PAIRS.items():
        base = FiniteFieldDescriptor(p, k)
        assert _slot_bytes(length * k * (p - 1) ** 2) == width
        rng = random.Random(f"slots:{p}^{k}:{length}")
        seeded = ([rng.randrange(base.q) for _ in range(length)], [rng.randrange(base.q) for _ in range(length)])
        for a, b in (seeded, ([base.q - 1] * length,) * 2):
            expected = _convolve_and_reduce(base, a, b) + [0, 0]
            for n in (1, length, 2 * length - 1, 2 * length + 1):
                assert _mul_codes(base, a, b, n) == expected[:n], (width, p, k, length, n)


class TestFrobeniusPowering:
    def test_pth_power_keeps_relative_precision(self):
        a = parse_series(K3, "t^-1 + O(t^2)")
        assert a**9 == parse_series(K3, "t^-9 + O(t^18)")
        assert a**18 == parse_series(K3, "t^-18 + O(t^9)")

    def test_polynomial_evaluation_uses_frobenius(self):
        x = parse_series(K3, "t^-1 + O(t^2)")
        assert MultiPoly(1, {((0, 9),): K3.one(math.inf)}).evaluate([x]) == parse_series(K3, "t^-9 + O(t^18)")


@pytest.mark.parametrize("base", [prime_field(3), FiniteFieldDescriptor(2, 4)], ids=["F3", "F16"])
def test_no_per_coefficient_ffelement_arithmetic(base, monkeypatch):
    """The series kernels never fall back to FFElement + or *."""
    prec = 256
    K = LaurentField(base, "t", default_prec=prec)
    rng = random.Random(6)

    def digits(lo, hi):
        return K.from_int_terms({e: base.digits(rng.randrange(base.q)) for e in range(lo, hi)}, prec)

    a = K.t_power(-3, prec) + digits(-2, prec)
    b = K.one(prec) + digits(1, prec)
    r = digits(1, prec)
    s = K.one(prec) + digits(1, prec)
    f = [r * s, -(r + s), K.one(prec)]  # roots r and s, with s - r a unit
    x0 = K.t_power(-3, prec) + digits(-2, prec)
    as_input = x0.frobenius() - x0

    def boom(self, other):
        raise AssertionError("FFElement arithmetic inside a series kernel")

    monkeypatch.setattr(FFElement, "__add__", boom)
    monkeypatch.setattr(FFElement, "__mul__", boom)
    assert (a * b).prec == prec - 3
    assert (b * b.inverse() - K.one(prec)).is_zero_to_prec()
    assert a.frobenius(2).prec == prec * base.p**2
    root = hensel_lift(f, K.zero(prec), prec)
    assert (root - r).is_zero_to_prec()
    y = artin_schreier_solve(as_input)
    assert y is not None and (y.frobenius() - y - as_input).is_zero_to_prec()


@pytest.mark.parametrize("base", [FiniteFieldDescriptor(2, 4), FiniteFieldDescriptor(3, 2)], ids=["F16", "F9"])
def test_fold_calls_do_not_grow_with_length(base, monkeypatch):
    """Product, sum, negation and inverse over F_{p^k} reduce packed
    columns: the scalar ``fold`` calls they make are as many at length 256
    as at length 16."""
    fold = FiniteFieldDescriptor.fold
    counts = []
    for prec in (16, 256):
        desc = FiniteFieldDescriptor(base.p, base.k)  # no inverse remembered yet
        K = LaurentField(desc, "t", default_prec=prec)
        rng = random.Random(f"fold:{prec}")
        a = K.from_int_terms({e: desc.digits(rng.randrange(desc.q)) for e in range(-2, prec)}, prec)
        b = K.one(prec) + K.from_int_terms({e: desc.digits(rng.randrange(desc.q)) for e in range(1, prec)}, prec)
        calls = []
        # patched after the inputs are built: building an element folds it
        monkeypatch.setattr(FiniteFieldDescriptor, "fold", lambda self, vec: calls.append(1) or fold(self, vec))
        assert len((a * b).coeffs) > prec // 2
        assert (a + b).prec == (-a).prec == prec
        assert (b * b.inverse() - K.one(prec)).is_zero_to_prec()
        monkeypatch.setattr(FiniteFieldDescriptor, "fold", fold)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
