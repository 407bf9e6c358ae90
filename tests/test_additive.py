import inspect
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from valfield.additive import (
    AdditivePolynomial,
    _digit_generators,
    _find_clash,
    _fp_coordinates,
    _fp_insert,
    additive_from_multipoly,
    alpha_bound,
    Decomposition,
    decompose,
    decomposition_image_agrees,
    oap_solve,
    valuation_independent,
    windowed_image_span,
)
from valfield.errors import BudgetExceededError, PrecisionError, ValfieldError
from valfield.extremality import Ball, extremal_search
from valfield.finite_field import FiniteFieldDescriptor, prime_field
from valfield import cli
from valfield.laurent import LaurentField
from valfield.parsing import parse_series
from valfield.polynomials import MultiPoly
from valfield.sampling import Sampler
from valfield.value_group import Value

from oracles import _fp_echelon, brute_force_max, decomposition_image, truncated_image


class TestConversion:
    def test_valid_p_polynomial(self, K2):
        mp = MultiPoly(
            2,
            {
                ((0, 4),): K2.t_power(1, 12),
                ((1, 2),): K2.one(12),
                (): K2.t_power(-3, 12),
            },
        )
        pp = additive_from_multipoly(mp, K2)
        assert pp.constant is not None
        assert set(pp.additive.terms) == {(0, 2), (1, 1)}

    def test_non_p_power_exponent_rejected(self, K2):
        mp = MultiPoly(1, {((0, 3),): K2.one(12)})
        with pytest.raises(ValfieldError):
            additive_from_multipoly(mp, K2)

    def test_mixed_monomial_rejected(self, K2):
        mp = MultiPoly(2, {((0, 1), (1, 1)): K2.one(12)})
        with pytest.raises(ValfieldError):
            additive_from_multipoly(mp, K2)

    def test_round_trip_through_multipoly(self, K2):
        f = AdditivePolynomial(
            K2, 2, {(0, 1): K2.one(12), (1, 2): K2.t_power(1, 12)}
        )
        pp = additive_from_multipoly(f.to_multipoly(), K2)
        assert pp.additive.terms.keys() == f.terms.keys()


class TestDecompose:
    def test_known_shape(self, K2):
        # X1^2 + t*X2^4 raises X1^2 over the basis 1, t of K | K^4 and
        # ends with leaders t^0, t^1, t^2: distinct classes mod 4
        f = AdditivePolynomial(
            K2, 2, {(0, 1): K2.one(16), (1, 2): K2.t_power(1, 16)}
        )
        dec = decompose(f)
        assert dec.nu == 2
        assert [g.leading_coefficient().low for g in dec.polys] == [0, 1, 2]

    def test_expansion_shifts_error_orders_with_the_coefficients(self, K3):
        # nu = 2; raising 2*X1^3 + t^-2*X1 over the basis 1, t, t^2 turns
        # the X1^3 coefficient 2 + O(t^6) into 2*t^6 + O(t^12) in the
        # summand for t^2: the expansion is exact, so nothing is cut at
        # O(t^6) and no working order is claimed
        f = AdditivePolynomial(K3, 2, {
            (0, 1): K3.from_terms({0: 2}, 6),
            (0, 0): K3.from_terms({-2: 1}, 6),
            (1, 2): K3.from_terms({1: 2}, 6),
        })
        dec = decompose(f)
        assert dec.nu == 2 and len(dec.polys) == 4
        assert dec.working_prec is None
        assert "(2*t^6 + O(t^12))*X^9 + (t^0 + O(t^8))*X^3" in [g.to_text() for g in dec.polys]

    def test_merging_same_class(self, K3):
        # X1^3 + t^3*X2^3: leaders t^0 and t^3 share the class 0 mod 3,
        # so the second summand merges away (t^3 = (t)^3 * 1)
        f = AdditivePolynomial(
            K3, 2, {(0, 1): K3.one(16), (1, 1): K3.t_power(3, 16)}
        )
        dec = decompose(f)
        lows = [g.leading_coefficient().low % 3 for g in dec.polys]
        assert len(set(lows)) == len(lows)

    def test_sections_reproduce_f(self, K2, K3):
        s = Sampler(3)
        for K in (K2, K3):
            for trial in range(15):
                n = 1 + trial % 2
                f = s.additive(K, n, max_k=2, coeff_lo=-2, coeff_hi=2, prec=16)
                if f.is_zero():
                    continue
                dec = decompose(f)
                ys = [s.series(K, -2, 16) for _ in dec.polys]
                lhs = f.evaluate(dec.pullback(ys))
                rhs = dec.sum_evaluate(ys)
                assert (lhs - rhs).is_zero_to_prec()

    def test_same_class_leaders_with_lower_terms_stabilize(self, K2):
        # t*X^4 + t*X and t*X^4 + t*X^2 share a leader class; their
        # difference t*X^2 + t*X has height 1 and absorbs the other summand
        t = K2.t_power(1, 16)
        f = AdditivePolynomial(K2, 2, {(0, 2): t, (0, 0): t, (1, 2): t, (1, 1): t})
        dec = decompose(f)
        assert dec.nu == 1
        assert [g.to_text() for g in dec.polys] == ["(t^1 + O(t^16))*X^2 + (t^1 + O(t^16))*X^1"]

    def test_linear_summand_absorbs_same_class_leaders(self, K3):
        # the old merge loop ran out of its 10000 steps here (65 s); the
        # linear summand 2*X is onto K, so every other summand reduces to 0
        t = K3.t_power(1, 16)
        f = AdditivePolynomial(
            K3, 2, {(0, 2): t, (0, 0): K3.from_terms({0: 2}, 16), (1, 1): t, (1, 0): t}
        )
        dec = decompose(f)
        assert dec.nu == 0
        assert [g.to_text() for g in dec.polys] == ["(2*t^0 + O(t^16))*X^1"]

    def test_no_step_budget(self):
        assert list(inspect.signature(decompose).parameters) == ["f"]

    def test_leader_classes_distinct(self, K2, K3):
        s = Sampler(4)
        for K in (K2, K3):
            p = K.base.p
            for trial in range(15):
                f = s.additive(K, 2, max_k=2, prec=16)
                if f.is_zero():
                    continue
                dec = decompose(f)
                classes = [
                    g.leading_coefficient().low % (p**dec.nu) for g in dec.polys
                ]
                assert len(set(classes)) == len(classes)
                assert len(dec.polys) <= p**dec.nu

    def test_leaders_valuation_independent(self, K3):
        s = Sampler(5)
        f = AdditivePolynomial(
            K3, 2, {(0, 1): K3.one(16), (1, 1): K3.t_power(1, 16)}
        )
        dec = decompose(f)
        samples = [
            [s.series(K3, -1, 6) for _ in dec.polys] for _ in range(40)
        ]
        assert valuation_independent(dec.leading_coefficients, dec.nu, samples)

    def test_cancelling_leaders_are_not_valuation_independent(self, K3):
        # over F_3, 1 * 1 + 2 * 1 is exactly 0, above min(v(1), v(2)) = 0
        one, two = K3.one(math.inf), K3.from_int_terms({0: 2}, math.inf)
        assert not valuation_independent([one, one], 0, [[one, two]])


class TestImages:
    def test_span_matches_enumeration(self, K2, K3):
        # the span route is the fast oracle; pin it to plain enumeration
        # on the same input window and output window: each enumerated
        # image is a group of p^rank elements, and the two images are
        # equal exactly when the spans have one rank and W_f's rows add no
        # pivot to W_d's echelon
        s = Sampler(42)
        for K in (K2, K3):
            p = K.base.p
            for trial in range(6):
                n = 1 + trial % 2
                f = s.additive(K, n, max_k=1, coeff_lo=-1, coeff_hi=1, prec=16)
                if f.is_zero():
                    continue
                dec = decompose(f)
                for in_low in (0, -1):
                    img_f = truncated_image(f, 4, in_low=in_low, out_low=0)
                    img_d = decomposition_image(dec, 4, in_low=in_low, out_low=0)
                    span_f, span_d = (
                        windowed_image_span(
                            [g for *_, g in _digit_generators(h, 4, in_low)], K.base, 4, 0
                        )
                        for h in ([f.restrict(i) for i in range(f.nvars)], dec.polys)
                    )
                    assert (len(img_f), len(img_d)) == (p ** len(span_f), p ** len(span_d))
                    inside = all(
                        _fp_insert(span_d, row, len(row), p) is None
                        for row in span_f.values()
                    )
                    assert (img_f == img_d) == (inside and len(span_f) == len(span_d))

    @pytest.mark.parametrize(
        "p, lin", [(2, 1), (3, -1)], ids=["X^2+X over F2", "X^3-X over F3"]
    )
    def test_agreement_with_an_exactly_zero_generator(self, p, lin):
        # with exact coefficients, the generator at lambda = 1, j = 0 is
        # the exact zero series, whose low is inf
        K = LaurentField(prime_field(p), "t", default_prec=12)
        one = K.one(math.inf)
        f = AdditivePolynomial(K, 1, {(0, 1): one, (0, 0): one.scale(lin)})
        assert f.evaluate([one]).coeffs == ()
        assert decomposition_image_agrees(f, decompose(f), 4)

    def test_image_agreement_on_samples(self, K2, K3):
        s = Sampler(42)
        for K in (K2, K3):
            for trial in range(6):
                n = 1 + trial % 2
                f = s.additive(K, n, max_k=1, coeff_lo=-1, coeff_hi=1, prec=16)
                if f.is_zero():
                    continue
                dec = decompose(f)
                assert decomposition_image_agrees(f, dec, 4)

    def test_agreement_with_negative_leader(self, K3):
        # the summand with a t^-1 leading coefficient folds into monomial
        # summands whose leaders all sit at nonnegative levels; image
        # equality then needs inputs below the unit window on the
        # decomposed side, which the saturating comparison supplies
        f = AdditivePolynomial(
            K3,
            2,
            {
                (0, 0): K3.t_power(1, 16).scale(K3.base.element([2])),
                (0, 1): K3.t_power(-1, 16).scale(K3.base.element([2])),
                (1, 0): K3.one(16),
            },
        )
        dec = decompose(f)
        assert decomposition_image_agrees(f, dec, 4)
        assert decomposition_image_agrees(f, dec, 4, out_low=-2)

    def test_agreement_waits_for_the_slower_image(self, K2):
        # f = t^-1*X1^4 + t*X2^2 + t^2*X2 is onto K (f(t^-2, t^-5 + t^-2) = 1);
        # its windowed span grows until input level -5, while the single
        # linear summand's is full from level -1
        f = AdditivePolynomial(
            K2,
            2,
            {(0, 2): K2.t_power(-1, 68), (1, 1): K2.t_power(1, 68), (1, 0): K2.t_power(2, 68)},
        )
        dec = decompose(f)
        assert [g.to_text() for g in dec.polys] == ["(t^2 + O(t^68))*X^1"]
        assert decomposition_image_agrees(f, dec, 4)

    def test_disagreement_when_a_summand_is_dropped(self, K2):
        f = AdditivePolynomial(
            K2, 2, {(0, 1): K2.one(16), (1, 2): K2.t_power(1, 16)}
        )
        dec = decompose(f)
        assert decomposition_image_agrees(f, dec, 4)
        for j in range(len(dec.polys)):
            partial = Decomposition(
                dec.nu,
                dec.polys[:j] + dec.polys[j + 1:],
                dec.sections[:j] + dec.sections[j + 1:],
                dec.nvars,
                dec.field,
            )
            assert not decomposition_image_agrees(f, partial, 4)

    def test_image_of_frobenius_is_squares(self, K2):
        f = AdditivePolynomial(K2, 1, {(0, 1): K2.one(16)})
        img = truncated_image(f, 4)
        # squares of O have even-exponent support mod t^4: 0, 1, t^2, 1+t^2
        assert len(img) == 4


class TestAlphaBound:
    def test_spec_shape_example(self, K2):
        # h = t*X1^4 + X2^2 + t^-3: alpha = min(0, vc - vb_i, ...) - grain
        f = AdditivePolynomial(
            K2, 2, {(0, 2): K2.t_power(1, 16), (1, 1): K2.one(16)}
        )
        dec = decompose(f)
        assert alpha_bound(dec, K2.t_power(-3, 16)) == Value.rank1(-6)

    def test_no_constant_drops_clause(self, K2):
        f = AdditivePolynomial(K2, 1, {(0, 1): K2.one(16)})
        dec = decompose(f)
        assert alpha_bound(dec) == Value.rank1(-1)


class TestOapSolve:
    def test_artin_schreier_target_unreachable(self, K3):
        # f = X^3 - X, z = t^-1: v(z) = -1 not divisible by 3, best is -1
        f = AdditivePolynomial(
            K3, 1, {(0, 1): K3.one(16), (0, 0): -K3.one(16)}
        )
        res = oap_solve(f, K3.t_power(-1, 16), prec=6)
        assert res.value.exact
        assert res.value.value == Value.rank1(-1)

    def test_square_target_hit(self, K2):
        f = AdditivePolynomial(K2, 1, {(0, 1): K2.one(16)})
        res = oap_solve(f, K2.t_power(2, 16), prec=6)
        # t^2 = (t)^2 is in the image: residual is zero to the cap
        assert not res.value.exact
        assert res.value.value == Value.rank1(6)

    def test_odd_exponent_target(self, K2):
        f = AdditivePolynomial(K2, 1, {(0, 1): K2.one(16)})
        res = oap_solve(f, K2.t_power(3, 16), prec=6)
        assert res.value.exact
        assert res.value.value == Value.rank1(3)

    def test_zero_polynomial(self, K2):
        f = AdditivePolynomial(K2, 1, {})
        res = oap_solve(f, K2.t_power(2, 16), prec=6)
        assert res.value.exact
        assert res.value.value == Value.rank1(2)

    def test_best_input_realizes_value(self, K2, K3):
        s = Sampler(11)
        for K in (K2, K3):
            for trial in range(8):
                f = s.additive(K, 1, max_k=1, coeff_lo=-1, coeff_hi=1, prec=20)
                if f.is_zero():
                    continue
                z = s.series(K, -2, 20)
                res = oap_solve(f, z, prec=6)
                achieved = (z - f.evaluate(res.best_input)).valuation()
                if res.value.exact:
                    assert achieved.exact
                    assert achieved.value == res.value.value
                else:
                    assert achieved.value >= res.value.value

    def test_agrees_with_brute_force(self, K2):
        s = Sampler(13)
        for trial in range(6):
            f = s.additive(K2, 1, max_k=1, coeff_lo=-1, coeff_hi=1, prec=20)
            if f.is_zero():
                continue
            z = s.series(K2, -1, 20)
            res = oap_solve(f, z, prec=5)
            alpha = int(res.alpha.first)
            residual = MultiPoly.constant(1, z) - f.to_multipoly()
            _, oracle = brute_force_max(
                residual, K2, Ball(K2.zero(20), alpha), prec=5
            )
            assert oracle.to_text() == res.value.to_text()

    def test_generator_precision_thresholds(self, K3):
        # g(lambda t^j) for f = t^-1*X^9 is known to 16 + 9j, so a
        # combination through a low level is known to less than one through
        # high levels only; a single echelon at the lowest precision would
        # answer >=-2 here
        f = AdditivePolynomial(K3, 1, {(0, 2): K3.t_power(-1, 16)})
        z = parse_series(
            K3,
            "2*t^-2 + 2*t^-1 + 2 + 2*t^4 + t^5 + 2*t^6 + t^8 + 2*t^9"
            " + 2*t^10 + t^12 + t^13 + t^14 + O(t^16)",
        )
        assert oap_solve(f, z, prec=4).value.to_text() == "-2"

    def test_known_order_drops_to_a_generator_precision(self, K2):
        # f = (1 + O(t^4))*X^2: the generator g(1) = 1 + O(t^4) cancels z's
        # constant term, so z - f(1 + t) is known to O(t^4) only.  Without
        # g(1) the constant survives (exact 0); a per-bound solve reaches
        # ">=4" only at the bound 4, below top = 5
        f = AdditivePolynomial(K2, 1, {(0, 1): K2.one(4)})
        z = parse_series(K2, "1 + t^2 + O(t^12)")
        assert _per_bound_value(f, z, 5) == ">=4"
        assert oap_solve(f, z, prec=5).value.to_text() == ">=4"

    def test_no_enumeration_budget(self):
        import inspect

        assert "budget" not in inspect.signature(oap_solve).parameters


def _clamped(vr, cap: int) -> str:
    """Acceptance 5's convention: everything at or past cap is '>=cap'."""
    if vr.exact and vr.value < Value.rank1(cap):
        return vr.to_text()
    return f">={cap}"


def test_digit_tree_is_a_third_route_to_the_optimal_approximation():
    # on acceptance 5's Sampler family, the digit tree's maximum of
    # v(z - f(a)) over the alpha ball, clamped at 4, is oap_solve's value:
    # the tree decides subtrees from residue forms and shares no code with
    # the span solver or with the enumerating oracle
    s = Sampler(2014)
    fields = [LaurentField(prime_field(p), "t", default_prec=16) for p in (2, 3)]
    done = 0
    while done < 100:
        K = fields[done % 2]
        f = s.additive(K, 1, max_k=1, coeff_lo=-1, coeff_hi=1, prec=16)
        if f.is_zero():
            continue
        z = s.series(K, -2, 16)
        res = oap_solve(f, z, prec=4)
        residual = MultiPoly.constant(1, z) - f.to_multipoly()
        ball = Ball(K.zero(16), int(res.alpha.first))
        tree = extremal_search(residual, K, ball, prec=4)
        assert _clamped(tree.value, 4) == _clamped(res.value, 4), (f, z)
        done += 1


def _shows(residual, claimed, cap: int) -> bool:
    """Whether a witness residual shows the claimed value: the same under
    clamping, and, when the residual is known only to some order, that
    order reaches the claimed bound (O(t^-12) does not show '>=3')."""
    if _clamped(residual, cap) != _clamped(claimed, cap):
        return False
    return residual.exact or residual.value >= min(claimed.value, Value.rank1(cap))


# (field, solver precision, largest oracle enumeration, instances)
_TWO_VARIABLE_PLAN = [
    (LaurentField(prime_field(2), "t", 16), 3, 1024, 12),
    (LaurentField(prime_field(3), "t", 16), 1, 729, 12),
    (LaurentField(FiniteFieldDescriptor(2, 2, (1, 1, 1)), "t", 16), 1, 4096, 6),
]


def _two_variable_instance(rng, K):
    """f = a*X1^(p^h1) + b*t*X2^(p^h2) + lower terms, h_i <= 2, and a target
    of valuation >= -1.  The leaders t^0 and t^1 differ mod p, so they
    never clash and the decomposition only expands."""
    nonzero = [c for c in K.base.elements() if not c.is_zero()]
    terms = {}
    for i in range(2):
        h = rng.randint(1, 2)
        terms[(i, h)] = K.t_power(i, 16).scale(rng.choice(nonzero))
        for k in range(h):
            if rng.random() < 0.5:
                terms[(i, k)] = K.t_power(rng.randint(i, i + 1), 16).scale(rng.choice(nonzero))
    z = K.from_terms(
        {e: rng.choice(nonzero) for e in range(-1, 16) if rng.random() < 0.6}, 16
    )
    return AdditivePolynomial(K, 2, terms), z


def test_two_variable_oap_matches_brute_force():
    """oap_solve against the exhaustive oracle on two-variable, height <= 2
    instances over F_2, F_3 and F_4.  Instances whose alpha ball holds more
    oracle candidates than the field's cap are skipped before the oracle
    runs.  Where the oracle is inconclusive (some candidate known to too
    little precision) it only bounds the maximum from below."""
    rng = random.Random(2026)
    conclusive = 0
    for K, prec, cap, want in _TWO_VARIABLE_PLAN:
        kept = 0
        for _ in range(200):
            if kept == want:
                break
            f, z = _two_variable_instance(rng, K)
            res = oap_solve(f, z, prec=prec)
            alpha = int(res.alpha.first)
            if K.base.q ** (2 * (prec - alpha)) > cap:
                continue
            kept += 1
            dec = decompose(f)
            reached = (z - dec.sum_evaluate(res.best_decomposed)).valuation()
            assert _shows(reached, res.value, prec)
            pulled = (z - f.evaluate(res.best_input)).valuation()
            assert _shows(pulled, res.value, prec)
            residual = MultiPoly.constant(2, z) - f.to_multipoly()
            _, oracle = brute_force_max(residual, K, Ball(K.zero(16), alpha), prec=prec)
            if oracle.exact:
                conclusive += 1
                assert _clamped(oracle, prec) == _clamped(res.value, prec)
            else:
                assert res.value.value >= oracle.value
        assert kept == want
    # at least the F_2 instances with an exact maximum are decided
    assert conclusive >= 5


_SWEEP_FIELDS = [plan[0] for plan in _TWO_VARIABLE_PLAN]


def test_decompose_sweep():
    """Seeded 1-3 variable inputs of height <= 2 over F_2, F_3 and F_4:
    decompose ends, its leaders fall in distinct classes mod p^nu, its
    sections reproduce f, and the image oracle never answers False.  The
    oracle may raise PrecisionError where the window needs inputs below
    what the coefficients' error order O(t^16) supports."""
    s = Sampler(2027)
    agreed = 0
    for n in range(450):
        K = _SWEEP_FIELDS[n % 3]
        f = s.additive(K, 1 + (n // 3) % 3, max_k=2, prec=16)
        if f.is_zero():
            continue
        dec = decompose(f)
        classes = [g.leading_coefficient().low % K.base.p**dec.nu for g in dec.polys]
        assert len(set(classes)) == len(classes)
        ys = [s.series(K, -2, 16) for _ in dec.polys]
        assert (f.evaluate(dec.pullback(ys)) - dec.sum_evaluate(ys)).is_zero_to_prec()
        try:
            assert decomposition_image_agrees(f, dec, 4)
            agreed += 1
        except PrecisionError:
            pass
    assert agreed >= 400  # of 428 nonzero inputs


SRC = Path(__file__).resolve().parent.parent / "src"


def test_decompose_of_exact_coefficients_terminates():
    """(1 + t)*X1 + (1 + t^2)*X2 over F_3 with exact coefficients: the
    reduction of one linear summand by the other never reaches an exact
    zero, so the rewritten summand is capped at the default error order and
    drops out there; the survivor is f's own, never rewritten, and stays
    exact.  Run in a child process, which is killed if it outlives the
    timeout."""
    code = (
        "import math\n"
        "from valfield.additive import AdditivePolynomial, decompose\n"
        "from valfield.finite_field import prime_field\n"
        "from valfield.laurent import LaurentField\n"
        "K = LaurentField(prime_field(3), 't', 16)\n"
        "f = AdditivePolynomial(K, 2, {\n"
        "    (0, 0): K.from_int_terms({0: 1, 1: 1}, math.inf),\n"
        "    (1, 0): K.from_int_terms({0: 1, 2: 1}, math.inf),\n"
        "})\n"
        "dec = decompose(f)\n"
        "print(dec.nu, [g.to_text() for g in dec.polys])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 ['(t^0 + t^1)*X^1']"


def _oap_cli(poly: str, target: str, prec: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "valfield", "oap", "--field", "F(2)((t))",
         "--poly", poly, "--target", target, "--prec", str(prec)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_span_matrix_is_capped_by_the_default_budget():
    """X against t^-1 at prec 100000 needs about 10^5 generator rows of
    2 * 10^5 entries each; the solver charges rows * (columns + rows) to
    the default budget before building a row and exits 4.  At prec 2048,
    X^2 + t*X against t^-3 + t needs 8.4 * 10^6 entries, under the budget.
    Each run is a child process, killed if it outlives the timeout."""
    proc = _oap_cli("X", "t^-1", 100000)
    assert proc.returncode == 4, proc.stderr
    assert "budget" in proc.stderr
    proc = _oap_cli("X^2 + t*X", "t^-3 + t", 2048)
    assert proc.returncode == 0, proc.stderr
    assert "max v(target - f(a)): -3" in proc.stdout


def test_span_matrix_is_charged_before_any_generator_is_built(monkeypatch):
    """At prec 5000, X^2 + t*X against t^-3 + t would build about 10^4
    generators of up to 5000 coefficients; the bound from f's terms
    refuses it first."""
    def boom(*args, **kwargs):
        raise AssertionError("a generator was built before the budget charge")

    monkeypatch.setattr("valfield.additive._digit_generators", boom)
    K = LaurentField(prime_field(2), "t", default_prec=5000)
    f = AdditivePolynomial(K, 1, {(0, 1): K.one(5000), (0, 0): K.t_power(1, 5000)})
    with pytest.raises(BudgetExceededError):
        oap_solve(f, parse_series(K, "t^-3 + t"), 5000)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["--poly", "X^1099511627776 + t*X"],
    ["--poly", "X1^1099511627776 + X2^1099511627776 + t*X1", "--prec", "3"],
])
def test_image_oracle_charges_a_generator_before_building_it(argv):
    """At input level -1 the generator of X^(2^40) + t*X spans 2^40
    coefficients, from t^(-2^40) up to t^0; the image oracle charges that
    width before the sum is built and exits 4, where the sum ended in a
    MemoryError.  Each run is a child process under a 2 GB address-space
    limit."""
    proc = subprocess.run(
        [sys.executable, "-m", "valfield", "decompose", "--field", "F(2)((t))", *argv, "--oracle"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 4, proc.stderr
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exact_two_variable_witnesses_show_the_value():
    """Sampler(7) two-variable, height <= 2 inputs with exact coefficients
    over F_2, F_3 and F_4, targets from valuation -2, -1 and -3: the
    pulled-back witness is exact, so z - f(best_input) is known to z's own
    error order and shows the value under clamping.  With coefficients at
    O(t^16) the same family fails on 2, 4 and 7 instances."""
    checked = 0
    for lo in (-2, -1, -3):
        s = Sampler(7)
        for K in _SWEEP_FIELDS:
            for _ in range(50):
                f = s.additive(K, 2, max_k=2, prec=math.inf)
                z = s.series(K, lo, 16)
                if f.is_zero():
                    continue
                res = oap_solve(f, z, prec=4)
                assert all(a.prec == math.inf for a in res.best_input)
                residual = z - f.evaluate(res.best_input)
                assert residual.prec == z.prec
                assert _clamped(residual.valuation(), 4) == _clamped(res.value, 4)
                checked += 1
    assert checked == 435


def test_cli_witnesses_show_the_value():
    """The same 435 instances typed as text through ``oap --prec 16``: a
    typed sum is exact, so the CLI reads f back as itself, and each printed
    witness, read back and substituted, leaves a residual known to z's own
    order whose valuation is the printed value, or at least the printed
    bound."""
    checked = 0
    for lo in (-2, -1, -3):
        s = Sampler(7)
        for K in _SWEEP_FIELDS:
            for _ in range(50):
                f = s.additive(K, 2, max_k=2, prec=math.inf)
                z = s.series(K, lo, 16)
                if f.is_zero():
                    continue
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main([
                        "oap", "--field", K.to_text(), "--poly", f.to_text(),
                        "--target", z.to_text(), "--prec", "16", "--json", "-",
                    ])
                text = out.getvalue()
                report = json.loads(text[text.index("{"):])
                args = [parse_series(K, a) for a in report["bestInput"]]
                # text that names X1 alone reads as one variable
                read = f if len(args) == f.nvars else f.restrict(0)
                assert code == 0 and f"additive polynomial: {read.to_text()}\n" in text
                args += [K.zero(math.inf)] * (f.nvars - len(args))
                residual = z - f.evaluate(args)
                assert residual.prec == z.prec
                value = report["value"]
                if value.startswith(">="):
                    assert residual.valuation_floor() >= int(value[2:])
                else:
                    assert residual.valuation().to_text() == value
                checked += 1
    assert checked == 435


def test_cli_oracle_never_disagrees_on_sampler7():
    """The same 435 instances through ``oap --prec 4 --oracle`` at a budget
    of 10^5: the digit tree over the ball that holds the witness never
    contradicts the solver.  It agrees on 398; the rest are inconclusive
    (a summand the clash loop rewrote at O(t^4) shows only a bound), or a
    deep ball exceeds the budget."""
    codes = Counter()
    for lo in (-2, -1, -3):
        s = Sampler(7)
        for K in _SWEEP_FIELDS:
            for _ in range(50):
                f = s.additive(K, 2, max_k=2, prec=math.inf)
                z = s.series(K, lo, 16)
                if f.is_zero():
                    continue
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main([
                        "oap", "--field", K.to_text(), "--poly", f.to_text(),
                        "--target", z.to_text(), "--prec", "4", "--oracle",
                        "--budget", "100000",
                    ])
                assert code in (0, 3, 4), out.getvalue()
                if code == 0:
                    assert "(agrees)\n" in out.getvalue()
                codes[code] += 1
    assert sum(codes.values()) == 435 and codes[0] >= 398, codes


def test_cli_alpha_reads_back_the_target_oap_prints_on_sampler7():
    """The same 435 instances: ``alpha --poly "f + (target)"`` at the same
    --prec reads the target that ``oap`` prints, error term included, as
    f's constant, and prints the same ``alpha:`` line."""
    checked = 0
    for lo in (-2, -1, -3):
        s = Sampler(7)
        for K in _SWEEP_FIELDS:
            for _ in range(50):
                f = s.additive(K, 2, max_k=2, prec=math.inf)
                z = s.series(K, lo, 16)
                if f.is_zero():
                    continue
                base = ["--field", K.to_text(), "--prec", "4"]
                printed = []
                for argv in (["oap", "--poly", f.to_text(), "--target", z.to_text()],
                             ["alpha", "--poly", f"{f.to_text()} + ({z.to_text()})"]):
                    out = io.StringIO()
                    with redirect_stdout(out):
                        assert cli.main([*argv, *base]) == 0
                    printed.append(out.getvalue())
                assert f"target: {z.to_text()}\n" in printed[0] and " + O(t^16)" in z.to_text()
                alpha = next(line for line in printed[0].splitlines() if line.startswith("alpha: "))
                assert f"\n{alpha}\n" in printed[1]
                checked += 1
    assert checked == 435


def _per_bound_value(f, z, prec) -> str:
    """The per-bound span solver, kept as a reference for oap_solve's one
    pass.  For each bound B = min(generator precision, z.prec, prec), z is
    read below B and reduced against the RREF of the generators known to at
    least B; the best pass wins, an exact answer beating ">= B" on a tie."""
    K = f.field
    dec = decompose(f)
    alpha = int(alpha_bound(dec, z).first)
    gens = [g for *_, g in _digit_generators(dec.polys, prec, alpha, min_width=1)]
    top = min(z.prec, prec)
    low = min([top, z.valuation_floor()] + [g.valuation_floor() for g in gens])
    p, k = K.base.p, K.base.k
    best = None
    for bound in {min(g.prec, top) for g in gens} | {top}:
        vec = _fp_coordinates(z, low, bound)
        used = [_fp_coordinates(g, low, bound) for g in gens if g.prec >= bound]
        for row in _fp_echelon(used, p):
            c = vec[next(i for i, x in enumerate(row) if x)]
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        key = (bound, False) if lead is None else (low + lead // k, True)
        best = key if best is None else max(best, key)
    return Value.rank1(best[0]).to_text() if best[1] else f">={best[0]}"


def test_decompose_without_a_clash_claims_no_working_order():
    """Seeded exact two- and three-variable inputs over F_2, F_3 and F_4
    whose summands' leaders lie in distinct classes, so the clash loop
    rewrites nothing: the expansion to the common height (9 of the 50
    inputs have mixed heights) is exact, so the decomposition claims no
    working order and every summand coefficient is exact."""
    s = Sampler(31)
    checked = expanded = 0
    for n in range(120):
        K = _SWEEP_FIELDS[n % 3]
        f = s.additive(K, 2 + n % 2, max_k=2, prec=math.inf)
        if f.is_zero():
            continue
        summands = [f.restrict(i) for i in range(f.nvars) if not f.restrict(i).is_zero()]
        if _find_clash([(g, []) for g in summands], K.base.p) is not None:
            continue
        dec = decompose(f)
        assert dec.working_prec is None
        assert all(c.prec == math.inf for g in dec.polys for c in g.terms.values())
        checked += 1
        expanded += len(dec.polys) > len(summands)
    assert (checked, expanded) == (50, 9)


def test_one_pass_matches_per_bound_reference_on_sampler7():
    """The Sampler(7) two-variable, height <= 2 family over F_2, F_3 and
    F_4, coefficients at O(t^16) and exact, targets from valuation -2, -1
    and -3: oap_solve's value text equals the per-bound reference's."""
    checked = 0
    for coeff_prec in (16, math.inf):
        for lo in (-2, -1, -3):
            s = Sampler(7)
            for K in _SWEEP_FIELDS:
                for _ in range(50):
                    f = s.additive(K, 2, max_k=2, prec=coeff_prec)
                    z = s.series(K, lo, 16)
                    if f.is_zero():
                        continue
                    assert oap_solve(f, z, prec=4).value.to_text() == _per_bound_value(f, z, 4)
                    checked += 1
    assert checked == 870


def test_one_pass_matches_per_bound_reference_on_mixed_precisions():
    """Seeded 1-3 variable inputs over F_2, F_3, F_4 and F_5, solver
    precisions 2..10: f has exact coefficients cut to O(t^4), O(t^6),
    O(t^8) or O(t^16), so that its generators fall into several precision
    classes, and z is the exact polynomial's value at a random input plus
    noise from valuation -3..12, so that most walks go deep enough for
    those classes to matter.  oap_solve's value text equals the per-bound
    reference's on every nonzero input."""
    fields = _SWEEP_FIELDS + [LaurentField(prime_field(5), "t", 16)]
    rng = random.Random(2031)
    s = Sampler(2031)
    checked = 0
    for n in range(300):
        K = fields[n % 4]
        nvars = 1 + (n // 4) % 3
        exact = s.additive(K, nvars, max_k=2 if K.base.q < 5 else 1, prec=math.inf)
        if exact.is_zero():
            continue
        order = rng.choice([4, 6, 8, 16])
        f = AdditivePolynomial(K, nvars, {key: c.truncate(order) for key, c in exact.terms.items()})
        z = exact.evaluate([s.series(K, 0, 16) for _ in range(nvars)])
        z = z + s.series(K, rng.randint(-3, 12), 16)
        prec = rng.randint(2, 10)
        assert oap_solve(f, z, prec=prec).value.to_text() == _per_bound_value(f, z, prec)
        checked += 1
    assert checked == 282


def test_digit_generators_match_evaluation_at_the_monomial():
    """Each single-digit generator, built by shift and scale, has the same
    (low, coeffs, prec) as g_i evaluated at the exact monomial lambda * t^j
    by series products.  Seeded one- and two-variable inputs of height <= 2
    over F_2, F_3, F_4 and F_9; coefficients of up to four terms from
    valuation -3, exact or at O(t^6), O(t^10) or O(t^16); input levels
    from -4 and min_width 0 and 1.  Over F_4 and F_9 the basis element
    lambda != 1 scales every coefficient by lambda^(p^k)."""
    fields = _SWEEP_FIELDS + [LaurentField(FiniteFieldDescriptor(3, 2), "t", 16)]
    rng = random.Random(2026)
    checked = {K.base.q: 0 for K in fields}
    for n in range(240):
        K = fields[n % 4]
        nonzero = [c for c in K.base.elements() if not c.is_zero()]
        order = rng.choice([math.inf, 6, 10, 16])
        nvars = 1 + n % 2
        terms = {}
        for i in range(nvars):
            for k in range(3):
                if rng.random() < 0.6:
                    low = rng.randint(-3, 2)
                    coeffs = {e: rng.choice(nonzero) for e in range(low, low + rng.randint(1, 4))}
                    terms[(i, k)] = K.from_terms(coeffs, order)
        f = AdditivePolynomial(K, nvars, terms)
        for min_width in (0, 1):
            summands = [f.restrict(i) for i in range(nvars)]
            gens = _digit_generators(summands, rng.randint(1, 8), rng.randint(-4, 1), min_width)
            for i, j, lam, gen in gens:
                want = summands[i].evaluate([K.from_terms({j: lam}, math.inf)])
                assert (gen.low, gen.coeffs, gen.prec) == (want.low, want.coeffs, want.prec)
                checked[K.base.q] += 1
    assert all(count >= 200 for count in checked.values()), checked
