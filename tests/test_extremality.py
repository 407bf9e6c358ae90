import itertools
import random
from fractions import Fraction

import pytest

from valfield.additive import AdditivePolynomial
from valfield.composite import CompositeField
from valfield.errors import BudgetExceededError, ValfieldError
from valfield.extremality import (
    INDETERMINATE,
    MAX_ATTAINED,
    Ball,
    ball_count,
    ball_representatives,
    ball_transfer,
    check_vexbarwex,
    composite_extremal_search,
    extremal_search,
    integral_composite_count,
    integral_composite_representatives,
    valuation_multiset,
)
from valfield.finite_field import FFElement, FiniteFieldDescriptor, prime_field
from valfield.laurent import LaurentField
from valfield.parsing import parse_poly
from valfield.polynomials import MultiPoly
from valfield.sampling import Sampler
from valfield.value_group import Value

from oracles import truncated_image


class TestRepresentatives:
    def test_ball_count_matches_enumeration(self, K2):
        ball = Ball(K2.zero(4), 0)
        reps = list(ball_representatives(K2, ball, 4))
        assert len(reps) == ball_count(K2, ball, 4) == 16
        assert len({r.to_text() for r in reps}) == 16

    def test_shifted_ball(self, K2):
        ball = Ball(K2.t_power(-1, 5), 1)
        for r in ball_representatives(K2, ball, 3):
            d = r - K2.t_power(-1, 5)
            assert d.is_zero_to_prec() or d.valuation_floor() >= 1

    @pytest.mark.parametrize(
        "base", [prime_field(2), prime_field(3), FiniteFieldDescriptor(2, 2)], ids=["F2", "F3", "F4"]
    )
    def test_ball_representatives_in_digit_order(self, base):
        # the same sequence as summing the centre with every digit choice,
        # the digits running through base.elements() with t^radius slowest
        K = LaurentField(base, "t", default_prec=8)
        gen = base.element([0, 1]) if base.k > 1 else base.one()
        center = K.from_terms({-1: base.one(), 1: gen, 2: -base.one(), 5: base.one()}, 6)
        radius, upto = 1, 4
        levels = range(radius, upto)
        expected = [
            center.truncate(upto)
            + K.from_terms({e: d for e, d in zip(levels, digits) if not d.is_zero()}, upto)
            for digits in itertools.product(list(base.elements()), repeat=len(levels))
        ]
        assert list(ball_representatives(K, Ball(center, radius), upto)) == expected

    def test_composite_count(self, C2):
        reps = list(integral_composite_representatives(C2))
        assert len(reps) == integral_composite_count(C2)
        for r in reps:
            vr = r.valuation()
            assert vr.value >= Value.rank2(0, 0)


class TestExtremalSearch:
    def test_square_plus_t_attains_one(self, K2):
        # v(X^2 + t) over O: maximum 1 at X = 0 (squares have even
        # valuation, so the t term always survives at level 1)
        f = MultiPoly(1, {(2,): K2.one(8), (0,): K2.t_power(1, 8)})
        res = extremal_search(f, K2, prec=4)
        assert res.verdict == MAX_ATTAINED
        assert res.value.exact
        assert res.value.value == Value.rank1(1)

    def test_t_times_square_indeterminate(self, K2):
        # v(t*X^2) over O is unbounded: at X = 0 only ">= prec" is known
        f = MultiPoly(1, {(2,): K2.t_power(1, 8)})
        res = extremal_search(f, K2, prec=4)
        assert res.verdict == INDETERMINATE
        assert not res.value.exact
        assert res.value.value == Value.rank1(4)

    def test_exact_value_at_cap_is_distrusted(self, K2):
        # a constant of valuation exactly prec is reported as a bound:
        # deeper digits were never enumerated
        f = MultiPoly(1, {(0,): K2.t_power(4, 8)})
        res = extremal_search(f, K2, prec=4)
        assert res.verdict == INDETERMINATE
        assert res.value.value == Value.rank1(4)

    def test_witness_realizes_value(self, K3):
        s = Sampler(17)
        for _ in range(10):
            f = s.multipoly(K3, nvars=1, max_deg=2, max_terms=3, prec=10)
            if all(c.is_zero_to_prec() for c in f.terms.values()):
                continue
            res = extremal_search(f, K3, prec=3)
            vr = f.evaluate(res.witness).valuation()
            if res.value.exact:
                assert vr.to_text() == res.value.to_text()
            else:
                # cap-at-horizon: the reported bound never overstates the
                # witness (an exact value at or beyond the cap is distrusted)
                assert vr.value >= res.value.value

    def test_budget_enforced(self, K2):
        f = MultiPoly(2, {(2, 1): K2.one(20)})
        with pytest.raises(BudgetExceededError):
            extremal_search(f, K2, prec=12, budget=100)


class TestBallTransfer:
    def test_affine_identity(self, K2):
        # g(y) = f(c(y-a)+b) pointwise
        f = MultiPoly(1, {(2,): K2.one(12), (0,): K2.t_power(1, 12)})
        a = K2.t_power(0, 12)
        b = K2.t_power(-1, 12)
        c = K2.t_power(-1, 12)  # v(c) = beta - alpha = -1 - 0
        g = ball_transfer(f, 0, a, -1, b, c)
        for y in ball_representatives(K2, Ball(a, 0), 4):
            x = c * (y - a) + b
            d = f.evaluate((x,)) - g.evaluate((y,))
            assert d.is_zero_to_prec()

    def test_scale_valuation_checked(self, K2):
        f = MultiPoly(1, {(1,): K2.one(8)})
        with pytest.raises(ValfieldError):
            ball_transfer(f, 0, K2.zero(8), -1, K2.zero(8), K2.one(8))

    def test_multiset_agreement_shifted_windows(self, K2):
        # values of f on B_beta(b) equal values of g on B_alpha(a) when
        # the source window is widened by beta - alpha and both sides cap
        # at the same precision
        s = Sampler(23)
        prec = 5
        for _ in range(6):
            f = s.multipoly(K2, nvars=1, max_deg=2, max_terms=3, prec=16)
            if all(c.is_zero_to_prec() for c in f.terms.values()):
                continue
            a = K2.zero(16)
            b = K2.t_power(1, 16)
            c = K2.t_power(1, 16)
            alpha, beta = 0, 1
            g = ball_transfer(f, alpha, a, beta, b, c)
            # digit level j of y maps to level j + (beta - alpha) of x, so
            # the f-side window is deeper by the shift; both sides share
            # one cap below which classes are trustworthy
            m_g = valuation_multiset(g, K2, Ball(a, alpha), prec, cap=prec)
            m_f = valuation_multiset(
                f, K2, Ball(b, beta), prec + (beta - alpha), cap=prec
            )
            assert m_f == m_g

    def test_multiset_caps_exact_values(self, K2):
        f = MultiPoly(1, {(0,): K2.t_power(5, 12)})
        m = valuation_multiset(f, K2, Ball(K2.zero(12), 0), 2, cap=3)
        assert set(m) == {">=3"}

    def test_multiset_keeps_a_bound_below_the_cap(self):
        # t^-2 read at O(t^3) times the representative O(t^3) is only known
        # to be O(t^1): the entry is ">=1", as extremal_search reports
        K = LaurentField(prime_field(2), "t", default_prec=3)
        f = parse_poly("t^-2*X", K)
        m = valuation_multiset(f, K, Ball(K.zero(3), 0), 3, cap=3)
        assert m == ["-1", "-1", "-2", "-2", "-2", "-2", "0", ">=1"]
        assert extremal_search(f, K, prec=3).value.to_text() == ">=1"


def _cross_route_instances():
    """Seeded one-variable polynomials over F_2 and F_3 with coefficient
    valuations in [-2, 2] known to O(t^3)..O(t^8), on balls of radius 0
    and 1 around nonzero centres, at prec 3..5."""
    rng = random.Random(12)
    for n in range(40):
        K = LaurentField(prime_field((2, 3)[n % 2]), "t", default_prec=8)
        q = K.base.q
        terms = {}
        for d in rng.sample(range(3), rng.randint(1, 3)):
            v, order = rng.randint(-2, 2), rng.randint(3, 8)
            digits = {e: rng.randrange(q) for e in range(v + 1, order)}
            terms[(d,)] = K.from_int_terms({**digits, v: rng.randrange(1, q)}, order)
        prec, radius = rng.randint(3, 5), rng.randint(0, 1)
        center = K.from_int_terms({-1: rng.randrange(q), 0: rng.randrange(1, q), 1: rng.randrange(q)}, 8)
        yield MultiPoly(1, terms), K, Ball(center, radius), prec


def test_multiset_maximum_is_the_search_value():
    # the multiset and the search walk the same values under one horizon
    # rule: the largest entry is the search's value, a bound when any
    # entry is a bound
    bounded_below_cap = 0
    for f, K, ball, prec in _cross_route_instances():
        entries = valuation_multiset(f, K, ball, prec, cap=prec)
        values = [Value.from_text(e.removeprefix(">=")) for e in entries]
        bounded = any(e.startswith(">=") for e in entries)
        expected = (">=" if bounded else "") + max(values).to_text()
        assert extremal_search(f, K, ball, prec).value.to_text() == expected, (f, ball, prec)
        bounded_below_cap += any(e.startswith(">=") and e != f">={prec}" for e in entries)
    assert bounded_below_cap > 0


class TestCompositeCheck:
    def test_confirmed_on_plain_poly(self, C2):
        inner = C2.inner
        g = MultiPoly(1, {(2,): inner.one(6), (0,): inner.t_power(1, 6)})
        report = check_vexbarwex(g, C2)
        assert report.conclusion == "Confirmed"

    def test_inconclusive_when_unbounded(self, C2):
        inner = C2.inner
        g = MultiPoly(1, {(2,): inner.t_power(1, 6)})
        report = check_vexbarwex(g, C2)
        assert report.conclusion == "Inconclusive"

    def test_sampled_lifts_never_counterexample(self, C2):
        s = Sampler(29)
        inner = C2.inner
        for _ in range(4):
            f = s.multipoly(inner, nvars=1, max_deg=2, max_terms=2, coeff_lo=0, prec=C2.prec_u)
            if all(c.is_zero_to_prec() for c in f.terms.values()):
                continue
            report = check_vexbarwex(f, C2)
            assert report.conclusion in ("Confirmed", "Inconclusive")

    def test_budget_enforced(self, C2):
        inner = C2.inner
        g = MultiPoly(2, {(1, 1): inner.one(6)})
        with pytest.raises(BudgetExceededError):
            check_vexbarwex(g, C2, budget=10)


def test_enumerations_build_no_ffelement(C2, K2, monkeypatch):
    """The digit enumerations and the searches over them run on codes."""
    K4 = LaurentField(FiniteFieldDescriptor(2, 2), "t", default_prec=8)
    f = MultiPoly(1, {(2,): K4.one(8), (1,): K4.t_power(1, 8), (0,): K4.t_power(1, 8)})
    inner = C2.inner
    g = MultiPoly(1, {(2,): inner.one(6), (0,): inner.t_power(1, 6)}).map_coeffs(C2.from_inner)
    a = AdditivePolynomial(K2, 2, {(0, 1): K2.one(8), (1, 0): K2.t_power(-1, 8)})

    def run():
        return (
            extremal_search(f, K4, prec=3),
            composite_extremal_search(g, C2),
            truncated_image(a, 3, out_low=0),
        )

    expected = run()

    def boom(self, *args):
        raise AssertionError("FFElement built inside an enumeration")

    monkeypatch.setattr(FFElement, "__init__", boom)
    assert run() == expected
