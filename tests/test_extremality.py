import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from valfield.additive import AdditivePolynomial
from valfield.composite import CompositeField
from valfield.errors import DEFAULT_BUDGET, BudgetExceededError, PrecisionError, ValfieldError
from valfield.extremality import (
    INDETERMINATE,
    MAX_ATTAINED,
    Ball,
    _DigitTree,
    _RingDigits,
    _expansion,
    _powers,
    _reduced,
    ball_transfer,
    check_vexbarwex,
    composite_extremal_search,
    extremal_search,
    search_max,
    valuation_multiset,
)
from valfield.finite_field import FFElement, FiniteFieldDescriptor, prime_field
from valfield.laurent import LaurentField
from valfield.parsing import parse_poly
from valfield.polynomials import MultiPoly
from valfield.sampling import Sampler
from valfield.value_group import Value

from oracles import (
    ball_count,
    ball_representatives,
    ball_walk,
    brute_force_max,
    enumerated_composite_max,
    enumerated_multiset,
    integral_composite_count,
    integral_composite_representatives,
    sparse,
    truncated_image,
)


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
        f = MultiPoly(1, {((0, 2),): K2.one(8), (): K2.t_power(1, 8)})
        res = extremal_search(f, K2, prec=4)
        assert res.verdict == MAX_ATTAINED
        assert res.value.exact
        assert res.value.value == Value.rank1(1)

    def test_t_times_square_indeterminate(self, K2):
        # v(t*X^2) over O is unbounded: at X = 0 only ">= prec" is known
        f = MultiPoly(1, {((0, 2),): K2.t_power(1, 8)})
        res = extremal_search(f, K2, prec=4)
        assert res.verdict == INDETERMINATE
        assert not res.value.exact
        assert res.value.value == Value.rank1(4)

    def test_exact_value_at_cap_is_distrusted(self, K2):
        # a constant of valuation exactly prec is reported as a bound:
        # deeper digits were never enumerated
        f = MultiPoly(1, {(): K2.t_power(4, 8)})
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
        # the enumerating oracle charges its 2^24 tuples at once; the digit
        # tree decides the same input in a few nodes of 4 digits each
        f = MultiPoly(2, {((0, 2), (1, 1)): K2.one(20)})
        with pytest.raises(BudgetExceededError):
            brute_force_max(f, K2, Ball(K2.zero(12), 0), prec=12, budget=100)
        assert extremal_search(f, K2, prec=12, budget=100).value.to_text() == ">=12"

    def test_tree_budget_charges_each_node(self, K3):
        # one node of the tree has 3^5 = 243 digits, more than the budget
        f = MultiPoly(5, {((0, 1), (1, 1)): K3.one(8), ((2, 1), (3, 1), (4, 1)): K3.t_power(1, 8)})
        with pytest.raises(BudgetExceededError):
            extremal_search(f, K3, prec=4, budget=100)
        assert extremal_search(f, K3, prec=4, budget=243 * 4).value.to_text() == ">=4"

    def test_tree_budget_charges_the_shift_table(self, K2):
        # X^(2^20 - 1) has 3^20 pairs of binomial terms that are odd
        f = MultiPoly(1, {((0, 2**20 - 1),): K2.one(8)})
        with pytest.raises(BudgetExceededError):
            extremal_search(f, K2, prec=4)

    def test_tree_budget_charges_the_witness(self, K3):
        # the radius reaches the cap, so no node has a free digit to charge
        # q^n for; the witness's 2000 series are charged before the walk
        f = MultiPoly(2000, {((1999, 1),): K3.one(math.inf)})
        ball = Ball(K3.one(math.inf), 2)
        with pytest.raises(BudgetExceededError):
            extremal_search(f, K3, ball, prec=2, budget=1000)
        result = extremal_search(f, K3, ball, prec=2, budget=2100)
        assert len(result.witness) == 2000 and result.value.to_text() == "0"

    def test_deep_witness_is_rebuilt_in_linear_time(self):
        # the ball v >= -400000 puts some 400000 digits on the witness's branch;
        # prepending each ancestor made the rebuild quadratic in the depth.
        # A child process, killed if it outlives 20 s.
        proc = subprocess.run(
            [sys.executable, "-m", "valfield", "extremal", "--field", "F(2)((t))",
             "--poly", "X^2+t", "--ball", "v>=-400000 around 0", "--prec", "2"],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        assert "max value: 1\nverdict: MaxAttained\nwitness a_1: O(t^2)" in proc.stdout

    def test_centre_known_below_the_radius_is_inconclusive(self, K2):
        f = MultiPoly(1, {((0, 1),): K2.one(8)})
        with pytest.raises(PrecisionError):
            extremal_search(f, K2, Ball(K2.t_power(1, 3), 5), prec=4)


class TestBallTransfer:
    def test_affine_identity(self, K2):
        # g(y) = f(c(y-a)+b) pointwise
        f = MultiPoly(1, {((0, 2),): K2.one(12), (): K2.t_power(1, 12)})
        a = K2.t_power(0, 12)
        b = K2.t_power(-1, 12)
        c = K2.t_power(-1, 12)  # v(c) = beta - alpha = -1 - 0
        g = ball_transfer(f, 0, a, -1, b, c)
        for y in ball_representatives(K2, Ball(a, 0), 4):
            x = c * (y - a) + b
            d = f.evaluate((x,)) - g.evaluate((y,))
            assert d.is_zero_to_prec()

    def test_scale_valuation_checked(self, K2):
        f = MultiPoly(1, {((0, 1),): K2.one(8)})
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

    @pytest.mark.parametrize("instance", ["decided", "undecided", "past-the-horizon"])
    def test_multiset_budget_is_charged_in_full(self, instance):
        # the whole charge of a multiset whose window reaches past its cap,
        # so the tree expands nodes past the cap: the shift table, the
        # classes and the digits of every expanded node.  The first two are
        # f's side of a transfer with beta - alpha = 1, drawn from a seeded
        # family: the classes of B_1(b) mod t^4 read at cap 3, charging in
        # the first also the digits of a depth-4 node with a residue form,
        # and in the second those of depth-3 nodes without one.  In the
        # third, f = t + t^-3*(X1 - 1)*X2 + O(t^-2)*X1*X2, and at X1 = 1,
        # X2 = 0 mod t^2 the coefficient of Y2 is zero to its order: that
        # node at depth 2 has no residue form at the horizon, and its nine
        # classes read ">=1" at depth 3, where a leaf at the horizon would
        # read ">=0"
        K = LaurentField(prime_field(3), "t", default_prec=8)
        S, inf = K.from_int_terms, math.inf
        if instance == "decided":
            f = MultiPoly(1, {((0, 3),): S({0: 2}, 4), ((0, 1),): S({-2: 2, 0: 2}, inf),
                              (): S({0: 2, 1: 1, 2: 1}, inf)})
            ball, upto, cap = Ball(S({1: 1, 2: 1}, inf), 1), 4, 3
            charge, expected = 46, {"-1": 18, "0": 6, "1": 2, ">=2": 1}
        elif instance == "undecided":
            f = MultiPoly(1, {((0, 3),): S({1: 2, 3: 1}, 5), ((0, 1),): S({0: 1}, 3),
                              (): S({0: 1, 1: 1}, 2)})
            ball, upto, cap = Ball(S({0: 2, 1: 1}, inf), 1), 4, 3
            charge, expected = 50, {"1": 18, ">=2": 9}
        else:
            f = MultiPoly(2, {(): S({1: 1}, inf), ((0, 1), (1, 1)): S({-3: 1}, -2),
                              ((1, 1),): S({-3: 2}, inf)})
            ball, upto, cap = Ball(K.zero(inf), 0), 3, 2
            charge = 1255
            expected = {"-1": 36, "-2": 108, "-3": 324, ">=-1": 54, ">=-2": 162, ">=0": 36, ">=1": 9}
        m = valuation_multiset(f, K, ball, upto, cap, budget=charge)
        assert m == [text for text, count in expected.items() for _ in range(count)]
        with pytest.raises(BudgetExceededError):
            valuation_multiset(f, K, ball, upto, cap, budget=charge - 1)

    def test_multiset_caps_exact_values(self, K2):
        f = MultiPoly(1, {(): K2.t_power(5, 12)})
        m = valuation_multiset(f, K2, Ball(K2.zero(12), 0), 2, cap=3)
        assert set(m) == {">=3"}

    def test_multiset_keeps_a_bound_below_the_cap(self):
        # the typed t^-2 is exact, but the class of 0 mod t^3 maps to
        # t^1 * O: its entry is ">=1", as the enumerating oracle reports;
        # the search follows the exact digit points of that class past the
        # window, where t^-2 * t^k reaches the cap
        K = LaurentField(prime_field(2), "t", default_prec=3)
        f = parse_poly("t^-2*X", K)
        m = valuation_multiset(f, K, Ball(K.zero(3), 0), 3, cap=3)
        assert m == ["-1", "-1", "-2", "-2", "-2", "-2", "0", ">=1"]
        assert brute_force_max(f, K, Ball(K.zero(3), 0), 3)[1].to_text() == ">=1"
        assert extremal_search(f, K, prec=3).value.to_text() == ">=3"


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
            terms[sparse((d,))] = K.from_int_terms({**digits, v: rng.randrange(1, q)}, order)
        prec, radius = rng.randint(3, 5), rng.randint(0, 1)
        center = K.from_int_terms({-1: rng.randrange(q), 0: rng.randrange(1, q), 1: rng.randrange(q)}, 8)
        yield MultiPoly(1, terms), K, Ball(center, radius), prec


def test_multiset_maximum_is_the_search_value():
    # the largest entry of the counted multiset is the enumerating
    # search's value, a bound when any entry is a bound
    bounded_below_cap = 0
    for f, K, ball, prec in _cross_route_instances():
        entries = valuation_multiset(f, K, ball, prec, cap=prec)
        values = [Value.from_text(e.removeprefix(">=")) for e in entries]
        bounded = any(e.startswith(">=") for e in entries)
        expected = (">=" if bounded else "") + max(values).to_text()
        walked = search_max(ball_walk(f, K, ball, prec, prec, DEFAULT_BUDGET))
        assert walked.value.to_text() == expected, (f, ball, prec)
        bounded_below_cap += any(e.startswith(">=") and e != f">={prec}" for e in entries)
    assert bounded_below_cap > 0


def _tree_instances():
    """Seeded polynomials in 1-2 variables over F_2, F_3 and F_4 with 1-3
    terms of degree <= 2 per variable, coefficient valuations in [-2, 2],
    a third of them exact and the rest known to O(t^(v+1))..O(t^8), on
    balls of radius 0 and 1 around nonzero centres, at prec 2..4 (2..3 in
    two variables), lowered until the oracle walks at most 729 tuples."""
    rng = random.Random(14)
    bases = [prime_field(2), prime_field(3), FiniteFieldDescriptor(2, 2)]
    for n in range(450):
        K = LaurentField(bases[n % 3], "t", default_prec=8)
        q, nvars = K.base.q, rng.randint(1, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(nvars))
            v = rng.randint(-2, 2)
            order = math.inf if rng.random() < 1 / 3 else rng.randint(v + 1, 8)
            digits = {e: rng.randrange(q) for e in range(v + 1, min(order, v + 4))}
            terms[sparse(mono)] = K.from_int_terms({**digits, v: rng.randrange(1, q)}, order)
        prec, radius = rng.randint(2, 5 - nvars), rng.randint(0, 1)
        while q ** (nvars * (prec - radius)) > 729:
            prec -= 1
        center = K.from_int_terms({-1: rng.randrange(q), 0: rng.randrange(1, q), 1: rng.randrange(q)}, 8)
        yield MultiPoly(nvars, terms), K, Ball(center, radius), prec


def test_digit_tree_agrees_with_the_enumeration():
    # equal when both are exact; otherwise the tree only tightens: its
    # bound is at least the enumeration's, and an exact tree value lies at
    # or above an enumerated bound (the enumeration loses precision when a
    # negative-valuation coefficient meets a representative known to
    # O(t^prec), the tree evaluates at exact digit points)
    equal = tightened = 0
    for f, K, ball, prec in _tree_instances():
        tree = extremal_search(f, K, ball, prec)
        _, walked = brute_force_max(f, K, ball, prec)
        case = (f, ball.to_text(), prec, tree.value, walked)
        if walked.exact:
            assert tree.value == walked, case
        else:
            assert tree.value.value >= walked.value, case
        if tree.value == walked:
            equal += 1
        else:
            tightened += 1
        # the witness is an exact digit point of the ball, printed at a
        # finite order
        assert all(w.prec >= prec and w.prec != math.inf for w in tree.witness), case
        point = tuple(K.make(w.low, w.coeffs, math.inf) for w in tree.witness)
        assert all((x - ball.center).valuation_floor() >= ball.radius for x in point), case
        reached = f.evaluate(point).valuation()
        if tree.value.exact:
            assert reached == tree.value, case
        else:
            assert reached.value >= tree.value.value, case
    assert equal > 300 and tightened > 0


def _transfer_pairs():
    """Seeded transfers over F_2 and F_3 with beta < alpha, at prec 1..4:
    f on B_beta(b) mod t^(prec + beta - alpha) and g on B_alpha(a) mod
    t^prec, both capped at prec, so either window can end below its
    radius."""
    rng = random.Random(19)
    for n in range(60):
        K = LaurentField(prime_field((2, 3)[n % 2]), "t", default_prec=8)
        q = K.base.q

        def series(lo, hi):
            return K.from_int_terms({e: rng.randrange(q) for e in range(lo, hi)}, math.inf)

        terms = {}
        for d in rng.sample(range(3), rng.randint(1, 3)):
            v = rng.randint(-1, 2)
            terms[sparse((d,))] = series(v + 1, v + 3) + K.from_int_terms({v: rng.randrange(1, q)}, math.inf)
        f = MultiPoly(1, terms)
        alpha, prec = rng.randint(1, 3), rng.randint(1, 4)
        beta = rng.randint(alpha - 2, alpha - 1)
        a, b = series(-1, 3), series(-1, 3)
        c = K.from_int_terms({beta - alpha: rng.randrange(1, q)}, math.inf) + series(beta - alpha + 1, 3)
        g = ball_transfer(f, alpha, a, beta, b, c)
        yield f, K, Ball(b, beta), prec + beta - alpha, prec
        yield g, K, Ball(a, alpha), prec, prec


def test_multiset_count_agrees_with_the_enumeration():
    # the same number of entries; equal wherever the enumeration reads no
    # bound below the cap, and otherwise the count only tightens: for
    # every v it has at least as many entries >= v (the enumeration loses
    # precision where the count reads exact digit points)
    def at_least(entries, v):
        return sum(Value.from_text(e.removeprefix(">=")) >= v for e in entries)

    instances = [(f, K, ball, prec, prec) for f, K, ball, prec in _tree_instances()]
    instances += [(f, K, ball, prec, prec) for f, K, ball, prec in _cross_route_instances()]
    instances += list(_transfer_pairs())
    equal = below_radius = 0
    for f, K, ball, upto, cap in instances:
        counted = valuation_multiset(f, K, ball, upto, cap)
        walked = enumerated_multiset(f, K, ball, upto, cap)
        case = (f, ball.to_text(), upto, cap, counted, walked)
        assert len(counted) == len(walked), case
        if counted != walked:
            assert any(e != f">={cap}" and e.startswith(">=") for e in walked), case
            for v in {Value.from_text(e.removeprefix(">=")) for e in counted + walked}:
                assert at_least(counted, v) >= at_least(walked, v), case
        equal += counted == walked
        below_radius += upto < ball.radius
    assert len(instances) - 15 < equal < len(instances) and below_radius >= 20


def _composite_instances(seed):
    """Seeded polynomials over F_2((u))((t)) in one variable of degree <= 4
    or two of degree <= 2 each, and over F_3((u))((t)) in one variable, with
    1-3 terms whose coefficients sum c*u^i*t^j over one or two i in [-1, 2]
    and j in {0, 1}, on windows prec_t, prec_u in 2..3 with u_floor 0 or -1,
    shrunk (prec_t, then u_floor, then prec_u) until the oracle walks at
    most 512 tuples; after two fixed cases whose X coefficient has a u^2 at
    t^0, at prec_u 2, which a later digit moves up a level."""
    C = CompositeField(prime_field(2), prec_t=2, prec_u=2)
    yield parse_poly("u^2*X + t*u*X + t*u + t*X^2", C), C, -1
    yield parse_poly("(u^2 + t*u)*X + t*u", C), C, 0
    rng = random.Random(seed)
    for n in range(400):
        p, nvars = (2, 3)[n % 2], 1 + (n % 4 == 0)
        C = CompositeField(prime_field(p), prec_t=rng.randint(2, 3), prec_u=rng.randint(2, 3))
        terms = []
        for _ in range(rng.randint(1, 3)):
            mono = "*".join(f"X{i + 1}^{rng.randint(0, 4 // nvars)}" for i in range(nvars))
            coeff = " + ".join(
                f"{rng.randrange(1, p)}*u^{i}*t^{rng.randint(0, 1)}"
                for i in rng.sample(range(-1, 3), rng.randint(1, 2))
            )
            terms.append(f"({coeff})*{mono}")
        u_floor = rng.choice((0, -1))
        while integral_composite_count(C, u_floor) ** nvars > 512:
            if C.prec_t > 2:
                C = CompositeField(C.base, prec_t=2, prec_u=C.prec_u)
            elif u_floor < 0:
                u_floor = 0
            else:
                C = CompositeField(C.base, prec_t=2, prec_u=C.prec_u - 1)
        yield parse_poly(" + ".join(terms), C), C, u_floor


def _leaf_claims_hold(f, C, u_floor):
    """Every leaf of the rank-2 tree holds on every exact digit point under
    it: exactly its value when exact, at least it otherwise, the cap read
    lexicographically as the tree and the oracle read it."""
    ring = _RingDigits(C, u_floor)
    digits = list(itertools.product(range(C.base.q), repeat=f.nvars))
    for (node, k, covered), vr in _DigitTree(f, ring, DEFAULT_BUDGET).leaves():
        prefix = []
        while node is not None:
            y, node = node
            prefix.insert(0, y)
        heads = [[y] for y in covered or digits] if k < ring.last else [[]]
        for head in heads:
            for tail in itertools.product(digits, repeat=max(0, ring.last - k - 1)):
                reached = f.evaluate(ring.point(prefix + head + list(tail), f.nvars)).valuation()
                if vr.exact:
                    assert reached == vr, (f, prefix, head, tail, vr, reached)
                else:
                    assert reached.value >= vr.value, (f, prefix, head, tail, vr, reached)


def _tree_equals_the_enumeration(instances) -> int:
    """The tree and the exact-point walk give the same value and verdict,
    and every tree witness is an exact digit point of the truncated ring
    that re-evaluates to its value; returns how many instances have a
    coefficient of negative u-valuation."""
    negative = 0
    for f, C, u_floor in instances:
        tree = composite_extremal_search(f, C, u_floor)
        walked = enumerated_composite_max(f, C, u_floor)
        case = (f, C.prec_t, C.prec_u, u_floor, tree, walked.value)
        assert (tree.value, tree.verdict) == (walked.value, walked.verdict), case
        assert all(c.prec == math.inf for w in tree.witness for c in w.coeffs.values()), case
        assert all(w.valuation().value >= Value.rank2(0, 0) for w in tree.witness), case
        reached = f.evaluate(tree.witness).valuation()
        if tree.value.exact:
            assert reached == tree.value, case
        else:
            assert reached.value >= tree.value.value, case
        negative += any(s.low < 0 for c in f.terms.values() for s in c.coeffs.values() if s.coeffs)
    return negative


def test_composite_tree_agrees_with_the_enumeration():
    # equal value and verdict against exact digit points, and every leaf's
    # claim holds on its whole subtree
    instances = list(_composite_instances(20))
    for f, C, u_floor in instances:
        _leaf_claims_hold(f, C, u_floor)
    assert _tree_equals_the_enumeration(instances) > 200


@pytest.mark.parametrize("seed", [21, 22])
def test_composite_tree_agrees_with_the_enumeration_on_more_seeds(seed):
    assert _tree_equals_the_enumeration(_composite_instances(seed)) > 200


def test_composite_leaf_claims_hold_on_coefficients_known_to_an_order():
    # a library caller may pass coefficients known only to O(u^prec_u): the
    # tree reads their error orders and still claims nothing its subtree
    # does not have
    for f, C, u_floor in _composite_instances(20):
        cut = f.map_coeffs(lambda c: C.make({e: s.truncate(C.prec_u) for e, s in c.coeffs.items()}))
        _leaf_claims_hold(cut, C, u_floor)


def test_a_typed_coefficient_past_prec_u_is_exact():
    # drawn with seed 22: at (X1, X2) = (1, u) the t^0 level is u^3 + u^4,
    # past prec_u 2 yet exact, so f reads (0,3) there, not (1,2) from its
    # t^1 level; the best point is (u, 1), where t^0 cancels exactly
    C = CompositeField(prime_field(2), prec_t=2, prec_u=2)
    f = parse_poly("(u + u^-1)*X1^2*X2^2 + u + (u^2 + t)*X1*X2^2", C)
    for res in (composite_extremal_search(f, C, 0), enumerated_composite_max(f, C, 0)):
        assert (res.value.to_text(), res.verdict) == ("(1,1)", MAX_ATTAINED)
        assert [w.to_text() for w in res.witness] == ["(u^1)*t^0 + O(t^2)", "(u^0)*t^0 + O(t^2)"]


@pytest.mark.parametrize("poly", ["u + X + u^2*X^4", "u^2*X^4 + X + u"])
def test_a_sum_does_not_depend_on_the_order_of_its_terms(poly):
    # u + X + u^2*X^4 at X = u is exactly u^6, whichever term comes first
    C = CompositeField(prime_field(2), prec_t=2, prec_u=3)
    f = parse_poly(poly, C)
    for res in (composite_extremal_search(f, C), enumerated_composite_max(f, C)):
        assert (res.value.to_text(), res.verdict) == ("(0,6)", MAX_ATTAINED)


@pytest.mark.parametrize(
    "prec_t, prec_u, u_floor",
    [(2, 2, 2), (2, 2, 5), (0, 2, 0), (2, 0, 0)],
    ids=["u-floor-at-prec-u", "u-floor-positive", "prec-t-zero", "prec-u-zero"],
)
def test_composite_search_refuses_a_window_outside_the_valuation_ring(prec_t, prec_u, u_floor):
    # the CLI refuses these windows at parsing; a library caller gets the
    # same refusal, not a ValueError or an answer over another window
    C = CompositeField(prime_field(2), prec_t=prec_t, prec_u=prec_u)
    with pytest.raises(ValfieldError, match="u_floor <= 0 and prec_t, prec_u >= 1"):
        composite_extremal_search(parse_poly("X^2 + u", C), C, u_floor)


class TestCompositeCheck:
    def test_confirmed_on_plain_poly(self, C2):
        inner = C2.inner
        g = MultiPoly(1, {((0, 2),): inner.one(6), (): inner.t_power(1, 6)})
        report = check_vexbarwex(g, C2)
        assert report.conclusion == "Confirmed"

    def test_inconclusive_when_unbounded(self, C2):
        inner = C2.inner
        g = MultiPoly(1, {((0, 2),): inner.t_power(1, 6)})
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
        g = MultiPoly(2, {((0, 1), (1, 1)): inner.one(6)})
        with pytest.raises(BudgetExceededError):
            check_vexbarwex(g, C2, budget=10)

    def test_an_exact_composite_maximum_past_prec_u_stays_inconclusive(self):
        # u*X^3 + u^2*X + u over F(2) at prec_t = prec_u = 2: the composite
        # search attains (0,4) exactly and its witness pushes down to 4, but
        # the residue-level search is capped at prec_u = 2 and reads only
        # ">=2", so the exact maximum cannot be confirmed.  A residue-level
        # search that reads past prec_u changes this answer to Confirmed.
        C = CompositeField(prime_field(2), prec_t=2, prec_u=2)
        report = check_vexbarwex(parse_poly("u*X^3 + u^2*X + u", C.inner), C)
        assert (report.composite.value.to_text(), report.composite.verdict) == ("(0,4)", "MaxAttained")
        assert (report.residue_level.value.to_text(), report.residue_level.verdict) == (">=2", "Indeterminate")
        assert (report.pushdown_value, report.conclusion) == ("4", "Inconclusive")


def test_enumerations_build_no_ffelement(C2, K2, monkeypatch):
    """The digit enumerations and the searches over them run on codes."""
    K4 = LaurentField(FiniteFieldDescriptor(2, 2), "t", default_prec=8)
    f = MultiPoly(1, {((0, 2),): K4.one(8), ((0, 1),): K4.t_power(1, 8), (): K4.t_power(1, 8)})
    inner = C2.inner
    g = MultiPoly(1, {((0, 2),): inner.one(6), (): inner.t_power(1, 6)}).map_coeffs(C2.from_inner)
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


def test_the_power_table_holds_only_the_exponents_f_reaches():
    # y^e for e up to f's top exponent 3, not up to q - 1 = 5040, and a
    # table that would reach q - 1 is refused before it is built
    F = FiniteFieldDescriptor(71, 2)
    C = CompositeField(F, prec_t=1, prec_u=1)
    table = _DigitTree(parse_poly("X1^3 + X1*X2^2", C), _RingDigits(C, 0), DEFAULT_BUDGET).powers
    assert len(table) == F.q and {len(row) for row in table} == {4}
    assert table[75][3] == F.mul_codes(75, F.mul_codes(75, 75))
    with pytest.raises(BudgetExceededError):
        _powers(F, F.q - 1)


def _binomial_expansion(nu, p, q):
    """The terms of (y + s*Y)^nu by the binomial theorem: (mu, the product
    of C(e_i, m_i) mod p, nu - mu reduced) for every mu <= nu exponentwise
    whose product is nonzero mod p."""
    out = set()
    for ms in itertools.product(*(range(e + 1) for _, e in nu)):
        b = math.prod(math.comb(e, m) for (_, e), m in zip(nu, ms)) % p
        if b:
            mu = tuple((i, m) for (i, _), m in zip(nu, ms) if m)
            out.add((mu, b, _reduced([(i, e - m) for (i, e), m in zip(nu, ms)], q)))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_expansion_agrees_with_the_binomial_expansion(p, k):
    rng = random.Random(f"expansion:{p}:{k}")
    for _ in range(40):
        variables = sorted(rng.sample(range(4), rng.randint(1, 3)))
        nu = tuple((i, rng.randint(1, 3 * p)) for i in variables)
        terms = _expansion(nu, p, p**k)
        assert len(set(terms)) == len(terms)
        assert set(terms) == _binomial_expansion(nu, p, p**k), nu


def test_a_second_search_over_the_same_monomials_expands_nothing_new(K3):
    # the expansions are cached per monomial, not rebuilt per tree: g = 2f
    # has f's monomials and f's tree, whose residue forms differ by the
    # unit 2, so its tree reads only the expansions that f's has read
    S = K3.from_int_terms
    f = MultiPoly(2, {((0, 3), (1, 1)): S({0: 1}, 8), ((1, 2),): S({0: 1}, 8), (): S({1: 2}, 8)})
    g = MultiPoly(2, {nu: c.times_code(2) for nu, c in f.terms.items()})
    _expansion.cache_clear()
    extremal_search(f, K3, prec=4)
    misses = _expansion.cache_info().misses
    extremal_search(g, K3, prec=4)
    assert misses > 0 and _expansion.cache_info().misses == misses
