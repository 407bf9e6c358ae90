from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valfield.errors import ParseError, RankMismatchError, ValfieldError
from valfield.value_group import INFINITY, Value, ValuationResult

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=12
)


@st.composite
def values(draw, rank=None):
    r = rank if rank is not None else draw(st.sampled_from([1, 2]))
    if r == 1:
        return Value.rank1(draw(rationals))
    return Value.rank2(draw(rationals), draw(rationals))


class TestGroupLaws:
    @given(values(rank=1), values(rank=1), values(rank=1))
    def test_rank1_ordered_group(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a - a == Value.rank1(0)
        if a <= b:
            assert a + c <= b + c

    @given(values(rank=2), values(rank=2), values(rank=2))
    def test_rank2_ordered_group(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a - a == Value.rank2(0, 0)
        if a <= b:
            assert a + c <= b + c

    @given(values(rank=2), values(rank=2))
    def test_rank2_order_is_lexicographic(self, a, b):
        if a.first != b.first:
            assert (a < b) == (a.first < b.first)
        else:
            assert (a < b) == (a.second < b.second)

    @given(values())
    def test_infinity_absorbs_and_dominates(self, a):
        assert a + INFINITY == INFINITY
        assert INFINITY + a == INFINITY
        assert a < INFINITY
        assert not INFINITY < a


class TestRankDiscipline:
    def test_cross_rank_add_rejected(self):
        with pytest.raises(RankMismatchError):
            Value.rank1(1) + Value.rank2(1, 0)

    def test_cross_rank_compare_rejected(self):
        with pytest.raises(RankMismatchError):
            Value.rank1(1) < Value.rank2(1, 0)

    def test_infinity_has_no_negative(self):
        with pytest.raises(ValfieldError):
            -INFINITY


class TestTextForm:
    @given(values())
    def test_round_trip(self, a):
        assert Value.from_text(a.to_text()) == a

    def test_examples(self):
        assert Value.rank1(Fraction(-1, 6)).to_text() == "-1/6"
        assert Value.from_text("-1/6") == Value.rank1(Fraction(-1, 6))
        assert Value.rank2(Fraction(1, 2), 3).to_text() == "(1/2,3)"
        assert Value.from_text("inf") is INFINITY

    def test_bad_text_rejected(self):
        with pytest.raises(ParseError):
            Value.from_text("three")


class TestContradiction:
    def test_the_four_cases(self):
        exact, bound = ValuationResult.exactly, ValuationResult.at_least
        v2, v3 = Value.rank1(2), Value.rank1(3)
        # two equal exact values agree, two different ones cannot both hold
        assert not exact(v2).contradicts(exact(v2))
        assert exact(v2).contradicts(exact(v3))
        # an exact value below a bound contradicts it, from either side
        assert exact(v2).contradicts(bound(v3)) and bound(v3).contradicts(exact(v2))
        assert not exact(v3).contradicts(bound(v2))
        # two bounds never contradict each other
        assert not bound(v2).contradicts(bound(v3)) and not bound(v3).contradicts(bound(v2))
