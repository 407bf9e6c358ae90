import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valfield.errors import IndeterminateValuationError, ValfieldError
from valfield.laurent import ValuationResult
from valfield.polygon import newton_polygon_from_valuations
from valfield.value_group import INFINITY, Value

from oracles import fraction_newton_polygon


def exact(q):
    return ValuationResult.exactly(Value.rank1(Fraction(q)))


def bound(q):
    return ValuationResult.at_least(Value.rank1(Fraction(q)))


class TestKnownPolygons:
    def test_single_segment_root_valuation(self):
        # p*(X^p-X)^2 - 1 for p = 3: valuations (0, inf, 1, inf, 1, inf, 1)
        vals = [exact(0), None, exact(1), None, exact(1), None, exact(1)]
        poly = newton_polygon_from_valuations(vals)
        assert poly.segments == ((Fraction(1, 6), 6),)
        # the six roots have valuation minus the slope
        assert -poly.single_slope() == Fraction(-1, 6)

    def test_eisenstein(self):
        # X^2 - p: points (0,1), (2,0): slope -1/2, roots valuation 1/2
        poly = newton_polygon_from_valuations([exact(1), None, exact(0)])
        assert poly.segments == ((Fraction(-1, 2), 2),)
        assert -poly.single_slope() == Fraction(1, 2)

    def test_two_segments_sorted(self):
        # (0,0), (1,-2), (3,0): slopes -2 then 1
        vals = [exact(0), exact(-2), exact(5), exact(0)]
        poly = newton_polygon_from_valuations(vals)
        assert poly.segments == ((Fraction(-2), 1), (Fraction(1), 2))

    def test_vanishing_at_zero(self):
        # X^2 * (X - 1): start records the order of vanishing
        vals = [None, None, exact(0), exact(0)]
        poly = newton_polygon_from_valuations(vals)
        assert poly.start == 2
        assert poly.segments == ((Fraction(0), 1),)

    def test_single_slope_helper(self):
        poly = newton_polygon_from_valuations([exact(1), None, exact(0)])
        assert poly.single_slope() == Fraction(-1, 2)
        poly2 = newton_polygon_from_valuations(
            [exact(0), exact(-2), exact(5), exact(0)]
        )
        assert poly2.single_slope() is None


class TestIndeterminateHandling:
    def test_harmless_bound_above_hull(self):
        # bound at height 10 over the segment (0,0)-(2,0) cannot dig in
        vals = [exact(0), bound(10), exact(0)]
        poly = newton_polygon_from_valuations(vals)
        assert poly.segments == ((Fraction(0), 2),)

    def test_bound_below_hull_rejected(self):
        vals = [exact(0), bound(-5), exact(0)]
        with pytest.raises(IndeterminateValuationError):
            newton_polygon_from_valuations(vals)

    def test_indeterminate_leading_coefficient_rejected(self):
        vals = [exact(0), exact(0), bound(3)]
        with pytest.raises(IndeterminateValuationError):
            newton_polygon_from_valuations(vals)

    def test_no_exact_point_rejected(self):
        with pytest.raises(IndeterminateValuationError):
            newton_polygon_from_valuations([bound(0), bound(0)])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValfieldError):
            newton_polygon_from_valuations([exact(0)])


class TestHullProperties:
    @given(
        st.lists(
            st.fractions(
                min_value=Fraction(-8), max_value=Fraction(8), max_denominator=4
            ),
            min_size=2,
            max_size=9,
        )
    )
    @settings(max_examples=200)
    def test_hull_is_lower_convex_support(self, heights):
        vals = [exact(h) for h in heights]
        poly = newton_polygon_from_valuations(vals)
        # slopes strictly increase
        slopes = [s for s, _ in poly.segments]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        # total horizontal length spans all points
        assert sum(length for _, length in poly.segments) == len(heights) - 1
        # the hull supports every point from below
        x = 0
        y = Fraction(heights[0])
        hull_points = [(0, y)]
        for s, length in poly.segments:
            x += length
            y += s * length
            hull_points.append((x, y))
        for i, h in enumerate(heights):
            for (x0, y0), (x1, y1) in zip(hull_points, hull_points[1:]):
                if x0 <= i <= x1:
                    lower = y0 + (y1 - y0) * Fraction(i - x0, x1 - x0)
                    assert Fraction(h) >= lower


def _valuation_draw(rng):
    """None, an exact or an at-least value, integral or with a small
    denominator, now and then infinite."""
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.2:
        return ValuationResult.exactly(INFINITY)
    q = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 1, 2, 3, 4, 6)))
    return exact(q) if rng.random() < 0.75 else bound(q)


class TestAllFractionOracle:
    def test_agrees_with_the_all_fraction_hull(self):
        """Same segments and start, or the same error, as the hull built on
        Fractions throughout; the slopes stay Fractions."""
        rng = random.Random("all-fraction hull")
        errors = 0
        for _ in range(3000):
            vals = [_valuation_draw(rng) for _ in range(rng.randint(2, 9))]
            try:
                expected = fraction_newton_polygon(vals)
            except ValfieldError as exc:
                errors += 1
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    newton_polygon_from_valuations(vals)
                continue
            poly = newton_polygon_from_valuations(vals)
            assert poly == expected, vals
            assert all(type(s) is Fraction for s, _ in poly.segments)
        # the family reaches both outcomes
        assert 300 < errors < 2700
