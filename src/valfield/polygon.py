"""Newton polygons from coefficient valuations.

The polygon of f = sum a_i X^i is the lower convex hull of the points
(i, v(a_i)); segment slopes increase from left to right and the valuations
of the roots are the negatives of the slopes.  Slope denominators bound
ramification: a single segment whose slope denominator equals the degree
certifies irreducibility over a henselian base.

This module is generic over the coefficient ring: it consumes a list of
valuation results (or None for an exactly-zero coefficient), so both the
p-adic and the Laurent-series front ends share it, and so does
``certify_extension``, the one set of certification routes for the
fundamental equality n = e * fRes.  A hull point's height is an exact
``int`` where it is integral (``value_group.rational``), so the hull tests
of integral coefficients run on ints; a slope is a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import CertificationError, IndeterminateValuationError, ValfieldError
from .value_group import Rational, ValuationResult, rational


@dataclass(frozen=True)
class NewtonPolygon:
    """Hull segments as (slope, horizontal length), slopes strictly increasing."""

    segments: Tuple[Tuple[Fraction, int], ...]
    start: int  # order of vanishing at 0

    def single_slope(self) -> Optional[Fraction]:
        if len(self.segments) == 1:
            return self.segments[0][0]
        return None


def newton_polygon_from_valuations(
    vals: Sequence[Optional[ValuationResult]],
) -> NewtonPolygon:
    """Build the polygon; vals[i] is the valuation of coefficient i.

    None marks an exactly-zero coefficient.  Indeterminate valuations are
    tolerated only where the known lower bound already lies on or above the
    hull through the exact points; otherwise the polygon is not determined
    at the available precision and an error is raised.
    """
    n = len(vals) - 1
    if n < 1:
        raise ValfieldError("polygon needs degree >= 1")
    exact: List[Tuple[int, Rational]] = []
    bounded: List[Tuple[int, Rational]] = []
    for i, vr in enumerate(vals):
        if vr is None:
            continue
        q = vr.value.first
        if vr.value.is_infinity:
            continue
        if vr.exact:
            exact.append((i, rational(q)))
        else:
            bounded.append((i, rational(q)))
    if not exact:
        raise IndeterminateValuationError("no coefficient with exact valuation")
    lead = max(i for i, _ in exact)
    if lead != n:
        # the leading coefficient must pin the right end of the hull
        if any(i > lead for i, _ in bounded):
            raise IndeterminateValuationError(
                "leading coefficient valuation is indeterminate"
            )
        n = lead
    start = min(i for i, _ in exact)
    if any(i < start for i, _ in bounded):
        raise IndeterminateValuationError(
            "low-order coefficient valuation is indeterminate"
        )
    hull = _lower_hull(sorted(exact))
    # bounds must not be able to dig below the hull
    for i, b in bounded:
        if _below_hull(hull, i, b):
            raise IndeterminateValuationError(
                f"indeterminate coefficient at index {i} is at a needed vertex"
            )
    segments = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        slope = Fraction(v1 - v0, i1 - i0)
        segments.append((slope, i1 - i0))
    return NewtonPolygon(tuple(segments), start)


def _lower_hull(points: List[Tuple[int, Rational]]) -> List[Tuple[int, Rational]]:
    hull: List[Tuple[int, Rational]] = []
    for pt in points:
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    return hull


def _turns_up(a, b, c) -> bool:
    # drop b when it is on or above segment a-c
    return (b[1] - a[1]) * (c[0] - a[0]) >= (c[1] - a[1]) * (b[0] - a[0])


def _below_hull(hull: List[Tuple[int, Rational]], i: int, b: Rational) -> bool:
    """Whether (i, b) lies strictly below the hull, for i within its span:
    b < v0 + (v1 - v0) / (i1 - i0) * (i - i0), multiplied out by i1 - i0."""
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        if i <= i1:
            return b * (i1 - i0) < v0 * (i1 - i0) + (v1 - v0) * (i - i0)
    return False


# -- the fundamental equality ----------------------------------------------


@dataclass(frozen=True)
class FundamentalEqualityData:
    n: int
    e: int
    f_res: Optional[int]
    certified_by: str
    equality_holds: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "e": self.e,
            "fRes": self.f_res,
            "certifiedBy": self.certified_by,
            "equalityHolds": self.equality_holds,
        }


def certify_extension(
    n: int,
    polygon: NewtonPolygon,
    residue_irreducible: Callable[[], bool],
    irreducible_asserted: bool = False,
) -> FundamentalEqualityData:
    """Degree, ramification index and residue degree of K[X]/(f), deg f = n.

    Certification routes: slope denominator equal to the degree (totally
    ramified), slope zero with an irreducible residue polynomial
    (unramified; ``residue_irreducible`` is only called there), or an
    external irreducibility assertion combined with the slope data; a
    degree-one modulus needs none of them.
    """
    slope = polygon.single_slope()
    if slope is not None and polygon.start == 0 and slope.denominator == n:
        return FundamentalEqualityData(n, n, 1, "slope-denominator", True)
    if slope == 0 and polygon.start == 0 and residue_irreducible():
        return FundamentalEqualityData(n, 1, n, "residue-irreducible", True)
    if n == 1:
        # K[X]/(X - a) is K itself, whatever the polygon looks like
        return FundamentalEqualityData(1, 1, 1, "degree-one", True)
    if irreducible_asserted:
        e = lcm(*[s.denominator for s, _ in polygon.segments])
        if n % e == 0:
            return FundamentalEqualityData(n, e, n // e, "asserted", True)
        return FundamentalEqualityData(n, e, None, "asserted", None)
    raise CertificationError("cannot certify the extension data at this precision")
