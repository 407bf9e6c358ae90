"""Truncated extremality searches, ball transfer, and rank-2 desk checks.

The searches and the valuation multisets are one walk over every tuple of
truncated representatives, with one horizon rule at the cap (the working
precision): an exact value below the cap stays exact, and every other value
becomes ">= min(value, cap)".  A search over a truncated ring can never
certify extremality of the infinite field; every search therefore returns
an explicit verdict: ``MaxAttained`` when every walked value was exact, or
``Indeterminate`` when some value was only bounded and only a lower bound
for the maximum survives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .composite import CompositeElement, CompositeField
from .errors import DEFAULT_BUDGET, ValfieldError, check_budget
from .laurent import ErrorOrder, LaurentField, LaurentSeries, ValuationResult
from .polynomials import MultiPoly
from .value_group import Value

MAX_ATTAINED = "MaxAttained"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Ball:
    """B_radius(center) = { x : v(x - center) >= radius }; O is Ball(0, 0)."""

    center: LaurentSeries
    radius: int

    def to_text(self) -> str:
        return f"v>={self.radius} around {self.center.to_text()}"


@dataclass(frozen=True)
class SearchResult:
    witness: tuple
    value: ValuationResult
    verdict: str

    def to_dict(self) -> dict:
        return {
            "witness": [w.to_text() for w in self.witness],
            "value": self.value.to_text(),
            "verdict": self.verdict,
        }


# -- enumeration of truncated representatives ------------------------------


def digit_window(
    field: LaurentField, lo: int, hi: int, prec: ErrorOrder
) -> Iterator[LaurentSeries]:
    """Every sum of digits c_e t^e over lo <= e < hi, at error order prec,
    with the digit codes counting up lexicographically, t^lo slowest."""
    for codes in itertools.product(range(field.base.q), repeat=max(0, hi - lo)):
        yield field.make(lo, codes, prec)


def ball_representatives(
    field: LaurentField, ball: Ball, upto: int
) -> Iterator[LaurentSeries]:
    """All representatives of the ball modulo t^upto, at precision upto."""
    center = ball.center.truncate(min(ball.center.prec, upto))
    for digits in digit_window(field, ball.radius, upto, upto):
        yield center + digits


def ball_count(field: LaurentField, ball: Ball, upto: int) -> int:
    return field.base.q ** max(0, upto - ball.radius)


def integral_composite_representatives(
    field: CompositeField, u_floor: int = 0
) -> Iterator[CompositeElement]:
    """Representatives of the rank-2 valuation ring O_v in the truncation.

    The coefficient of t^0 ranges over u-digits in [0, prec_u); higher
    t-coefficients may dip to u-level u_floor.
    """
    inner, n = field.inner, field.prec_u
    lower = list(digit_window(inner, u_floor, n, n))
    slot_options = [list(digit_window(inner, 0, n, n))] + [lower] * (field.prec_t - 1)
    for combo in itertools.product(*slot_options):
        yield field.make(
            {e: c for e, c in enumerate(combo) if not c.is_zero_to_prec()}
        )


def integral_composite_count(field: CompositeField, u_floor: int = 0) -> int:
    q = field.base.q
    n0 = q**field.prec_u
    nj = q ** (field.prec_u - u_floor)
    return n0 * nj ** max(0, field.prec_t - 1)


# -- the one truncated walk ------------------------------------------------


def _walk(
    f: MultiPoly, count: int, reps: Iterable, cap: Value, budget: int
) -> Iterator[Tuple[tuple, ValuationResult]]:
    """(args, v(f(args))) for every tuple of the count representatives.

    The count ** nvars tuples are charged to the budget before reps is
    read, once, into the product's pool.  One horizon rule: a value below
    the cap keeps its kind, so an exact value stays exact and a bound
    stays the bound that is known; every other value becomes ">= cap",
    because digits past the enumeration window were never tried.
    """
    check_budget(count**f.nvars, budget)
    capped = ValuationResult.at_least(cap)
    for args in itertools.product(reps, repeat=f.nvars):
        vr = f.evaluate(args).valuation()
        yield args, vr if vr.value < cap else capped


def search_max(walk: Iterator[Tuple[tuple, ValuationResult]]) -> SearchResult:
    """Exhaustive maximum of v(f(a)) over a walk.

    The first maximum wins, and a bound beats an equal exact value.  Any
    bound on the walk makes the verdict Indeterminate; the reported value
    is then the best certain lower bound.
    """
    witness, best = next(walk)
    bounded = not best.exact
    for args, vr in walk:
        bounded = bounded or not vr.exact
        if vr.value > best.value or (best.exact and not vr.exact and vr.value == best.value):
            witness, best = args, vr
    if bounded:
        return SearchResult(witness, ValuationResult.at_least(best.value), INDETERMINATE)
    return SearchResult(witness, best, MAX_ATTAINED)


def extremal_search(
    f: MultiPoly,
    field: LaurentField,
    ball: Optional[Ball] = None,
    prec: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Exhaustive max of v(f) over ball representatives modulo t^prec."""
    if ball is None:
        ball = Ball(field.zero(prec), 0)
    count, reps = ball_count(field, ball, prec), ball_representatives(field, ball, prec)
    return search_max(_walk(f, count, reps, Value.rank1(prec), budget))


def composite_extremal_search(
    f: MultiPoly,
    field: CompositeField,
    u_floor: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Exhaustive max of v(f) over the truncated rank-2 valuation ring."""
    count = integral_composite_count(field, u_floor)
    reps = integral_composite_representatives(field, u_floor)
    return search_max(_walk(f, count, reps, Value.rank2(field.prec_t, 0), budget))


# -- ball transfer (affine bijection between balls) ------------------------


def ball_transfer(
    f: MultiPoly,
    alpha: int,
    a: LaurentSeries,
    beta: int,
    b: LaurentSeries,
    c: LaurentSeries,
) -> MultiPoly:
    """g(Y...) = f(c(Y-a)+b, ...), carrying values of f on B_beta(b)^n
    over to values of g on B_alpha(a)^n; requires v(c) = beta - alpha."""
    vc = c.valuation().require_exact()
    if vc != Value.rank1(beta - alpha):
        raise ValfieldError(
            f"scale has valuation {vc.to_text()}, expected {beta - alpha}"
        )
    shift = b - c * a
    nv = f.nvars
    inner = []
    for i in range(nv):
        mono = tuple(1 if j == i else 0 for j in range(nv))
        terms = {mono: c}
        if not shift.is_zero_to_prec():
            terms[(0,) * nv] = shift
        inner.append(MultiPoly(nv, terms))
    return f.compose(inner)


def valuation_multiset(
    f: MultiPoly,
    field: LaurentField,
    ball: Ball,
    upto: int,
    cap: int,
    budget: int = DEFAULT_BUDGET,
) -> List[str]:
    """Sorted texts of v(f) over ball reps mod t^upto, by the walk's
    horizon rule at ``cap``.

    Two enumerations related by an affine ball bijection agree entry for
    entry when their windows correspond under the map, share one cap, and
    lose no precision below it; a bound below the cap records such a loss.
    """
    count, reps = ball_count(field, ball, upto), ball_representatives(field, ball, upto)
    return sorted(vr.to_text() for _, vr in _walk(f, count, reps, Value.rank1(cap), budget))


# -- coarsening and the composite desk check -------------------------------


@dataclass(frozen=True)
class CompositeCheckReport:
    conclusion: str  # Confirmed | Inconclusive | Counterexample
    composite: SearchResult
    residue_level: SearchResult
    pushdown_value: Optional[str]

    def to_dict(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "composite": self.composite.to_dict(),
            "residueLevel": self.residue_level.to_dict(),
            "pushdownValue": self.pushdown_value,
        }


def check_vexbarwex(
    g: MultiPoly,
    comp_field: CompositeField,
    u_floor: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> CompositeCheckReport:
    """Desk-scale check that an exact composite maximum pushes down.

    g has coefficients in F_q((u)); it is lifted coefficientwise to the
    composite field.  When the composite search attains an exact maximum at
    a witness, the witness's coarsening residues must attain a value for g
    that the residue-level search cannot beat.
    """
    inner_field = comp_field.inner
    f = g.map_coeffs(comp_field.from_inner)
    comp_result = composite_extremal_search(f, comp_field, u_floor, budget)
    res_ball = Ball(inner_field.zero(comp_field.prec_u), 0)
    res_result = extremal_search(
        g, inner_field, res_ball, comp_field.prec_u, budget
    )
    if comp_result.verdict != MAX_ATTAINED:
        return CompositeCheckReport("Inconclusive", comp_result, res_result, None)
    # a witness's residue at w = 0 is its t^0 coefficient; a witness of
    # larger outer valuation has residue 0
    pushed = tuple(
        w.coeffs.get(0, inner_field.zero(comp_field.prec_u)) for w in comp_result.witness
    )
    vr = g.evaluate(pushed).valuation()
    if not vr.exact or res_result.verdict != MAX_ATTAINED:
        conclusion = "Inconclusive"
    elif res_result.value.value > vr.value:
        conclusion = "Counterexample"
    else:
        conclusion = "Confirmed"
    return CompositeCheckReport(conclusion, comp_result, res_result, vr.to_text())
