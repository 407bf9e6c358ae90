"""Truncated extremality searches, ball transfer, and rank-2 desk checks.

A search over a truncated ring can never certify extremality of the
infinite field; every search therefore returns an explicit verdict:
``MaxAttained`` when all evaluated valuations were exact and the maximum is
known, or ``Indeterminate`` when some candidate was zero to its error order
and only a lower bound for the maximum survives.  Reported lower bounds are
capped at the working precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from .composite import CompositeElement, CompositeField
from .errors import BudgetExceededError, ValfieldError
from .laurent import ErrorOrder, LaurentField, LaurentSeries, ValuationResult
from .polynomials import MultiPoly
from .value_group import Value

DEFAULT_BUDGET = 10**7

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
            "witness": [getattr(w, "to_text", lambda: str(w))() for w in self.witness],
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
    center = ball.center.truncate(min(ball.center.prec, upto)) if ball.center.prec > upto else ball.center
    for digits in digit_window(field, ball.radius, upto, upto):
        yield center + digits


def ball_count(field: LaurentField, ball: Ball, upto: int) -> int:
    return field.base.q ** max(0, upto - ball.radius)


def check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceededError(
            f"{count} candidates or matrix entries exceed budget {budget}"
        )


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


# -- the generic max search ------------------------------------------------


def search_max(
    f: MultiPoly, candidates: Iterable[tuple], cap: Value
) -> SearchResult:
    """Exhaustive maximum of v(f(a)) over candidate tuples.

    Any candidate whose value is only bounded below makes the verdict
    Indeterminate; the reported value is then the best certain lower bound.
    """
    best_exact: Optional[Value] = None
    best_exact_wit = None
    best_bound: Optional[Value] = None
    best_bound_wit = None
    for args in candidates:
        vr = f.evaluate(args).valuation()
        if vr.exact and vr.value < cap:
            if best_exact is None or vr.value > best_exact:
                best_exact = vr.value
                best_exact_wit = args
        else:
            # exact values at or beyond the horizon are as untrustworthy as
            # genuine lower bounds: deeper digits were never enumerated
            b = vr.value if vr.value < cap else cap
            if best_bound is None or b > best_bound:
                best_bound = b
                best_bound_wit = args
    if best_exact is None and best_bound is None:
        raise ValfieldError("empty candidate set")
    if best_bound is None:
        return SearchResult(best_exact_wit, ValuationResult.exactly(best_exact), MAX_ATTAINED)
    if best_exact is not None and best_exact > best_bound:
        return SearchResult(
            best_exact_wit, ValuationResult.at_least(best_exact), INDETERMINATE
        )
    return SearchResult(
        best_bound_wit, ValuationResult.at_least(best_bound), INDETERMINATE
    )


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
    check_budget(ball_count(field, ball, prec) ** f.nvars, budget)
    reps = list(ball_representatives(field, ball, prec))
    return search_max(
        f, itertools.product(reps, repeat=f.nvars), Value.rank1(prec)
    )


def composite_extremal_search(
    f: MultiPoly,
    field: CompositeField,
    u_floor: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Exhaustive max of v(f) over the truncated rank-2 valuation ring."""
    check_budget(integral_composite_count(field, u_floor) ** f.nvars, budget)
    reps = list(integral_composite_representatives(field, u_floor))
    return search_max(
        f,
        itertools.product(reps, repeat=f.nvars),
        Value.rank2(field.prec_t, 0),
    )


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
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> List[str]:
    """Sorted multiset of valuation results of f over ball reps mod t^upto.

    Every entry at or beyond ``cap`` (exact or bounded) is reported as
    ``>=cap``: digits outside the enumeration window could change those
    values, so only the classes below the cap are trustworthy.  Two
    enumerations related by an affine ball bijection agree entry for entry
    when their windows correspond under the map and share one cap.
    """
    cap = upto if cap is None else cap
    check_budget(ball_count(field, ball, upto) ** f.nvars, budget)
    reps = list(ball_representatives(field, ball, upto))
    cap_v = Value.rank1(cap)
    out = []
    for args in itertools.product(reps, repeat=f.nvars):
        vr = f.evaluate(args).valuation()
        if vr.exact and vr.value < cap_v:
            out.append(vr.to_text())
        else:
            out.append(f">={cap}")
    return sorted(out)


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
        return CompositeCheckReport(
            "Inconclusive", comp_result, res_result, vr.to_text()
        )
    if res_result.value.value > vr.value:
        return CompositeCheckReport(
            "Counterexample", comp_result, res_result, vr.to_text()
        )
    return CompositeCheckReport("Confirmed", comp_result, res_result, vr.to_text())
