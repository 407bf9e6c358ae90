"""Enumerating and canonical-form oracles that only the tests compare against.

* ``digit_window`` yields every digit sum over an exponent window, on
  codes; ``ball_representatives`` adds each one to a ball's centre, and
  ``ball_count`` counts them.
* ``ball_walk`` evaluates f on every tuple of ball representatives, and
  ``brute_force_max`` takes its maximum: the reference for the digit tree
  of ``extremal_search`` and for ``oap_solve``.
* ``enumerated_multiset`` is the valuation multiset read off that walk,
  the reference for the digit-tree count ``valuation_multiset``.
* ``enumerated_composite_max`` walks every tuple of exact digit points of
  the truncated rank-2 valuation ring (``integral_composite_representatives``,
  ``integral_composite_count``), the reference for the digit tree of
  ``composite_extremal_search``.  It and ``ball_walk`` share one capped
  product walk, ``capped_walk``.
* ``truncated_image`` and ``decomposition_image`` enumerate the image of an
  additive polynomial, and of its decomposition, at a truncation: every
  input digit combination is evaluated, so they share no span code with
  ``decomposition_image_agrees``.
* ``list_fp_insert`` is the F_p echelon step on rows as int lists, the
  reference for the packed ``finite_field._fp_insert``.  ``_fp_echelon``
  is the canonical reduced row-echelon form over F_p built on it, and
  ``fp_coordinates`` reads a series' F_p coordinates as a list, for
  ``per_bound_value``: the per-bound span solver, the reference for
  ``oap_solve``'s one pass, whose generators are g_i evaluated at the
  digit monomials by series products.
* ``trial_division_irreducible`` divides by every monic polynomial of
  degree <= half over F_p, reducing mod p at each step (``fp_remainder``):
  the reference for ``_pmod_irreducible``, which divides by
  ``polynomials.dense_rem_mod``.  ``schoolbook_mul_code`` is the schoolbook product of
  two F_{p^k} codes, the reference for ``mul_codes``.
* ``artin_schreier_root_by_scan`` tries every code of F_q for the least
  root of y^p - y = c: the reference for ``artin_schreier_root``, which
  solves the F_p-linear system.
* ``full_precision_lift`` is Newton's iteration with every step worked at
  the full precision of its operands, the reference for ``hensel_lift``.
  ``fresh_inverse_lift`` takes ``hensel_lift``'s steps but inverts f'(x)
  afresh at each, the reference for the inverse that ``hensel_lift``
  carries from step to step.
* ``sylvester_det`` is the resultant as the determinant of the Sylvester
  matrix, by exact elimination over Q: the reference for the remainder
  walk behind ``padic.ext_valuation``.
* ``fraction_newton_polygon`` is the Newton polygon with every hull point
  and every bound a ``Fraction`` and each bound tested against the hull's
  height as a ``Fraction``: the reference for
  ``polygon.newton_polygon_from_valuations``, whose points are ints where
  integral and whose bound test cross-multiplies.
* ``sparse`` turns a seeded family's dense exponent tuple into the
  ``MultiPoly`` monomial, so each instance keeps its draws.
"""

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from valfield.additive import AdditivePolynomial, Decomposition, _digit_horizon, _levels, alpha_bound, decompose
from valfield.errors import (
    DEFAULT_BUDGET, IndeterminateValuationError, PrecisionError, ValfieldError, check_budget, check_power,
)
from valfield.composite import CompositeElement, CompositeField
from valfield.extremality import Ball, SearchResult, search_max
from valfield.laurent import MAX_NEWTON_STEPS, ErrorOrder, LaurentField, LaurentSeries, ValuationResult, poly_derivative
from valfield.polygon import NewtonPolygon
from valfield.polynomials import MultiPoly, dense_eval
from valfield.value_group import Value


def sparse(dense: Sequence[int]) -> tuple:
    """A dense exponent tuple as a ``MultiPoly`` monomial: the sorted
    (variable, exponent) pairs of its nonzero exponents."""
    return tuple((i, e) for i, e in enumerate(dense) if e)


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


def capped_walk(
    f: MultiPoly, points: Iterable, capped: ValuationResult
) -> Iterator[Tuple[tuple, ValuationResult]]:
    """(args, v(f(args))) for every tuple of points, read once into the
    product's pool, with one horizon rule at the bound ``capped``: a value
    below it keeps its kind, so an exact value stays exact and a bound
    stays the bound that is known; every other value becomes ``capped``,
    because digits past the enumeration window were never tried."""
    for args in itertools.product(points, repeat=f.nvars):
        vr = f.evaluate(args).valuation()
        yield args, vr if vr.value < capped.value else capped


def ball_walk(
    f: MultiPoly, field: LaurentField, ball: Ball, upto: int, cap: int, budget: int
) -> Iterator[Tuple[tuple, ValuationResult]]:
    """The capped walk over every tuple of ball representatives modulo
    t^upto, at the cap ">= cap", charged to the budget first."""
    check_power(field.base.q, f.nvars * max(0, upto - ball.radius), 0, budget)
    capped = ValuationResult.at_least(Value.rank1(cap))
    return capped_walk(f, ball_representatives(field, ball, upto), capped)


def brute_force_max(
    f: MultiPoly, field: LaurentField, ball: Ball, prec: int, budget: int = DEFAULT_BUDGET
) -> Tuple[tuple, ValuationResult]:
    """(witness, value): the exhaustive maximum of v(f) over the ball's
    representatives modulo t^prec, capped at prec."""
    result = search_max(ball_walk(f, field, ball, prec, prec, budget))
    return result.witness, result.value


def _series_key(s: LaurentSeries, out_prec: int):
    t = s.truncate(min(s.prec, out_prec))
    return (t.low, t.coeffs) if t.coeffs else "0"


def truncated_image(
    f: AdditivePolynomial,
    out_prec: int,
    in_low: int = 0,
    out_low: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> frozenset:
    """{ f(a) mod t^out_prec : a_i over digits [in_low, horizon_i) }.

    The horizon per variable is where further digits provably stop
    mattering modulo t^out_prec, so this is the image of the whole
    valuation ring (shifted to in_low) at the truncation.  When out_low
    is given, outputs with valuation below it are discarded: the result
    is the part of the image falling in the window [out_low, out_prec).
    """
    field = f.field
    tops = []
    for i in range(f.nvars):
        g = f.restrict(i)
        tops.append(max(_digit_horizon(g, out_prec), in_low) if not g.is_zero() else in_low)
    check_budget(field.base.q ** sum(hi - in_low for hi in tops), budget)
    out = set()
    for args in itertools.product(
        *[digit_window(field, in_low, hi, math.inf) for hi in tops]
    ):
        value = f.evaluate(args)
        if out_low is not None and not value.is_zero_to_prec():
            if value.valuation_floor() < out_low:
                continue
        out.add(_series_key(value, out_prec))
    return frozenset(out)


def decomposition_image(
    dec: Decomposition,
    out_prec: int,
    in_low: int = 0,
    out_low: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> frozenset:
    """Image of g_1(K) + ... + g_m(K) at the same truncation, built by
    summing per-variable image sets.  out_low filters as in
    truncated_image."""
    field = dec.field
    current: Dict[object, LaurentSeries] = {"0": field.zero(math.inf)}
    for g in dec.polys:
        hi = max(_digit_horizon(g, out_prec), in_low)
        check_budget(len(current) * field.base.q ** (hi - in_low), budget)
        values = [g.evaluate([y]) for y in digit_window(field, in_low, hi, math.inf)]
        nxt: Dict[object, LaurentSeries] = {}
        for s in current.values():
            for v in values:
                w = s + v
                nxt[_series_key(w, out_prec)] = w
        current = nxt
    if out_low is not None:
        kept = set()
        for key, s in current.items():
            if not s.is_zero_to_prec() and s.valuation_floor() < out_low:
                continue
            kept.add(key)
        return frozenset(kept)
    return frozenset(current.keys())


def ball_count(field: LaurentField, ball: Ball, upto: int) -> int:
    """The number of representatives of the ball modulo t^upto."""
    return field.base.q ** max(0, upto - ball.radius)


def enumerated_multiset(
    f: MultiPoly, field: LaurentField, ball: Ball, upto: int, cap: int, budget: int = DEFAULT_BUDGET
) -> List[str]:
    """Sorted texts of v(f) over every tuple of ball representatives mod
    t^upto, by the walk's horizon rule at cap."""
    return sorted(vr.to_text() for _, vr in ball_walk(f, field, ball, upto, cap, budget))


def integral_composite_representatives(
    field: CompositeField, u_floor: int = 0
) -> Iterator[CompositeElement]:
    """The exact digit points of the rank-2 valuation ring O_v in the
    truncation.

    The coefficient of t^0 ranges over u-digits in [0, prec_u); higher
    t-coefficients may dip to u-level u_floor.  Every coefficient is exact,
    and ``make`` leaves out the exact zeros.
    """
    inner, n = field.inner, field.prec_u
    lower = list(digit_window(inner, u_floor, n, math.inf))
    for combo in itertools.product(digit_window(inner, 0, n, math.inf), *[lower] * (field.prec_t - 1)):
        yield field.make(dict(enumerate(combo)))


def integral_composite_count(field: CompositeField, u_floor: int = 0) -> int:
    q = field.base.q
    n0 = q**field.prec_u
    nj = q ** (field.prec_u - u_floor)
    return n0 * nj ** max(0, field.prec_t - 1)


def enumerated_composite_max(
    f: MultiPoly, field: CompositeField, u_floor: int = 0, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Exhaustive max of v(f) over every tuple of exact digit points of the
    truncated rank-2 valuation ring, charged to the budget first, by the
    capped walk at ">= (prec_t, 0)"."""
    check_budget(integral_composite_count(field, u_floor) ** f.nvars, budget)
    capped = ValuationResult.at_least(Value.rank2(field.prec_t, 0))
    return search_max(capped_walk(f, integral_composite_representatives(field, u_floor), capped))


def list_fp_insert(pivots: Dict[int, List[int]], row: List[int], stop: int, p: int) -> Optional[int]:
    """Insert a row into an F_p echelon {pivot column: row}.  The row is
    reduced in place by the pivot rows at its leading columns below stop;
    the first column below stop that survives without a pivot gets the
    row, scaled to 1 there, and is returned (None when nothing survives).
    Entries past stop are carried along but never read."""
    for col in range(stop):
        x = row[col]
        if not x:
            continue
        piv = pivots.get(col)
        if piv is None:
            inv = pow(x, -1, p)
            row[col:] = [(y * inv) % p for y in row[col:]]
            pivots[col] = row
            return col
        row[col:] = [(y - x * w) % p for y, w in zip(row[col:], piv[col:])]
    return None


def _fp_echelon(rows: Sequence[Sequence[int]], p: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical reduced row-echelon form over F_p (rows as int lists):
    every row inserted, then each pivot column cleared from the rows above
    it, last pivot first."""
    pivots: Dict[int, List[int]] = {}
    for row in rows:
        list_fp_insert(pivots, list(row), len(row), p)
    cols = sorted(pivots)
    for i in reversed(range(len(cols))):
        c, piv = cols[i], pivots[cols[i]]
        for row in (pivots[a] for a in cols[:i]):
            x = row[c]
            if x:
                row[c:] = [(y - x * w) % p for y, w in zip(row[c:], piv[c:])]
    return tuple(tuple(pivots[c]) for c in cols)


def fp_coordinates(s: LaurentSeries, low: int, high: int) -> List[int]:
    """F_p-coordinates of the coefficients of t^low .. t^(high - 1) of s,
    ordered by (exponent, coordinate); terms below t^low are not read."""
    if s.prec < high:
        raise PrecisionError(f"series known to O(t^{s.prec}) read up to t^{high}")
    desc = s.field.base
    k = desc.k
    out = [0] * (max(0, high - low) * k)
    if not s.coeffs:  # an exact zero has low = inf
        return out
    for e in range(max(low, s.low), min(high, s.low + len(s.coeffs))):
        if s.coeffs[e - s.low]:
            out[(e - low) * k:(e - low + 1) * k] = desc.digits(s.coeffs[e - s.low])
    return out


def per_bound_value(f: AdditivePolynomial, z: LaurentSeries, prec: int) -> str:
    """The per-bound span solver, kept as a reference for oap_solve's one
    pass.  The generators are g_i(lambda * t^j) over the decomposition's
    summands, the solver's levels and an F_p-basis lambda of F_q, each
    evaluated at the exact digit monomial.  For each bound B =
    min(generator precision, z.prec, prec), z is read below B and reduced
    against the RREF of the generators known to at least B; the best pass
    wins, an exact answer beating ">= B" on a tie."""
    K = f.field
    dec = decompose(f)
    alpha = int(alpha_bound(dec, z).first)
    p, k = K.base.p, K.base.k
    basis = [K.base.element([0] * r + [1]) for r in range(k)]
    gens = [
        g.evaluate([K.from_terms({j: lam}, math.inf)])
        for g in dec.polys for j in _levels(g, prec, alpha, 1) for lam in basis
    ]
    top = min(z.prec, prec)
    low = min([top, z.valuation_floor()] + [g.valuation_floor() for g in gens])
    best = None
    for bound in {min(g.prec, top) for g in gens} | {top}:
        vec = fp_coordinates(z, low, bound)
        used = [fp_coordinates(g, low, bound) for g in gens if g.prec >= bound]
        for row in _fp_echelon(used, p):
            c = vec[next(i for i, x in enumerate(row) if x)]
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        key = (bound, False) if lead is None else (low + lead // k, True)
        best = key if best is None else max(best, key)
    return Value.rank1(best[0]).to_text() if best[1] else f">={best[0]}"


def _fp_trim(c: Sequence[int]) -> Tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fp_remainder(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[int, ...]:
    """Remainder of a by b (b monic up to a unit) over F_p, reduced mod p
    at every step."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    while len(a) - 1 >= db and _fp_trim(a):
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] * inv_lb % p
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - q * bi) % p
        a.pop()
    return _fp_trim(a)


def trial_division_irreducible(f: Sequence[int], p: int) -> bool:
    """Whether f is irreducible over F_p: no monic divisor of degree 1 to
    deg/2 leaves a zero remainder, each divisor read off the base-p digits
    of a counter."""
    f = _fp_trim(f)
    deg = len(f) - 1
    if deg <= 1:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            g = [code // p**i % p for i in range(d)] + [1]
            if not fp_remainder(f, g, p):
                return False
    return True


def schoolbook_mul_code(desc, a: int, b: int) -> int:
    """The product of two codes of F_{p^k}: the digit products summed into
    2k - 1 slots, then folded by the descriptor."""
    prod = [0] * (2 * desc.k - 1)
    db = desc.digits(b)
    for i, x in enumerate(desc.digits(a)):
        if x:
            for j, y in enumerate(db):
                prod[i + j] += x * y
    return desc.fold(prod)


def artin_schreier_root_by_scan(desc, c: int) -> Optional[int]:
    """The least code y with y^p - y = c, or None, by trying every code of
    F_q in order."""
    roots = (y for y in range(desc.q) if desc.add_codes(desc.frobenius_code(y), desc.neg_code(y)) == c)
    return next(roots, None)


def full_precision_lift(
    coeffs: Sequence[LaurentSeries], x0: LaurentSeries, target_prec: int, max_iter: int = 64
) -> LaurentSeries:
    """x -> x - f(x)/f'(x) on the series as they are, each step dividing at
    the full precision its operands carry, up to f(x) = 0 mod t^target_prec;
    the root keeps the error order that the arithmetic gives it."""
    coeffs = list(coeffs)
    deriv = poly_derivative(coeffs)
    fx = dense_eval(coeffs, x0)
    if fx.is_zero_to_prec() and fx.prec >= target_prec:
        return x0
    vfx = fx.valuation().require_exact().first
    vdfx = dense_eval(deriv, x0).valuation().require_exact().first
    if not vfx > 2 * vdfx:
        raise ValfieldError(f"Hensel condition fails: v(f(x0))={vfx} <= 2*v(f'(x0))={2 * vdfx}")
    x = x0
    for _ in range(max_iter):
        fx = dense_eval(coeffs, x)
        if fx.is_zero_to_prec():
            if fx.prec >= target_prec:
                return x
            raise PrecisionError("input precision insufficient for the requested lift")
        if fx.low >= target_prec:
            return x
        x = x - fx / dense_eval(deriv, x)
    raise PrecisionError("Newton iteration did not reach the target precision")


def fresh_inverse_lift(coeffs: Sequence[LaurentSeries], x0: LaurentSeries, target_prec: int) -> LaurentSeries:
    """``hensel_lift``'s Newton steps, each dividing f(x) read to t^(n + b)
    by f'(x) read to t^(n - m + 2b) and inverted afresh."""
    coeffs = list(coeffs)
    deriv = poly_derivative(coeffs)
    fx, dfx = dense_eval(coeffs, x0), dense_eval(deriv, x0)
    dfx.valuation().require_exact()
    b = dfx.valuation_floor()
    if not fx.valuation_floor() > 2 * b:
        raise ValfieldError(f"Hensel condition fails: v(f(x0))={fx.valuation().to_text()} <= 2*v(f'(x0))={2 * b}")
    field, x = x0.field, x0
    for _ in range(MAX_NEWTON_STEPS):
        m = fx.valuation_floor()
        if m >= target_prec:
            return field.make(x.low, x.coeffs, m - b)
        if fx.is_zero_to_prec():
            raise PrecisionError("input precision insufficient for the requested lift")
        n = min(target_prec, 2 * m - b)
        y = x - fx.truncate(min(fx.prec, n + b)) / dfx.truncate(min(dfx.prec, n - m + 2 * b))
        x = field.make(y.low, y.coeffs, math.inf)
        fx, dfx = dense_eval(coeffs, x), dense_eval(deriv, x)
    raise PrecisionError("Newton iteration did not reach the target precision")


def sylvester_det(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """det Sylvester(f, g), up to sign, by exact elimination; f and g are
    trimmed and nonzero, with int or Fraction entries, which the rows read
    as Fractions so that no elimination step divides two ints."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    f, g = [Fraction(c) for c in f], [Fraction(c) for c in g]
    rows = [[Fraction(0)] * i + f[::-1] + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    rows += [[Fraction(0)] * i + g[::-1] + [Fraction(0)] * (m - 1 - i) for i in range(m)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        det *= top[col]
        for row in rows[col + 1:]:
            if row[col]:
                factor = row[col] / top[col]
                for c in range(col, size):
                    row[c] -= factor * top[c]
    return det


def fraction_newton_polygon(vals: Sequence[Optional[ValuationResult]]) -> NewtonPolygon:
    """The lower hull of the points (i, v(a_i)) as Fractions; a bound must
    not lie below the hull's height at its index, read as a Fraction."""
    n = len(vals) - 1
    if n < 1:
        raise ValfieldError("polygon needs degree >= 1")
    exact, bounded = [], []
    for i, vr in enumerate(vals):
        if vr is None or vr.value.is_infinity:
            continue
        (exact if vr.exact else bounded).append((i, Fraction(vr.value.first)))
    if not exact:
        raise IndeterminateValuationError("no coefficient with exact valuation")
    lead = max(i for i, _ in exact)
    if lead != n:
        if any(i > lead for i, _ in bounded):
            raise IndeterminateValuationError("leading coefficient valuation is indeterminate")
    start = min(i for i, _ in exact)
    if any(i < start for i, _ in bounded):
        raise IndeterminateValuationError("low-order coefficient valuation is indeterminate")
    hull: List[Tuple[int, Fraction]] = []
    for pt in sorted(exact):
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
            >= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(pt)
    for i, b in bounded:
        height = hull[0][1] if i <= hull[0][0] else hull[-1][1]
        for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
            if i0 <= i <= i1:
                height = v0 + Fraction(v1 - v0, i1 - i0) * (i - i0)
                break
        if b < height:
            raise IndeterminateValuationError(f"indeterminate coefficient at index {i} is at a needed vertex")
    segments = tuple(
        (Fraction(v1 - v0, i1 - i0), i1 - i0) for (i0, v0), (i1, v1) in zip(hull, hull[1:])
    )
    return NewtonPolygon(segments, start)
