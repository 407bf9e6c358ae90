"""Additive polynomials over F_q((t)): decomposition, alpha bound, OAP solver.

An additive polynomial is a sparse map (variable, Frobenius power) ->
coefficient; a p-polynomial adds a constant.  The central operations:

* ``decompose`` rewrites f(X_1..X_n) as a sum of single-variable additive
  polynomials g_1..g_m of one common degree p^nu whose leading
  coefficients are valuation independent over the subfield of p^nu-th
  powers.  One rule does the work: a summand whose leading valuation
  agrees, modulo p^h, with that of a summand of height h <= its own loses
  its leading term to a monomial substitution into the other (Ore's right
  division on leading terms).  Each step raises a leading valuation or
  lowers a height, so at a fixed error order the loop ends; the summands
  are then expanded once over the basis 1, t, ..., t^(p^delta - 1) of K
  over K^(p^delta) to the common height.  Only a summand the loop
  rewrites is claimed modulo a working order; the expansion is an exact
  identity whose piece count is charged to the default budget before it
  is built.  Alongside each g_j the decomposition carries a section:
  single-variable additive maps back into the original variables with
  f(section_j(y)) = g_j(y), so any point of the decomposed image pulls
  back to an explicit input of f.  Sections are built from the exact
  identity by exact monomial substitutions, so they are exact.

* ``alpha_bound`` computes the ball radius below which inputs can only
  make things worse: the minimum of 0 and all coefficient-gap valuations,
  lowered by one grain of the value group to make the inequality strict.

* ``oap_solve`` finds a best approximation of a target z by the image of
  f.  Additive polynomials are F_p-linear, so inside the alpha ball the
  image modulo the requested precision is the F_p-span of single-digit
  generators g_i(lambda * t^j).  Each generator is one packed F_p row of
  ``finite_field``, the sum of its terms' scaled coefficients, packed
  once and shifted per level, with no series built.  The solver inserts
  the rows into one echelon, most precise first, reduces z, packed at the
  same origin, against it in one walk whose known order drops to the
  precision of each row used, and pulls the combination back through the
  sections.  Nothing here enumerates a ball: ``oap --oracle``
  and the demo script compare against the digit tree, and the exhaustive
  oracle is left to the tests.

* ``decomposition_image_agrees`` checks that f and its decomposition have
  the same image in an output window by the ranks of the windowed F_p
  spans of their single-digit generators, the same packed rows, built
  with the solver's insertion step.

Everything this module builds from integers is exact (error order
``math.inf``): the digit monomials lambda * t^j, the zero accumulators, the
identity section and the sections derived from it, and the value of the
zero polynomial.  Precision is lost only through f's and z's own
coefficients, so a witness built from exact digits is itself exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DEFAULT_BUDGET, PrecisionError, ValfieldError, check_budget, check_power
from .finite_field import FFElement, FiniteFieldDescriptor, _fp_insert, _fp_reduce, _fp_row, _fp_slots, _fp_sum, _row_slot
from .laurent import ErrorOrder, LaurentField, LaurentSeries
from .polynomials import MultiPoly
from .value_group import Value, ValuationResult


class AdditivePolynomial:
    """sum over (i, k) of c_{i,k} * X_i^(p^k); additive in every argument."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(
        self,
        field: LaurentField,
        nvars: int,
        terms: Dict[Tuple[int, int], LaurentSeries],
    ):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        for (i, k), c in terms.items():
            if not (0 <= i < nvars) or k < 0:
                raise ValfieldError("bad term index")
            if not c.is_zero_to_prec():
                self.terms[(i, k)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def height(self) -> Optional[int]:
        return max((k for _, k in self.terms), default=None)

    def leading_coefficient(self) -> LaurentSeries:
        if self.nvars != 1 or self.is_zero():
            raise ValfieldError("leading coefficient needs a nonzero one-variable polynomial")
        return self.terms[(0, self.height())]

    def evaluate(self, args: Sequence[LaurentSeries]) -> LaurentSeries:
        if len(args) != self.nvars:
            raise ValfieldError("arity mismatch")
        acc: Optional[LaurentSeries] = None
        for (i, k), c in self.terms.items():
            term = c * args[i].frobenius(k)
            acc = term if acc is None else acc + term
        return self.field.zero(math.inf) if acc is None else acc

    def restrict(self, var: int) -> "AdditivePolynomial":
        """The single-variable polynomial f(0, ..., X_var, ..., 0)."""
        return AdditivePolynomial(
            self.field,
            1,
            {(0, k): c for (i, k), c in self.terms.items() if i == var},
        )

    # -- one-variable algebra (used by the decomposition) ------------------

    def __add__(self, other: "AdditivePolynomial") -> "AdditivePolynomial":
        if self.nvars != other.nvars or self.field != other.field:
            raise ValfieldError("mismatched additive polynomials")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return AdditivePolynomial(self.field, self.nvars, out)

    def __neg__(self) -> "AdditivePolynomial":
        return AdditivePolynomial(
            self.field, self.nvars, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "AdditivePolynomial") -> "AdditivePolynomial":
        return self + (-other)

    def _monomial_terms(self, mu: FFElement, shift: int) -> Iterator[Tuple[int, LaurentSeries]]:
        """(k, c * (mu * t^shift)^(p^k)) for each term c * X^(p^k) of a
        one-variable polynomial.  The monomial is exact, so the coefficient
        is only rescaled and shifted, mu^(p^k) * t^(shift * p^k) * c, and
        keeps c's error order plus shift * p^k, as the product would."""
        if self.nvars != 1:
            raise ValfieldError("composition needs a one-variable polynomial")
        p = self.field.base.p
        for (_, k), c in self.terms.items():
            yield k, c.scale(mu.frobenius(k)).shift(shift * p**k)

    def compose_monomial(self, mu: FFElement, shift: int, delta: int) -> "AdditivePolynomial":
        """self(mu * t^shift * X^(p^delta)) for a one-variable polynomial,
        by the one shift-and-scale rule of ``_monomial_terms``:
        c * (mu * t^shift)^(p^k) = mu^(p^k) * t^(shift * p^k) * c."""
        return AdditivePolynomial(
            self.field, 1, {(0, k + delta): c for k, c in self._monomial_terms(mu, shift)}
        )

    def to_multipoly(self) -> MultiPoly:
        p = self.field.base.p
        terms = {}
        for (i, k), c in self.terms.items():
            mono = ((i, p**k),)
            terms[mono] = terms[mono] + c if mono in terms else c
        return MultiPoly(self.nvars, terms)

    def to_text(self) -> str:
        return ppolynomial_text(self, None)

    def __repr__(self) -> str:
        return f"AdditivePolynomial({self.to_text()})"


@dataclass(frozen=True)
class PPolynomial:
    """An additive polynomial plus a constant."""

    additive: AdditivePolynomial
    constant: Optional[LaurentSeries] = None

    def to_text(self) -> str:
        return ppolynomial_text(self.additive, self.constant)


def ppolynomial_text(f: AdditivePolynomial, constant: Optional[LaurentSeries]) -> str:
    p = f.field.base.p
    parts = []
    for (i, k) in sorted(f.terms, key=lambda ik: (ik[0], -ik[1])):
        c = f.terms[(i, k)]
        name = "X" if f.nvars == 1 else f"X{i + 1}"
        ct = c.to_text()
        parts.append(f"({ct})*{name}^{p**k}")
    if constant is not None and not constant.is_zero_to_prec():
        parts.append(f"({constant.to_text()})")
    return " + ".join(parts) if parts else "0"


# -- conversion from generic polynomials -----------------------------------


def additive_from_multipoly(mp: MultiPoly, field: LaurentField) -> PPolynomial:
    """Validate and convert; rejects exponents that are not powers of p."""
    p = field.base.p
    terms: Dict[Tuple[int, int], LaurentSeries] = {}
    constant: Optional[LaurentSeries] = None
    for mono, c in mp.terms.items():
        if not mono:
            constant = c
            continue
        if len(mono) > 1:
            raise ValfieldError("additive polynomials have single-variable monomials only")
        ((i, e),) = mono
        k = 0
        while e % p == 0:
            e //= p
            k += 1
        if e != 1:
            raise ValfieldError(
                f"exponent of monomial must be a power of p={p}"
            )
        key = (i, k)
        terms[key] = terms[key] + c if key in terms else c
    return PPolynomial(AdditivePolynomial(field, mp.nvars, terms), constant)


# -- decomposition ---------------------------------------------------------


@dataclass
class Decomposition:
    """f(K^n) = g_1(K) + ... + g_m(K) with common degree p^nu.

    sections[j] maps an input y of g_j to the tuple of original arguments:
    f(sections[j][0](y), ..., sections[j][n-1](y)) = g_j(y).  field is f's
    field.  working_prec is the order the summands are claimed modulo when
    the clash loop rewrote one of f's own summands, and None when it did
    not; the expansion to the common height is exact and claims nothing.
    """

    nu: int
    polys: List[AdditivePolynomial]
    sections: List[List[AdditivePolynomial]]
    nvars: int
    field: LaurentField
    working_prec: Optional[int] = None

    @property
    def leading_coefficients(self) -> List[LaurentSeries]:
        return [g.leading_coefficient() for g in self.polys]

    def pullback(self, ys: Sequence[LaurentSeries]) -> Tuple[LaurentSeries, ...]:
        """The f-input realizing sum g_j(ys[j]); exact for exact ys."""
        return tuple(
            sum(
                (s[i].evaluate([y]) for s, y in zip(self.sections, ys)),
                self.field.zero(math.inf),
            )
            for i in range(self.nvars)
        )

    def sum_evaluate(self, ys: Sequence[LaurentSeries]) -> LaurentSeries:
        return sum((g.evaluate([y]) for g, y in zip(self.polys, ys)), self.field.zero(math.inf))


def _expand_to_height(
    poly: AdditivePolynomial, section: List[AdditivePolynomial], nu: int
) -> List[Tuple[AdditivePolynomial, List[AdditivePolynomial]]]:
    """Raise a one-variable polynomial to degree p^nu over the basis
    1, t, ..., t^(p^delta - 1) of K over its p^delta-th powers."""
    delta = nu - poly.height()
    if delta == 0:
        return [(poly, section)]
    one = poly.field.base.one()
    return [
        (
            poly.compose_monomial(one, j, delta),
            [a.compose_monomial(one, j, delta) for a in section],
        )
        for j in range(poly.field.base.p**delta)
    ]


def decompose(f: AdditivePolynomial) -> Decomposition:
    """Single-variable decomposition with valuation-independent leaders.

    Summand i starts as f(0, .., X_i, .., 0) with section X_i.  A summand a
    clashes with a summand b of height h_b <= h_a when v(lead a) = v(lead b)
    mod p^h_b; then a <- a - b(d * X^(p^(h_a - h_b))), and the same for
    a's section, with the monomial d that cancels a's leading term, and a
    summand that becomes zero is dropped.  With no clash left, every
    summand is expanded once to the largest height nu, which puts the
    leaders in pairwise distinct classes mod p^nu.

    Only the loop makes a precision claim: a summand it rewrites is cut at
    the working order, f's largest finite coefficient order or, when every
    coefficient is exact, the larger of the field's default order and the
    order just past f's own terms.  The expansion is exact: it turns each
    coefficient c into c * t^(j * p^k) and shifts c's error order by the
    same amount.  Its piece count, the sum of p^(nu - h_i), is charged to
    the default budget before any piece is built.
    """
    field = f.field
    p = field.base.p
    work: List[Tuple[AdditivePolynomial, List[AdditivePolynomial]]] = []
    for i in range(f.nvars):
        g = f.restrict(i)
        if g.is_zero():
            continue
        ident = AdditivePolynomial(field, 1, {(0, 0): field.one(math.inf)})
        zero = AdditivePolynomial(field, 1, {})
        section = [ident if j == i else zero for j in range(f.nvars)]
        work.append((g, section))
    if not work:
        return Decomposition(0, [], [], f.nvars, field)
    # the working order bounds how far a leading valuation can rise, which
    # ends the loop
    coeffs = [c for g, _ in work for c in g.terms.values()]
    work_prec = max(
        [c.prec for c in coeffs if c.prec != math.inf],
        default=max([field.default_prec] + [c.low + len(c.coeffs) for c in coeffs]),
    )
    rewritten = False

    while (clash := _find_clash(work, p)) is not None:
        a, b = clash
        (ga, sa), (gb, sb) = work[a], work[b]
        la, lb = ga.leading_coefficient(), gb.leading_coefficient()
        hb = gb.height()
        mu = (la.coeff_at(la.low) / lb.coeff_at(lb.low)).frobenius(-hb)
        shift = (la.low - lb.low) // (p**hb)
        delta = ga.height() - hb
        # a rewritten summand is claimed to the working order; a term zero
        # to that order drops out
        diff = ga - gb.compose_monomial(mu, shift, delta)
        g = AdditivePolynomial(
            field, 1, {key: c.truncate(min(c.prec, work_prec)) for key, c in diff.terms.items()}
        )
        section = [x - y.compose_monomial(mu, shift, delta) for x, y in zip(sa, sb)]
        rewritten = True
        if g.is_zero():
            del work[a]
        else:
            work[a] = (g, section)

    nu = max(g.height() for g, _ in work)
    spent = 0
    for g, _ in work:
        spent = check_power(p, nu - g.height(), spent, DEFAULT_BUDGET)
    expanded = [gs for g, section in work for gs in _expand_to_height(g, section, nu)]
    expanded.sort(key=lambda gs: gs[0].leading_coefficient().low)
    return Decomposition(
        nu, [g for g, _ in expanded], [s for _, s in expanded], f.nvars, field,
        work_prec if rewritten else None,
    )


def _find_clash(
    work: List[Tuple[AdditivePolynomial, List[AdditivePolynomial]]], p: int
) -> Optional[Tuple[int, int]]:
    """Indices (a, b) with v(lead a) = v(lead b) mod p^h_b, where b comes
    before a in the order (height, leading valuation, index): so h_b <= h_a,
    and at equal heights the larger leading valuation is the one reduced,
    by a monomial d of nonnegative valuation."""
    keys = [(g.height(), g.leading_coefficient().low, i) for i, (g, _) in enumerate(work)]
    for ka in keys:
        for kb in keys:
            if kb < ka and (ka[1] - kb[1]) % (p ** kb[0]) == 0:
                return ka[2], kb[2]
    return None


# -- alpha bound -----------------------------------------------------------


def alpha_bound(d: Decomposition, constant: Optional[LaurentSeries] = None) -> Value:
    """Strict ball radius from the coefficient-gap minimum, minus one grain
    of the value group Z.  A stored coefficient has digits, so its
    valuation is its low; the constant counts only when it has digits."""
    gaps = [0]
    for g in d.polys:
        lead = g.leading_coefficient().low
        gaps += [c.low - lead for c in g.terms.values()]
        if constant is not None and constant.coeffs:
            gaps.append(constant.low - lead)
    return Value.rank1(min(gaps) - 1)


# -- the OAP solver and its oracle -----------------------------------------


@dataclass(frozen=True)
class OapResult:
    best_input: Tuple[LaurentSeries, ...]
    best_decomposed: Tuple[LaurentSeries, ...]
    value: ValuationResult
    alpha: Optional[Value]

    @property
    def witness_radius(self) -> int:
        """The lowest exponent of a ball that holds the witness: alpha (0
        when there is none) bounds the decomposed inputs, and the
        pulled-back witness can lie below it."""
        alpha = int(self.alpha.first) if self.alpha is not None else 0
        return min([alpha] + [a.low for a in self.best_input if a.coeffs])

    def to_dict(self) -> dict:
        return {
            "bestInput": [s.to_text() for s in self.best_input],
            "bestDecomposed": [s.to_text() for s in self.best_decomposed],
            "value": self.value.to_text(),
            "alpha": None if self.alpha is None else self.alpha.to_text(),
        }


def _digit_horizon(g: AdditivePolynomial, out_prec: int) -> int:
    """Digits at levels >= horizon move the value by valuation >= out_prec."""
    p = g.field.base.p
    h = 0
    for (_, k), c in g.terms.items():
        vc = c.low
        # need p^k * j + vc >= out_prec, i.e. j >= (out_prec - vc) / p^k
        need = -((vc - out_prec) // (p**k))  # ceil division
        h = max(h, need)
    return h


def _levels(g: AdditivePolynomial, out_prec: int, in_low: int, min_width: int) -> range:
    """The input levels of g's single-digit generators: from in_low up to
    max(horizon, in_low + min_width), and none for a zero g."""
    return range(in_low, max(_digit_horizon(g, out_prec), in_low + min_width) if g.terms else in_low)


def oap_solve(f: AdditivePolynomial, z: LaurentSeries, prec: int) -> OapResult:
    """Maximize v(z - f(a)) over all field inputs.

    The image of f equals the image of its decomposition, and on the alpha
    ball that image is the F_p-span of the single-digit generators
    g_i(lambda * t^j).  A combination is known only to the lowest
    precision among the generators it uses.  The generators enter one
    echelon most precise first, each read below min(its precision, top),
    so the pivot row at a column is the most precise span element that
    pivots there.  One walk reduces z: each row used lowers the known order
    to its precision; the first surviving column without a pivot is the
    exact answer, and reaching the known order answers ">= order".  The
    combination, read as digits, is mapped back through the sections.
    The F_p matrix, with its identity block, is charged to the default
    budget before any generator is built.
    """
    field = f.field
    dec = decompose(f)
    if not dec.polys:
        val = z.truncate(min(z.prec, prec)).valuation()
        zeros = tuple(field.zero(math.inf) for _ in range(f.nvars))
        return OapResult(zeros, (), val, None)
    # v(-z) = v(z), so z stands for the constant of f(X) - z
    alpha_v = alpha_bound(dec, z)
    alpha = int(alpha_v.first)
    top = min(z.prec, prec)
    rows, cols, origin = _span_size(dec.polys, prec, min(top, z.valuation_floor()), alpha, min_width=1)
    check_budget(rows * (cols + rows), DEFAULT_BUDGET)
    gens = _digit_generators(dec.polys, prec, alpha, origin, min_width=1)
    gens.sort(key=lambda gen: -gen[4])
    p, k, n = field.base.p, field.base.k, len(gens)
    bits = 8 * _row_slot(p)
    width = (top - origin) * k
    pivots: Dict[int, int] = {}
    known: Dict[int, int] = {}  # pivot column -> the column its row is known below
    # an identity block after the coordinates carries each row's combination
    for r, (*_, row, row_prec) in enumerate(gens):
        stop = (min(row_prec, top) - origin) * k
        col = _fp_insert(pivots, row & ((1 << bits * stop) - 1) | 1 << bits * (width + r), stop, p)
        if col is not None:
            known[col] = stop
    # one walk reduces z; each row used lowers the stop to its known column
    vec, col, stop = _fp_reduce(pivots, _coordinate_row(z, origin) & ((1 << bits * width) - 1), width, p, known)
    exact = col is not None
    # the identity block of vec holds minus each generator's digit
    ys = [field.zero(math.inf) for _ in dec.polys]
    for (i, j, lam, *_), a in zip(gens, _fp_slots(vec >> bits * width, n, p)):
        if a:
            ys[i] = ys[i] + field.from_terms({j: lam * field.base.element(-a % p)}, math.inf)
    value = ValuationResult(exact, Value.rank1(origin + (col if exact else stop) // k))
    best = dec.pullback(ys)
    if dec.working_prec is not None:
        # a rewritten summand may have lost a term that vanished below the
        # working order, which the span does not see; an exact residual of
        # the witness that contradicts the claim leaves only ">=" it
        shown = (z - f.evaluate(best)).valuation()
        if shown.exact and shown.contradicts(value):
            value = ValuationResult.at_least(min(shown.value, Value.rank1(top)))
    return OapResult(best, tuple(ys), value, alpha_v)


def _digit_generators(
    summands: Sequence[AdditivePolynomial], out_prec: int, in_low: int, origin: int, min_width: int = 0
) -> List[Tuple[int, int, FFElement, int, ErrorOrder]]:
    """Single-digit generators (i, j, lambda, row, prec) of the
    one-variable summands g_i: row holds the F_p coordinates of
    g_i(lambda * t^j) below its error order prec as one packed row from
    t^origin (``_coordinate_row``), and origin lies below every term.

    By additivity, g_1(Y_1) + ... + g_m(Y_m) at a sum of digit monomials
    is the sum of the g_i at the digit monomials, and scalars from the
    prime field pass through each g_i, so the image of the shifted
    valuation ring modulo t^out_prec is exactly the F_p-span of these over
    summands i, levels j of ``_levels`` and lambda in an F_p-basis of the
    coefficient field; a zero summand has no levels.  The digit monomials
    are exact, so g_i(lambda * t^j) is the sum over k of c_k * lambda^(p^k)
    * t^(j * p^k), known to min_k(prec(c_k) + j * p^k), with no series
    product: each scaled coefficient c_k * lambda^(p^k) does not depend on
    the level, so it is packed once per (term, lambda), and the row at
    level j is the sum of those packed rows, each shifted by j * p^k -
    origin exponents.  The sums span each level's shifted terms, so that
    width, times the field degree, is charged to the default budget,
    summed over all levels, before the level is built.
    """
    gens = []
    spent = 0
    for i, g in enumerate(summands):
        desc = g.field.base
        p, k = desc.p, desc.k
        bits = 8 * _row_slot(p) * k  # the bits of one exponent's coordinates
        basis = [FFElement(desc, p**r) for r in range(k)]
        # (start, end, prec, p^k) of each term c * X^(p^k): at level j it
        # spans [start + j * p^k, end + j * p^k) and is known to prec + j * p^k
        terms = [(c.low, c.low + len(c.coeffs), c.prec, p**e) for (_, e), c in g.terms.items()]
        packed = None  # per lambda, each term's c * lambda^(p^k) packed from t^start
        for j in _levels(g, out_prec, in_low, min_width):
            # the level's span [low, high), error order and each term's shift
            low, high, prec, shifts = math.inf, -math.inf, math.inf, []
            for start, end, c_prec, q in terms:
                start, end, c_prec = start + j * q, end + j * q, c_prec + j * q
                if start < low:
                    low = start
                if end > high:
                    high = end
                if c_prec < prec:
                    prec = c_prec
                shifts.append(bits * (start - origin))
            spent += k * (high - low)
            check_budget(spent, DEFAULT_BUDGET)
            if packed is None:
                packed = [
                    [_coordinate_row(c.times_code(lam.frobenius(e).code), c.low) for (_, e), c in g.terms.items()]
                    for lam in basis
                ]
            known = -1 if prec == math.inf else (1 << bits * (prec - origin)) - 1
            for lam, rows in zip(basis, packed):
                gens.append((i, j, lam, _fp_sum([r << shift for r, shift in zip(rows, shifts)], p) & known, prec))
    return gens


def _coordinate_row(s: LaurentSeries, origin: int) -> int:
    """The F_p coordinates of the stored terms of s as one packed row: the
    coefficient of t^e in the k slots from (e - origin) * k, for an s with
    no term below t^origin."""
    if not s.coeffs:  # an exact zero has low = inf
        return 0
    desc = s.field.base
    digits = s.coeffs if desc.k == 1 else [d for c in s.coeffs for d in desc.digits(c)]
    return _fp_row(digits, desc.p) << 8 * _row_slot(desc.p) * desc.k * (s.low - origin)


def windowed_image_span(
    gens: Sequence[Tuple[int, int, FFElement, int, ErrorOrder]],
    desc: FiniteFieldDescriptor,
    origin: int,
    out_prec: int,
) -> Dict[int, int]:
    """The part of the generated image falling in the output window
    [0, out_prec): the echelon's pivot rows at or past the cut, as
    {pivot column: packed row} over the window's coordinates.

    The generators of ``_digit_generators``, packed from t^origin <= 0,
    are inserted into one echelon over coordinates up to out_prec; each
    must be known that far.  A pivot row is zero below its pivot, and a
    span element leads at the least pivot among the rows it uses, so the
    rows pivoting at or past 0 span exactly the image elements of
    valuation at least 0; desc is the residue field."""
    stop = (out_prec - origin) * desc.k
    bits = 8 * _row_slot(desc.p)
    pivots: Dict[int, int] = {}
    for *_, row, prec in gens:
        if prec < out_prec:
            raise PrecisionError(f"generator known to O(t^{prec}) read up to t^{out_prec}")
        _fp_insert(pivots, row & ((1 << bits * stop) - 1), stop, desc.p)
    cut = -origin * desc.k
    return {col - cut: row >> bits * cut for col, row in pivots.items() if col >= cut}


def _span_size(
    summands: Sequence[AdditivePolynomial], out_prec: int, out_low: int, level: int, min_width: int = 0
) -> Tuple[int, int, int]:
    """(rows, columns, origin) of a span matrix over
    _digit_generators(summands, out_prec, level, origin, min_width), its
    columns from the origin, min(out_low, generator valuations), to
    out_prec, bounded from the summands' terms before any generator is
    built: the rows exactly, the columns since the digit t^j, j >= level,
    meets the term c * X^(p^k) at valuation >= v(c) + p^k * level.  No
    summands span an empty matrix."""
    if not summands:
        return 0, 0, out_low
    desc = summands[0].field.base
    rows = sum(len(_levels(g, out_prec, level, min_width)) for g in summands)
    floor = min(
        [out_low] + [c.low + desc.p**k * level for g in summands for (_, k), c in g.terms.items()]
    )
    return rows * desc.k, (out_prec - floor) * desc.k, floor


MIN_IN_LOW = -24  # the lowest input level of the image comparison


def decomposition_image_agrees(f: AdditivePolynomial, dec: Decomposition, out_prec: int) -> bool:
    """Whether f and its decomposition have the same image in the output
    window [0, out_prec).

    Both images are spans of single-digit generators, and the input window
    is lowered one level at a time, so the windowed spans W_f and W_d only
    grow: a level that changes neither dimension changes neither span.  At
    such a level, W_f lies inside W_d exactly when inserting W_f's rows
    into W_d's echelon adds no pivot; a pivot added answers False, equal
    dimensions then answer True, and a smaller W_f may still grow, so the
    descent goes on.  A window that does not settle above MIN_IN_LOW raises
    PrecisionError.  Every span matrix is charged to the default budget,
    summed over both sides and all levels, before its generators are
    built."""
    desc = f.field.base
    sides = ([f.restrict(i) for i in range(f.nvars)], dec.polys)
    level, spent, dims = 0, 0, None
    while level >= MIN_IN_LOW:
        spans = []
        for summands in sides:
            rows, cols, origin = _span_size(summands, out_prec, 0, level)
            spent += rows * cols
            check_budget(spent, DEFAULT_BUDGET)
            gens = _digit_generators(summands, out_prec, level, origin)
            spans.append(windowed_image_span(gens, desc, origin, out_prec))
        span_f, span_d = spans
        if (len(span_f), len(span_d)) == dims:
            if any(_fp_insert(span_d, row, out_prec * desc.k, desc.p) is not None for row in span_f.values()):
                return False
            if len(span_f) == len(span_d):
                return True
        dims = len(span_f), len(span_d)
        level -= 1
    raise PrecisionError(
        "image comparison window did not saturate above the input floor"
    )


def valuation_independent(
    leaders: Sequence[LaurentSeries],
    nu: int,
    samples: Iterable[Sequence[LaurentSeries]],
) -> bool:
    """Sampled check: v(sum c_i b_i) = min v(c_i b_i) for c_i in K^(p^nu).

    Each sample is a tuple of raw series x_i; the test uses c_i = x_i^(p^nu).
    """
    for xs in samples:
        terms = [x.frobenius(nu) * b for x, b in zip(xs, leaders)]
        vals = [vr.value for vr in (u.valuation() for u in terms) if vr.exact]
        if vals:
            vr = sum(terms[1:], terms[0]).valuation()
            if not vr.exact or vr.value != min(vals):
                return False
    return True
