"""The four workloads: seeded inputs, the operation on each, and its check.

Every workload is a fixed recipe of strata (field, precision, instance
size) with a fixed number of instances per stratum; the seed only draws
the instance inside its stratum.  That keeps the cost mix, and with it
the medians, comparable across seeds, while every seed still sends new
inputs.  Instance sizes are computed before any call into valfield, so
no enumeration can exceed its budget.

Inputs are built only from valfield's public constructors and CLI
argument strings; valfield.sampling and valfield.selftest are never
used, so a change to them cannot change the traffic.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from valfield import additive, certificates, cli, laurent, padic
from valfield.errors import PrecisionError
from valfield.finite_field import FiniteFieldDescriptor

import ref
from ref import GF

@dataclass
class Op:
    """One request: ``call`` runs it, ``answer`` reduces the raw result to a
    comparable form, ``check`` returns a failure text or None."""

    kind: str
    call: Callable[[], object]
    answer: Callable[[object], object]
    check: Callable[[object], Optional[str]]


def build(name: str, seed: int) -> List[Op]:
    rng = random.Random(f"{name}:{seed}")
    ops = {"approx": _approx, "search": _search, "certify": _certify, "lift": _lift}[name](rng)
    rng.shuffle(ops)
    return ops


def _field_for(p: int, prec: int, modulus=None) -> laurent.LaurentField:
    return laurent.LaurentField(FiniteFieldDescriptor(p, len(modulus) - 1 if modulus else 1, modulus), "t", prec)


def _series(K: laurent.LaurentField, F: GF, s: ref.Series, prec: int) -> laurent.LaurentSeries:
    return K.from_int_terms({e: F.decode(c) for e, c in s.items()}, prec)


def _series_answer(F: GF) -> Callable[[object], Tuple[ref.Series, int]]:
    def answer(y):
        if y is None:
            return None
        return ref.parse_series_text(F, y.to_text())

    return answer


# -- approx: best approximation by an additive polynomial --------------------

APPROX_COEFF_PREC = 16
APPROX_PREC = 4
# Largest enumeration oap_solve may face, per p; the largest blocks cost
# about 0.3 s each today, the p90 of the acceptance-5 family.
APPROX_MAX_CANDIDATES = {2: 512, 3: 729}


def _approx_shape(p: int, valuations: Dict[int, int]):
    """(alpha, candidates, oracle depth) of f = sum_k c_k t^j_k X^(p^k)
    against a target of valuation -2, from the definitions of the alpha
    bound and of oap_solve's digit horizon rather than from valfield."""
    nu = max(valuations)
    j_lead = valuations[nu]
    gaps = [0, -2 - j_lead] + [j - j_lead for k, j in valuations.items() if k < nu]
    alpha = min(gaps) - 1
    horizon = max(-((j - APPROX_PREC) // p**k) for k, j in valuations.items())
    count = p ** (max(horizon, alpha + 1) - alpha)
    depth = APPROX_PREC + max(0, -min(valuations.values()))
    return alpha, count, depth


def _approx(rng: random.Random) -> List[Op]:
    """Every shape of the family once: each Frobenius power k <= 2 is absent
    or has a coefficient of valuation -1, 0 or 1.  The shape fixes the
    enumeration, so the cost mix is the same for every seed; the seed draws
    the coefficients in F_p^* and the target's digits."""
    ops = []
    for p in (2, 3):
        K = _field_for(p, APPROX_COEFF_PREC)
        for choice in itertools.product((None, -1, 0, 1), repeat=3):
            valuations = {k: j for k, j in enumerate(choice) if j is not None}
            if not valuations:
                continue
            alpha, count, depth = _approx_shape(p, valuations)
            if count > APPROX_MAX_CANDIDATES[p]:
                continue
            terms = {k: (rng.randrange(1, p), j) for k, j in valuations.items()}
            z = {-2: rng.randrange(1, p), **_random_series(rng, p, -1, APPROX_COEFF_PREC)}
            f = additive.AdditivePolynomial(
                K, 1, {(0, k): K.from_int_terms({j: c}, APPROX_COEFF_PREC) for k, (c, j) in terms.items()}
            )
            ops.append(_approx_op(f, K.from_int_terms(z, APPROX_COEFF_PREC), terms, z, alpha, depth))
    return ops


def _clamped(vr) -> str:
    """Everything at or past the cap reads '>=cap', as in acceptance 5."""
    if vr.exact and vr.value.first < APPROX_PREC:
        return vr.to_text()
    return f">={APPROX_PREC}"


def _approx_op(f, z, terms, z_terms, alpha: int, depth: int) -> Op:
    p = f.field.base.p

    def check(ans) -> Optional[str]:
        best = ref.best_approximation(p, terms, z_terms, alpha, depth, APPROX_PREC)
        expected = f">={APPROX_PREC}" if best is None else str(best)
        if ans != expected:
            return f"oap_solve gives {ans}, the reference {expected} for {f.to_text()} vs {z.to_text()}"
        return None

    return Op(
        f"oap_solve F_{p}",
        lambda: additive.oap_solve(f, z, prec=APPROX_PREC),
        lambda res: _clamped(res.value),
        check,
    )


# -- search: exhaustive searches through the CLI -----------------------------

_GF4 = (1, 1, 1)  # x^2 + x + 1, the only irreducible quadratic over F_2

# Each stratum fixes the monomials, so the cost of an evaluation is the
# same for every seed; the seed draws coefficients, uniformizer exponents,
# ball centres and scales.
_CUBIC = ((3,), (1,), (0,))
_MIXED = ((2, 1), (0, 2), (1, 0))
_QUADRATIC = ((2,), (1,), (0,))
_BILINEAR = ((1, 1), (2, 0), (0, 0))

# (field text, p, modulus, prec, ball radius, monomials): instances; the
# enumeration has q^(nvars * (prec - radius)) candidates.  p90 falls in the
# middle of the F_3 block with 729 candidates: only five requests (1024
# candidates, and compose at 3/3) cost more.
EXTREMAL_STRATA = {
    ("F(2)((t))", 2, None, 5, 0, _CUBIC): 6,
    ("F(2)((t))", 2, None, 4, 0, _MIXED): 6,
    ("F(2)((t))", 2, None, 5, 1, _MIXED): 4,
    ("F(2)((t))", 2, None, 5, 0, _MIXED): 2,
    ("F(3)((t))", 3, None, 4, 0, _CUBIC): 6,
    ("F(3)((t))", 3, None, 5, 0, _CUBIC): 6,
    ("F(3)((t))", 3, None, 4, 1, _MIXED): 9,
    ("F(4)((t))", 2, _GF4, 4, 0, _CUBIC): 6,
    ("F(4)((t))", 2, _GF4, 5, 0, _CUBIC): 2,
    ("F(4)((t))", 2, _GF4, 4, 2, _MIXED): 4,
}
# (field text, p, prec, beta, monomials): instances; alpha is 0, and
# coefficients lie in the valuation ring.  p50 falls in the middle of the
# transfers over F_3.
TRANSFER_STRATA = {
    ("F(2)((t))", 2, 5, 1, _QUADRATIC): 4,
    ("F(2)((t))", 2, 5, 2, _QUADRATIC): 2,
    ("F(3)((t))", 3, 4, 1, _QUADRATIC): 10,
    ("F(3)((t))", 3, 4, 0, _QUADRATIC): 2,
    ("F(2)((t))", 2, 4, 1, _BILINEAR): 4,
}
# (field text, p, prec_t, prec_u, monomials): instances
COMPOSE_STRATA = {
    ("F(2)((u))((t))", 2, 2, 2, _CUBIC): 10,
    ("F(2)((u))((t))", 2, 3, 2, _CUBIC): 4,
    ("F(2)((u))((t))", 2, 2, 3, _CUBIC): 4,
    ("F(2)((u))((t))", 2, 3, 3, _CUBIC): 1,
    ("F(3)((u))((t))", 3, 2, 2, _CUBIC): 6,
}

# a term is (coefficient, uniformizer exponent, variable exponents)
Term = Tuple[int, int, Tuple[int, ...]]


def _random_terms(rng, p: int, monomials, j_lo: int, j_hi: int) -> List[Term]:
    return [(rng.randrange(1, p), rng.randint(j_lo, j_hi), mono) for mono in monomials]


def _poly_text(terms: Sequence[Term], unif: str = "t") -> str:
    nvars = len(terms[0][2])
    names = ["X"] if nvars == 1 else [f"X{i + 1}" for i in range(nvars)]
    parts = []
    for c, j, mono in terms:
        factors = [str(c)] if c != 1 else []
        if j:
            factors.append(f"{unif}^{j}")
        factors += [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        parts.append("*".join(factors) or "1")
    return " + ".join(parts)


def _series_text(s: ref.Series) -> str:
    return " + ".join(f"{c}*t^{e}" for e, c in sorted(s.items())) or "0"


def _random_series(rng, q: int, lo: int, hi: int) -> ref.Series:
    """Uniform digits in F_q at exponents lo..hi-1, zeros left out."""
    return {e: c for e in range(lo, hi) if (c := rng.randrange(q))}


def _run_cli(argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_answer(raw) -> Tuple[int, Optional[dict]]:
    code, text = raw
    start = text.find("{\n")
    return code, (json.loads(text[start:]) if start >= 0 else None)


def _search(rng: random.Random) -> List[Op]:
    ops = []
    for (ftext, p, mod, prec, radius, monomials), n in EXTREMAL_STRATA.items():
        F = GF(p, mod)
        for _ in range(n):
            terms = _random_terms(rng, p, monomials, -1, 2)
            # a zero centre makes every candidate cheaper, so a ball off
            # the origin always has a nonzero constant term
            center = {0: rng.randrange(1, p), **_random_series(rng, p, 1, radius)} if radius else {}
            argv = ["extremal", "--field", ftext, "--poly", _poly_text(terms),
                    "--prec", str(prec), "--ball", f"v>={radius} around {_series_text(center)}",
                    "--json", "-"]
            ops.append(_extremal_op(argv, F, terms, f"{ftext} prec {prec} radius {radius} {len(monomials[0])} vars"))
    for (ftext, p, prec, beta, monomials), n in TRANSFER_STRATA.items():
        for _ in range(n):
            terms = _random_terms(rng, p, monomials, 0, 2)
            center_b = _random_series(rng, p, 0, prec)
            scale = {beta: rng.randrange(1, p), **_random_series(rng, p, beta + 1, prec)}
            argv = ["transfer", "--field", ftext, "--poly", _poly_text(terms),
                    "--prec", str(prec), "--alpha", "0", "--beta", str(beta),
                    "--center-b", _series_text(center_b), "--scale", _series_text(scale),
                    "--json", "-"]
            ops.append(_transfer_op(argv, p ** (len(monomials[0]) * prec),
                                    f"{ftext} prec {prec} beta {beta} {len(monomials[0])} vars"))
    for (ftext, p, prec_t, prec_u, monomials), n in COMPOSE_STRATA.items():
        for _ in range(n):
            terms = _random_terms(rng, p, monomials, 0, 2)
            argv = ["compose", "--field", ftext, "--poly", _poly_text(terms, "u"),
                    "--prec-t", str(prec_t), "--prec-u", str(prec_u), "--json", "-"]
            ops.append(Op(f"cli compose {ftext} {prec_t}/{prec_u}", lambda a=argv: _run_cli(a),
                          _cli_answer, _check_compose))
    return ops


def _extremal_op(argv: List[str], F: GF, terms: Sequence[Term], label: str) -> Op:
    def check(ans) -> Optional[str]:
        code, report = ans
        if code not in (0, 3) or report is None:
            return f"exit {code} for {argv}"
        if (code == 0) != (report["verdict"] == "MaxAttained"):
            return f"exit {code} with verdict {report['verdict']}"
        args = [ref.parse_series_text(F, w)[0] for w in report["witness"]]
        value = _evaluate(F, terms, args)
        v = ref.s_valuation(value)
        text = report["value"]
        if text.startswith(">="):
            ok = v is None or v >= int(text[2:])
        else:
            ok = v == int(text)
        return None if ok else f"witness of {argv} evaluates to valuation {v}, reported {text}"

    return Op(f"cli extremal {label}", lambda: _run_cli(argv), _cli_answer, check)


def _evaluate(F: GF, terms: Sequence[Term], args: Sequence[ref.Series]) -> ref.Series:
    acc: ref.Series = {}
    for c, j, mono in terms:
        term: ref.Series = {j: c}
        for x, e in zip(args, mono):
            term = ref.s_mul(F, term, ref.s_pow(F, x, e))
        acc = ref.s_add(F, acc, term)
    return acc


def _transfer_op(argv: List[str], size: int, label: str) -> Op:
    def check(ans) -> Optional[str]:
        code, report = ans
        if code != 0 or report is None or not report["identical"]:
            return f"exit {code}: multisets differ for {argv}"
        if report["multisetF"] != report["multisetG"] or len(report["multisetF"]) != size:
            return f"multisets of {argv} are not the same {size} entries"
        return None

    return Op(f"cli transfer {label}", lambda: _run_cli(argv), _cli_answer, check)


def _check_compose(ans) -> Optional[str]:
    code, report = ans
    if code not in (0, 3) or report is None:
        return f"compose exits {code}"
    if report["conclusion"] == "Counterexample":
        return "compose reports a Counterexample"
    return None


# -- certify: p-adic certificate jobs ----------------------------------------

TMCNE_PRIMES = (3, 5)
# (p, degree): instances, for each of the Eisenstein and the unit families
FUNDEQ_STRATA = {(p, n): 9 for p in (2, 3, 5, 7) for n in (2, 3, 4)}
# (p, degree, valuations of the c_i or None for random ones): elements of
# a seeded Eisenstein ring.  Sorted by cost the blocks are fundeq with
# degree 2 (225 requests), degree 3 over Q_2 (40; p90 falls in its
# middle), then 8 costlier ones: degree 4 over Q_2, degree 3 over Q_3,
# tmcne.  The elimination in ext_valuation takes a path, and a time, that
# depends on the valuations of the c_i, so the p90 block fixes them.
# Degree 4 over Q_3 (over a second each today) is left out to keep passes
# short.
EXTVAL_STRATA = {
    (2, 2, None): 3, (3, 2, None): 3, (5, 2, None): 3,
    (2, 3, (1, 0, 2)): 40, (2, 4, None): 3, (3, 3, None): 3,
}


def _eisenstein(rng, p: int, n: int) -> List[int]:
    """X^n + p * (units); every coefficient below the top has valuation 1."""
    return [p * _unit(rng, p) for _ in range(n)] + [1]


def _unit(rng, p: int) -> int:
    return rng.choice([u for u in range(1, p * p) if u % p])


def _unit_poly(rng, p: int, n: int) -> List[int]:
    """A monic lift of a random irreducible polynomial of degree n mod p."""
    while True:
        res = [rng.randrange(p) for _ in range(n)] + [1]
        if ref.fp_irreducible(res, p):
            return [c + p * rng.randrange(p) for c in res[:-1]] + [1]


def _certify(rng: random.Random) -> List[Op]:
    ops = [
        Op(f"tmcne {p}", lambda p=p: certificates.verify_tmcne(p),
           lambda cert: (cert.verdict, tuple(s.passed for s in cert.steps)), _check_tmcne)
        for p in TMCNE_PRIMES
    ]
    for (p, n), count in FUNDEQ_STRATA.items():
        for _ in range(count):
            ops.append(_fundeq_op(p, _eisenstein(rng, p, n), (n, n, 1)))
            ops.append(_fundeq_op(p, _unit_poly(rng, p, n), (n, 1, n)))
    for (p, n, valuations), count in EXTVAL_STRATA.items():
        for _ in range(count):
            ring = padic.PAdicExtRing(p, _eisenstein(rng, p, n))
            vs = valuations or [rng.randrange(3) for _ in range(n)]
            coeffs = [rng.choice((1, -1)) * p**v * _unit(rng, p) for v in vs]
            ops.append(_extval_op(ring, coeffs))
    return ops


def _check_tmcne(ans) -> Optional[str]:
    verdict, passed = ans
    if verdict != certificates.PASS or len(passed) != 5 or not all(passed):
        return f"tmcne verdict {verdict}, steps {passed}"
    return None


def _fundeq_op(p: int, coeffs: List[int], expected: Tuple[int, int, int]) -> Op:
    def check(ans) -> Optional[str]:
        if ans != expected + (True,):
            return f"fundeq over Q_{p} of {coeffs}: {ans}, expected {expected}"
        return None

    return Op(
        f"fundeq_padic Q_{p} degree {len(coeffs) - 1}",
        lambda: certificates.fundeq_padic(p, coeffs),
        lambda cert: (cert.n, cert.e, cert.f_res, cert.equality_holds),
        check,
    )


def _extval_op(ring, coeffs: List[int]) -> Op:
    element = ring.element(coeffs)
    expected = ref.eisenstein_element_valuation(coeffs, ring.p, ring.degree)

    def call():
        # rebuild at doubled precision on PrecisionError, as
        # padic.with_precision_retry does
        try:
            return padic.ext_valuation(element)
        except PrecisionError:
            prec = 2 * ring.prec
            for _ in range(3):
                try:
                    return padic.ext_valuation(ring.at_precision(prec).element(coeffs))
                except PrecisionError:
                    prec *= 2
            raise

    def check(ans) -> Optional[str]:
        if ans != expected:
            return f"ext_valuation over Q_{ring.p}: {ans}, expected {expected}"
        return None

    return Op(f"ext_valuation Q_{ring.p} degree {ring.degree}", call, lambda v: Fraction(v.first), check)


# -- lift: high-precision root finding ---------------------------------------

_GF16 = (1, 1, 0, 0, 1)  # x^4 + x + 1
# (p, modulus, prec): instances of each of hensel_lift and artin_schreier_solve.
# Sorted by cost the blocks are F_2 and F_3 at prec 64, F_16 at prec 64,
# then prec 256; p90 falls inside the F_16 hensel_lift block.
LIFT_STRATA = {
    (2, None, 64): 16, (3, None, 64): 8, (2, _GF16, 64): 4,
    (2, None, 256): 1, (3, None, 256): 1,
}


def _lift(rng: random.Random) -> List[Op]:
    ops = []
    for (p, mod, prec), count in LIFT_STRATA.items():
        F = GF(p, mod)
        K = _field_for(p, prec, mod)
        for _ in range(count):
            ops.append(_hensel_op(rng, F, K, prec))
            ops.append(_artin_schreier_op(rng, F, K, prec))
    return ops


def _hensel_op(rng, F: GF, K, prec: int) -> Op:
    """f = (X - r)(X - s) with s - r a unit, so r is the simple root
    Hensel's lemma lifts from r mod t.  r has a t^1 term, so v(f(r mod t))
    is 1 and every lift takes the same number of Newton steps."""
    r = {**_random_series(rng, F.q, 0, prec), 1: rng.randrange(1, F.q)}
    while True:
        s = _random_series(rng, F.q, 0, prec)
        if s.get(0, 0) != r.get(0, 0):
            break
    f = [ref.s_mul(F, r, s, prec), ref.s_neg(F, ref.s_add(F, r, s)), {0: 1}]
    coeffs = [_series(K, F, c, prec) for c in f]
    r0 = r.get(0, 0)
    x0 = _series(K, F, {0: r0} if r0 else {}, prec)

    def check(ans) -> Optional[str]:
        y, y_prec = ans
        if y_prec < prec or ref.s_truncate(y, prec) != r:
            return f"hensel_lift over F_{F.q} at prec {prec} misses the root r mod t^{prec}"
        return None

    return Op(f"hensel_lift F_{F.q} prec {prec}", lambda: laurent.hensel_lift(coeffs, x0, prec), _series_answer(F), check)


def _artin_schreier_op(rng, F: GF, K, prec: int) -> Op:
    """a = x0^p - x0, so the solutions are x0 + c for c in F_p.  x0 has a
    t^1 term, so the final Hensel stage always starts at valuation 1."""
    low = rng.randint(-3, -1)
    x0 = {low: rng.randrange(1, F.q), **_random_series(rng, F.q, low + 1, prec), 1: rng.randrange(1, F.q)}
    a = ref.s_truncate(ref.s_sub(F, ref.s_frobenius(F, x0), x0), prec)
    a_series = _series(K, F, a, prec)

    def check(ans) -> Optional[str]:
        if ans is None:
            return f"artin_schreier_solve over F_{F.q} at prec {prec} finds no solution"
        y, y_prec = ans
        diff = ref.s_truncate(ref.s_sub(F, y, x0), prec)
        if y_prec < prec or set(diff) - {0} or not F.in_prime_field(diff.get(0, 0)):
            return f"artin_schreier_solve over F_{F.q} at prec {prec}: y - x0 is not in F_p"
        return None

    return Op(f"artin_schreier_solve F_{F.q} prec {prec}", lambda: laurent.artin_schreier_solve(a_series), _series_answer(F), check)
