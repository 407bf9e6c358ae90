"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion states its instance family, its seed, and its time budget;
the printed line goes to the real stdout so it survives pytest capture.
"""

import time
from fractions import Fraction

from valfield.additive import (
    AdditivePolynomial,
    PPolynomial,
    alpha_bound,
    decompose,
    decomposition_image_agrees,
    oap_solve,
    valuation_independent,
)
from valfield.certificates import PASS, fundeq_padic, verify_tmcne
from valfield.composite import CompositeField
from valfield.extremality import Ball, ball_transfer, check_vexbarwex, valuation_multiset
from valfield.finite_field import prime_field
from valfield.laurent import LaurentField
from valfield.polynomials import MultiPoly
from valfield.sampling import Sampler
from valfield.selftest import run_all
from valfield.value_group import Value

from oracles import brute_force_max

SEED = 2026


def _report(capsys, num: int, desc: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{verdict}] {desc} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)


def _field(p: int, prec: int) -> LaurentField:
    return LaurentField(prime_field(p), "t", default_prec=prec)


def _sample_instances(count: int, prec: int, max_k: int, coeff_lo: int, coeff_hi: int):
    """The shared seeded family for criteria 3 and 4: fields F_2((t)) and
    F_3((t)) alternating, one or two variables, heights up to max_k."""
    s = Sampler(SEED)
    fields = [_field(2, prec), _field(3, prec)]
    out = []
    i = 0
    while len(out) < count:
        field = fields[i % 2]
        n = 1 + (i // 2) % 2
        i += 1
        f = s.additive(
            field, n, max_k=max_k, coeff_lo=coeff_lo, coeff_hi=coeff_hi, prec=prec
        )
        if f.is_zero():
            continue
        out.append((field, f))
    return s, out


def test_criterion_1_tmcne_certificate_exact_for_3_and_5(capsys):
    t0 = time.monotonic()
    ok = True
    for p in (3, 5):
        t_p = time.monotonic()
        cert = verify_tmcne(p)
        per = time.monotonic() - t_p
        ok = ok and cert.verdict == PASS
        ok = ok and len(cert.steps) == 5
        ok = ok and all(step.passed for step in cert.steps)
        ok = ok and per < 10.0
    elapsed = time.monotonic() - t0
    _report(capsys, 1, "tmcne certificate passes all five steps for p in {3, 5}, each < 10s", ok, elapsed)
    assert ok


def test_criterion_2_fundamental_equality_of_counterexample_polynomial(capsys):
    t0 = time.monotonic()
    ok = True
    for p in (3, 5):
        coeffs = [Fraction(0)] * (2 * p + 1)
        coeffs[2 * p] = Fraction(p)
        coeffs[p + 1] = Fraction(-2 * p)
        coeffs[2] = Fraction(p)
        coeffs[0] = Fraction(-1)
        data = fundeq_padic(p, coeffs)
        ok = ok and (data.n, data.e, data.f_res) == (2 * p, 2 * p, 1)
        ok = ok and data.equality_holds
    elapsed = time.monotonic() - t0
    _report(capsys, 2, "p(X^p - X)^2 - 1 has n = e = 2p, residue degree 1, for p in {3, 5}", ok, elapsed)
    assert ok


def test_criterion_3_decomposition_images_and_independent_leaders(capsys):
    t0 = time.monotonic()
    s, instances = _sample_instances(50, prec=48, max_k=2, coeff_lo=-2, coeff_hi=2)
    ok = True
    for field, f in instances:
        dec = decompose(f)
        ok = ok and decomposition_image_agrees(f, dec, field, 4)
        samples = [
            [s.series(field, -1, 8) for _ in dec.polys] for _ in range(30)
        ]
        ok = ok and valuation_independent(
            dec.leading_coefficients, field, dec.nu, samples
        )
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(
        capsys,
        3,
        "50 seeded decompositions: images agree on the window mod t^4 "
        "and leaders are valuation independent, < 5 min",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_4_alpha_bound_inequalities_and_separation(capsys):
    t0 = time.monotonic()
    s, instances = _sample_instances(50, prec=48, max_k=2, coeff_lo=-2, coeff_hi=2)
    ok = True
    for field, f in instances:
        p = field.base.p
        dec = decompose(f)
        c = s.nonzero_series(field, -2, 48)
        h = PPolynomial(f, c)
        alpha_v = alpha_bound(h, dec)
        a_int = int(alpha_v.first)
        pnu = p**dec.nu
        vc = c.valuation().require_exact()
        min_inside = min(
            [vc]
            + [
                g.leading_coefficient().valuation().require_exact()
                + Value.rank1(pnu * a_int)
                for g in dec.polys
            ]
        )
        for j, g in enumerate(dec.polys):
            vb = g.leading_coefficient().valuation().require_exact()
            # below alpha: exact values on the leader line, strictly under vc
            for v0 in range(a_int - 2, a_int):
                a = field.t_power(v0, 40) + s.series(field, v0 + 1, 40)
                vr = g.evaluate([a]).valuation()
                ok = ok and vr.exact
                ok = ok and vr.value == vb + Value.rank1(pnu * v0)
                ok = ok and vr.value < vc
                # separation: a single out-of-ball coordinate pins h on the
                # leader line, strictly below the constant's valuation
                args = [
                    a if jj == j else field.zero(40)
                    for jj in range(len(dec.polys))
                ]
                total = (dec.sum_evaluate(args, field) + c).valuation()
                ok = ok and total.exact and total.value == vr.value
                ok = ok and total.value < vc
            # at or above alpha: never below the inside floor
            for v0 in range(a_int, a_int + 3):
                a = field.t_power(v0, 40) + s.series(field, v0 + 1, 40)
                vr = g.evaluate([a]).valuation()
                ok = ok and vr.value >= vb + Value.rank1(pnu * a_int)
        inside = [
            field.t_power(a_int, 40) + s.series(field, a_int + 1, 40)
            for _ in dec.polys
        ]
        total_in = (dec.sum_evaluate(inside, field) + c).valuation()
        ok = ok and total_in.value >= min_inside
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(
        capsys,
        4,
        "50 seeded p-polynomials: inequalities below/above alpha hold and "
        "out-of-ball inputs separate strictly, < 5 min",
        ok,
        elapsed,
    )
    assert ok


def _clamped(vr, cap: int) -> str:
    """Common comparison convention: everything at or past cap is '>=cap'."""
    if vr.exact and vr.value < Value.rank1(cap):
        return vr.to_text()
    return f">={cap}"


def test_criterion_5_oap_solver_matches_brute_force(capsys):
    t0 = time.monotonic()
    s = Sampler(SEED)
    fields = [_field(2, 16), _field(3, 16)]
    ok = True
    # the named instance first: X^p - X misses t^-1 by exactly one level
    for K in fields:
        f = AdditivePolynomial(
            K, 1, {(0, 1): K.one(16), (0, 0): -K.one(16)}
        )
        res = oap_solve(f, K.t_power(-1, 16), prec=4)
        ok = ok and res.value.exact and res.value.value == Value.rank1(-1)
    done = 0
    while done < 100 and ok:
        K = fields[done % 2]
        f = s.additive(K, 1, max_k=1, coeff_lo=-1, coeff_hi=1, prec=16)
        if f.is_zero():
            continue
        z = s.series(K, -2, 16)
        res = oap_solve(f, z, prec=4)
        alpha = int(res.alpha.first)
        residual = MultiPoly.constant(1, z) - f.to_multipoly()
        # the oracle enumerates deep enough that input digits feeding output
        # levels below t^4 through negative-valuation coefficients are all
        # covered, then both sides are clamped at the common cap
        depth = 4 + max(0, -min(c.low for c in f.terms.values()))
        _, oracle = brute_force_max(
            residual, K, Ball(K.zero(16), alpha), prec=depth
        )
        ok = ok and _clamped(oracle, 4) == _clamped(res.value, 4)
        done += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(
        capsys,
        5,
        "oap_solve equals the brute-force maximum on 100 seeded instances "
        "plus the X^p - X vs t^-1 landmark, < 5 min",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_6_ball_transfer_preserves_valuation_multisets(capsys):
    t0 = time.monotonic()
    s = Sampler(SEED)
    K = _field(2, 24)
    ok = True
    done = 0
    while done < 25 and ok:
        f = s.multipoly(K, nvars=1, max_deg=2, max_terms=3, prec=24)
        if all(coef.is_zero_to_prec() for coef in f.terms.values()):
            continue
        beta = s.rng.randint(0, 2)
        a0 = K.zero(24)
        b = s.series(K, 0, 24)
        c = K.t_power(beta, 24) + s.series(K, beta + 1, 24)
        g = ball_transfer(f, 0, a0, beta, b, c)
        # enumerate deeper than the cap so input digits feeding output levels
        # below t^5 through negative-valuation coefficients are all covered
        lows = [co.low for co in f.terms.values()] + [
            co.low for co in g.terms.values()
        ]
        slack = max(0, -min(lows))
        m_g = valuation_multiset(g, K, Ball(a0, 0), 5 + slack, cap=5)
        m_f = valuation_multiset(f, K, Ball(b, beta), 5 + beta + slack, cap=5)
        ok = ok and m_f == m_g
        done += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(
        capsys,
        6,
        "25 seeded affine transfers: capped valuation multisets coincide "
        "on corresponding windows mod t^5, < 2 min",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_7_composite_pushdown_never_contradicted(capsys):
    t0 = time.monotonic()
    s = Sampler(SEED)
    comp = CompositeField(prime_field(2), prec_t=3, prec_u=3)
    ok = True
    done = 0
    while done < 10 and ok:
        f = s.multipoly(
            comp.inner, nvars=1, max_deg=2, max_terms=2, coeff_lo=0,
            prec=comp.prec_u,
        )
        if all(coef.is_zero_to_prec() for coef in f.terms.values()):
            continue
        report = check_vexbarwex(f, comp)
        ok = ok and report.conclusion in ("Confirmed", "Inconclusive")
        done += 1
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        7,
        "10 seeded polynomials over F_2((u))((t)): the rank-2 maximum "
        "never contradicts the residue-level search",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_8_selftest_suites_clean_at_1000_samples(capsys):
    t0 = time.monotonic()
    results = run_all(SEED, 1000)
    ok = all(not violations for violations in results.values())
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(
        capsys,
        8,
        "seeded invariant suites (1000 samples per layer) report zero "
        "violations, < 1 min",
        ok,
        elapsed,
    )
    assert ok
