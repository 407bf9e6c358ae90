"""Command-line front end.

Subcommands: oap, decompose, alpha, extremal, transfer, compose, tmcne,
fundeq, selftest.  Exit codes: 0 success/pass, 1 usage or parse error,
2 check failed, 3 inconclusive, 4 budget exceeded.

Output is deterministic: the human-readable summary and the JSON report
depend only on the arguments (and --seed where sampling is involved).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Optional, Tuple, Union

from .additive import (
    MIN_IN_LOW,
    AdditivePolynomial,
    PPolynomial,
    additive_from_multipoly,
    alpha_bound,
    decompose,
    decomposition_image_agrees,
    oap_solve,
)
from .certificates import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    fundeq_laurent,
    fundeq_padic,
    verify_tmcne,
)
from .composite import CompositeField
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CertificationError,
    ParseError,
    PrecisionError,
    ValfieldError,
    check_budget,
)
from .extremality import (
    Ball,
    MAX_ATTAINED,
    ball_transfer,
    check_vexbarwex,
    composite_extremal_search,
    extremal_search,
    valuation_multiset,
)
from .laurent import LaurentField
from .parsing import (
    PAdicFieldRef,
    parse_any_field,
    parse_ball,
    parse_int_poly,
    parse_poly,
    parse_series,
)
from .polynomials import MultiPoly
from .selftest import run_all
from .value_group import Value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3
EXIT_BUDGET = 4
VERDICT_EXIT = {PASS: EXIT_OK, INCONCLUSIVE: EXIT_INCONCLUSIVE, FAIL: EXIT_FAILED}


def _emit(report: dict, json_path: Optional[str]) -> None:
    if json_path:
        text = json.dumps(report, indent=2, sort_keys=True)
        if json_path == "-":
            print(text)
        else:
            with open(json_path, "w") as fh:
                fh.write(text + "\n")


def _laurent_field(args) -> LaurentField:
    field = parse_any_field(args.field, prec=args.prec)
    if not isinstance(field, LaurentField):
        raise ParseError(f"expected a Laurent series field, got {args.field!r}")
    return field


def _additive_poly(text: str, field: LaurentField) -> Tuple[MultiPoly, PPolynomial]:
    """--poly as a p-polynomial; a monomial that is not additive is a parse error."""
    mp = parse_poly(text, field)
    try:
        return mp, additive_from_multipoly(mp, field)
    except ValfieldError as exc:
        raise ParseError(str(exc)) from None


# -- subcommand handlers ---------------------------------------------------


def cmd_oap(args) -> int:
    field = _laurent_field(args)
    mp, pp = _additive_poly(args.poly, field)
    if pp.constant is not None:
        raise ParseError("oap takes the additive part in --poly and the target in --target")
    z = parse_series(field, args.target)
    result = oap_solve(pp.additive, z, args.prec)
    print(f"field: {field.to_text()}")
    print(f"additive polynomial: {pp.additive.to_text()}")
    print(f"target: {z.to_text()}")
    if result.alpha is not None:
        print(f"alpha: {result.alpha.to_text()}")
    print(f"max v(target - f(a)): {result.value.to_text()}")
    for i, s in enumerate(result.best_input):
        print(f"best input a_{i + 1}: {s.to_text()}")
    report = result.to_dict()
    code = EXIT_OK
    if args.oracle:
        # the digit tree, which shares no code with decompose or the span,
        # over a ball that holds the witness
        residual = MultiPoly.constant(mp.nvars, z) - mp
        ball = Ball(field.zero(args.prec), result.witness_radius)
        oracle_val = extremal_search(residual, field, ball, args.prec, args.budget).value
        agree = oracle_val.to_text() == result.value.to_text()
        if agree:
            verdict = "agrees"
        elif oracle_val.contradicts(result.value):
            verdict, code = "DISAGREES", EXIT_FAILED
        else:
            verdict, code = "inconclusive", EXIT_INCONCLUSIVE
        print(f"oracle max: {oracle_val.to_text()} ({verdict})")
        report["oracle"] = {"value": oracle_val.to_text(), "agrees": agree}
    _emit(report, args.json)
    return code


def cmd_decompose(args) -> int:
    field = _laurent_field(args)
    _, pp = _additive_poly(args.poly, field)
    dec = decompose(pp.additive)
    print(f"field: {field.to_text()}")
    print(f"additive polynomial: {pp.additive.to_text()}")
    print(f"nu: {dec.nu}   summands: {len(dec.polys)}")
    if dec.working_prec is not None:
        print(f"working order: O(t^{dec.working_prec})")
    for j, g in enumerate(dec.polys):
        lead = g.leading_coefficient()
        print(f"g_{j + 1}: {g.to_text()}   v(lead) = {lead.valuation().to_text()}")
    report = {
        "nu": dec.nu,
        "workingOrder": dec.working_prec,
        "summands": [g.to_text() for g in dec.polys],
        "leadingValuations": [
            g.leading_coefficient().valuation().to_text() for g in dec.polys
        ],
    }
    code = EXIT_OK
    if args.oracle:
        # the image comparison lowers its input level to MIN_IN_LOW, where a
        # generator of a summand of height <= nu capped at N is known to
        # N + p^nu * MIN_IN_LOW, so the summands are capped that far past
        # the window; f's own coefficients are exact
        f = pp.additive
        cap = args.prec - field.base.p ** (f.height() or 0) * MIN_IN_LOW
        wide = AdditivePolynomial(LaurentField(field.base, field.var, cap), f.nvars, f.terms)
        same = decomposition_image_agrees(f, decompose(wide), args.prec)
        print(
            f"image check on the window [0, {args.prec}): "
            f"{'identical' if same else 'DIFFERENT'}"
        )
        report["imageCheck"] = {"prec": args.prec, "identical": same}
        if not same:
            code = EXIT_FAILED
    _emit(report, args.json)
    return code


def cmd_alpha(args) -> int:
    field = _laurent_field(args)
    _, pp = _additive_poly(args.poly, field)
    dec = decompose(pp.additive)
    alpha = alpha_bound(dec, pp.constant)
    print(f"field: {field.to_text()}")
    print(f"p-polynomial: {pp.to_text()}")
    print(f"nu: {dec.nu}   summands: {len(dec.polys)}")
    print(f"alpha: {alpha.to_text()}")
    _emit({"alpha": alpha.to_text(), "nu": dec.nu}, args.json)
    return EXIT_OK


def cmd_extremal(args) -> int:
    # an option left out is absent from args, so one given to the kind of
    # field that never reads it is refused
    given = vars(args)
    opts = {"prec": 4, "ball": None, "prec_t": 3, "prec_u": 2, "u_floor": 0, **given}
    field = parse_any_field(args.field, prec_t=opts["prec_t"], prec_u=opts["prec_u"])
    composite = isinstance(field, CompositeField)
    if not composite and not isinstance(field, LaurentField):
        raise ParseError(f"unsupported field for extremal search: {args.field!r}")
    for name in ("prec", "ball") if composite else ("prec_t", "prec_u", "u_floor"):
        if given.get(name) is not None:
            raise ParseError(f"--{name.replace('_', '-')} needs a {'Laurent' if composite else 'composite'} field")
    mp = parse_poly(args.poly, field)
    if composite:
        result = composite_extremal_search(mp, field, opts["u_floor"], args.budget)
    else:
        ball = parse_ball(opts["ball"], field) if opts["ball"] else None
        result = extremal_search(mp, field, ball, opts["prec"], args.budget)
    print(f"field: {field.to_text()}")
    print(f"polynomial: {mp.to_text()}")
    print(f"max value: {result.value.to_text()}")
    print(f"verdict: {result.verdict}")
    for i, w in enumerate(result.witness):
        print(f"witness a_{i + 1}: {w.to_text()}")
    _emit(result.to_dict(), args.json)
    return EXIT_OK if result.verdict == MAX_ATTAINED else EXIT_INCONCLUSIVE


def cmd_transfer(args) -> int:
    field = _laurent_field(args)
    mp = parse_poly(args.poly, field)
    a = parse_series(field, args.center_a)
    b = parse_series(field, args.center_b)
    c = parse_series(field, args.scale)
    # the bijection x = c*(y-a)+b maps B_alpha(a) classes mod t^N to
    # B_beta(b) classes mod t^(N + beta - alpha); cap both at N.  The scale
    # is checked before any multiset, and f's multiset is charged before g
    # is built.
    shift = args.beta - args.alpha
    vc = c.valuation()
    if not vc.exact:
        raise PrecisionError(f"scale valuation only known to be {vc.to_text()}, expected {shift}")
    if vc.value != Value.rank1(shift):
        raise ParseError(f"scale has valuation {vc.to_text()}, expected beta - alpha = {shift}")
    m_f = valuation_multiset(
        mp, field, Ball(b, args.beta), args.prec + shift,
        cap=args.prec, budget=args.budget,
    )
    g = ball_transfer(mp, args.alpha, a, args.beta, b, c)
    print(f"f: {mp.to_text()}")
    print(f"g = f(c*(Y - a) + b): {g.to_text()}")
    m_g = valuation_multiset(
        g, field, Ball(a, args.alpha), args.prec,
        cap=args.prec, budget=args.budget,
    )
    same = m_f == m_g
    # a bound below the cap is precision lost in evaluation, not a failed check
    lossy = not same and any(m.startswith(">=") and m != f">={args.prec}" for m in m_f + m_g)
    verdict = "different, inconclusive" if lossy else "identical" if same else "DIFFERENT"
    print(
        f"valuation multisets over B_{args.beta}(b) for f and B_{args.alpha}(a) "
        f"for g mod t^{args.prec}: {verdict}"
    )
    _emit(
        {
            "g": g.to_text(),
            "multisetF": m_f,
            "multisetG": m_g,
            "identical": same,
        },
        args.json,
    )
    return EXIT_INCONCLUSIVE if lossy else EXIT_OK if same else EXIT_FAILED


def cmd_compose(args) -> int:
    field = parse_any_field(args.field, prec_t=args.prec_t, prec_u=args.prec_u)
    if not isinstance(field, CompositeField):
        raise ParseError(f"compose needs a composite field, got {args.field!r}")
    g = parse_poly(args.poly, field.inner)
    report = check_vexbarwex(g, field, args.u_floor, args.budget)
    print(f"field: {field.to_text()}")
    print(f"polynomial over the residue level: {g.to_text()}")
    print(f"composite search: {report.composite.value.to_text()} ({report.composite.verdict})")
    print(f"residue-level search: {report.residue_level.value.to_text()} ({report.residue_level.verdict})")
    if report.pushdown_value is not None:
        print(f"pushed-down witness value: {report.pushdown_value}")
    print(f"conclusion: {report.conclusion}")
    _emit(report.to_dict(), args.json)
    if report.conclusion == "Confirmed":
        return EXIT_OK
    if report.conclusion == "Inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAILED


def cmd_tmcne(args) -> int:
    cert = verify_tmcne(args.p)
    print(f"p = {cert.p}")
    for step in cert.steps:
        print(f"  {step.name}: {'pass' if step.passed else 'FAIL'}")
    print(f"verdict: {cert.verdict}")
    _emit(cert.to_dict(), args.json)
    return VERDICT_EXIT[cert.verdict]


def cmd_fundeq(args) -> int:
    field = parse_any_field(args.field)
    if isinstance(field, PAdicFieldRef):
        coeffs = parse_int_poly(args.poly)
    elif isinstance(field, LaurentField):
        mp = parse_poly(args.poly, field, nvars=1)
        by_degree = {sum(e for _, e in m): c for m, c in mp.terms.items()}
        deg = max(by_degree, default=0)
        check_budget(deg + 1, DEFAULT_BUDGET)
        coeffs = [by_degree.get(i) for i in range(deg + 1)]
    else:
        raise ParseError(f"fundeq needs Q_p or a Laurent field, got {args.field!r}")
    if len(coeffs) < 2:
        raise ParseError(f"fundeq needs a polynomial of degree >= 1, got {args.poly!r}")
    if isinstance(field, PAdicFieldRef):
        cert = fundeq_padic(field.p, coeffs, irreducible_asserted=args.asserted)
    else:
        cert = fundeq_laurent(field, coeffs, irreducible_asserted=args.asserted)
    print(f"polynomial: {cert.polynomial}")
    print(f"n = {cert.n}, e = {cert.e}, fRes = {cert.f_res}")
    print(f"certified by: {cert.certified_by}")
    print(f"n = e*fRes holds: {cert.equality_holds}")
    _emit(cert.to_dict(), args.json)
    return VERDICT_EXIT[cert.verdict]


def cmd_selftest(args) -> int:
    results = run_all(seed=args.seed, samples=args.samples)
    failed = False
    for name, failures in results.items():
        status = "ok" if not failures else f"{len(failures)} failures"
        print(f"{name}: {status}")
        for msg in failures[:5]:
            print(f"    {msg}")
        failed = failed or bool(failures)
    _emit(
        {name: failures for name, failures in results.items()},
        args.json,
    )
    return EXIT_FAILED if failed else EXIT_OK


# -- argument plumbing -----------------------------------------------------


def _bounded_int(what: str, low: float = -math.inf, high: float = math.inf) -> Callable[[str], int]:
    """An argparse type: an integer in [low, high], named by what when it is not."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {n}")
        if n > high:
            raise argparse.ArgumentTypeError(f"{what} must be <= {high}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names a value that int() refuses by it
    return parse


_error_order = _bounded_int("error order", low=1)
_u_floor = _bounded_int("u-floor", high=0)  # the window keeps t*u^0 in O_v


def _add_common(sub, prec_default: Union[int, str, None] = 8, budget=True):
    """--field, --json and, unless told otherwise, --prec and --budget;
    prec_default None leaves --prec out, and argparse.SUPPRESS leaves it
    out of args unless it is given."""
    sub.add_argument("--field", required=True, help="field descriptor, e.g. \"F(3)((t))\"")
    if prec_default is not None:
        sub.add_argument(
            "--prec", type=_error_order, default=prec_default,
            help="horizon: the order that searches, solvers and oracles work to",
        )
    if budget:
        sub.add_argument(
            "--budget", type=_bounded_int("budget", low=1), default=DEFAULT_BUDGET,
            help="search budget: tree digits expanded (by oap --oracle too) "
            "and multiset entries",
        )
    sub.add_argument("--json", metavar="PATH", help="write a JSON report ('-' for stdout)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared: a parse reads it and
    changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="valfield",
        description="exact computations in valued fields at finite precision",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("oap", help="best approximation by the image of an additive polynomial")
    _add_common(s)
    s.add_argument("--poly", required=True, help="additive polynomial, e.g. \"X^3 - (1 + t + O(t^4))*X\"")
    s.add_argument("--target", required=True, help="series to approximate, e.g. \"t^-1\" or \"t^-1 + O(t^8)\"")
    s.add_argument(
        "--oracle", action="store_true",
        help="cross-check by the digit tree over the ball of radius min(alpha, v(witness))",
    )

    s = subs.add_parser("decompose", help="single-variable decomposition of an additive polynomial")
    _add_common(s, prec_default=4, budget=False)
    s.add_argument("--poly", required=True)
    s.add_argument("--oracle", action="store_true", help="compare truncated image sets")

    s = subs.add_parser("alpha", help="alpha bound of a p-polynomial")
    _add_common(s, budget=False)
    s.add_argument("--poly", required=True, help="additive part plus optional constant, e.g. \"X^2 + t*X + (t^-3 + O(t^8))\"")

    s = subs.add_parser("extremal", help="max of v(f) over a truncated ball or valuation ring")
    _add_common(s, prec_default=argparse.SUPPRESS)
    s.add_argument("--poly", required=True)
    s.add_argument("--ball", help="e.g. \"v>=0 around 0\" (Laurent fields only)")
    # --prec (default 4) fits Laurent fields, and these three composite ones
    s.add_argument("--prec-t", type=_error_order, default=argparse.SUPPRESS, help="t-window (default 3)")
    s.add_argument("--prec-u", type=_error_order, default=argparse.SUPPRESS, help="u-precision (default 2)")
    s.add_argument("--u-floor", type=_u_floor, default=argparse.SUPPRESS, help="lowest u-level past t^0 (default 0)")

    s = subs.add_parser("transfer", help="carry a search between balls by an affine map")
    _add_common(s, prec_default=5)
    s.add_argument("--poly", required=True)
    s.add_argument("--alpha", type=int, required=True, help="radius of the target ball")
    s.add_argument("--center-a", default="0", help="center of the target ball")
    s.add_argument("--beta", type=int, required=True, help="radius of the source ball")
    s.add_argument("--center-b", default="0", help="center of the source ball")
    s.add_argument("--scale", required=True, help="series c with v(c) = beta - alpha")

    s = subs.add_parser("compose", help="rank-2 composite search vs residue-level search")
    _add_common(s, prec_default=None)
    s.add_argument("--poly", required=True, help="polynomial with coefficients in F_q((u))")
    s.add_argument("--prec-t", type=_error_order, default=2)
    s.add_argument("--prec-u", type=_error_order, default=2)
    s.add_argument("--u-floor", type=_u_floor, default=0)

    s = subs.add_parser("tmcne", help="non-equivalence certificate for an odd prime")
    s.add_argument("-p", type=int, required=True)
    s.add_argument("--json", metavar="PATH")

    s = subs.add_parser("fundeq", help="fundamental equality n = e*fRes for an extension")
    s.add_argument("--poly", required=True, help="polynomial in X; over Q_p its coefficients may be rational, e.g. \"X^2/2 - 3/2\"")
    s.add_argument("--field", required=True, help="Q_p or F(q)((t))")
    s.add_argument("--asserted", action="store_true", help="assert irreducibility externally")
    s.add_argument("--json", metavar="PATH")

    s = subs.add_parser("selftest", help="seeded invariant suites for all layers")
    s.add_argument("--seed", type=int, default=0)
    # at least one sample, so that every suite checks something
    s.add_argument("--samples", type=_bounded_int("sample count", low=1), default=300)
    s.add_argument("--json", metavar="PATH")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # looked up on each call, so that the shared parser holds no handler
    handler = {
        "oap": cmd_oap, "decompose": cmd_decompose, "alpha": cmd_alpha,
        "extremal": cmd_extremal, "transfer": cmd_transfer, "compose": cmd_compose,
        "tmcne": cmd_tmcne, "fundeq": cmd_fundeq, "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificationError as exc:
        print(f"cannot certify: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except PrecisionError as exc:
        print(f"inconclusive at this precision: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except OSError as exc:
        print(f"error: cannot write the JSON report: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
