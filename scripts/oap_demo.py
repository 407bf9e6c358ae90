#!/usr/bin/env python3
"""Walk through one best-approximation computation end to end.

For f = X^p - X over F_p((t)) and target z = t^-1 the image misses the
target by exactly one valuation level; the script shows the decomposition,
the alpha bound, the solver's answer, and the cross-check by the digit
tree of ``extremal_search`` over a ball that holds the witness, the ball
that ``valfield oap --oracle`` searches.
"""

import argparse
import sys

from valfield.additive import AdditivePolynomial, decompose, oap_solve
from valfield.extremality import Ball, extremal_search
from valfield.finite_field import prime_field
from valfield.laurent import LaurentField
from valfield.polynomials import MultiPoly


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-p", type=int, default=3, help="characteristic")
    ap.add_argument("--prec", type=int, default=6, help="comparison precision")
    args = ap.parse_args()
    K = LaurentField(prime_field(args.p), "t", default_prec=24)
    f = AdditivePolynomial(K, 1, {(0, 1): K.one(), (0, 0): -K.one()})
    z = K.t_power(-1)
    print(f"field   F({args.p})((t)),  f = X^{args.p} - X,  target z = t^-1")

    dec = decompose(f)
    print(f"decomposition: nu = {dec.nu}, {len(dec.polys)} summand(s)")
    for g in dec.polys:
        print(f"  leader valuation {g.leading_coefficient().valuation().to_text()}")

    res = oap_solve(f, z, prec=args.prec)
    print(f"alpha bound:  {res.alpha.to_text()}")
    print(f"best v(z - f(a)): {res.value.to_text()}")
    print(f"best input:   {res.best_input[0].to_text()}")

    residual = MultiPoly.constant(1, z) - f.to_multipoly()
    found = extremal_search(residual, K, Ball(K.zero(args.prec), res.witness_radius), args.prec)
    oracle = found.value
    print(f"oracle max:   {oracle.to_text()} at a = {found.witness[0].to_text()}")
    agree = oracle.to_text() == res.value.to_text()
    print("solver and oracle agree" if agree else "MISMATCH")
    return 0 if agree else 2


if __name__ == "__main__":
    sys.exit(main())
