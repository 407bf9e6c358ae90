"""Machine-checkable certificates.

Two certificate families:

* ``verify_tmcne(p)`` checks, step by step, the finite computations behind
  the mixed-characteristic non-equivalence counterexample built from the
  polynomial p(X^p - X)^2 - 1: Newton polygon and the valuation of the
  generator, certified irreducibility with the full degree/ramification/
  residue bookkeeping, the ring identity p*s^2 = 1 for s = gen^p - gen
  together with v(s) = -1/2, an exact rational ledger for the cross terms
  of the binomial expansion (b-a)^p - (b-a), and rootlessness of
  X^p - X - 1 over F_p.  The last two steps together force a residue that
  cannot exist, which is the contradiction the certificate records.

* ``fundeq_padic`` and ``fundeq_laurent`` report (n, e, fRes) and whether
  n = e * fRes for a finite extension presented over Q_p by an integer
  polynomial or over F_q((t)) by a polynomial with series coefficients.

A step passes when every key of its ``expected`` dict is computed with an
equal value, and a verdict passes when every step does; both are derived,
so reading a certificate back recomputes them.  Certificates serialize to
deterministic JSON: same parameters, byte-equal output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceededError, CertificationError
from .finite_field import (
    _pmod_irreducible,
    artin_schreier_irreducible,
    is_prime,
    prime_field,
)
from .laurent import LaurentField, LaurentSeries
from .padic import (
    PAdicExtRing,
    ext_valuation,
    fundamental_equality_data,
    vp_int,
)
from .polygon import (
    FundamentalEqualityData,
    certify_extension,
    newton_polygon_from_valuations,
)
from .polynomials import dense_mul, dense_sub

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StepRecord:
    name: str
    inputs: dict
    computed: dict
    expected: dict

    @property
    def passed(self) -> bool:
        """Every expected key is computed, with an equal value of the same
        type, so a JSON ``true`` or ``6.0`` read back does not pass for an
        expected ``1`` or ``6``; extra computed keys are allowed."""
        return all(
            k in self.computed and type(self.computed[k]) is type(v) and self.computed[k] == v
            for k, v in self.expected.items()
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "computed": self.computed,
            "expected": self.expected,
            "pass": self.passed,
        }

    @staticmethod
    def from_dict(d: dict) -> "StepRecord":
        return StepRecord(d["name"], d["inputs"], d["computed"], d["expected"])


@dataclass(frozen=True)
class TmcneCertificate:
    p: int
    steps: Tuple[StepRecord, ...]

    @property
    def verdict(self) -> str:
        return PASS if all(s.passed for s in self.steps) else FAIL

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "steps": [s.to_dict() for s in self.steps],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "TmcneCertificate":
        return TmcneCertificate(
            d["p"], tuple(StepRecord.from_dict(s) for s in d["steps"])
        )

    @staticmethod
    def from_json(text: str) -> "TmcneCertificate":
        return TmcneCertificate.from_dict(json.loads(text))


@dataclass(frozen=True)
class FundEqCertificate(FundamentalEqualityData):
    """The extension data together with the polynomial it was read from."""

    polynomial: str

    @property
    def verdict(self) -> str:
        if self.equality_holds is None:
            return INCONCLUSIVE
        return PASS if self.equality_holds else FAIL

    def to_dict(self) -> dict:
        return {
            "polynomial": self.polynomial,
            **super().to_dict(),
            "verdict": self.verdict,
        }


# -- the non-equivalence certificate ---------------------------------------


def _counterexample_coeffs(p: int) -> List[Fraction]:
    """p*(X^p - X)^2 - 1 as a dense coefficient list."""
    s = [Fraction(0), Fraction(-1)] + [Fraction(0)] * (p - 2) + [Fraction(1)]
    return dense_sub(dense_mul([Fraction(p)], dense_mul(s, s)), [Fraction(1)])


def verify_tmcne(p: int) -> TmcneCertificate:
    """Run all five steps of the non-equivalence check for an odd prime p;
    the range is checked before primality, which trial-divides."""
    if p > 7:
        raise CertificationError("p <= 7 keeps the resultant degree 2p tractable")
    if not is_prime(p) or p == 2:
        raise CertificationError(
            f"p must be an odd prime (the sign trick a -> -a needs p odd); got {p}"
        )
    coeffs = _counterexample_coeffs(p)
    poly_text = f"{p}*(X^{p} - X)^2 - 1"
    steps: List[StepRecord] = []
    ring = PAdicExtRing(p, coeffs)

    # S1: Newton polygon and the valuation of the generator
    polygon = ring.polygon()
    slope = polygon.single_slope()
    v_gen = None if slope is None else -slope
    expected_slope = Fraction(1, 2 * p)
    steps.append(
        StepRecord(
            "S1-newton-polygon",
            {"polynomial": poly_text},
            {
                "segments": len(polygon.segments),
                "slope": None if slope is None else str(slope),
                "vGenerator": None if v_gen is None else str(v_gen),
            },
            {
                "segments": 1,
                "slope": str(expected_slope),
                "vGenerator": str(-expected_slope),
            },
        )
    )

    # S2: certified irreducibility and the fundamental equality chain
    try:
        computed = fundamental_equality_data(ring).to_dict()
    except CertificationError as exc:
        computed = {"error": str(exc)}
    steps.append(
        StepRecord(
            "S2-fundamental-equality",
            {"polynomial": poly_text},
            computed,
            {
                "n": 2 * p,
                "e": 2 * p,
                "fRes": 1,
                "certifiedBy": "slope-denominator",
                "equalityHolds": True,
            },
        )
    )

    # S3: ring identity p*s^2 = 1 and v(s) = -1/2 for s = gen^p - gen
    gen = ring.gen()
    s = gen**p - gen
    identity = ring.element([p]) * s * s - ring.one()
    v_s = ext_valuation(s)
    steps.append(
        StepRecord(
            "S3-ring-identity",
            {"s": "gen^p - gen"},
            {
                "pTimesSSquaredMinusOneIsZero": identity.is_zero(),
                "vS": str(Fraction(v_s.first)),
            },
            {"pTimesSSquaredMinusOneIsZero": True, "vS": "-1/2"},
        )
    )

    # S4: exact rational ledger for the cross terms of (b-a)^p - (b-a)
    va = vb = Fraction(-1, 2 * p)
    cross = []
    for i in range(1, p):
        vbinom = vp_int(math.comb(p, i), p)
        val = vbinom + i * vb + (p - i) * va
        cross.append(
            {
                "i": i,
                "vBinomial": vbinom,
                "crossTermValuation": str(val),
            }
        )
    min_cross = min(
        Fraction(entry["crossTermValuation"]) for entry in cross
    )
    agree = Fraction(p) * va == Fraction(v_s.first) * 1  # symbolic route
    steps.append(
        StepRecord(
            "S4-cross-term-ledger",
            {"vA": str(va), "vB": str(vb)},
            {
                "crossTerms": cross,
                "minCrossTermValuation": str(min_cross),
                "sumInValuationIdeal": min_cross > 0,
                "residueOfExpansion": 1,
                "symbolicVSAgreesWithS3": agree,
            },
            {
                "minCrossTermValuation": "1/2",
                "sumInValuationIdeal": True,
                "residueOfExpansion": 1,
                "symbolicVSAgreesWithS3": True,
            },
        )
    )

    # S5: X^p - X - 1 has no root in F_p
    base = prime_field(p)
    steps.append(
        StepRecord(
            "S5-residue-rootless",
            {"polynomial": f"X^{p} - X - 1 over F({p})"},
            {"irreducibleOverPrimeField": artin_schreier_irreducible(base.one())},
            {"irreducibleOverPrimeField": True},
        )
    )
    return TmcneCertificate(p, tuple(steps))


# -- fundamental equality --------------------------------------------------


def fundeq_padic(
    p: int,
    coeffs: Sequence[Union[int, Fraction]],
    irreducible_asserted: bool = False,
) -> FundEqCertificate:
    """Extension of Q_p presented by a defining polynomial.  The report
    depends only on the Newton polygon and on residues of the exact
    coefficients."""
    ring = PAdicExtRing(p, coeffs, irreducible_asserted=irreducible_asserted)
    data = fundamental_equality_data(ring)
    text = poly_text_from_coeffs(coeffs)
    return FundEqCertificate(**vars(data), polynomial=f"{text} over Q_{p}")


def fundeq_laurent(
    field: LaurentField,
    coeffs: Sequence[Optional[LaurentSeries]],
    irreducible_asserted: bool = False,
) -> FundEqCertificate:
    """Extension of F_q((t)) presented by a defining polynomial (None for
    an absent coefficient), by the routes of ``certify_extension``; the
    residue route needs a prime base field."""
    polygon = newton_polygon_from_valuations(
        [None if c is None else c.valuation() for c in coeffs]
    )
    data = certify_extension(
        len(coeffs) - 1,
        polygon,
        lambda: field.base.k == 1 and _pmod_irreducible(
            tuple(0 if c is None else c.residue().code for c in coeffs),
            field.base.p,
        ),
        irreducible_asserted,
    )
    text = " + ".join(
        f"({c.to_text()})*X^{i}"
        for i, c in enumerate(coeffs)
        if c is not None and not c.is_zero_to_prec()
    )
    return FundEqCertificate(**vars(data), polynomial=f"{text} over {field.to_text()}")


def poly_text_from_coeffs(coeffs: Sequence[Union[int, Fraction]]) -> str:
    """The polynomial's text; a coefficient with more decimal digits than
    Python prints (``sys.get_int_max_str_digits``) exceeds the budget."""
    parts = []
    try:
        for i in reversed(range(len(coeffs))):
            if not coeffs[i]:
                continue
            c = coeffs[i]
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"X^{i}")
            else:
                parts.append(f"{c}*X^{i}")
    except ValueError:
        raise BudgetExceededError("a coefficient has too many digits to print") from None
    return " + ".join(parts) if parts else "0"
