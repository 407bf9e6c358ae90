import json
from fractions import Fraction
from pathlib import Path

import pytest

from valfield import certificates
from valfield.certificates import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    StepRecord,
    TmcneCertificate,
    fundeq_laurent,
    fundeq_padic,
    poly_text_from_coeffs,
    verify_tmcne,
)
from valfield.cli import main
from valfield.errors import BudgetExceededError, CertificationError
from valfield.laurent import LaurentField
from valfield.finite_field import prime_field
from valfield.polygon import FundamentalEqualityData

DATA = Path(__file__).parent / "data"


class TestArithmeticHelpers:
    def test_poly_text(self):
        # an int prints as the Fraction equal to it did
        text = poly_text_from_coeffs([Fraction(-1), 0, Fraction(3)])
        assert text == poly_text_from_coeffs([-1, 0, 3]) == "3*X^2 + -1"
        assert poly_text_from_coeffs([Fraction(1, 2), 1]) == "X^1 + 1/2"
        with pytest.raises(BudgetExceededError):
            poly_text_from_coeffs([1, 10**5000])


class TestTmcne:
    def test_p3_step_values(self):
        cert = verify_tmcne(3)
        assert cert.verdict == PASS
        assert [s.passed for s in cert.steps] == [True] * 5
        by_name = {s.name: s for s in cert.steps}
        s1 = by_name["S1-newton-polygon"]
        assert s1.computed["slope"] == "1/6"
        assert s1.computed["vGenerator"] == "-1/6"
        s2 = by_name["S2-fundamental-equality"]
        assert (s2.computed["n"], s2.computed["e"], s2.computed["fRes"]) == (6, 6, 1)
        s3 = by_name["S3-ring-identity"]
        assert s3.computed["vS"] == "-1/2"
        assert s3.computed["pTimesSSquaredMinusOneIsZero"]
        s4 = by_name["S4-cross-term-ledger"]
        assert s4.computed["minCrossTermValuation"] == "1/2"
        assert s4.computed["symbolicVSAgreesWithS3"]
        s5 = by_name["S5-residue-rootless"]
        assert s5.computed["irreducibleOverPrimeField"]

    def test_p5_passes(self):
        cert = verify_tmcne(5)
        assert cert.verdict == PASS
        by_name = {s.name: s for s in cert.steps}
        assert by_name["S1-newton-polygon"].computed["slope"] == "1/10"
        assert by_name["S2-fundamental-equality"].computed["n"] == 10

    def test_p2_rejected(self):
        with pytest.raises(CertificationError):
            verify_tmcne(2)

    def test_composite_rejected(self):
        with pytest.raises(CertificationError):
            verify_tmcne(9)

    def test_large_prime_rejected(self):
        with pytest.raises(CertificationError):
            verify_tmcne(11)

    def test_json_round_trip_byte_identical(self):
        cert = verify_tmcne(3)
        text = cert.to_json()
        again = TmcneCertificate.from_json(text)
        assert again.to_json() == text
        data = json.loads(text)
        assert data["p"] == 3
        assert data["verdict"] == PASS
        assert [s["name"] for s in data["steps"]] == [
            "S1-newton-polygon",
            "S2-fundamental-equality",
            "S3-ring-identity",
            "S4-cross-term-ledger",
            "S5-residue-rootless",
        ]
        for s in data["steps"]:
            assert set(s) == {"name", "inputs", "computed", "expected", "pass"}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_golden_file(self, p):
        # the bytes scripts/tmcne_report.py writes; they pin every step's
        # values, S4's binomial valuations among them
        golden = (DATA / f"tmcne_p{p}.json").read_text()
        assert verify_tmcne(p).to_json() + "\n" == golden

    @staticmethod
    def _tampered(edit) -> str:
        data = json.loads(verify_tmcne(3).to_json())
        edit(data)
        return json.dumps(data, indent=2, sort_keys=True)

    def test_flipped_pass_reads_back_true(self):
        def flip(data):
            data["steps"][1]["pass"] = False

        text = self._tampered(flip)
        cert = TmcneCertificate.from_json(text)
        assert cert.steps[1].passed
        assert cert.verdict == PASS
        assert cert.to_json() != text

    def test_flipped_verdict_reads_back_true(self):
        def flip(data):
            data["verdict"] = FAIL

        text = self._tampered(flip)
        cert = TmcneCertificate.from_json(text)
        assert cert.verdict == PASS
        assert cert.to_json() != text

    def test_changed_computed_value_fails_step_and_verdict(self):
        def change(data):
            data["steps"][2]["computed"]["vS"] = "-1/3"

        text = self._tampered(change)
        cert = TmcneCertificate.from_json(text)
        assert [s.passed for s in cert.steps] == [True, True, False, True, True]
        assert cert.verdict == FAIL
        assert cert.to_json() != text

    def test_value_of_another_json_type_fails_step_and_verdict(self):
        # true == 1 and 6.0 == 6 in Python, but not as certificate values
        def retype(data):
            data["steps"][1]["computed"]["n"] = 6.0
            data["steps"][3]["computed"]["residueOfExpansion"] = True

        text = self._tampered(retype)
        cert = TmcneCertificate.from_json(text)
        assert [s.passed for s in cert.steps] == [True, False, True, False, True]
        assert cert.verdict == FAIL

    def test_deterministic_across_runs(self):
        assert verify_tmcne(3).to_json() == verify_tmcne(3).to_json()

    def test_s2_checks_the_certifying_route(self, monkeypatch):
        # the same (n, e, fRes) by another route than the one S2 expects
        def asserted(ring):
            n = ring.degree
            return FundamentalEqualityData(n, n, 1, "asserted", True)

        monkeypatch.setattr(certificates, "fundamental_equality_data", asserted)
        cert = verify_tmcne(3)
        s2 = next(s for s in cert.steps if s.name == "S2-fundamental-equality")
        assert s2.computed["certifiedBy"] == "asserted"
        assert not s2.passed
        assert cert.verdict == FAIL


class TestStepRecord:
    def test_dict_round_trip(self):
        r = StepRecord("demo", {"a": 1}, {"b": 2}, {"b": 2})
        assert StepRecord.from_dict(r.to_dict()) == r
        assert r.to_dict()["pass"] is True

    def test_extra_computed_keys_pass(self):
        assert StepRecord("demo", {}, {"b": 2, "c": [1]}, {"b": 2}).passed

    def test_missing_expected_key_fails(self):
        assert not StepRecord("demo", {}, {"c": 2}, {"b": 2, "c": 2}).passed

    def test_error_computed_fails(self):
        r = StepRecord("demo", {}, {"error": "not certified"}, {"n": 6})
        assert not r.passed
        assert r.to_dict()["pass"] is False


class TestFundamentalEquality:
    def test_padic_counterexample_polynomial(self):
        for p in (3, 5):
            coeffs = [Fraction(0)] * (2 * p + 1)
            coeffs[2 * p] = Fraction(p)
            coeffs[p + 1] = Fraction(-2 * p)
            coeffs[2] = Fraction(p)
            coeffs[0] = Fraction(-1)
            data = fundeq_padic(p, coeffs)
            assert (data.n, data.e, data.f_res) == (2 * p, 2 * p, 1)
            assert data.equality_holds
            assert data.verdict == PASS

    def test_padic_unramified(self):
        data = fundeq_padic(3, [Fraction(-2), Fraction(0), Fraction(1)])
        assert (data.n, data.e, data.f_res) == (2, 1, 2)

    def test_laurent_eisenstein(self):
        K = LaurentField(prime_field(3), "t", default_prec=8)
        coeffs = [-K.t_power(1, 8), K.zero(8), K.one(8)]
        data = fundeq_laurent(K, coeffs)
        assert (data.n, data.e, data.f_res) == (2, 2, 1)
        assert data.certified_by == "slope-denominator"

    def test_laurent_unramified(self):
        # X^2 + X + 1 over F_2((t)): slope 0, residue irreducible
        K = LaurentField(prime_field(2), "t", default_prec=8)
        one = K.one(8)
        data = fundeq_laurent(K, [one, one, one])
        assert (data.n, data.e, data.f_res) == (2, 1, 2)
        assert data.certified_by == "residue-irreducible"

    def test_laurent_uncertifiable(self):
        # X^2 - 1 splits; neither certificate route applies
        K = LaurentField(prime_field(3), "t", default_prec=8)
        with pytest.raises(CertificationError):
            fundeq_laurent(K, [-K.one(8), K.zero(8), K.one(8)])

    @pytest.mark.parametrize(
        "poly, code",
        [("t^-2*X^2 + t^-2", 0), ("t^2*X^2 + t^2", 0), ("t*X^2 + t^3*X + t", 0), ("t*X^2 + 2*t", 3)],
    )
    def test_laurent_residue_route_scales_a_unit_multiple(self, capsys, poly, code):
        # each is t^v times a polynomial with unit coefficients, whose residue
        # is X^2 + 1 (irreducible over F_3) or X^2 - 1 (reducible)
        assert main(["fundeq", "--field", "F(3)((t))", "--poly", poly]) == code
        if code == 0:
            out = capsys.readouterr().out
            assert "n = 2, e = 1, fRes = 2" in out and "certified by: residue-irreducible" in out

    def test_asserted_route_when_e_does_not_divide_n(self, capsys):
        # X^3 + X^2 + 2 over Q_2: slopes 1/2 and 0 give e = 2, which does not
        # divide n = 3, so the asserted route leaves fRes and the equality
        # open; unasserted, the reducible residue X^2 (X + 1) certifies nothing
        argv = ["fundeq", "--field", "Q_2", "--poly", "X^3 + X^2 + 2"]
        assert main([*argv, "--asserted", "--json", "-"]) == 3
        out = capsys.readouterr().out
        data = json.loads(out[out.index("{"):])
        assert (data["n"], data["e"], data["fRes"]) == (3, 2, None)
        assert data["certifiedBy"] == "asserted"
        assert data["equalityHolds"] is None
        assert data["verdict"] == INCONCLUSIVE
        assert main(argv) == 3

    def test_dispatcher(self, capsys):
        # the CLI's fundeq dispatches on the base: fundeq_padic over Q_p,
        # fundeq_laurent over a Laurent field
        for field, poly in (("Q_3", "X^2 - 3"), ("F(3)((t))", "X^2 - t")):
            assert main(["fundeq", "--field", field, "--poly", poly]) == 0
            assert "n = 2, e = 2, fRes = 1" in capsys.readouterr().out
