import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valfield import cli
from valfield.additive import additive_from_multipoly, oap_solve
from valfield.certificates import poly_text_from_coeffs
from valfield.cli import main
from valfield.composite import CompositeField
from valfield.errors import BudgetExceededError, ParseError, PrecisionError, ValfieldError
from valfield.extremality import Ball, extremal_search
from valfield.finite_field import FFElement, FiniteFieldDescriptor
from valfield.laurent import LaurentField, ValuationResult
from valfield.parsing import (
    PAdicFieldRef,
    parse_any_field,
    parse_ball,
    parse_int_poly,
    parse_poly,
    parse_series,
)
from valfield.polynomials import MultiPoly, dense_trim
from valfield.value_group import Value

from oracles import brute_force_max, sparse


class TestFieldParsing:
    def test_laurent_field(self):
        K = parse_any_field("F(3)((t))")
        assert isinstance(K, LaurentField)
        assert K.base.p == 3

    def test_extension_base(self):
        K = parse_any_field("F(4)((t))")
        assert K.base.q == 4

    def test_composite_field(self):
        C = parse_any_field("F(2)((u))((t))", prec_t=3, prec_u=3)
        assert isinstance(C, CompositeField)
        assert (C.prec_t, C.prec_u) == (3, 3)

    def test_padic_ref(self):
        ref = parse_any_field("Q_5")
        assert isinstance(ref, PAdicFieldRef)
        assert ref.p == 5

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_any_field("R((t))")

    @pytest.mark.parametrize("text", ["Q_0", "Q_1", "Q_4", "Q_9"])
    def test_padic_ref_needs_a_prime(self, text):
        with pytest.raises(ParseError):
            parse_any_field(text)


class TestPolyParsing:
    def test_basic_poly(self):
        K = parse_any_field("F(2)((t))", prec=8)
        mp = parse_poly("X^2 + t*X + t^-1", K)
        assert mp.nvars == 1
        assert set(mp.terms) == {((0, 2),), ((0, 1),), ()}

    def test_two_variables(self):
        K = parse_any_field("F(2)((t))", prec=8)
        mp = parse_poly("X1^2 + t*X2", K)
        assert mp.nvars == 2

    def test_print_order_is_descending_in_the_dense_exponents(self):
        K = parse_any_field("F(3)((t))")
        assert parse_poly("X1 + X2^2 + X1*X3 + t*X3^2 + 2", K).to_text() == (
            "t^0*X1*X3 + t^0*X1 + t^0*X2^2 + t^1*X3^2 + 2*t^0"
        )
        assert parse_poly("X3 + X1^2*X2", K).to_text() == "t^0*X1^2*X2 + t^0*X3"

    @pytest.mark.parametrize(
        "mono",
        [((1, 1), (0, 2)), ((0, 1), (0, 2)), ((3, 1),), ((0, 0),)],
        ids=["unsorted", "repeated-variable", "index-past-nvars", "zero-exponent"],
    )
    def test_a_malformed_monomial_is_rejected(self, mono):
        K = parse_any_field("F(3)((t))")
        with pytest.raises(ValfieldError):
            MultiPoly(3, {mono: K.one(math.inf)})

    def test_leading_minus_matches_series(self):
        K = parse_any_field("F(3)((t))", prec=8)
        mp = parse_poly("-t^2*X", K)
        assert mp.terms[((0, 1),)] == parse_series(K, "-t^2")

    def test_int_poly(self):
        assert parse_int_poly("X^2 - 3*X + 2") == [
            Fraction(2),
            Fraction(-3),
            Fraction(1),
        ]
        assert parse_int_poly("3*(X^3 - X)^2 - 1")[0] == Fraction(-1)

    def test_a_literal_power_is_charged_for_its_coefficient_growth(self):
        # (X+1)^2000 pairs about 4e6 monomials, each a product of ~2000-bit
        # binomials; (X+1)^200 pairs 4e4 of at most 7 words
        with pytest.raises(BudgetExceededError):
            parse_int_poly("(X+1)^2000")
        with pytest.raises(BudgetExceededError):
            parse_int_poly("(3*X+3)^1000")
        coeffs = parse_int_poly("(X+1)^200")
        assert coeffs == [Fraction(math.comb(200, i)) for i in range(201)]

    def test_int_poly_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_int_poly("X^^2")

    def test_ball(self):
        K = parse_any_field("F(2)((t))", prec=8)
        ball = parse_ball("v>=1 around t^-1", K)
        assert ball.radius == 1
        assert ball.center.low == -1

    def test_ball_zero_center(self):
        K = parse_any_field("F(2)((t))", prec=8)
        ball = parse_ball("v>=0 around 0", K)
        assert ball.center.is_zero_to_prec()

    def test_error_reports_the_offending_offset(self):
        K = parse_any_field("F(3)((t))", prec=8)
        with pytest.raises(ParseError, match=r"'\^' \(at position 4\)"):
            parse_poly("2*X^^2 + t", K)
        with pytest.raises(ParseError, match=r"'\)' \(at position 7\)"):
            parse_int_poly("(X + 1))")


@st.composite
def literal_terms(draw):
    """A series field over F_3, F_4 or F_9 and terms (sign, [c], j, i, e)."""
    base = draw(st.sampled_from([(3, 1), (2, 2), (3, 2)]))
    K = LaurentField(FiniteFieldDescriptor(*base), "t", default_prec=6)
    terms = draw(st.lists(
        st.tuples(
            st.sampled_from([1, -1]),
            st.lists(st.integers(-3, 3), min_size=1, max_size=base[1]),
            st.integers(-3, 7),
            st.integers(1, 3),
            st.integers(0, 3),
        ),
        min_size=1, max_size=5,
    ))
    return K, terms


class TestLiteralCoefficients:
    @given(literal_terms())
    def test_text_equals_the_poly_built_from_terms(self, case):
        K, terms = case
        text = " ".join(
            f"{'+' if sign > 0 else '-'} [{','.join(map(str, c))}]*t^{j}*X{i}^{e}"
            for sign, c, j, i, e in terms
        )
        n = max(i for _, _, _, i, _ in terms)
        digits = {}
        for sign, c, j, i, e in terms:
            mono = sparse(tuple(e if k == i - 1 else 0 for k in range(n)))
            c = K.base.element(c) if sign > 0 else -K.base.element(c)
            d = digits.setdefault(mono, {})
            d[j] = d[j] + c if j in d else c
        expected = MultiPoly(n, {m: K.from_terms(d, math.inf) for m, d in digits.items()})
        assert parse_poly(text, K) == expected


def run_cli(*argv):
    return main(list(argv))


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*argv, timeout=60):
    """The CLI in a child process, killed if it outlives ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "valfield", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestCliExitCodes:
    def test_tmcne_pass(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli("tmcne", "-p", "3", "--json", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "pass"

    def test_tmcne_rejects_even(self, capsys):
        assert run_cli("tmcne", "-p", "2") == 3

    def test_oap_with_oracle(self, capsys):
        code = run_cli(
            "oap",
            "--field",
            "F(3)((t))",
            "--poly",
            "X^3 - X",
            "--target",
            "t^-1",
            "--oracle",
            "--prec",
            "4",
        )
        assert code == 0
        assert "-1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, poly, target",
        [
            ("F(2)((t))", "t^-2*X1^2 + t^-2*X1 + t^2*X2^2",
             "t^-2 + t + t^5 + t^7 + t^8 + t^10 + t^11 + t^13 + t^15 + O(t^16)"),
            ("F(3)((t))", "2*t*X1 + 2*t^-2*X2^9 + t^-1*X2",
             "2*t^-1 + t^3 + 2*t^4 + t^5 + t^8 + t^9 + 2*t^12 + t^13 + O(t^16)"),
        ],
        ids=["F2", "F3"],
    )
    def test_oap_oracle_searches_a_ball_that_holds_the_witness(self, capsys, field, poly, target):
        # the witnesses a_2 = t^-2 + t^4 over F_2 and a_1 = t^-3 + 2*t^33
        # over F_3 lie below alpha = -1; an oracle over the alpha ball read
        # -2 and -1 there and exited 2 although the solver is right
        code = run_cli(
            "oap", "--field", field, "--poly", poly, "--target", target, "--prec", "4", "--oracle"
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "max v(target - f(a)): >=4\n" in out
        assert "oracle max: >=4 (agrees)\n" in out

    def test_oap_oracle_is_inconclusive_on_a_weaker_bound(self, capsys):
        # the clash loop rewrites a summand at O(t^4), so the solver only
        # shows >=2; the tree reads >=4 over the ball, which does not
        # contradict it
        code = run_cli(
            "oap", "--field", "F(2)((t))", "--poly", "X1^2 + t^2*X1 + t^2*X2^2 + t*X2",
            "--target", "t^-1 + t^5 + t^8 + t^9 + t^14 + O(t^16)", "--prec", "4", "--oracle",
        )
        out = capsys.readouterr().out
        assert code == 3, out
        assert "max v(target - f(a)): >=2\n" in out
        assert "oracle max: >=4 (inconclusive)\n" in out

    def test_oap_oracle_agrees_where_only_the_expansion_rewrote(self, capsys):
        # t^2*X1^2 + t*X1 is raised to height 2 over the basis 1, t; that
        # expansion is exact, so its t-piece keeps its leader t^4*X^4 past
        # O(t^4), no summand is rewritten and the solver reads >=4
        code = run_cli(
            "oap", "--field", "F(2)((t))",
            "--poly", "(t^2)*X1^2 + (t^1)*X1^1 + (t^-1)*X2^4 + (t^2)*X2^2",
            "--target", "t^3 + t^4 + O(t^16)", "--prec", "4", "--oracle",
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "oracle max: >=4 (agrees)\n" in out

    @pytest.mark.parametrize(
        "value",
        [ValuationResult.exactly(Value.rank1(0)), ValuationResult.at_least(Value.rank1(4))],
        ids=["exact", "bound"],
    )
    def test_oap_oracle_catches_a_wrong_value(self, capsys, monkeypatch, value):
        # the maximum for X^3 - X against t^-1 is exactly -1: an exact 0
        # and a bound of 4 both contradict the tree's -1
        solve = cli.oap_solve
        monkeypatch.setattr(
            cli, "oap_solve", lambda *a: dataclasses.replace(solve(*a), value=value)
        )
        code = run_cli(
            "oap", "--field", "F(3)((t))", "--poly", "X^3 - X", "--target", "t^-1",
            "--prec", "4", "--oracle",
        )
        out = capsys.readouterr().out
        assert code == 2, out
        assert f"max v(target - f(a)): {value.to_text()}\n" in out
        assert "oracle max: -1 (DISAGREES)\n" in out

    def test_decompose_with_oracle(self, capsys):
        code = run_cli(
            "decompose",
            "--field",
            "F(2)((t))",
            "--poly",
            "X1^2 + t*X2^2",
            "--oracle",
            "--prec",
            "4",
        )
        assert code == 0
        # the README's example: no summand is rewritten, so no working order
        assert "working order" not in capsys.readouterr().out

    def test_decompose_states_the_working_order_of_a_rewritten_summand(self, capsys, tmp_path):
        # X1^2 + t^2*X1 and t^2*X2^2 + t*X2 clash, and the loop rewrites the
        # second summand at O(t^4)
        out = tmp_path / "dec.json"
        code = run_cli(
            "decompose", "--field", "F(2)((t))", "--poly", "X1^2 + t^2*X1 + t^2*X2^2 + t*X2",
            "--prec", "4", "--json", str(out),
        )
        assert code == 0
        assert "summands: 1\nworking order: O(t^4)\n" in capsys.readouterr().out
        assert json.loads(out.read_text())["workingOrder"] == 4
        assert run_cli("decompose", "--field", "F(2)((t))", "--poly", "X1^2 + t*X2^2",
                       "--json", str(out)) == 0
        assert json.loads(out.read_text())["workingOrder"] is None

    @pytest.mark.parametrize(
        "argv",
        [["tmcne", "-p", "3"], ["extremal", "--field", "F(2)((t))", "--poly", "X^2+t"]],
        ids=["tmcne", "extremal"],
    )
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_an_unwritable_json_path_is_a_usage_error(self, tmp_path, argv, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
        proc = run_cli_process(*argv, "--json", str(path))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: cannot write the JSON report" in proc.stderr

    def test_alpha(self, capsys):
        code = run_cli(
            "alpha",
            "--field",
            "F(2)((t))",
            "--poly",
            "t*X1^4 + X2^2 + t^-3",
        )
        assert code == 0
        assert "alpha" in capsys.readouterr().out

    def test_extremal_attained(self, capsys):
        code = run_cli(
            "extremal",
            "--field",
            "F(2)((t))",
            "--poly",
            "X^2 + t",
            "--ball",
            "v>=0 around 0",
            "--prec",
            "4",
        )
        assert code == 0

    def test_extremal_indeterminate(self, capsys):
        code = run_cli(
            "extremal",
            "--field",
            "F(2)((t))",
            "--poly",
            "t*X^2",
            "--ball",
            "v>=0 around 0",
            "--prec",
            "4",
        )
        assert code == 3

    def test_transfer(self, capsys):
        code = run_cli(
            "transfer",
            "--field",
            "F(2)((t))",
            "--poly",
            "X^2 + t",
            "--alpha",
            "0",
            "--beta",
            "1",
            "--center-b",
            "t^1",
            "--scale",
            "t^1",
            "--prec",
            "4",
        )
        assert code == 0

    def test_transfer_reports_the_bound_that_is_known(self, capsys):
        # f(a) = t^-2 * a for a = O(t^3) is only known to O(t^1); extremal
        # evaluates at exact digit points, where the exact t^-2 loses
        # nothing, so it reads the cap ">=3"
        args = ["--field", "F(2)((t))", "--poly", "t^-2*X", "--prec", "3", "--json", "-"]
        def report():
            out = capsys.readouterr().out
            return json.loads(out[out.index("{"):])

        assert run_cli("transfer", *args, "--alpha", "0", "--beta", "0", "--scale", "1") == 0
        multisets = report()
        assert multisets["multisetF"][-1] == multisets["multisetG"][-1] == ">=1"
        assert run_cli("extremal", *args) == 3
        assert report()["value"] == ">=3"

    def test_transfer_difference_from_lost_precision_is_inconclusive(self, capsys):
        # the scale 1 + O(t^1) makes g's coefficients known only to O(t^1),
        # so g's side reads ">=1" on classes where f's reads 1, 2 or ">=3"
        code = run_cli(
            "transfer", "--field", "F(2)((t))", "--poly", "X^2 + X",
            "--alpha", "0", "--beta", "0", "--scale", "1 + O(t^1)", "--prec", "3",
        )
        assert code == 3
        assert "different, inconclusive" in capsys.readouterr().out
        # a centre known to t^3 fixes the ball B_2 that it centres, so both
        # sides count exact points; known only to t^1, it fixes no ball
        args = ["--field", "F(2)((t))", "--poly", "t^-2*X + X^2", "--alpha", "0",
                "--scale", "t^2", "--prec", "3"]
        assert run_cli("transfer", *args, "--beta", "2", "--center-b", "O(t^3)") == 0
        assert "identical" in capsys.readouterr().out
        assert run_cli("transfer", *args, "--beta", "2", "--center-b", "O(t^1)") == 3
        assert "below its radius" in capsys.readouterr().err

    def test_compose(self, capsys):
        code = run_cli(
            "compose",
            "--field",
            "F(2)((u))((t))",
            "--poly",
            "X^2 + u",
            "--prec-t",
            "2",
            "--prec-u",
            "2",
        )
        assert code in (0, 3)

    def test_fundeq_padic(self, capsys):
        code = run_cli(
            "fundeq",
            "--field",
            "Q_3",
            "--poly",
            "3*(X^3 - X)^2 - 1",
        )
        assert code == 0
        assert "6" in capsys.readouterr().out

    def test_fundeq_degree_one(self, capsys, tmp_path):
        out = tmp_path / "fundeq.json"
        code = run_cli("fundeq", "--field", "Q_3", "--poly", "X", "--json", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert (data["n"], data["e"], data["fRes"]) == (1, 1, 1)
        assert data["equalityHolds"] is True

    @pytest.mark.parametrize("field", ["Q_1", "Q_4"])
    def test_fundeq_non_prime_base_is_a_parse_error(self, field):
        # Q_1 used to hang in the valuation loop; the child is killed on timeout
        proc = run_cli_process("fundeq", "--field", field, "--poly", "X^2 - 3")
        assert proc.returncode == 1
        assert "not prime" in proc.stderr

    def test_extension_literal_as_a_polynomial_coefficient(self, capsys):
        code = run_cli(
            "extremal", "--field", "F(2^2; modulus=[1,1,1])((t))",
            "--poly", "X^2 + t*X + [0,1]",
        )
        assert code == 0

    @pytest.mark.parametrize("field", ["Q_3", "F(2)((t))"])
    @pytest.mark.parametrize(
        "poly", ["(" * 2000 + "X", "(" * 2000 + "X" + ")" * 2000], ids=["unclosed", "closed"]
    )
    def test_deep_nesting_is_a_parse_error(self, field, poly):
        command = "fundeq" if field == "Q_3" else "extremal"
        proc = run_cli_process(command, "--field", field, "--poly", poly)
        assert proc.returncode == 1
        assert "nested too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["oap", "alpha", "decompose"])
    def test_non_additive_exponent_is_a_parse_error(self, capsys, command):
        argv = [command, "--field", "F(2)((t))", "--poly", "X^3"]
        if command == "oap":
            argv += ["--target", "t"]
        assert run_cli(*argv) == 1
        assert "power of p" in capsys.readouterr().err

    def test_long_coefficient_vector_is_a_parse_error(self, capsys):
        code = run_cli(
            "oap", "--field", "F(4)((t))", "--poly", "X^2", "--target", "[1,1,1]*t^-1"
        )
        assert code == 1

    @pytest.mark.parametrize("field, poly", [("F(2)((t))", "t"), ("Q_3", "3")])
    def test_fundeq_degree_zero_is_a_parse_error(self, capsys, field, poly):
        assert run_cli("fundeq", "--field", field, "--poly", poly) == 1

    def test_decompose_oracle_on_a_far_negative_leader(self, capsys):
        # with exact digit monomials the image window settles; the made-up
        # working precision used to raise PrecisionError here (exit 3)
        code = run_cli(
            "decompose", "--field", "F(2)((t))", "--poly", "t^-30*X^2 + X",
            "--prec", "4", "--oracle",
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_precision_error_is_inconclusive(self, capsys, monkeypatch):
        def stub(args):
            raise PrecisionError("window did not settle")

        monkeypatch.setattr(cli, "cmd_decompose", stub)
        code = run_cli("decompose", "--field", "F(2)((t))", "--poly", "X")
        assert code == 3
        assert "inconclusive at this precision" in capsys.readouterr().err

    def test_oap_witness_is_exact(self, capsys):
        code = run_cli(
            "oap", "--field", "F(2)((t))", "--poly", "X1^4 + t*X2^2 + X1",
            "--target", "t^-3 + t", "--prec", "4",
        )
        assert code == 0
        out = capsys.readouterr().out
        # f(t, t^-2) = t^-3 + t + t^4
        assert "max v(target - f(a)): >=4\n" in out
        assert "best input a_1: t^1\nbest input a_2: t^-2\n" in out

    def test_fundeq_laurent_degree_one(self, capsys):
        # the p-adic and Laurent sides share one set of routes
        code = run_cli("fundeq", "--field", "F(2)((t))", "--poly", "X")
        assert code == 0
        out = capsys.readouterr().out
        assert "n = 1, e = 1, fRes = 1" in out
        assert "certified by: degree-one" in out

    @pytest.mark.parametrize(
        "field, poly", [("F(3)((t))", "X^4 + t^2"), ("Q_3", "X^4 + 9")]
    )
    def test_fundeq_asserted(self, capsys, field, poly):
        assert run_cli("fundeq", "--field", field, "--poly", poly) == 3
        capsys.readouterr()
        assert run_cli("fundeq", "--field", field, "--poly", poly, "--asserted") == 0
        out = capsys.readouterr().out
        assert "n = 4, e = 2, fRes = 2" in out
        assert "certified by: asserted" in out

    def test_oap_beyond_the_old_enumeration_budget(self):
        # 1.3e8 digit vectors in the alpha ball: the span solver needs none
        proc = run_cli_process(
            "oap", "--field", "F(2)((t))", "--poly", "X1^4 + t*X2^2 + X1",
            "--target", "t^-3 + t", "--prec", "4",
        )
        assert proc.returncode == 0, proc.stderr
        assert "max v(target - f(a)): " in proc.stdout

    def test_alpha_on_same_class_leaders_terminates(self):
        # the old merge loop re-created the same summand after each height
        # drop and was still running after 300 s
        proc = run_cli_process(
            "alpha", "--field", "F(2)((t))",
            "--poly", "t*X1^4 + t*X1 + t*X2^4 + t*X2^2",
        )
        assert proc.returncode == 0, proc.stderr
        assert "nu: 1   summands: 1" in proc.stdout

    def test_decompose_oracle_on_a_linear_summand(self, capsys):
        code = run_cli(
            "decompose", "--field", "F(3)((t))",
            "--poly", "t*X1^9 + 2*X1 + t*X2^3 + t*X2", "--oracle",
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_decompose_oracle_waits_for_the_slower_image(self, capsys):
        # f is onto K (f(t^-2, t^-5 + t^-2) = 1), but its windowed span
        # grows until input level -5 while the decomposition's is full at -1
        code = run_cli(
            "decompose", "--field", "F(2)((t))",
            "--poly", "t^-1*X1^4 + t*X2^2 + t^2*X2", "--prec", "4", "--oracle",
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["decompose", "oap"])
    def test_summand_shifted_past_the_working_order_stays_exact(self, capsys, command):
        # expanded to height 2, the summand from t^2*X2^3 has every
        # coefficient shifted past O(t^6); the expansion is exact, so its
        # three pieces keep their degree-9 terms
        argv = [command, "--field", "F(3)((t))", "--prec", "6", "--oracle",
                "--poly", "t^-2*X1^9 + t^2*X2^3 + X3^9 + t*X3^3"]
        if command == "oap":
            argv += ["--target", "t^-1"]
        code = run_cli(*argv)
        out = capsys.readouterr().out
        assert code == 0, out
        if command == "decompose":
            assert "nu: 2   summands: 5\n" in out
            assert "working order" not in out
            assert "image check on the window [0, 6): identical\n" in out
        else:
            assert "max v(target - f(a)): >=6\n" in out
            assert "oracle max: >=6 (agrees)\n" in out

    @pytest.mark.parametrize("field", ["Q_3", "F(3)((t))"])
    def test_fundeq_typed_degree_is_charged_to_the_budget(self, field):
        # the dense coefficient list would hold 10^8 entries
        proc = run_cli_process("fundeq", "--field", field, "--poly", "X^99999999", timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert "budget" in proc.stderr

    def test_a_power_of_one_finite_field_scalar_is_not_charged(self, capsys):
        # 3 has order 4 in F_5^*, so 3^99999999 = 3^3 = 2 after 27 squarings
        code = run_cli("oap", "--field", "F(5)((t))", "--poly", "3^99999999*X", "--target", "t^-1")
        assert code == 0
        assert "additive polynomial: (2*t^0)*X^1" in capsys.readouterr().out

    def test_fundeq_uncertifiable(self, capsys):
        code = run_cli("fundeq", "--field", "Q_3", "--poly", "X^2 - 1")
        assert code == 3

    def test_selftest(self, capsys):
        assert run_cli("selftest", "--samples", "20") == 0

    def test_usage_error(self, capsys):
        assert run_cli("oap", "--field", "F(2)((t))") == 1

    def test_parse_error(self, capsys):
        code = run_cli(
            "extremal", "--field", "F(2)((t))", "--poly", "X^^2"
        )
        assert code == 1

    def test_budget_error(self, capsys):
        # transfer's multisets have 2^20 entries per side, charged before
        # they are built; extremal's digit tree reads the same input as
        # ">=10" in a few nodes
        args = ["--field", "F(2)((t))", "--poly", "X1*X2 + t", "--prec", "10", "--budget", "100"]
        assert run_cli("transfer", *args, "--alpha", "0", "--beta", "0", "--scale", "1") == 4
        assert run_cli("extremal", *args, "--ball", "v>=0 around 0", "--json", "-") == 3
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["value"] == ">=10"

    def test_extremal_budget_error(self, capsys):
        # one node of the digit tree has 3^5 digits, more than the budget
        code = run_cli(
            "extremal", "--field", "F(3)((t))", "--poly", "X1*X2 + t*X3*X4*X5",
            "--prec", "4", "--budget", "100",
        )
        assert code == 4

    def test_extremal_reaches_prec_20(self, capsys):
        # the enumeration would walk 2^40 tuples; the digit tree finds the
        # root near 0 in a few dozen nodes
        args = ["extremal", "--field", "F(2)((t))", "--poly", "X1^2 + t*X2^2 + X1",
                "--prec", "20", "--json", "-"]
        t0 = time.monotonic()
        assert run_cli(*args) == 3
        assert time.monotonic() - t0 < 1.0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["value"] == ">=20"
        proc = run_cli_process(*args, timeout=30)
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout[proc.stdout.index("{"):])["value"] == ">=20"

    @pytest.mark.parametrize(
        "poly",
        ["X^" + "9" * 5000, "9" * 5000 + "*X + 1", "[" + "9" * 5000 + ",1]*X"],
        ids=["exponent", "integer", "literal"],
    )
    def test_integer_longer_than_python_reads_is_a_parse_error(self, poly):
        proc = run_cli_process("fundeq", "--field", "Q_3", "--poly", poly)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "too long" in proc.stderr

    def test_certificate_coefficient_too_long_to_print_exceeds_the_budget(self):
        # 3^10000 has 4772 decimal digits, more than Python prints
        proc = run_cli_process("fundeq", "--field", "Q_3", "--poly", "3^10000*X + 3")
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr


class TestTypedText:
    """Typed text means what it says, and --prec is only a horizon."""

    def test_a_typed_coefficient_past_the_horizon_is_kept(self, capsys):
        # t*X is onto, so the best approximation of t^-1 reaches the horizon
        code = run_cli(
            "oap", "--field", "F(2)((t))", "--poly", "t*X", "--target", "t^-1", "--prec", "1"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "additive polynomial: (t^1)*X^1\n" in out
        assert "max v(target - f(a)): >=1\n" in out

    def test_a_typed_series_is_exact(self):
        K = parse_any_field("F(3)((t))", prec=2)
        assert parse_series(K, "t^5 - t^-1").prec == math.inf
        assert parse_series(K, "t^5 + O(t^4)").to_text() == "O(t^4)"
        assert parse_ball("v>=1 around t^-1 + t^9", K).center.to_text() == "t^-1 + t^9"
        assert parse_poly("t^9*X", K).terms[((0, 1),)].to_text() == "t^9"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--field", "F(2)((u))((t))", "--poly", "X^2 + u", "--prec", "999"],
            ["fundeq", "--field", "Q_3", "--poly", "X", "--prec", "3"],
            ["extremal", "--field", "F(2)((u))((t))", "--poly", "X", "--ball", "v>=1 around t"],
            ["extremal", "--field", "F(2)((u))((t))", "--poly", "X^2+u", "--prec", "9"],
            ["extremal", "--field", "F(2)((t))", "--poly", "X^2+t", "--prec-t", "9"],
            ["extremal", "--field", "F(2)((t))", "--poly", "X^2+t", "--u-floor", "5"],
            ["extremal", "--field", "F(2)((t))", "--poly", "X^2+t", "--prec-u", "3"],
        ],
        ids=["compose-prec", "fundeq-prec", "composite-ball", "composite-prec",
             "laurent-prec-t", "laurent-u-floor", "laurent-prec-u"],
    )
    def test_an_option_that_no_handler_reads_is_refused(self, capsys, argv):
        assert run_cli(*argv) == 1


class TestSharedParser:
    ARGVS = [
        ["oap", "--field", "F(3)((t))", "--poly", "X^3 - X", "--target", "t^-1", "--prec", "4",
         "--json", "-"],
        ["oap", "--field", "F(3)((t))", "--poly", "X^3 - X", "--target", "t^-1"],
        ["extremal", "--field", "F(2)((t))", "--poly", "X^2 + t", "--ball", "v>=1 around 1",
         "--prec", "3"],
        ["extremal", "--field", "F(2)((t))", "--poly", "X^2 + t", "--bogus"],
        ["extremal", "--field", "F(2)((t))", "--poly", "X^2 + t", "--json", "-"],
        ["oap", "--field", "F(2)((t))"],
        ["decompose", "--field", "F(2)((t))", "--poly", "X1^2 + t*X2^2", "--json", "-"],
        ["compose", "--field", "F(2)((u))((t))", "--poly", "X^2 + u"],
        ["transfer", "--field", "F(2)((t))", "--poly", "X^2 + t", "--alpha", "0", "--beta", "1",
         "--center-b", "t", "--scale", "t", "--prec", "3", "--json", "-"],
        ["fundeq", "--field", "Q_3", "--poly", "X^2 - 3"],
        ["extremal", "--field", "F(2)((t))", "--poly", "X^2 + t"],
    ]

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_each_call_prints_what_a_fresh_parser_prints(self):
        shared = [self._run(argv) for argv in self.ARGVS]
        for argv, seen in zip(self.ARGVS, shared):
            cli.build_parser.cache_clear()
            assert self._run(argv) == seen, argv
        assert [code for code, *_ in shared] == [0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0]


class TestPrecOption:
    """--prec is an error order of at least 1, checked when parsed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["oap", "--field", "F(2)((t))", "--poly", "X", "--target", "t^-1", "--prec", "0"],
            ["decompose", "--field", "F(3)((t))", "--poly", "X^3 + t*X", "--prec", "-2"],
            ["extremal", "--field", "F(2)((t))", "--poly", "X^2 + t", "--prec", "0"],
        ],
        ids=["oap", "decompose", "extremal"],
    )
    def test_error_order_below_one_is_a_usage_error(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "error order must be >= 1" in capsys.readouterr().err


class TestSamplesOption:
    """selftest --samples is a count of at least 1, checked when parsed:
    a suite run on no samples would print "ok" after checking nothing."""

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_a_sample_count_below_one_is_a_usage_error(self, capsys, samples):
        assert run_cli("selftest", "--samples", samples) == 1
        captured = capsys.readouterr()
        assert "sample count must be >= 1" in captured.err and "ok" not in captured.out


class TestBudgetOption:
    """--budget is at least 1, checked when parsed: a budget below 1 is a
    usage error, not a budget every search exceeds."""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_a_budget_below_one_is_a_usage_error(self, budget):
        proc = run_cli_process("extremal", "--field", "F(2)((t))", "--poly", "X", "--budget", budget)
        assert proc.returncode == 1
        assert "budget must be >= 1" in proc.stderr and "Traceback" not in proc.stderr


class TestErrorTerms:
    """``O(t^N)`` is a factor of the one term grammar: its order composes
    with the powers of t it is multiplied by, and the least order of a
    monomial's error terms wins."""

    K = LaurentField(FiniteFieldDescriptor(3, 1), "t", default_prec=4)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("t^2 - O(t^3)", "t^2 + O(t^3)"),
            ("O(t^8) + t^-2", "t^-2 + O(t^8)"),
            ("t^2 + O(t^3)*t", "t^2 + O(t^4)"),
            ("(t + O(t^3))^2", "t^2 + O(t^4)"),
            ("O(t^2)*O(t^3) + 1", "t^0 + O(t^5)"),
            ("O(t^3) - O(t^3)", "O(t^3)"),
            ("t^-1 + O(t^(-1)) + O(t)", "O(t^-1)"),
            ("O(t^9) + t + O(t^2)*t^-1", "O(t^1)"),
        ],
    )
    def test_orders_compose_as_the_mathematics_does(self, text, printed):
        assert parse_series(self.K, text).to_text() == printed

    @pytest.mark.parametrize(
        "text, message",
        [
            ("O(t^3)^2", "takes no exponent"),
            ("(t + O(t))^-1", "only names take negative exponents"),
            ("O(3)", "expected a name in an error term"),
            ("O(t^2", "unbalanced parenthesis"),
            ("O(u^2)", "unknown symbol 'O(u)'"),
        ],
    )
    def test_a_malformed_error_term_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_series(self.K, text)

    def test_a_polynomial_coefficient_carries_its_own_order(self):
        mp = parse_poly("(1 + t + O(t^4))*X^2 + O(t^3)*X^2 + t^-1*X + t^2 - O(t^5)", self.K)
        assert mp == MultiPoly(1, {
            ((0, 2),): self.K.from_terms({0: 1, 1: 1}, 3),
            ((0, 1),): self.K.from_terms({-1: 1}, math.inf),
            (): self.K.from_terms({2: 1}, 5),
        })

    @pytest.mark.parametrize(
        "poly, monomial",
        [("X^2 + O(t^4)*X", "X1^1"), ("X1*X2 + (t^5 + O(t^3))*X2^3", "X2^3"), ("X + O(t^2)", "1")],
    )
    def test_a_coefficient_zero_to_its_order_exits_3(self, capsys, poly, monomial):
        assert run_cli("extremal", "--field", "F(3)((t))", "--poly", poly) == 3
        assert f"the coefficient of {monomial} is zero to its order" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["extremal", "--field", "F(2)((u))((t))", "--poly", "X^2 + O(u^2)"],
            ["extremal", "--field", "F(2)((u))((t))", "--poly", "X^2 + O(t^2)*X"],
            ["fundeq", "--field", "Q_3", "--poly", "X^2 + O(X^3)"],
        ],
        ids=["composite-inner", "composite-outer", "Q_p"],
    )
    def test_an_error_term_where_none_is_read_is_a_parse_error(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "parse error" in capsys.readouterr().err

    def test_the_dense_window_below_the_order_is_charged(self):
        with pytest.raises(BudgetExceededError):
            parse_series(self.K, "t^-999999999 + t^999999999")
        assert parse_series(self.K, "t^-999999999 + t^999999999 + O(t^-999999990)").to_text() == (
            "t^-999999999 + O(t^-999999990)"
        )

    def test_alpha_reads_back_the_target_that_oap_prints(self, capsys):
        field, f = "F(2)((t))", "X^2 + t*X"
        assert run_cli("oap", "--field", field, "--poly", f, "--target", "t^-3 + t + O(t^8)", "--prec", "4") == 0
        out = capsys.readouterr().out
        target = out.split("target: ")[1].split("\n")[0]
        assert target == "t^-3 + t^1 + O(t^8)"
        assert run_cli("alpha", "--field", field, "--poly", f"{f} + ({target})", "--prec", "4") == 0
        alpha = capsys.readouterr().out
        assert "(t^-3 + t^1 + O(t^8))\n" in alpha
        assert "alpha: -4\n" in out and "alpha: -4\n" in alpha


class TestDivision:
    """``/n`` divides a product by an integer, in Q or in F_q."""

    def test_rational_coefficients_over_q(self):
        assert parse_int_poly("X^2/2 + X + 3") == [3, 1, Fraction(1, 2)]
        assert parse_int_poly("1/2*X^2 + -3/2") == [Fraction(-3, 2), 0, Fraction(1, 2)]
        assert parse_int_poly("(X + 1)/3/2*X") == [0, Fraction(1, 6), Fraction(1, 6)]

    def test_over_a_finite_field_it_is_the_inverse_mod_p(self):
        K = parse_any_field("F(5)((t))")
        assert parse_series(K, "t/2 + 1/3").to_text() == "2*t^0 + 3*t^1"

    @pytest.mark.parametrize(
        "read, text, position",
        [
            (parse_int_poly, "X/0", 1),
            (parse_int_poly, "X^2 + X/(2)", 7),
            (parse_int_poly, "X/-2", 1),
            (lambda text: parse_series(parse_any_field("F(3)((t))"), text), "t + 1/3", 5),
        ],
        ids=["zero", "group", "signed", "zero-mod-p"],
    )
    def test_a_division_by_no_unit_is_a_parse_error_at_the_slash(self, read, text, position):
        with pytest.raises(ParseError, match=rf"\(at position {position}\)"):
            read(text)

    def test_fundeq_over_q_p_takes_rational_coefficients(self, capsys):
        assert run_cli("fundeq", "--field", "Q_3", "--poly", "X^2/2 - 3/2") == 0
        out = capsys.readouterr().out
        assert "n = 2, e = 2" in out and "certified by: slope-denominator" in out

    @given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=6))
    def test_printed_rational_coefficients_read_back(self, coeffs):
        assert parse_int_poly(poly_text_from_coeffs(coeffs)) == (dense_trim(coeffs) or [0])


@st.composite
def typed_polys(draw):
    """A polynomial over F_2, F_3 or F_4 in one or two variables whose
    coefficients are exact or known to an order with a digit below it."""
    F = FiniteFieldDescriptor(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    K = LaurentField(F, "t", default_prec=6)
    nvars = draw(st.integers(1, 2))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=4, unique=True))
    terms = {}
    for dense in monos:
        digits = draw(st.dictionaries(st.integers(-3, 6), st.integers(1, F.q - 1), min_size=1, max_size=4))
        order = draw(st.just(math.inf) | st.integers(min(digits) + 1, 9))
        terms[sparse(dense)] = K.from_terms({e: FFElement(F, c) for e, c in digits.items()}, order)
    return K, MultiPoly(nvars, terms)


class TestPolyTextRoundTrip:
    @given(typed_polys())
    def test_print_parse_identity(self, case):
        K, mp = case
        assert parse_poly(mp.to_text(), K, nvars=mp.nvars) == mp


TYPED_FIELDS = [LaurentField(FiniteFieldDescriptor(p, k), "t", default_prec=3) for p, k in ((2, 1), (3, 1), (2, 2))]


def _typed_coefficient(rng, K, low, high):
    """(text, series): c*t^j + O(t^N) as typed, and as ``from_terms`` builds
    it, with N drawn above j."""
    F = K.base
    code, j = rng.randrange(1, F.q), rng.randint(low, high)
    n = rng.randint(j + 1, j + 3)
    text = f"([{','.join(map(str, F.digits(code)))}]*t^{j} + O(t^{n}))"
    return text, K.from_terms({j: FFElement(F, code)}, n)


def _typed_poly(rng, K, monos, low, high):
    """A polynomial in one variable or two with typed coefficients over
    the dense monomials monos: its text and the ``MultiPoly`` built
    directly, in as many variables as the text names."""
    names = ["X"] if len(monos[0]) == 1 else ["X1", "X2"]
    parts, terms = [], {}
    for dense in monos:
        text, c = _typed_coefficient(rng, K, low, high)
        parts.append("*".join([text] + [f"{x}^{e}" for x, e in zip(names, dense) if e]))
        terms[sparse(dense)] = c
    return " + ".join(parts), MultiPoly(max(i for mono in terms for i, _ in mono) + 1, terms)


def _cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*argv, "--json", "-"])
    text = out.getvalue()
    return code, json.loads(text[text.index("{"):]) if "{" in text else None


class TestTypedErrorTermsAreHonest:
    """Seeded families over F_2, F_3 and F_4 whose typed coefficients are
    c*t^j + O(t^N): the CLI answers as the library does on the polynomial
    built with ``from_terms(..., N)``, and the brute-force maximum never
    contradicts ``extremal``."""

    def test_extremal(self):
        rng, codes = random.Random(37), []
        for n in range(60):
            K = TYPED_FIELDS[n % 3]
            monos = rng.sample([(0,), (1,), (2,), (3,)], rng.randint(2, 4))
            text, mp = _typed_poly(rng, K, monos, -1, 2)
            assert parse_poly(text, K) == mp
            code, report = _cli_json("extremal", "--field", K.to_text(), "--poly", text, "--prec", "3")
            result = extremal_search(mp, K, None, 3)
            assert (code, report) == ({"MaxAttained": 0}.get(result.verdict, 3), result.to_dict()), text
            _, oracle = brute_force_max(mp, K, Ball(K.zero(3), 0), 3)
            assert not oracle.contradicts(result.value), text
            codes.append(code)
        assert 0 < codes.count(0) < len(codes)

    def test_oap(self):
        rng = random.Random(37)
        for n in range(45):
            K = TYPED_FIELDS[n % 3]
            p = K.base.p
            monos = rng.sample([(1, 0), (p, 0), (0, 1), (0, p)], rng.randint(2, 4))
            text, mp = _typed_poly(rng, K, monos, -2, 1)
            target = K.from_terms({e: FFElement(K.base, rng.randrange(K.base.q)) for e in range(-3, 4)}, 8)
            code, report = _cli_json("oap", "--field", K.to_text(), "--poly", text,
                                     "--target", target.to_text(), "--prec", "3")
            expected = oap_solve(additive_from_multipoly(mp, K).additive, target, 3).to_dict()
            assert (code, report) == (0, expected), text
