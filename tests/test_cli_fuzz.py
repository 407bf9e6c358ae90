"""Derandomized fuzz of the CLI argument strings.

Each case runs `valfield oap|decompose|alpha|fundeq` in a child process
with a hard timeout, on well-formed fields, polynomials (error terms and
``/n`` among them), targets and precisions mixed with junk, and requires a documented exit code (0 ok,
1 usage/parse, 2 check failed, 3 inconclusive, 4 budget) and no traceback.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parent.parent / "src"

junk = st.text(alphabet="Xt^*/+-()[]0123456789,;_O ", max_size=12) | st.just("(" * 2000 + "X")

# field -> exponents that are powers of its characteristic; 2^40 and 3^25
# give mixed heights whose expansion to a common height the budget refuses
LAURENT = {
    "F(2)((t))": ["", "^2", "^4", "^1099511627776"],
    "F(3)((t))": ["", "^3", "^9", "^847288609443"],
    "F(4)((t))": ["", "^2", "^4", "^1099511627776"],
    "F(2^2; modulus=[1,1,1])((t))": ["", "^2", "^1099511627776"],
}
F4 = {"F(4)((t))", "F(2^2; modulus=[1,1,1])((t))"}
PADIC = ["Q_3", "Q_5"]


@st.composite
def poly(draw, field):
    # ^99999999 is a typed degree whose dense list the budget refuses
    exps = LAURENT.get(field, ["", "^2", "^3", "^4", "^99999999"])
    if field in LAURENT:
        # error terms: a coefficient known to an order, one zero to its
        # order, one whose error term is scaled, and a division by 2 or 3
        coeffs = ["", "t*", "t^-1*", "t^-2*", "2*", "t^2*", "[1,1]*t*", "(1 + O(t^3))*",
                  "(t^-1 + t - O(t^2))*", "O(t^4)*", "(t + O(t^2)*t)*", "t/2*", "1/3*"]
        if field in F4:
            coeffs += ["[0,1]*", "[1,1]*t^-1*", "([0,1] + O(t))*"]
    else:
        coeffs = ["", "2*", "3*", "9*", "1/2*", "5/3*", "2/0*", "O(t^2)*"]
    terms = draw(st.lists(
        st.tuples(
            st.sampled_from([" + ", " - "]),
            st.sampled_from(coeffs),
            st.sampled_from(["X", "X1", "X2"] if field in LAURENT else ["X"]),
            st.sampled_from(exps),
        ),
        min_size=1, max_size=4,
    ))
    text = "".join("".join(t) for t in terms)[3:]
    if draw(st.booleans()):
        text += draw(st.sampled_from([" + t^-3", " + 1", " + 3", " + (X1 + t*X2)^2", " + O(t^4)",
                                      " + (t^-3 + t + O(t^8))", " + (O(t) + 1)^3", " + X^2/2"]))
    return text


targets = st.lists(
    st.sampled_from(["t^-3", "t^-1", "1", "2*t", "t^2", "[0,1]*t^-2", "O(t^5)", "O(t^2)*t^-1", "t/3"]),
    min_size=1, max_size=3,
).map(" + ".join) | st.sampled_from(["t^-1 + O(t^5)", "O(t^2)", "0", "O(t^8) + t^-2", "t^2 - O(t^3)",
                                     "O(t^3)^2", "O(t^-999999999) + t^-999999999 + t^999999999"])


@st.composite
def argv(draw, command):
    fields = list(LAURENT) + (PADIC if command == "fundeq" else [])
    field = draw(st.sampled_from(fields))
    args = {"--field": field, "--poly": draw(poly(field))}
    if command == "oap":
        args["--target"] = draw(targets)
    if draw(st.booleans()):
        # the budget caps the span matrices of oap and decompose --oracle
        args["--prec"] = draw(st.sampled_from(["-1", "0", "1", "3", "4", "6", "100000"]))
    # about one case in four replaces one argument by junk
    if draw(st.integers(0, 3)) == 0:
        args[draw(st.sampled_from(sorted(args)))] = draw(junk)
    flags = [x for kv in args.items() for x in kv]
    if command == "decompose" and draw(st.booleans()):
        flags.append("--oracle")
    if command == "fundeq" and draw(st.booleans()):
        flags.append("--asserted")
    return [command, *flags]


def run(args, timeout=30, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "valfield", *args],
        capture_output=True, text=True, timeout=timeout, env=env, preexec_fn=preexec_fn,
    )
    assert "Traceback" not in proc.stderr, (args, proc.stderr)
    return proc


@pytest.mark.parametrize("command", ["oap", "decompose", "alpha", "fundeq"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(command, data):
    args = data.draw(argv(command))
    proc = run(args)
    assert proc.returncode in range(5), (args, proc.returncode, proc.stderr)


# the derandomized draws above need not pair a valid field with an input
# past a budget, so each budget is reached here through a valid field
@pytest.mark.parametrize(
    "args",
    [
        ["fundeq", "--field", field, "--poly", "X^99999999 + 3*X + 3"] for field in PADIC
    ] + [
        ["decompose", "--field", "F(2)((t))", "--poly", "X^2 + t*X", "--prec", "100000", "--oracle"],
        ["oap", "--field", "F(2)((t))", "--poly", "X^2 + t*X", "--target", "t^-3 + t", "--prec", "100000"],
        ["fundeq", "--field", "Q_3", "--poly", "3^99999999*X + 1"],
        ["fundeq", "--field", "Q_3", "--poly", "(X + 1)^99999999"],
        ["extremal", "--field", "F(2)((t))", "--poly", "X99999999"],
        # 10^7 variables pass the parser's charge; the searches read the
        # one that occurs and refuse the 2^(10^7) digits of a node
        ["extremal", "--field", "F(2)((t))", "--poly", "X9999999", "--prec", "4"],
        ["transfer", "--field", "F(2)((t))", "--poly", "X9999999", "--alpha", "0", "--beta", "0",
         "--scale", "1"],
        # the radius reaches the cap, so no node charges q^n digits; the
        # witness's 100000 entries are charged before the tree walks
        ["extremal", "--field", "F(3)((t))", "--poly", "X100000", "--prec", "2",
         "--ball", "v>=2 around 1", "--budget", "1000"],
        # the witness reaches t^-48, so the oracle's tree walks a deep ball,
        # for seconds at the default budget
        ["oap", "--field", "F(3)((t))", "--poly", "t^-2*X1^3 + 2*t*X1 + 2*t^-2*X2^9",
         "--target", "t^-3 + t^-2 + t^-1 + 2 + 2*t + t^3 + 2*t^4 + t^6 + t^7 + 2*t^8 + 2*t^9"
         " + t^10 + t^11 + 2*t^12 + O(t^16)", "--prec", "4", "--oracle", "--budget", "1000"],
    ],
    ids=[
        "fundeq-Q_3", "fundeq-Q_5", "decompose-oracle", "oap-span", "fundeq-literal-power",
        "fundeq-group-power", "extremal-variable-count", "extremal-admitted-variable-count",
        "transfer-admitted-variable-count", "extremal-witness", "oap-oracle-deep-ball",
    ],
)
def test_a_budget_reached_through_a_valid_field_exits_4(args):
    assert run(args).returncode == 4


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_a_typed_series_window_is_charged_before_it_is_built():
    # the target's dense window spans 2*10^9 + 1 codes: charged, it exits 4;
    # built, it is a MemoryError under the child's 2 GB address space
    args = ["oap", "--field", "F(2)((t))", "--poly", "X^2 + t*X",
            "--target", "t^-999999999 + t^999999999", "--prec", "4"]
    proc = run(args, preexec_fn=_limit_address_space)
    assert proc.returncode == 4 and "budget" in proc.stderr, proc.stderr


# the scale is checked before either multiset is walked: another exact
# valuation, zero's too, is a usage error, and a valuation known only as a
# bound is inconclusive; X9999999's multiset would exceed the budget
@pytest.mark.parametrize(
    "extra, code, message",
    [
        (["--poly", "X", "--beta", "0", "--scale", "t"], 1, "scale has valuation 1, expected beta - alpha = 0"),
        (["--poly", "X", "--beta", "0", "--scale", "0"], 1, "scale has valuation inf"),
        (["--poly", "X", "--beta", "1", "--scale", "O(t^3)"], 3, "only known to be >=3"),
        (["--poly", "X9999999", "--beta", "0", "--scale", "t"], 1, "scale has valuation 1"),
    ],
    ids=["other-valuation", "zero", "bound", "before-the-multiset-budget"],
)
def test_transfer_checks_the_scale_first(extra, code, message):
    proc = run(["transfer", "--field", "F(2)((t))", "--alpha", "0", *extra])
    assert proc.returncode == code and message in proc.stderr and proc.stdout == ""


LONG = "9" * 5000  # more digits than Python reads into an int
NINES = "9" * 4000  # read, but its power's cost has more digits than Python prints


@pytest.mark.parametrize(
    "args",
    [
        ["fundeq", "--field", "Q_3", "--poly", f"(X+1)^{NINES}"],
        ["extremal", "--field", "F(2)((t))", "--poly", f"(X+1)^{NINES}"],
    ],
    ids=["fundeq", "extremal"],
)
def test_a_charge_too_long_to_print_exits_4(args):
    assert run(args).returncode == 4


# the pairs of these powers pass the budget alone; their coefficients,
# charged at up to 4000 and 3000 bits, refuse them before they are built
@pytest.mark.parametrize("poly", ["(X+1)^2000", "(3*X+3)^1000"])
def test_a_literal_power_with_growing_coefficients_ends_in_seconds(poly):
    proc = run(["fundeq", "--field", "Q_3", "--poly", poly], timeout=5)
    assert proc.returncode in (3, 4), proc.stderr


@pytest.mark.parametrize("command", ["extremal", "compose"])
@pytest.mark.parametrize(
    "window",
    [["--prec-t", "0"], ["--prec-t", "-2"], ["--prec-u", "0"], ["--u-floor", "5"]],
    ids=["prec-t-0", "prec-t-negative", "prec-u-0", "u-floor-positive"],
)
def test_a_composite_window_outside_the_valuation_ring_is_a_usage_error(command, window):
    proc = run([command, "--field", "F(2)((u))((t))", "--poly", "X^2 + u", *window])
    assert proc.returncode == 1 and "must be" in proc.stderr, proc.stderr


# the digit tree decides X^2 + u at its second node, however wide the window
@pytest.mark.parametrize("command", ["extremal", "compose"])
@pytest.mark.parametrize(
    "window",
    [["--prec-t", "100000"], ["--prec-u", "100000"], ["--u-floor", "-100000"]],
    ids=["prec-t", "prec-u", "u-floor"],
)
def test_a_wide_composite_window_answers(command, window):
    proc = run([command, "--field", "F(2)((u))((t))", "--poly", "X^2 + u", *window])
    assert proc.returncode == 0 and "(0,1)" in proc.stdout, proc.stdout


def test_a_rank2_node_with_a_negative_u_power_decides_its_digits():
    # exact coefficients give every node below the cap a residue form, so
    # the tree does not branch blind down to the last slot of a wide window
    proc = run(["extremal", "--field", "F(2)((u))((t))", "--poly", "X^2 + X + t*u^-2",
                "--prec-t", "3", "--prec-u", "8", "--u-floor", "-4"])
    assert proc.returncode == 3 and "max value: >=(3,0)" in proc.stdout, proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["oap", "--field", "F(2)((t))", "--poly", "X", "--target", f"O(t^{LONG})"],
        ["extremal", "--field", "F(2)((t))", "--poly", "X", "--ball", f"v>={LONG} around 0"],
        ["fundeq", "--field", f"Q_{LONG}", "--poly", "X"],
        ["extremal", "--field", "F(2)((t))", "--poly", f"X{LONG}"],
    ],
    ids=["error-order", "ball-radius", "padic-prime", "variable-index"],
)
def test_an_integer_too_long_to_read_is_a_parse_error(args):
    proc = run(args)
    assert proc.returncode == 1 and "too long" in proc.stderr, proc.stderr


# trial division up to the square root of 10^18 + 3 would run for minutes
@pytest.mark.parametrize(
    "args, code",
    [
        (["fundeq", "--field", "Q_1000000000000000003", "--poly", "X"], 4),
        (["extremal", "--field", "F(1000000000000000003)((t))", "--poly", "X"], 4),
        (["tmcne", "-p", "1000000000000000003"], 3),
    ],
    ids=["fundeq-Q_p", "extremal-F_p", "tmcne"],
)
def test_a_huge_prime_ends_within_the_timeout(args, code):
    assert run(args).returncode == code


# unbounded, trial division by every monic polynomial of degree <= 12 (or
# 14) over F_3 takes minutes; each divisor degree is charged to the budget
# before its divisors are tried
@pytest.mark.parametrize(
    "args, codes",
    [
        (["fundeq", "--field", "Q_3", "--poly", "X^24 + X^4 + 2"], (4,)),
        (["fundeq", "--field", "Q_3", "--poly", "X^28 + X^2 + 2"], (4,)),
    ] + [
        (["extremal", "--field", f"F({p}^2)((t))", "--poly", "X + t", "--prec", "2"], (0, 3, 4))
        for p in (31, 53, 71)
    ],
    ids=["fundeq-degree-24", "fundeq-degree-28", "extremal-F_961", "extremal-F_2809", "extremal-F_5041"],
)
def test_a_large_residue_scan_ends_within_seconds(args, codes):
    assert run(args, timeout=10).returncode in codes


@pytest.mark.parametrize(
    "poly, ball, value",
    [("X", "v>=3 around t", "1"), ("X^2 + t", "v>=2 around 1", "0")],
    ids=["fixed-digits", "decided-root"],
)
def test_a_large_prime_field_ball_is_charged_by_the_tree_alone(poly, ball, value):
    # no node of these trees enumerates the 10^7 digits of F_q, and digit
    # powers come from the residue field: no table of q entries is charged
    args = ["extremal", "--field", "F(10000019)((t))", "--poly", poly, "--ball", ball, "--prec", "2"]
    proc = run(args, timeout=10)
    assert proc.returncode == 0 and f"max value: {value}\n" in proc.stdout


@pytest.mark.parametrize("asserted, code", [([], 3), (["--asserted"], 0)])
def test_a_small_residue_factor_ends_the_scan_before_a_large_degree_is_charged(asserted, code):
    # the residue X^24 - 1 of X^24 + 2 over F_3 has the factor X + 1, found at
    # degree 1, far below the degree-12 divisors whose charge exceeds the budget
    args = ["fundeq", "--field", "Q_3", "--poly", "X^24 + 2", *asserted]
    assert run(args, timeout=10).returncode == code


def test_a_typed_degree_over_q_p_reads_only_its_nonzero_coefficients():
    # a million zero coefficients are neither divided nor printed
    proc = run(["fundeq", "--field", "Q_3", "--poly", "X^1000000 + 3"])
    assert proc.returncode == 0 and "n = 1000000, e = 1000000" in proc.stdout


def test_one_term_in_a_high_numbered_variable_answers_quickly():
    # a monomial holds only the variables that occur, so nothing walks the
    # nine million exponents of X9000000's arity
    args = ["transfer", "--field", "F(3)((t))", "--poly", "X9000000", "--alpha", "1", "--beta", "1",
            "--scale", "1", "--prec", "1"]
    assert run(args, timeout=10).returncode == 0


# the descriptor's own checks (a prime p, 1 <= k <= 8, a monic irreducible
# modulus of degree k) and a series variable other than O, which starts an
# error term, are parse errors of the field text
@pytest.mark.parametrize(
    "field",
    ["F(4^1)((t))", "F(2^9)((t))", "F(2^0)((t))", "F(0^2)((t))",
     "F(3^2; modulus=[1,1,1])((t))", "F(3^2; modulus=[1,0,1,0])((t))", "F(2)((O))"],
    ids=["composite-p", "k-past-desk-scale", "k-zero", "p-zero", "reducible-modulus",
         "modulus-of-the-wrong-degree", "reserved-variable-O"],
)
def test_a_malformed_field_descriptor_is_a_parse_error(field):
    proc = run(["extremal", "--field", field, "--poly", "X", "--prec", "1"])
    assert proc.returncode == 1 and "parse error" in proc.stderr, proc.stderr


# Σ_i p^(nu - h_i) = 2^39 + 1 pieces, refused before any is built
@pytest.mark.parametrize(
    "extra",
    [["decompose"], ["alpha"], ["oap", "--target", "t^-1"]],
    ids=["decompose", "alpha", "oap"],
)
def test_an_expansion_to_a_huge_height_exits_4(extra):
    proc = run([extra[0], "--field", "F(2)((t))", "--poly", "X1^1099511627776 + t*X2^2",
                "--prec", "4", *extra[1:]], timeout=10)
    assert proc.returncode == 4 and "2^39" in proc.stderr, proc.stderr
