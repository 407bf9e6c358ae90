"""The dense-polynomial helpers of valfield.polynomials over the rationals.

sub, mul and eval are checked against a direct sum of c_i * x^i at
integer points, so the oracle shares no code with the helpers; divmod is
checked through a = q*b + r with deg r < deg b, over the integers for a
monic divisor, and against the Fraction computation for an integer divisor
with another lead.  rem_mod is checked against that integer remainder
read mod p.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valfield.errors import ValfieldError
from valfield.polynomials import (
    dense_divmod,
    dense_eval,
    dense_mul,
    dense_rem_mod,
    dense_sub,
    dense_trim,
)

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
poly = st.lists(coeff, max_size=6)
nonempty_poly = st.lists(coeff, min_size=1, max_size=6)
point = st.integers(-4, 4)


def direct(a, x):
    total = Fraction(0)
    for i, c in enumerate(a):
        total += c * Fraction(x) ** i
    return total


@given(poly, poly, point)
@settings(max_examples=200)
def test_sub_agrees_with_direct_evaluation(a, b, x):
    assert direct(dense_sub(a, b), x) == direct(a, x) - direct(b, x)


@given(poly, poly, point)
@settings(max_examples=200)
def test_mul_agrees_with_direct_evaluation(a, b, x):
    prod = dense_mul(a, b)
    assert direct(prod, x) == direct(a, x) * direct(b, x)
    assert len(prod) == (len(a) + len(b) - 1 if a and b else 0)


@given(nonempty_poly, point)
@settings(max_examples=200)
def test_horner_agrees_with_direct_evaluation(a, x):
    assert dense_eval(a, Fraction(x)) == direct(a, x)


@given(poly, nonempty_poly)
@settings(max_examples=300)
def test_divmod_is_division_with_remainder(a, b):
    if not dense_trim(b):
        with pytest.raises(ValfieldError):
            dense_divmod(a, b)
        return
    q, r = dense_divmod(a, b)
    assert dense_trim(dense_sub(dense_sub(a, r), dense_mul(q, b))) == []
    assert len(dense_trim(r)) < len(dense_trim(b))


@given(st.lists(st.integers(-50, 50), max_size=8), st.lists(st.integers(-9, 9), max_size=4))
@settings(max_examples=300)
def test_divmod_by_a_monic_divisor_is_exact_over_the_integers(a, low):
    # a leading 1 takes no inverse, so no entry leaves Z
    b = low + [1]
    q, r = dense_divmod(a, b)
    assert all(type(c) is int for c in q + r)
    assert dense_trim(dense_sub(dense_sub(a, r), dense_mul(q, b))) == []
    assert len(r) == min(len(a), len(b) - 1)


@given(
    st.lists(st.integers(-50, 50), max_size=8), st.lists(st.integers(-9, 9), max_size=4),
    st.integers(-9, 9).filter(lambda c: c not in (0, 1)),
)
@example([1, 0, 1], [1], 2)  # quotient [-1/4, 1/2], remainder [5/4]
@settings(max_examples=300)
def test_a_non_monic_int_divisor_gives_the_fraction_quotient(a, low, lead):
    # the lead's inverse is an exact Fraction, never a float
    q, r = dense_divmod(a, low + [lead])
    assert not any(isinstance(c, float) for c in q + r)
    assert (q, r) == dense_divmod([Fraction(c) for c in a], [Fraction(c) for c in low + [lead]])


@given(
    st.lists(st.integers(-50, 50), max_size=8), st.lists(st.integers(0, 6), max_size=4),
    st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=300)
def test_rem_mod_is_the_integer_remainder_read_mod_p(a, low, p):
    b = low + [1]
    assert dense_rem_mod(a, b, p) == [c % p for c in dense_divmod(a, b)[1]]


def test_trim_drops_only_trailing_zeros():
    z, one = Fraction(0), Fraction(1)
    assert dense_trim([z, one, z, z]) == [z, one]
    assert dense_trim([z, z]) == []


def test_empty_list_has_no_value():
    with pytest.raises(ValfieldError):
        dense_eval([], Fraction(2))
