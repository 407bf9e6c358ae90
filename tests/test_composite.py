import math

import pytest

from valfield.composite import CompositeField
from valfield.errors import IndeterminateValuationError
from valfield.finite_field import prime_field
from valfield.laurent import ValuationResult
from valfield.parsing import parse_poly
from valfield.sampling import Sampler
from valfield.value_group import Value


@pytest.fixture(scope="module")
def C():
    return CompositeField(prime_field(2), prec_t=3, prec_u=3)


class TestValuation:
    def test_rank2_lexicographic(self, C):
        x = C.make({1: C.inner.t_power(-2, 3)})
        assert x.valuation() == ValuationResult.exactly(Value.rank2(1, -2))
        y = C.make({0: C.inner.t_power(5, 8)})
        assert y.valuation().value < x.valuation().value  # (0,5) < (1,-2)

    def test_t_dominates_u(self, C):
        # v(t) > v(u^k) for every representable k: the t-exponent is the
        # major coordinate of the lexicographic rank-2 value
        t = C.t_power(1)
        uk = C.make({0: C.inner.t_power(2, 3)})
        assert t.valuation().value > uk.valuation().value
        assert uk.valuation().exact

    def test_zero_to_prec_is_bounded(self, C):
        z = C.zero()
        vr = z.valuation()
        assert not vr.exact
        assert vr.value == Value.rank2(C.prec_t, 0)

    def test_zero_to_prec_is_a_bounded_read(self):
        # one notion of zero: zero to precision exactly when the read value
        # is only a bound; the lowest level present leads, so a level zero
        # to O(u^k) is a bound at (its t-level, k), also for k >= prec_u
        C = CompositeField(prime_field(2), prec_t=2, prec_u=2)
        u, ut = C.inner, C.inner.t_power(1, 2)
        cases = [
            ({1: u.zero(1)}, ">=(1,1)"),
            ({0: u.zero(2), 1: ut}, ">=(0,2)"),
            ({0: u.zero(1), 1: ut}, ">=(0,1)"),
        ]
        for coeffs, text in cases:
            x = C.make(coeffs)
            assert x.valuation().to_text() == text
            assert x.is_zero_to_prec() == (not x.valuation().exact)

    def test_coarsening(self, C):
        x = C.make({1: C.inner.t_power(-2, 3), 2: C.inner.one(3)})
        w, res = x.coarsen()
        assert w == 1
        assert res.valuation().value == Value.rank1(-2)

    def test_coarsen_of_indeterminate_rejected(self, C):
        with pytest.raises(IndeterminateValuationError):
            C.zero().coarsen()


class TestArithmetic:
    def test_mul_adds_rank2_valuations(self, C):
        s = Sampler(7)
        for _ in range(200):
            x = s.composite(C, lo_u=-2)
            y = s.composite(C, lo_u=-2)
            vx, vy, vm = x.valuation(), y.valuation(), (x * y).valuation()
            if vx.exact and vy.exact and vm.exact:
                assert vm.value == vx.value + vy.value

    def test_distributivity_with_precision_loss(self, C):
        # the historical regression: cancellation in y+z degrades the
        # error order of a coefficient; the difference of the two routes
        # must be zero to precision, not carry phantom exact digits
        u = C.inner
        x = C.make({0: u.from_int_terms({-1: 1, 0: 1, 1: 1}, 3)})
        y = C.make({0: u.from_int_terms({-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}, 3)})
        z = C.make({0: u.from_int_terms({-2: 1, -1: 1, 0: 1, 1: 1}, 3)})
        d = x * (y + z) - (x * y + x * z)
        assert d.is_zero_to_prec()

    def test_computed_zero_keeps_error_order(self, C):
        u = C.inner
        a = C.make({0: u.from_int_terms({-2: 1}, 3)})
        diff = a - a
        assert diff.is_zero_to_prec()
        vr = diff.valuation()
        assert not vr.exact

    def test_a_product_stays_inside_the_t_window(self):
        # at X = t*u^-1 both terms lie past the window (2*X^2 is 2*t^2*u^-2),
        # so f is zero to it: a bound at the cap (prec_t, 0), never a value
        # (2, i) with i < 0, lex below that cap
        C = CompositeField(prime_field(3), prec_t=2, prec_u=2)
        f = parse_poly("2*X^2 + 2*u^2*t*X^4", C)
        x = C.make({1: C.inner.t_power(-1, math.inf)})
        assert f.evaluate((x,)).valuation().to_text() == ">=(2,0)"

    def test_text_mentions_windows(self, C):
        x = C.make({1: C.inner.t_power(0, 3)})
        text = x.to_text()
        assert "t^1" in text and "O(t^3)" in text
