"""Scaled complex arithmetic: agreement with plain complex, huge scales."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenormal.scaled import ScaledComplex


def _close(a: complex, b: complex, tol=1e-13) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonzeroish = finite.filter(lambda v: abs(v) > 1e-6)


@st.composite
def moderate_complex(draw):
    return complex(draw(finite), draw(finite))


@st.composite
def nonzero_complex(draw):
    return complex(draw(nonzeroish), draw(nonzeroish))


class TestAgainstComplex:
    @given(moderate_complex(), moderate_complex())
    @settings(max_examples=200, deadline=None)
    def test_add_mul_match_plain_arithmetic(self, a, b):
        sa, sb = ScaledComplex(a), ScaledComplex(b)
        assert _close((sa + sb).to_complex(), a + b)
        assert _close((sa * sb).to_complex(), a * b)
        assert _close((sa - sb).to_complex(), a - b)

    @pytest.mark.parametrize(
        "a, b",
        [(1238, -1239), (997859, -999327 + 1j), (1024, -1023.75), (1e6 + 1, -1e6)],
    )
    def test_cancelling_sum_is_plain_float_addition(self, a, b):
        sa, sb = ScaledComplex(a), ScaledComplex(b)
        assert (sa + sb).to_complex() == a + b
        assert (sb + sa).to_complex() == a + b
        assert (sa - ScaledComplex(-b)).to_complex() == a + b
        assert (a - ScaledComplex(-b)).to_complex() == a + b  # __rsub__

    @given(moderate_complex(), nonzero_complex())
    @settings(max_examples=200, deadline=None)
    def test_division_matches_plain_arithmetic(self, a, b):
        sa, sb = ScaledComplex(a), ScaledComplex(b)
        assert _close((sa / sb).to_complex(), a / b)

    @given(nonzero_complex())
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_round_trip(self, a):
        sa = ScaledComplex(a)
        assert _close(sa.reciprocal().reciprocal().to_complex(), a)

    @given(moderate_complex())
    @settings(max_examples=100, deadline=None)
    def test_mantissa_normalized(self, a):
        sa = ScaledComplex(a)
        if not sa.is_zero:
            assert 0.5 <= abs(sa.mantissa) < 2.0


class TestExtremeScales:
    def test_exp_of_is_exact_at_any_scale(self):
        w = complex(-50000.0, 1.25)
        s = ScaledComplex.exp_of(w)
        assert s.log_abs() == -50000.0
        assert math.isclose(cmath.phase(s.mantissa), 1.25, abs_tol=1e-15)

    def test_products_far_beyond_float_range(self):
        a = ScaledComplex.exp_of(complex(800.0, 0.3))
        b = ScaledComplex.exp_of(complex(700.0, -0.1))
        p = a * b
        assert math.isclose(p.log_abs(), 1500.0, rel_tol=1e-15)
        q = p / a
        assert math.isclose(q.log_abs(), 700.0, rel_tol=1e-15)
        assert math.isclose(cmath.phase(q.mantissa), -0.1, abs_tol=1e-12)

    def test_addition_flushes_hopelessly_small_term(self):
        big = ScaledComplex.exp_of(complex(1000.0, 0.0))
        tiny = ScaledComplex.exp_of(complex(-1000.0, 0.0))
        s = big + tiny
        assert (s.mantissa, s.log_scale) == (big.mantissa, big.log_scale)

    def test_to_complex_overflow_raises(self):
        with pytest.raises(OverflowError):
            ScaledComplex.exp_of(complex(1000.0, 0.0)).to_complex()

    def test_to_complex_underflows_silently(self):
        v = ScaledComplex.exp_of(complex(-1000.0, 0.0)).to_complex()
        assert v == 0

    def test_zero_behavior(self):
        z = ScaledComplex(0.0)
        assert z.is_zero
        assert z.log_abs() == -math.inf
        one = ScaledComplex(1.0)
        assert (z * one).is_zero
        assert (one + z).to_complex() == 1.0
        with pytest.raises(ZeroDivisionError):
            one / z

    def test_cancellation_to_zero(self):
        a = ScaledComplex(3.5 + 1j)
        assert (a - a).is_zero

    def test_conjugate_and_neg(self):
        a = ScaledComplex.exp_of(complex(900.0, 2.0))
        c = ScaledComplex(a.mantissa.conjugate(), a.log_scale)
        assert math.isclose(cmath.phase(c.mantissa), -cmath.phase(a.mantissa), abs_tol=1e-14)
        assert c.log_abs() == a.log_abs()
        n = -a
        assert math.isclose(abs(cmath.phase(n.mantissa) - cmath.phase(a.mantissa)) % (2 * math.pi), math.pi, abs_tol=1e-12)
