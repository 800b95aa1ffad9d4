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
        sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
        assert _close((sa + sb).to_complex(), a + b)
        assert _close((sa * sb).to_complex(), a * b)
        assert _close((sa - sb).to_complex(), a - b)

    @pytest.mark.parametrize(
        "a, b",
        [(1238, -1239), (997859, -999327 + 1j), (1024, -1023.75), (1e6 + 1, -1e6)],
    )
    def test_cancelling_sum_is_plain_float_addition(self, a, b):
        sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
        assert (sa + sb).to_complex() == a + b
        assert (sb + sa).to_complex() == a + b
        assert (sa - ScaledComplex.from_complex(-b)).to_complex() == a + b

    @given(moderate_complex(), nonzero_complex())
    @settings(max_examples=200, deadline=None)
    def test_division_matches_plain_arithmetic(self, a, b):
        sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
        assert _close((sa / sb).to_complex(), a / b)

    @given(nonzero_complex())
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_round_trip(self, a):
        sa = ScaledComplex.from_complex(a)
        assert _close(sa.reciprocal().reciprocal().to_complex(), a)

    @given(moderate_complex())
    @settings(max_examples=100, deadline=None)
    def test_mantissa_normalized(self, a):
        sa = ScaledComplex.from_complex(a)
        if not sa.is_zero:
            assert 0.5 <= abs(sa.mantissa) < 2.0


class TestExtremeScales:
    def test_exp_of_is_exact_at_any_scale(self):
        w = complex(-50000.0, 1.25)
        s = ScaledComplex.exp_of(w)
        assert s.log_abs() == -50000.0
        assert math.isclose(s.arg(), 1.25, abs_tol=1e-15)

    def test_products_far_beyond_float_range(self):
        a = ScaledComplex.exp_of(complex(800.0, 0.3))
        b = ScaledComplex.exp_of(complex(700.0, -0.1))
        p = a * b
        assert math.isclose(p.log_abs(), 1500.0, rel_tol=1e-15)
        q = p / a
        assert math.isclose(q.log_abs(), 700.0, rel_tol=1e-15)
        assert math.isclose(q.arg(), -0.1, abs_tol=1e-12)

    def test_addition_flushes_hopelessly_small_term(self):
        big = ScaledComplex.exp_of(complex(1000.0, 0.0))
        tiny = ScaledComplex.exp_of(complex(-1000.0, 0.0))
        s = big + tiny
        assert s.isclose(big)

    def test_to_complex_overflow_raises(self):
        with pytest.raises(OverflowError):
            ScaledComplex.exp_of(complex(1000.0, 0.0)).to_complex()

    def test_to_complex_underflows_silently(self):
        v = ScaledComplex.exp_of(complex(-1000.0, 0.0)).to_complex()
        assert v == 0

    def test_zero_behavior(self):
        z = ScaledComplex.from_complex(0.0)
        assert z.is_zero
        assert z.log_abs() == -math.inf
        one = ScaledComplex.from_complex(1.0)
        assert (z * one).is_zero
        assert (one + z).isclose(one)
        with pytest.raises(ZeroDivisionError):
            one / z

    def test_cancellation_to_zero(self):
        a = ScaledComplex.from_complex(3.5 + 1j)
        assert (a - a).is_zero

    def test_conjugate_and_neg(self):
        a = ScaledComplex.exp_of(complex(900.0, 2.0))
        c = a.conjugate()
        assert math.isclose(c.arg(), -a.arg(), abs_tol=1e-14)
        n = -a
        assert math.isclose(abs(cmath.phase(n.mantissa) - cmath.phase(a.mantissa)) % (2 * math.pi), math.pi, abs_tol=1e-12)

    def test_isclose_tracks_relative_error(self):
        a = ScaledComplex.exp_of(complex(5000.0, 1.0))
        b = a * ScaledComplex.from_complex(1.0 + 1e-13)
        c = a * ScaledComplex.from_complex(1.0 + 1e-9)
        assert a.isclose(b)
        assert not a.isclose(c)
