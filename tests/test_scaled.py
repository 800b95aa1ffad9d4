"""Scaled complex arithmetic: agreement with plain complex, huge scales."""

import cmath
import copy
import inspect
import math
import pickle
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freenormal.errors import DomainError
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

    @pytest.mark.parametrize("m", [1.7976931348623157e308, complex(0.0, 1.7e308), 5e-324, 1e-310])
    @pytest.mark.parametrize("s", [1000.0, -1000.0, 2.0**53 - 800.0])
    def test_mantissa_at_the_edges_of_binary64_at_a_large_scale(self, m, s):
        # the exact increment t - s can pass log(max float) by a rounding
        # of t, so such a mantissa is divided by exp(log|m|) instead
        v = ScaledComplex(m, s)
        assert 0.5 <= abs(v.mantissa) < 2.0
        assert math.isclose(v.log_abs(), math.log(abs(m)) + s, rel_tol=1e-15)

    @pytest.mark.parametrize("draw", [
        # the parts of the mantissa, and the scale
        lambda rng: (rng.choice((-1.0, 1.0)) * rng.uniform(1e307, 1.7e308), 0.0,
                     rng.uniform(700.0, 5000.0)),
        lambda rng: (rng.uniform(1e-307, 9e-305), rng.uniform(-1e-307, 1e-307),
                     rng.uniform(-5000.0, 5000.0)),
        # the modulus overflows
        lambda rng: (rng.uniform(1.3e308, 1.7e308), -rng.uniform(1.3e308, 1.7e308),
                     rng.uniform(-5000.0, 5000.0)),
    ], ids=["huge", "tiny", "overflowing"])
    def test_mantissa_beyond_e700_at_a_nonzero_scale_keeps_its_digits(self, draw):
        # the rounding of the new scale stays out of the value
        rng = random.Random(2000)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(2000):
                re, im, s = draw(rng)
                v = ScaledComplex(complex(re, im), s)
                got = mpmath.mpc(v.mantissa) * mpmath.exp(mpmath.mpf(v.log_scale) - s)
                worst = max(worst, abs(got / mpmath.mpc(re, im) - 1))
        assert worst <= 4.4e-16

    def test_mantissa_past_the_store_window_at_a_small_scale_keeps_its_digits(self):
        # t - s is not exact here (Fast2Sum needs s at least as large in
        # exponent as log|m|), so the rounding of t is taken by TwoSum
        rng = random.Random(2001)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(2000):
                m = cmath.rect(2.0 ** rng.uniform(64.0, 100.0), rng.uniform(-math.pi, math.pi))
                s = rng.uniform(-0.5, 0.5)
                v = ScaledComplex(m, s)
                got = mpmath.mpc(v.mantissa) * mpmath.exp(mpmath.mpf(v.log_scale) - s)
                worst = max(worst, abs(got / mpmath.mpc(m) - 1))
        assert worst <= 4.4e-16

    def test_to_complex_overflow_raises(self):
        with pytest.raises(DomainError):
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
        with pytest.raises(DomainError):
            one / z
        with pytest.raises(DomainError):
            z.reciprocal()

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


def _bits(v) -> tuple:
    """Exact bits of a float or complex, telling -0.0 from 0.0."""
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def _slots(v: ScaledComplex) -> tuple:
    return _bits(v._m), v._s.hex(), _bits(v.mantissa), v.log_scale.hex()


def _normalized(m: complex, s: float) -> tuple[complex, float]:
    """The view formula: ``|m|`` in ``[0.5, 2)`` or 0 kept, else divided by
    ``exp(log|m|)`` and, at a nonzero scale below ``2**53``, by ``exp(-e)``
    for the rounding ``e`` of the new scale (TwoSum)."""
    a = abs(m)
    if a == 0.0 or 0.5 <= a < 2.0:
        return m, s
    d = math.log(a)
    t = s + d
    m /= cmath.exp(complex(d, 0.0))
    if s != 0.0 and abs(t) < 2.0**53:
        u = t - s
        m /= math.exp(-((s - (t - u)) + (d - u)))
    return m, t


#: parts at the edges of the store window, of binary64 and of the view
_EDGES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 2.0**-64,
          math.nextafter(2.0**-64, 0.0), 0.5, 1.0, math.nextafter(2.0, 0.0), 2.0,
          2.0**64, math.nextafter(2.0**64, 0.0), 1e300, 1.7e308]
part = st.one_of(
    st.sampled_from(_EDGES + [-v for v in _EDGES]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
mantissas = st.builds(complex, part, part)
scales = st.one_of(st.sampled_from([0.0, -0.0, 700.0, -800.0, 2.0**53, -1e300]),
                   st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))


class TestStoredView:
    def test_view_is_a_slot_not_a_property(self):
        for name in ("mantissa", "log_scale"):
            assert name in ScaledComplex.__slots__
            assert inspect.ismemberdescriptor(ScaledComplex.__dict__[name])

    @given(mantissas, scales, mantissas, scales, st.floats(-10.0, 10.0))
    @example(complex(1.7e308, 1.7e308), 2.0**53, 1 + 0j, 0.0, 0.0)
    @example(complex(1.7e308, 1.7e308), -1e300, 1 + 0j, 0.0, 0.0)
    @settings(max_examples=400, deadline=None)
    def test_view_is_the_normalized_formula_bit_for_bit(self, m1, s1, m2, s2, phase):
        a, b = ScaledComplex(m1, s1), ScaledComplex(m2, s2)
        values = [a, b, a * b, a + b, a - b, -a, ScaledComplex.exp_of(complex(s1, phase)),
                  a + ScaledComplex(m2, s1 - 800.0)]  # mostly a flushed summand
        if not b.is_zero:
            values += [a / b, b.reciprocal()]
        for v in values:
            m, s = _normalized(v._m, v._s)
            assert (_bits(v.mantissa), v.log_scale.hex()) == (_bits(m), s.hex())
            assert v.is_zero or 0.5 <= abs(v.mantissa) < 2.0

    def test_finite_parts_with_an_overflowing_modulus(self):
        v = ScaledComplex(complex(1.5e308, -1.5e308))
        assert math.isclose(v.log_abs(), math.log(1.5e308) + 0.5 * math.log(2.0),
                            rel_tol=1e-15)
        assert math.isclose(cmath.phase(v.mantissa), -0.25 * math.pi, rel_tol=1e-15)
        with pytest.raises(DomainError):
            v.to_complex()
        # the rounding of the scale near 710, ulp(710) = 1.1e-13, is kept in
        # the mantissa
        assert (v * 1e-300).to_complex() == pytest.approx(complex(1.5e8, -1.5e8), rel=1e-15)

    @pytest.mark.parametrize("s", [2.0**53, -2.0**53 - 2.0, 1e300, -1e300])
    def test_an_overflowing_modulus_at_a_scale_that_cannot_take_ln2(self, s):
        # s + ln 2 rounds back to s: the value is that of the halved mantissa
        m = complex(1.7e308, 1.7e308)
        v, half = ScaledComplex(m, s), ScaledComplex(0.5 * m, s)
        assert (_bits(v.mantissa), v.log_scale.hex()) == (_bits(half.mantissa), half.log_scale.hex())
        assert 0.5 <= abs(v.mantissa) < 2.0


class TestValueProtocol:
    @pytest.mark.parametrize("m, s", [
        (0.03 + 0.01j, 0.0), (1.25 - 0.5j, 0.0), (0.0, 0.0), (-0.0 + 3e-200j, 0.0),
        (cmath.exp(2.5j), -5000.0), (complex(1.5e308, 1.5e308), 0.0),
    ])
    def test_pickle_and_copy_keep_every_slot(self, m, s):
        v = ScaledComplex(m, s)
        for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(w) is ScaledComplex
            assert _slots(w) == _slots(v)

    @pytest.mark.parametrize("name", ["_m", "_s", "mantissa", "log_scale"])
    def test_slots_cannot_be_set_or_deleted(self, name):
        v = ScaledComplex(0.25 + 3j, 7.0)
        before = _slots(v)
        with pytest.raises(AttributeError):
            setattr(v, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert _slots(v) == before


class TestNonFiniteParts:
    @pytest.mark.parametrize("m", [
        math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 1.0),
        complex(math.nan, math.inf),
    ])
    def test_non_finite_mantissa_is_a_domain_error(self, m):
        with pytest.raises(DomainError):
            ScaledComplex(m)
        with pytest.raises(DomainError):
            ScaledComplex(m, 3.0)

    @pytest.mark.parametrize("m", [1.0, 0.0, 1e-30 + 1j, 1e300])
    def test_nan_log_scale_is_a_domain_error(self, m):
        with pytest.raises(DomainError):
            ScaledComplex(m, math.nan)

    @pytest.mark.parametrize("s", [math.inf, -math.inf])
    @pytest.mark.parametrize("m", [1.0, 1e-30 + 1j, 1e300])
    def test_infinite_log_scale_is_a_domain_error(self, m, s):
        with pytest.raises(DomainError):
            ScaledComplex(m, s)

    @pytest.mark.parametrize("w", [
        complex(1.0, math.nan), complex(1.0, math.inf), complex(1.0, -math.inf),
        complex(math.nan, 1.0),
    ])
    def test_exp_of_a_non_finite_phase_or_nan_scale_is_a_domain_error(self, w):
        with pytest.raises(DomainError):
            ScaledComplex.exp_of(w)

    @pytest.mark.parametrize("w", [complex(math.inf, 0.0), complex(-math.inf, 0.0)])
    def test_exp_of_an_infinite_scale_is_a_domain_error(self, w):
        with pytest.raises(DomainError):
            ScaledComplex.exp_of(w)

    def test_a_scale_sum_past_binary64_is_a_domain_error(self):
        big = ScaledComplex.exp_of(complex(1e308, 0.5))
        with pytest.raises(DomainError):
            big * big
        with pytest.raises(DomainError):
            big.reciprocal() / big

    def test_arithmetic_never_raises_on_magnitude_alone(self):
        big = ScaledComplex.exp_of(complex(1e300, 0.5))
        tiny = ScaledComplex.exp_of(complex(-1e300, -0.5))
        for v in (big * big, tiny * tiny, big / tiny, tiny / big, big + tiny,
                  tiny - big, big.reciprocal()):
            assert math.isfinite(v.log_scale) and cmath.isfinite(v.mantissa)
