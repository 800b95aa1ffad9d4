"""Exact series tables against brute-force combinatorial oracles.

The oracles recompute everything from first principles in rational
arithmetic: free cumulants through the moment-cumulant recursion (the sum
over non-crossing partitions organized by the block of 1), boolean
cumulants by long division of the reciprocal series, and the asymptotic
coefficient tables by and exp/compose kernels checked on their defining
identities.
"""

import cmath
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenormal.errors import DomainError
from freenormal.series import (
    AsymptoticRegime,
    RationalSeries,
    boolean_cumulants,
    eval_f_asym_zero,
    eval_g_asym_infinity,
    eval_g_asym_zero,
    eval_h_asym_infinity,
    eval_h_asym_zero,
    f_infinity_coefficients,
    free_cumulants,
    h_infinity_coefficients,
    moments,
    regime_of,
)


def gaussian_moments(n_max: int) -> list[Fraction]:
    """m_0, m_1, ..., m_{n_max}: odd vanish, even are double factorials."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(Fraction(0) if n % 2 else out[-2] * (n - 1))
    return out


def free_cumulants_oracle(n_max: int) -> list[Fraction]:
    """kappa_1..kappa_{n_max} via the moment-cumulant recursion.

    m_n = sum over the size s of the block containing position 1 of
    kappa_s times the product of moments filling the s gaps; solved
    triangularly for kappa.
    """
    m = gaussian_moments(n_max)
    kappa = [Fraction(0)] * (n_max + 1)

    def gap_sum(s: int, total: int) -> Fraction:
        # sum over i_1 + ... + i_s = total of m_{i_1} ... m_{i_s}
        if s == 0:
            return Fraction(total == 0)
        acc = Fraction(0)
        for i in range(total + 1):
            acc += m[i] * gap_sum(s - 1, total - i)
        return acc

    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for s in range(1, n):
            acc += kappa[s] * gap_sum(s, n - s)
        kappa[n] = m[n] - acc
    return kappa[1:]


def boolean_cumulants_oracle(n_max_pairs: int) -> list[Fraction]:
    """b_2, b_4, ... by long division: G * (z - B) = 1 order by order."""
    order = 2 * n_max_pairs + 1
    m = gaussian_moments(order + 1)
    # G(z) = sum m_k z^{-k-1}; write B(z) = sum b_{2n} z^{-2n+1}
    b = [Fraction(0)] * (n_max_pairs + 1)
    # coefficient of z^{-2n} in G*(z - B) must vanish for n >= 1:
    # m_{2n} ... convolution against earlier b fixes b_{2n}
    for n in range(1, n_max_pairs + 1):
        # [z^{-2n}] of G(z)*z = m_{2n}; of G*B = sum_j b_{2j} m_{2n-2j}
        acc = m[2 * n]
        for j in range(1, n):
            acc -= b[j] * m[2 * (n - j)]
        b[n] = acc
    return b[1:]


PINNED_FREE = (1, 1, 4, 27, 248)
PINNED_BOOLEAN = (1, 2, 10, 74)
PINNED_MOMENTS = (1, 1, 3, 15)  # starts at m_0


class TestExactTables:
    def test_free_cumulants_match_partition_oracle(self):
        want = free_cumulants_oracle(10)
        got = free_cumulants(5).coefficients
        # odd cumulants vanish; the table stores the even ones
        assert all(want[k] == 0 for k in range(0, 10, 2))
        assert tuple(want[1::2]) == got

    def test_free_cumulants_pinned(self):
        assert free_cumulants(5).coefficients == tuple(
            Fraction(v) for v in PINNED_FREE
        )

    def test_boolean_cumulants_match_division_oracle(self):
        assert boolean_cumulants(4).coefficients == tuple(
            boolean_cumulants_oracle(4)
        )

    def test_boolean_cumulants_pinned(self):
        assert boolean_cumulants(4).coefficients == tuple(
            Fraction(v) for v in PINNED_BOOLEAN
        )

    def test_moments_are_double_factorials(self):
        assert moments(4).coefficients == tuple(
            Fraction(v) for v in PINNED_MOMENTS
        )

    @given(st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_prefix_stability(self, n):
        long_free = free_cumulants(8).coefficients
        assert free_cumulants(n).coefficients == long_free[:n]
        long_bool = boolean_cumulants(8).coefficients
        assert boolean_cumulants(n).coefficients == long_bool[:n]

    def test_tables_require_positive_order(self):
        for fn in (moments, boolean_cumulants, free_cumulants,
                   h_infinity_coefficients, f_infinity_coefficients):
            with pytest.raises(DomainError):
                fn(0)

    def test_string_pairs_are_exact(self):
        pairs = h_infinity_coefficients(3).as_string_pairs()
        assert pairs == [["-5", "2"], ["-43", "8"], ["-579", "16"]]

    def test_series_is_a_read_only_value(self):
        s = RationalSeries([1, Fraction(1, 2)], offset=-1)
        assert s.coefficients == (Fraction(1), Fraction(1, 2))
        assert s == RationalSeries((Fraction(1), Fraction(1, 2)), -1)
        assert hash(s) == hash(RationalSeries([1, Fraction(1, 2)], offset=-1))
        assert s != RationalSeries([1, Fraction(1, 2)], offset=-2)
        assert eval(repr(s)) == s
        assert pickle.loads(pickle.dumps(s)) == s
        assert (len(s), s[1]) == (2, Fraction(1, 2))
        with pytest.raises(AttributeError):
            s.offset = 0
        with pytest.raises(AttributeError):
            del s.coefficients
        with pytest.raises(ValueError):
            RationalSeries((), offset=-1)


class TestAsymptoticCoefficients:
    def test_h_infinity_pinned(self):
        assert h_infinity_coefficients(4).coefficients == (
            Fraction(-5, 2),
            Fraction(-43, 8),
            Fraction(-579, 16),
            Fraction(-44477, 128),
        )

    def test_f_infinity_pinned(self):
        assert f_infinity_coefficients(3).coefficients == (
            Fraction(-3),
            Fraction(-6),
            Fraction(-42),
        )

    def test_g_expansion_inverts_the_reciprocal_transform(self):
        # g(x) = x + sum kappa_{2n} x^{1-2n} satisfies F(g) = x up to the
        # truncation order; check numerically at a large abscissa
        x = 25.0
        g = eval_g_asym_infinity(x, 5)
        # reciprocal transform via the boolean series at matching depth
        b = [float(c) for c in boolean_cumulants(6).coefficients]
        F = g - sum(bb * g ** (1 - 2 * k) for k, bb in enumerate(b, start=1))
        assert abs(F - x) <= 1e-12 * x


class TestZeroRegimeClosedForms:
    def test_product_is_exactly_half_pi(self):
        for x in (1e-3, 1e-5, 1e-7, 1e-12):
            p = eval_g_asym_zero(x) * eval_h_asym_zero(x)
            assert abs(p - math.pi / 2.0) <= 4e-16

    def test_f_closed_form(self):
        assert eval_f_asym_zero(0.01) == -math.pi / 0.02

    def test_h_grows_like_sqrt_log(self):
        for x in (1e-4, 1e-8, 1e-30):
            h = eval_h_asym_zero(x)
            model = math.sqrt(2.0 * math.log(1.0 / x))
            assert 0.8 * model <= h <= 1.2 * model

    @pytest.mark.parametrize("x", [1e-300, 1e-309, 5e-324])
    def test_f_closed_form_is_finite_or_a_domain_error(self, x):
        try:
            f = eval_f_asym_zero(x)
        except DomainError:
            assert x < 8.7e-309
        else:
            assert math.isfinite(f) and f == -math.pi / 2.0 / x

    def test_zero_forms_reject_bulk_arguments(self):
        with pytest.raises(DomainError):
            eval_h_asym_zero(0.5)
        with pytest.raises(DomainError):
            eval_g_asym_zero(-1e-3)


class TestRegimes:
    def test_thresholds(self):
        assert regime_of(1e-4) is AsymptoticRegime.NEAR_ZERO
        assert regime_of(1.0) is AsymptoticRegime.BULK
        assert regime_of(50.0) is AsymptoticRegime.NEAR_INFINITY

    def test_series_eval_tracks_scaled_height(self):
        # the scaled value must agree with the plain formula where both exist
        x = 9.0
        v = eval_h_asym_infinity(x, 3).to_complex().real
        pref = math.sqrt(math.pi / 2) * x * x * math.exp(-0.5 * x * x - 1.0)
        a = [float(c) for c in h_infinity_coefficients(2).coefficients]
        series = 1.0 + a[0] / x**2 + a[1] / x**4
        assert abs(v - pref * series) <= 1e-13 * pref

    def test_scaled_height_beyond_float_range(self):
        v = eval_h_asym_infinity(60.0, 3)
        assert math.isfinite(v.log_abs())
        assert v.log_abs() < -1700.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_zero_argument_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            eval_g_asym_infinity(x, 3)
        with pytest.raises(DomainError):
            eval_h_asym_infinity(x, 3)
        with pytest.raises(DomainError):
            regime_of(x)

    @pytest.mark.parametrize(
        "x", [1e150, 1e154, 1.3e154, 1e160, 1e300, 1.7e308, -1e160]
    )
    def test_huge_argument_is_finite_or_a_domain_error(self, x):
        try:
            v = eval_h_asym_infinity(x, 6)
        except DomainError:
            assert math.isinf(math.sqrt(math.pi / 2.0) * x * x)
        else:
            assert cmath.isfinite(v.mantissa) and math.isfinite(v.log_scale)
            assert v.log_abs() < -0.49 * x * x
