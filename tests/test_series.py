"""Exact series tables against brute-force combinatorial oracles.

The oracles recompute everything from first principles in rational
arithmetic: free cumulants through the moment-cumulant recursion (the sum
over non-crossing partitions organized by the block of 1), and boolean
cumulants by long division of the reciprocal series.  The asymptotic
coefficient tables are pinned to eight terms, and the large-x expansion of
``g`` is checked on its defining identity.
"""

import cmath
import math
import pickle
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenormal.curve import solve_H
from freenormal.errors import DomainError
from freenormal.scaled import ScaledComplex
from freenormal.series import (
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
)
from freenormal.transforms import f_tilde, f_tilde_prime


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

    @cache  # unmemoized, the recursion grows like 2^n
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
        want = free_cumulants_oracle(24)
        got = free_cumulants(12)
        # odd cumulants vanish; the table stores the even ones
        assert all(want[k] == 0 for k in range(0, 24, 2))
        assert tuple(want[1::2]) == got

    def test_free_cumulants_pinned(self):
        assert free_cumulants(5) == tuple(
            Fraction(v) for v in PINNED_FREE
        )

    def test_boolean_cumulants_match_division_oracle(self):
        assert boolean_cumulants(15) == tuple(
            boolean_cumulants_oracle(15)
        )

    def test_boolean_cumulants_pinned(self):
        assert boolean_cumulants(4) == tuple(
            Fraction(v) for v in PINNED_BOOLEAN
        )

    def test_moments_are_double_factorials(self):
        assert moments(4) == tuple(
            Fraction(v) for v in PINNED_MOMENTS
        )

    @given(st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_prefix_stability(self, n):
        long_free = free_cumulants(8)
        assert free_cumulants(n) == long_free[:n]
        long_bool = boolean_cumulants(8)
        assert boolean_cumulants(n) == long_bool[:n]

    def test_tables_require_positive_order(self):
        for N in (0, -1, 2.5, math.nan):
            for fn in (moments, boolean_cumulants, free_cumulants,
                       h_infinity_coefficients, f_infinity_coefficients):
                with pytest.raises(DomainError):
                    fn(N)
            for fn in (eval_g_asym_infinity, eval_h_asym_infinity):
                with pytest.raises(DomainError):
                    fn(10.0, N)

    def test_tables_are_tuples_of_fractions(self):
        for fn in (moments, boolean_cumulants, free_cumulants,
                   h_infinity_coefficients, f_infinity_coefficients):
            table = fn(3)
            assert type(table) is tuple and len(table) == 3
            assert all(type(c) is Fraction for c in table)
            assert pickle.loads(pickle.dumps(table)) == table


class TestAsymptoticCoefficients:
    def test_h_infinity_pinned(self):
        assert h_infinity_coefficients(8) == (
            Fraction(-5, 2),
            Fraction(-43, 8),
            Fraction(-579, 16),
            Fraction(-44477, 128),
            Fraction(-5326191, 1280),
            Fraction(-180306541, 3072),
            Fraction(-203331297947, 215040),
            Fraction(-58726239094693, 3440640),
        )

    def test_f_infinity_pinned(self):
        assert f_infinity_coefficients(8) == tuple(
            Fraction(v) for v in (-3, -6, -42, -414, -5058, -72486, -1182762, -21573054)
        )

    def test_g_expansion_inverts_the_reciprocal_transform(self):
        # g(x) = x + sum kappa_{2n} x^{1-2n} satisfies F(g) = x up to the
        # truncation order; check numerically at a large abscissa
        x = 25.0
        g = eval_g_asym_infinity(x, 5)
        # reciprocal transform via the boolean series at matching depth
        b = [float(c) for c in boolean_cumulants(6)]
        F = g - sum(bb * g ** (1 - 2 * k) for k, bb in enumerate(b, start=1))
        assert abs(F - x) <= 1e-12 * x


class TestTablesAgainstTheTransform:
    """The two composed tables against the numbers they expand."""

    @pytest.mark.parametrize("z", [20.0, 30.0])
    def test_c_coefficients_expand_the_transform(self, z):
        # (F/z)^2 / F'(z) = 1 + sum c_{2n} z^{-2n} with F = f_tilde
        F = f_tilde(z).to_complex()
        lhs = (F / z) ** 2 / f_tilde_prime(z).to_complex()
        u = 1.0 / (z * z)
        rhs = 1.0 + sum(float(c) * u ** n
                        for n, c in enumerate(f_infinity_coefficients(10), start=1))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_a_coefficients_converge_to_the_solved_height(self):
        x = 25.0
        h = solve_H(x).h
        errs = [abs(eval_h_asym_infinity(x, N).to_complex().real - h) / h for N in (3, 6, 9)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-13


class TestWorkPerCall:
    def test_one_scaled_value_per_h_call(self, monkeypatch):
        count = [0]
        init = ScaledComplex.__init__

        def counted(self, *args):
            count[0] += 1
            init(self, *args)
        monkeypatch.setattr(ScaledComplex, "__init__", counted)
        rng = random.Random(11)
        xs = [rng.uniform(3.5, 40.0) for _ in range(100)]
        xs += [-(10.0 ** rng.uniform(0.6, 150.0)) for _ in range(100)]
        for x in xs:
            for N in (1, 3, 6):
                before = count[0]
                eval_h_asym_infinity(x, N)
                assert count[0] - before == 1, (x, N)

    def test_float_tables_are_the_exact_tables_rounded(self):
        # the evaluators sum cached float tuples; the reference converts each
        # Fraction on every call and must give the same bits
        def horner_of_fractions(coeffs, u):
            acc = float(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                acc = acc * u + float(c)
            return acc

        rng = random.Random(12)
        for _ in range(200):
            x = rng.uniform(3.5, 40.0)
            u = 1.0 / (x * x)
            for N in (1, 3, 6, 8):
                g = x + horner_of_fractions(free_cumulants(N), u) / x
                assert eval_g_asym_infinity(x, N) == g, (x, N)
                scale = (math.sqrt(0.5 * math.pi) * x * x
                         * horner_of_fractions((1,) + h_infinity_coefficients(N)[:N - 1], u))
                assert eval_h_asym_infinity(x, N).to_complex().real == ScaledComplex(
                    complex(scale, 0.0), -0.5 * x * x - 1.0).to_complex().real, (x, N)


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
    def test_series_eval_tracks_scaled_height(self):
        # the scaled value must agree with the plain formula where both exist
        x = 9.0
        v = eval_h_asym_infinity(x, 3).to_complex().real
        pref = math.sqrt(math.pi / 2) * x * x * math.exp(-0.5 * x * x - 1.0)
        a = [float(c) for c in h_infinity_coefficients(2)]
        series = 1.0 + a[0] / x**2 + a[1] / x**4
        assert abs(v - pref * series) <= 1e-13 * pref

    def test_scaled_height_beyond_float_range(self):
        v = eval_h_asym_infinity(60.0, 3)
        assert math.isfinite(v.log_abs())
        assert v.log_abs() < -1700.0

    # x * x underflows to 0 below |x| = 1.5e-162, and 1/x^2 overflows below 7.5e-155
    @pytest.mark.parametrize(
        "x", [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-300, 1e-200, -1e-170, 1e-160]
    )
    def test_non_finite_or_zero_argument_is_a_domain_error(self, x):
        for N in (1, 2, 3):
            with pytest.raises(DomainError):
                eval_g_asym_infinity(x, N)
            with pytest.raises(DomainError):
                eval_h_asym_infinity(x, N)

    def test_overflowing_g_series_is_a_domain_error(self):
        assert eval_g_asym_infinity(-1e-154, 1) == -1e-154 + 1.0 / -1e-154
        with pytest.raises(DomainError):
            eval_g_asym_infinity(-1e-154, 2)

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
