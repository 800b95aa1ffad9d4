"""Free Levy measure: densities, the shifted inverse transform, mass checks."""

import cmath
import math
import random
import sys

import mpmath
import pytest

from freenormal.curve import in_omega, solve_H
from freenormal.errors import DomainError, NoConvergence
from freenormal.levy import (
    levy_density,
    semicircular_component_check,
    tau_total_mass,
    voiculescu,
)
from freenormal.series import eval_h_asym_infinity
from freenormal.transforms import f_tilde

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def mpmath_inverse(w: complex, seed: complex, dps: int = 50) -> mpmath.mpc:
    """Root of ``g_tilde(z) = 1/w`` near ``seed`` at ``dps`` digits."""
    with mpmath.workdps(dps):
        def g(z):
            return (-1j * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-z * z / 2)
                    * mpmath.erfc(-1j * z / mpmath.sqrt(2)))
        return mpmath.findroot(lambda z: g(z) - 1 / mpmath.mpc(w), mpmath.mpc(seed))


class TestDensity:
    def test_even(self):
        for x in (0.3, 1.0, 4.5):
            assert levy_density(x) == levy_density(-x)

    def test_positive_and_decreasing_away_from_origin(self):
        xs = [0.2 + 0.2 * k for k in range(20)]
        vals = [levy_density(x) for x in xs]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_large_argument_series(self):
        x = 8.0
        want = eval_h_asym_infinity(x, 3).to_complex().real / (math.pi * x * x)
        got = levy_density(x)
        assert abs(got - want) <= 1e-3 * want

    def test_blows_up_like_inverse_square_times_height(self):
        x = 1e-4
        pt = solve_H(x)
        assert math.isclose(
            levy_density(x), pt.h / (math.pi * x * x), rel_tol=1e-12
        )

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            levy_density(0.0)

    def test_normal_up_to_the_wall(self):
        assert levy_density(37.5) >= sys.float_info.min

    @pytest.mark.parametrize("x", [30.01, 31.5, 33.0, 34.5, 36.0, 37.5])
    def test_matches_mpmath_above_the_series_threshold(self, x):
        dps = 40 + int(x * x / (2.0 * math.log(10.0)))
        h = -mpmath_inverse(x, solve_H(x).z, dps).imag
        with mpmath.workdps(dps):
            want = float(h / (mpmath.pi * mpmath.mpf(x) ** 2))
        assert abs(levy_density(x) - want) <= 1e-12 * want

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            levy_density(x)

    @pytest.mark.parametrize("x", [1e-160, -1e-200, 1e-320])
    def test_overflowing_density_is_a_domain_error(self, x):
        with pytest.raises(DomainError) as info:
            levy_density(x)
        assert type(info.value) is DomainError

    def test_finite_down_to_the_overflow(self):
        x = 1e-150
        assert math.isclose(
            levy_density(x), solve_H(x).h / (math.pi * x * x), rel_tol=1e-15
        )

    @pytest.mark.parametrize("x", [37.6, 38.0, -38.0, 38.6])
    def test_subnormal_density_is_a_domain_error(self, x):
        with pytest.raises(DomainError) as info:
            levy_density(x)
        assert type(info.value) is DomainError


class TestVoiculescu:
    def test_real_arguments_use_the_curve(self):
        pt = solve_H(2.0)
        phi = voiculescu(2.0)
        assert math.isclose(phi.real, pt.g - 2.0, rel_tol=1e-12)
        assert math.isclose(phi.imag, -pt.h, rel_tol=1e-12)

    def test_odd_symmetry_on_the_real_line(self):
        p, m = voiculescu(1.5), voiculescu(-1.5)
        assert p.real == -m.real
        assert p.imag == m.imag

    def test_defining_equation_in_the_upper_half_plane(self):
        rng = random.Random(21)
        for _ in range(25):
            w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4))
            z = w + voiculescu(w)
            back = complex(f_tilde(z))
            assert abs(back - w) <= 1e-9 * max(1.0, abs(w))

    def test_values_lie_in_the_closed_lower_half_plane(self):
        rng = random.Random(22)
        for _ in range(25):
            w = complex(rng.uniform(-4, 4), rng.uniform(0.02, 5))
            assert voiculescu(w).imag <= 1e-12

    def test_conjugate_symmetry(self):
        w = 0.8 + 1.3j
        a, b = voiculescu(w), voiculescu(-w.conjugate())
        assert abs(b - complex(-a.real, a.imag)) <= 1e-10

    def test_at_i_is_purely_imaginary(self):
        phi = voiculescu(1j)
        assert phi.real == 0.0
        assert math.isclose(phi.imag, -0.6973691592884274, rel_tol=1e-10)

    @pytest.mark.parametrize("w,imag", [
        # mpmath roots of g_tilde(z) = 1/w at 40 digits, minus w
        (1e-8j, -5.916374273413915),
        (1e-3j, -3.4619495572262053),
    ])
    def test_small_arguments_on_the_imaginary_axis(self, w, imag):
        # the seed w + 1/w lies so deep below the axis that f_tilde'
        # underflows there; the fallback start from w must take over
        phi = voiculescu(w)
        assert abs(complex(f_tilde(w + phi)) - w) <= 1e-12
        assert math.isclose(phi.imag, imag, rel_tol=1e-5)
        assert abs(phi.real) <= 1e-12
        assert in_omega(w + phi)

    def test_small_arguments_off_the_axis(self):
        rng = random.Random(23)
        for _ in range(40):
            w = cmath.rect(rng.uniform(0.01, 0.31), rng.uniform(0.02, 3.12))
            z = w + voiculescu(w)
            assert abs(complex(f_tilde(z)) - w) <= 1e-12
            assert in_omega(z)

    @pytest.mark.parametrize(
        "w", [1e-8j, 1e2 + 1j, 29 + 1j, 31 + 1j, 1e6 + 1j, 1e8 + 1j]
    )
    def test_twelve_digits_at_both_ends_of_the_modulus(self, w):
        phi = voiculescu(w)
        with mpmath.workdps(50):
            want = complex(mpmath_inverse(w, w + phi) - mpmath.mpc(w))
        assert abs(phi - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "w", [complex(math.nan, 1.0), complex(math.inf, 1.0), complex(0.0, math.inf)]
    )
    def test_non_finite_argument_is_a_domain_error(self, w):
        with pytest.raises(DomainError):
            voiculescu(w)

    def test_rejects_zero_and_lower_half_plane(self):
        with pytest.raises(DomainError):
            voiculescu(0.0)
        with pytest.raises(DomainError):
            voiculescu(1.0 - 1.0j)


class TestTauMass:
    def test_consistent_with_transform_at_i(self):
        mass = tau_total_mass(1e-8)
        phi = voiculescu(1j)
        assert abs(mass + phi.imag) <= 1e-6

    def test_pinned_total(self):
        assert math.isclose(tau_total_mass(1e-8), 0.6973691593, rel_tol=1e-7)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            tau_total_mass(0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_is_a_domain_error(self, tol):
        with pytest.raises(DomainError):
            tau_total_mass(tol)


class TestSemicircularComponent:
    def test_decays_like_the_model(self):
        for T in (3.0, 4.0, 5.0, 6.0):
            got = semicircular_component_check(T)
            model = T * math.exp(-0.5 * T * T) / SQRT_TWO_PI
            assert abs(got - model) <= 2e-3 * model + 1e-12

    def test_decreasing_and_small_at_six(self):
        vals = [semicircular_component_check(T) for T in (3.0, 4.0, 5.0, 6.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1e-7

    def test_edges(self):
        assert semicircular_component_check(0.0) == 0.0
        assert semicircular_component_check(80.0) == 0.0
        with pytest.raises(DomainError):
            semicircular_component_check(-1.0)
