"""Free Levy measure: densities, the shifted inverse transform, mass checks."""

import cmath
import math
import random
import sys

import mpmath
import pytest

from freenormal.curve import f_of, in_omega, solve_H
from freenormal.errors import (
    DomainError,
    FreeNormalError,
    NoConvergence,
    QuadratureFailure,
)
from freenormal.levy import (
    levy_density,
    semicircular_component_check,
    tau_total_mass,
    voiculescu,
)
from freenormal.series import eval_h_asym_infinity
from freenormal.transforms import f_tilde
from mpmath_oracle import mp_inverse

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# tau(R) = -Im phi(i) = 1 - Im z for the root z of g_tilde(z) = -i, from
# mpmath.findroot at 40 digits
TAU_MASS = 0.69736915928842724


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
        h = -mp_inverse(x, solve_H(x).z, dps).imag
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
        # here the seed is past the range where -z^2/2 is a binary64 number
        (1e-300j, -37.14449055687826),
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
            want = complex(mp_inverse(w, w + phi) - mpmath.mpc(w))
        assert abs(phi - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("x", [9.5, 10.0, 20.0, 29.0])
    def test_imaginary_part_just_above_the_far_axis(self, x):
        # Im phi is about -1e-14 here, 1e-14 of |phi|: the moment series and
        # its exponential term keep Im g_tilde to its own roundoff above the
        # axis, where the kernel kept it only to the roundoff of |g_tilde|
        # (the sign came out wrong at 29)
        w = complex(x, 1e-12)
        phi = voiculescu(w)
        with mpmath.workdps(50):
            want = complex(mp_inverse(w, w + phi) - mpmath.mpc(w))
        assert phi.imag < 0.0
        assert abs(phi - want) <= 1e-12 * abs(want)
        assert abs(phi.imag - want.imag) <= 1e-12 * abs(want.imag)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 9.4])
    def test_imaginary_part_just_above_the_near_axis(self, x):
        # the Dawson table keeps Im g_tilde to its own roundoff within 0.5 of
        # the axis; the kernel it replaced missed Im phi by 16 % at 9
        w = complex(x, 1e-12)
        phi = voiculescu(w)
        with mpmath.workdps(50):
            want = complex(mp_inverse(w, w + phi) - mpmath.mpc(w))
        assert phi.imag < 0.0
        assert abs(phi - want) <= 1e-13 * abs(want)
        assert abs(phi.imag - want.imag) <= 1e-13 * abs(want.imag)

    @pytest.mark.parametrize(
        "w", [complex(math.nan, 1.0), complex(math.inf, 1.0), complex(0.0, math.inf)]
    )
    def test_non_finite_argument_is_a_domain_error(self, w):
        with pytest.raises(DomainError):
            voiculescu(w)

    @pytest.mark.parametrize("w", [
        # abs(w) overflows for these
        complex(1.7e308, 1.7e308), complex(-1.7e308, 1.7e308),
        complex(1e308, 1.7e308), complex(-1e308, 1.7e308),
        complex(1.7e308, 1e308), complex(-1.7e308, 1e308),
        # here |phi| ~ 1/|w| would be subnormal, or 1/w underflow to 0
        complex(1e308, 1.0), complex(-1e308, 1.0), 1e308j, 1.7e308j,
        complex(1e308, 1e308), complex(4.5e307, 1.0),
    ])
    def test_huge_arguments_are_a_domain_error(self, w):
        with pytest.raises(DomainError) as info:
            voiculescu(w)
        assert type(info.value) is DomainError

    def test_normal_up_to_the_wall(self):
        w = complex(4e307, 1.0)
        phi = voiculescu(w)
        assert math.isclose(phi.real, 2.5e-308, rel_tol=1e-15)
        assert phi.real >= sys.float_info.min
        # the true imaginary part, about -1/|w|^3, underflows to zero
        assert phi.imag == 0.0

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

    def test_matches_mpmath_to_roundoff(self):
        # -Im phi(i) = 1 - Im z for the root z of g_tilde(z) = -i, from
        # mpmath.findroot at 40 digits
        mass = tau_total_mass(1e-10)
        assert math.isclose(mass, 0.69736915928842724, rel_tol=1e-14)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            tau_total_mass(0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_is_a_domain_error(self, tol):
        with pytest.raises(DomainError):
            tau_total_mass(tol)

    @pytest.mark.parametrize("tol,most", [(1e-8, 160), (1e-10, 210)])
    def test_curve_solves_per_call(self, monkeypatch, tol, most):
        calls = []

        def counted(x):
            calls.append(x)
            return solve_H(x)

        monkeypatch.setattr("freenormal.levy.solve_H", counted)
        tau_total_mass(tol)
        assert 0 < len(calls) <= most

    def test_roundoff_accurate_at_the_default_tolerance(self):
        assert math.isclose(tau_total_mass(1e-8), TAU_MASS, rel_tol=1e-14)

    def test_tolerance_below_the_tail_bound_fails(self):
        with pytest.raises(QuadratureFailure):
            tau_total_mass(1e-16)


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
        # past T = 1e154, where f_tilde(-iT) is no longer representable
        assert semicircular_component_check(1e200) == 0.0
        for T in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                semicircular_component_check(T)


SWEEP = [
    0.0, -0.0,
    *(s * v
      for v in (5e-324, 1e-310, 1e-300, 1e-154, 0.3, 3.5, 30.0, 37.9, 38.6,
                1e154, 1e308, 1.7e308, math.inf)
      for s in (1.0, -1.0)),
    math.nan,
]


def _or_none(f, *args):
    """``f(*args)``, or None where it refuses with a ``FreeNormalError``."""
    try:
        return f(*args)
    except FreeNormalError:
        return None


class TestRobustnessSweep:
    """Each call returns a finite value that meets its documented invariant
    or raises a ``FreeNormalError``; any other exception fails the test."""

    @pytest.mark.parametrize("x", SWEEP)
    def test_real_arguments(self, x):
        density = _or_none(levy_density, x)
        if density is not None:
            assert sys.float_info.min <= density < math.inf
            assert levy_density(-x) == density
        witness = _or_none(semicircular_component_check, x)
        if witness is not None:
            assert witness == 0.0 or sys.float_info.min <= witness < 1.0
        f = _or_none(f_of, x)
        if f is not None:
            assert sys.float_info.min <= -f < math.inf
            assert f_of(-x) == f
        pt = _or_none(solve_H, x)
        if pt is not None:
            assert pt.x == x and 0.0 < pt.g < math.inf
            assert sys.float_info.min <= pt.h < math.inf
            assert math.isfinite(pt.residual)

    @pytest.mark.parametrize("re", SWEEP)
    def test_complex_arguments(self, re):
        for im in SWEEP:
            w = complex(re, im)
            phi = _or_none(voiculescu, w)
            if phi is not None:
                assert cmath.isfinite(phi)
                assert math.hypot(phi.real, phi.imag) >= sys.float_info.min
                assert phi.imag <= 0.0
            inside = _or_none(in_omega, w)
            if inside is not None:
                assert type(inside) is bool
                # the closed upper half plane and the imaginary axis
                assert inside or not (im >= 0.0 or re == 0.0)

    @pytest.mark.parametrize(
        "tol", [5e-324, 1e-8, 1e300, 0.0, -1.0, math.inf, math.nan]
    )
    def test_tau_total_mass(self, tol):
        mass = _or_none(tau_total_mass, tol)
        if mass is not None:
            assert 0.0 < mass < math.inf
            assert abs(mass - TAU_MASS) <= 2.0 * tol
