"""Transform evaluator against independent oracles.

Two outside references pin the implementation: the Faddeeva function
(scipy.special.wofz) gives the Cauchy transform of the Gaussian on the
closed upper half plane, and mpmath's erfc at 40 digits gives the density
along the negative axis where it grows like exp(x^2/2).  Below the axis
the continuation is checked through its defining jump against the
wofz value, and independently by contour quadrature.
"""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from freenormal.errors import DomainError, InvalidContour
from freenormal.scaled import ScaledComplex
from freenormal.transforms import (
    DomainTag,
    _g_tilde_near_axis_parts,
    classify_domain,
    contour_moment,
    f_tilde,
    f_tilde_prime,
    g_tilde,
    g_tilde_contour_oracle,
    g_tilde_prime,
    rho,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def upper_half_oracle(z: complex) -> complex:
    """Cauchy transform of the standard Gaussian for Im z >= 0, via wofz."""
    return -1j * SQRT_HALF_PI * wofz(z / math.sqrt(2.0))


def continuation_oracle(z: complex) -> complex:
    """Entire continuation for Im z < 0: upper value plus the jump term."""
    upper = upper_half_oracle(z.conjugate()).conjugate()
    return upper - 1j * math.sqrt(2.0 * math.pi) * cmath.exp(-0.5 * z * z)


def rho_oracle(x: float) -> float:
    """Density along the real axis at 40 digits."""
    with mpmath.workdps(40):
        v = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(x * x / 2) * mpmath.erfc(
            x / mpmath.sqrt(2)
        )
        return float(v)


def rel_err(got: ScaledComplex, want: complex) -> float:
    diff = got - ScaledComplex.from_complex(want)
    if diff.is_zero:
        return 0.0
    return math.exp(diff.log_abs() - max(got.log_abs(), abs(want) and math.log(abs(want))))


class TestUpperHalfPlane:
    def test_against_faddeeva_on_a_grid(self):
        rng = random.Random(11)
        worst = 0.0
        for _ in range(300):
            z = complex(rng.uniform(-12, 12), rng.uniform(0, 12))
            worst = max(worst, rel_err(g_tilde(z), upper_half_oracle(z)))
        assert worst <= 5e-13

    def test_value_at_origin(self):
        v = complex(g_tilde(0j))
        assert abs(v - complex(0.0, -1.2533141373155003)) <= 1e-15

    def test_stieltjes_imaginary_part_on_axis(self):
        for x in (-8.0, -3.0, -1.0, 0.0, 0.5, 2.5, 4.5, 7.5):
            got = complex(g_tilde(complex(x, 0.0))).imag
            want = -SQRT_HALF_PI * math.exp(-0.5 * x * x)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_asymptotic_expansion_along_a_ray(self):
        # z G(z) -> 1 with even-moment corrections; check m6 emerges
        direction = cmath.exp(1j * math.pi / 3)
        errs = []
        for R in (20.0, 40.0, 80.0):
            z = R * direction
            v = complex(g_tilde(z))
            # subtract the first terms of the moment series
            series = 1 / z + 1 / z**3 + 3 / z**5
            errs.append(abs((v - series) * z**7 - 15.0))
        # the residual is ~105/R^2, so it shrinks 4x per doubling
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05


class TestBelowAxis:
    def test_jump_formula_against_upper_oracle(self):
        rng = random.Random(12)
        worst = 0.0
        n = 0
        while n < 200:
            z = complex(rng.uniform(-8, 8), rng.uniform(-3, -1e-3))
            if classify_domain(z) is not DomainTag.XI_INTERIOR:
                continue
            worst = max(worst, rel_err(g_tilde(z), continuation_oracle(z)))
            n += 1
        assert worst <= 5e-13

    def test_deep_negative_axis_matches_mpmath(self):
        for x in (-1.0, -3.0, -10.0, -25.0):
            got = rho(x)
            want = rho_oracle(x)
            rel = abs(math.exp(got.log_abs() - math.log(want)) - 1.0)
            assert rel <= 1e-13

    def test_rho_positive_axis(self):
        for x in (0.5, 1.0, 3.0):
            got = float(rho(x).to_complex().real)
            assert abs(got - rho_oracle(x)) <= 1e-13 * rho_oracle(x)

    def test_rho_far_negative_scale(self):
        v = rho(-40.0)
        assert math.isclose(v.log_abs(), 800.9189385332047, rel_tol=1e-12)

    def test_rho_is_decreasing(self):
        xs = [-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0]
        vals = [rho(x).log_abs() for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestNearAxisSplit:
    def test_matches_the_continuation_down_to_half_depth(self):
        rng = random.Random(31)
        worst = 0.0
        for _ in range(300):
            x = rng.uniform(-8.0, 8.0)
            y = -rng.uniform(0.0, min(0.5, 0.99 * (math.pi / 2) / abs(x)))
            re, im = _g_tilde_near_axis_parts(x, y)
            want = continuation_oracle(complex(x, y))
            worst = max(worst, abs(complex(re, im) - want) / abs(want))
        assert worst <= 1e-14


class TestSymmetryAndDerivatives:
    @given(
        st.floats(-8, 8, allow_nan=False),
        st.floats(0.001, 8, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_reflection_in_the_imaginary_axis(self, x, y):
        z = complex(x, y)
        lhs = g_tilde(complex(-x, y))
        rhs = -g_tilde(z).conjugate()
        diff = lhs - rhs
        assert diff.is_zero or diff.log_abs() - lhs.log_abs() < math.log(1e-12)

    def test_first_order_identity_for_g(self):
        rng = random.Random(13)
        for _ in range(100):
            z = complex(rng.uniform(-6, 6), rng.uniform(-0.4, 6))
            if classify_domain(z) is DomainTag.OUTSIDE_XI:
                continue
            lhs = complex(g_tilde_prime(z))
            rhs = 1.0 - z * complex(g_tilde(z))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    def test_derivative_matches_finite_difference(self):
        for z in (0.7 + 1.3j, -2.0 + 0.5j, 1.5 - 0.4j):
            d = 1e-5
            fd = (complex(g_tilde(z + d)) - complex(g_tilde(z - d))) / (2 * d)
            assert abs(complex(g_tilde_prime(z)) - fd) <= 1e-7

    def test_f_ode_identity(self):
        rng = random.Random(14)
        n = 0
        while n < 120:
            z = complex(rng.uniform(-9, 9), rng.uniform(-1.2, 9))
            if abs(z) > 10 or classify_domain(z) in (
                DomainTag.OUTSIDE_XI,
                DomainTag.XI_BOUNDARY,
            ):
                continue
            F = f_tilde(z)
            lhs = f_tilde_prime(z)
            rhs = F * (ScaledComplex.from_complex(z) - F)
            diff = lhs - rhs
            if not diff.is_zero:
                rel = math.exp(
                    diff.log_abs() - max(lhs.log_abs(), rhs.log_abs())
                )
                assert rel <= 1e-9
            n += 1

    def test_f_is_reciprocal_of_g(self):
        z = 1.3 + 0.4j
        assert (f_tilde(z) * g_tilde(z)).isclose(ScaledComplex.from_complex(1.0))

    def test_f_purely_imaginary_on_lower_imaginary_axis(self):
        v = complex(f_tilde(complex(0.0, -2.0)))
        assert abs(v.real) <= 1e-14 * abs(v)
        assert v.imag > 0.0


class TestDomainClassification:
    def test_representative_points(self):
        assert classify_domain(2j) is DomainTag.UPPER_HALF_PLANE
        assert classify_domain(3.0 + 0j) is DomainTag.REAL_AXIS
        assert classify_domain(0.5 - 1.0j) is DomainTag.XI_INTERIOR
        assert classify_domain(3.0 - 1.0j) is DomainTag.OUTSIDE_XI

    def test_boundary_band_is_detected(self):
        x = 2.0
        y = -(math.pi / 2.0) / x
        assert classify_domain(complex(x, y)) is DomainTag.XI_BOUNDARY
        assert classify_domain(complex(x, y * 1.001)) is DomainTag.OUTSIDE_XI
        assert classify_domain(complex(x, y * 0.999)) is DomainTag.XI_INTERIOR

    @given(st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_classification_is_exhaustive(self, x, y):
        assert classify_domain(complex(x, y)) in DomainTag


class TestNonFiniteArguments:
    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(math.inf, 0.0), complex(1.0, -math.inf),
        complex(math.nan, math.nan),
    ])
    @pytest.mark.parametrize("fn", [g_tilde, g_tilde_prime, f_tilde, f_tilde_prime])
    def test_transforms_raise_a_domain_error(self, fn, z):
        with pytest.raises(DomainError):
            fn(z)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rho_raises_a_domain_error(self, x):
        with pytest.raises(DomainError):
            rho(x)


class TestContourOracle:
    def test_matches_evaluator_above_and_below(self):
        pts = [1.2 + 0.8j, -1.5 + 2.0j, 2.5 + 0.1j, 0.9 - 0.25j, -1.8 - 0.5j]
        for z in pts:
            ref = g_tilde_contour_oracle(z, math.pi / 24, eps=math.pi / 16)
            diff = g_tilde(z) - ref
            assert diff.is_zero or math.exp(
                diff.log_abs() - ref.log_abs()
            ) <= 1e-10

    def test_rejects_bad_angles(self):
        with pytest.raises(InvalidContour):
            g_tilde_contour_oracle(1.0 + 1.0j, eta=0.5, eps=0.4)
        with pytest.raises(InvalidContour):
            g_tilde_contour_oracle(1.0 + 1.0j, eta=-0.1)

    def test_rejects_point_outside_cone(self):
        # deep in the excluded wedge below the axis
        with pytest.raises(InvalidContour):
            g_tilde_contour_oracle(2.0 - 2.0j, math.pi / 24, eps=math.pi / 16)

    def test_gaussian_moments_through_the_contour(self):
        assert abs(contour_moment(0, 0.3) - 1.0) <= 1e-12
        assert abs(contour_moment(2, 0.3) - 1.0) <= 1e-12
        assert abs(contour_moment(4, 0.3) - 3.0) <= 1e-11
        assert abs(contour_moment(3, 0.3)) <= 1e-12


class TestScaledReturns:
    def test_huge_lower_half_plane_values_stay_finite(self):
        z = complex(0.5, -30.0)  # inside the domain: |x y| = 15 < pi/2? no
        # pick a certified deep point instead: x small keeps x*|y| below pi/2
        z = complex(0.05, -30.0)
        v = g_tilde(z)
        assert v.log_abs() > 400.0  # e^{(y^2-x^2)/2} scale
        assert math.isfinite(v.log_abs())

    def test_f_tilde_inverts_the_scale(self):
        z = complex(0.05, -30.0)
        g = g_tilde(z)
        f = f_tilde(z)
        assert math.isclose(f.log_abs(), -g.log_abs(), rel_tol=1e-12)
