"""Transform evaluator against independent oracles.

Two outside references pin the implementation: the Faddeeva function
(scipy.special.wofz) gives the Cauchy transform of the Gaussian on the
closed upper half plane, and mpmath's erfc at 40 digits gives the density
along the negative axis where it grows like exp(x^2/2).  Below the axis
the continuation is checked through its defining jump against the
wofz value, and independently by contour quadrature.
"""

import cmath
import importlib.util
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from freenormal import transforms
from freenormal.curve import X_ASYMPTOTIC, _confined, solve_H
from freenormal.errors import (
    DomainError,
    FreeNormalError,
    PoleProximity,
    QuadratureFailure,
)
from freenormal.levy import _TAU_SPLIT
from freenormal.scaled import ScaledComplex
from freenormal.transforms import (
    _DAWSON_NODES,
    DomainTag,
    _g_eval,
    _w_upper,
    classify_domain,
    contour_moment,
    f_tilde,
    f_tilde_prime,
    g_tilde,
    g_tilde_contour_oracle,
    g_tilde_prime,
    quad,
    rho,
)
from mpmath_oracle import mp_g_tilde, rho_mp

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
    return float(rho_mp(x))


def mpmath_g_tilde(z: complex):
    """``g_tilde(z) = -i sqrt(pi/2) exp(-z^2/2) erfc(-i z/sqrt 2)`` at 40 digits."""
    with mpmath.workdps(40):
        return mp_g_tilde(mpmath.mpc(z))


def rel_err_mp(got: ScaledComplex, want) -> float:
    """Relative error of a scaled value against an mpmath number."""
    with mpmath.workdps(40):
        m = got.mantissa
        value = mpmath.mpc(m.real, m.imag) * mpmath.exp(got.log_scale)
        return float(abs(value - want) / abs(want))


def rel_err(got: ScaledComplex, want: complex) -> float:
    diff = got - ScaledComplex(want)
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


class TestFaddeevaKernel:
    """The one kernel behind every value, against wofz and mpmath."""

    @staticmethod
    def disk_points(seed, lower):
        rng = random.Random(seed)
        pts = []
        while len(pts) < 1000:
            z = complex(rng.uniform(-30, 30), rng.uniform(-30, 0) if lower else rng.uniform(0, 30))
            if abs(z) > 30 or z.imag == 0.0:
                continue
            if lower and classify_domain(z) is not DomainTag.XI_INTERIOR:
                continue
            pts.append(z)
        return pts

    def test_upper_half_of_the_disk_against_wofz(self):
        worst = max(rel_err(g_tilde(z), upper_half_oracle(z))
                    for z in self.disk_points(41, lower=False))
        assert worst <= 1e-12

    def test_lower_xi_in_the_disk_against_wofz(self):
        worst = max(rel_err(g_tilde(z), continuation_oracle(z))
                    for z in self.disk_points(42, lower=True))
        assert worst <= 1e-12

    def test_axis_imaginary_part_is_the_gaussian_density(self):
        # against the exact exp(-x^2/2) of the binary64 x: rounding x*x
        # alone would cost 5e-14 at x = 37
        for k in range(371):
            x = 0.1 * k
            got = g_tilde(complex(x, 0.0))
            with mpmath.workdps(40):
                want = -mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-mpmath.mpf(x) ** 2 / 2)
                im = mpmath.mpf(got.mantissa.imag) * mpmath.exp(got.log_scale)
                assert abs(im - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("e", [699.9, 700.0, 700.1])
    def test_plain_and_scaled_sums_agree_at_the_switch(self, monkeypatch, e):
        # points with Re(-z^2/2) = e, 37 or more below the axis; moving the
        # switch forces each assembly in turn
        for x in (0.01, 0.03, 1.0, -2.5):
            z = complex(x, -math.sqrt(2.0 * e + x * x))
            monkeypatch.setattr(transforms, "_SCALED_FROM", math.inf)
            plain = g_tilde(z)
            monkeypatch.setattr(transforms, "_SCALED_FROM", -math.inf)
            scaled = g_tilde(z)
            assert scaled.log_scale > 600.0  # the scaled sum ran
            assert rel_err(plain, complex(scaled)) <= 1e-13
            monkeypatch.undo()
            assert rel_err_mp(g_tilde(z), mpmath_g_tilde(z)) <= 1e-13

    def test_deep_below_the_disk_matches_mpmath(self):
        assert rel_err_mp(g_tilde(0.01 - 40j), mpmath_g_tilde(0.01 - 40j)) <= 1e-13
        with mpmath.workdps(40):
            want = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(800) * mpmath.erfc(-40 / mpmath.sqrt(2))
        assert rel_err_mp(rho(-40.0), want) <= 1e-13

    @pytest.mark.parametrize("fn", [f_tilde, f_tilde_prime])
    def test_pole_floor_still_refuses(self, fn):
        # |g_tilde| ~ 1/|z| falls below e^-690.8 past |z| = 1e300
        for z in (1e301j, complex(1e305, 0.0), complex(-2e302, 1.0)):
            with pytest.raises(PoleProximity):
                fn(z)

    def test_values_below_the_plain_range_stay_finite(self):
        for z in (1e200j, complex(1e200, -1e-210), complex(3e160, 1.0)):
            for fn in (g_tilde, g_tilde_prime, f_tilde, f_tilde_prime):
                assert math.isfinite(fn(z).log_abs())
        # where (L - i zeta)^2 or sqrt(pi) (L - i zeta) would overflow
        for z in (1e200 + 1e200j, complex(1.7e308, 0.5), complex(-1.7e308, -1e-20)):
            assert math.isfinite(g_tilde(z).log_abs())


def _hi(z: complex) -> float:
    """``Re(-z^2/2)``, as the evaluator splits it."""
    return transforms._half_diff_of_squares(z.real, z.imag)[0]


def _far_lower_points(rng, n, r_lo, r_hi):
    """Below the axis with ``|x y| <= 2``, half near each axis.

    The phase ``x y`` of ``exp(-z^2/2)`` is rounded once, which costs about
    ``|x y|`` ulps of ``g_tilde`` wherever that term matters, whatever the
    algebraic part; ``|x y| <= 2`` keeps that below 3e-16.
    """
    pts = []
    for k in range(n):
        r = rng.uniform(r_lo, r_hi)
        t = rng.uniform(-2.0, 2.0) / r
        if k % 2:
            pts.append(complex(t, -math.sqrt(r * r - t * t)))
        else:
            pts.append(complex(math.copysign(math.sqrt(r * r - t * t), t), -abs(t)))
    return pts


class TestShorterFormsThanTheKernel:
    """The moment series past ``|z| = 9.5`` and the exponential term alone
    past ``Re(-z^2/2) = 42``, against 40-digit mpmath."""

    def test_moment_series_above_the_axis(self):
        rng = random.Random(51)
        worst = 0.0
        for _ in range(400):
            z = cmath.rect(rng.uniform(9.5, 40.0), rng.uniform(0.0, math.pi))
            worst = max(worst, rel_err_mp(g_tilde(z), mpmath_g_tilde(z)))
        assert worst <= 1e-15

    def test_imaginary_part_just_above_the_far_axis(self):
        # on the axis Im g_tilde is the exponential term alone, which the
        # series misses; it is added within 0.5 above the axis
        rng = random.Random(55)
        for _ in range(300):
            z = complex(rng.choice((-1.0, 1.0)) * rng.uniform(9.5, 30.0),
                        10.0 ** rng.uniform(-14.0, math.log10(0.5)))
            v, want = g_tilde(z), mpmath_g_tilde(z)
            with mpmath.workdps(40):
                im = mpmath.mpf(v.mantissa.imag) * mpmath.exp(v.log_scale)
                assert abs(im - want.imag) <= 1e-15 * abs(want.imag), z

    def test_below_the_axis(self):
        rng = random.Random(52)
        # 0.0163-37.63i is summed scaled, past e^700
        for z in _far_lower_points(rng, 400, 9.5, 40.0) + [0.0163 - 37.63j]:
            assert rel_err_mp(g_tilde(z), mpmath_g_tilde(z)) <= 1e-15, z

    def test_both_sides_of_the_far_field_edge(self):
        rng = random.Random(53)
        ring = [cmath.rect(9.5, 0.1 + 2.0 * math.pi * k / 16) for k in range(8)]
        ring += _far_lower_points(rng, 8, 9.5, 9.5)
        for z in ring:
            for f in (1.0 - 1e-12, 1.0 + 1e-12):
                assert rel_err_mp(g_tilde(f * z), mpmath_g_tilde(f * z)) <= 1e-15, f * z

    def test_both_sides_of_the_exponential_edge(self):
        for x in (0.0, 0.01, -0.1, 0.15):
            for f in (1.0 - 1e-12, 1.0 + 1e-12):
                z = complex(x, -math.sqrt(84.0 * f + x * x))
                assert abs(_hi(z) - 42.0) <= 1e-10
                assert rel_err_mp(g_tilde(z), mpmath_g_tilde(z)) <= 1e-15, z

    @pytest.mark.parametrize("x", [
        9.5, -9.5, 30.0, -30.0,
        math.sqrt(84.0) * (1.0 - 1e-12), math.sqrt(84.0) * (1.0 + 1e-12),
        -math.sqrt(84.0) * (1.0 - 1e-12), -math.sqrt(84.0) * (1.0 + 1e-12),
        9.5 * (1.0 - 1e-12), 9.5 * (1.0 + 1e-12),
        -math.sqrt(1400.0) * (1.0 - 1e-12), -math.sqrt(1400.0) * (1.0 + 1e-12),
    ])
    def test_rho_at_the_edges(self, x):
        assert rel_err_mp(rho(x), rho_mp(x)) <= 1e-15

    def test_rho_against_mpmath_on_a_grid(self):
        for x in [0.37 * k - 37.0 for k in range(200)]:
            assert rel_err_mp(rho(x), rho_mp(x)) <= 1e-15, x

    def test_kernel_modulus_is_at_most_one_on_the_closed_upper_half_plane(self):
        # the bound behind dropping the algebraic part past Re(-z^2/2) = 42
        worst = max(abs(_w_upper(complex(a, b)))
                    for a in [0.25 * k - 40.0 for k in range(321)]
                    for b in [0.0, 1e-300, 1e-8, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0])
        assert worst <= 1.0
        assert _w_upper(0j) == 1.0


def _band_reference(z: complex):
    """``g_tilde(z)`` from mpmath, at enough digits for its imaginary part.

    At a fixed 50 digits ``erfc`` loses ``x^2/(2 ln 10)`` digits to the
    cancellation that leaves ``exp(-x^2/2)``, so ``Im`` is wrong past
    ``|x|`` about 15; ``bench/oracles.py`` takes the same precision.
    """
    dps = int(40 + z.real * z.real / (2.0 * math.log(10.0)) + 20)
    with mpmath.workdps(dps):
        return mp_g_tilde(mpmath.mpc(z))


def _part_errors(got: complex, z: complex, want=None) -> tuple[float, float]:
    """Errors of ``Re`` and ``Im`` of ``got`` against :func:`_band_reference`
    (or ``want``, its value at ``z``).

    ``Re`` relative to itself (absolute where it is 0), ``Im`` relative to
    ``max(|Im|, sqrt(pi/2) |exp(-z^2/2)|)``: the exponential term is
    rounded once as a whole, whatever the sign of its parts.
    """
    if want is None:
        want = _band_reference(z)
    with mpmath.workdps(30):
        scale = mpmath.sqrt(mpmath.pi / 2) * abs(mpmath.exp(-mpmath.mpc(z) ** 2 / 2))
        re = abs(got.real - want.real) / (abs(want.real) or 1)
        im = abs(got.imag - want.imag) / max(abs(want.imag), scale)
        return float(re), float(im)


def _band_points(seed: int, n: int) -> list[complex]:
    """Within 0.5 of the axis in ``Xi``, on both sides, with ``|Re z| <= 30``."""
    rng = random.Random(seed)
    special = [0.0, 1e-300, -1e-300, 1e-12, -1e-12]
    pts = []
    while len(pts) < n:
        x = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 30.0)
        k = len(pts) % 4
        y = (rng.choice(special) if k == 0 else
             rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, math.log10(0.5)) if k == 1 else
             rng.uniform(-0.5, 0.5))
        if y < 0.0 and abs(x * y) > math.pi / 2:
            continue
        pts.append(complex(x, y))
    return pts


class TestNearAxisBand:
    """Within 0.5 of the axis on both sides each part of ``g_tilde`` keeps
    its own roundoff: the Dawson table below ``|z| = 9.5``, the moment
    series from there on."""

    def test_parts_against_mpmath(self):
        worst_re = worst_im = 0.0
        for z in _band_points(61, 600):
            re, im = _part_errors(complex(g_tilde(z)), z)
            worst_re, worst_im = max(worst_re, re), max(worst_im, im)
        assert worst_re <= 1e-15
        assert worst_im <= 2e-15

    @pytest.mark.parametrize("y", [0.0, 1e-300, -1e-300, 1e-12, -1e-12, 0.5, -0.16])
    def test_parts_on_both_sides_of_the_far_field_edge(self, y):
        for s in (1.0, -1.0):
            for f in (1.0 - 1e-12, 1.0 + 1e-12):
                z = complex(s * 9.5 * f, y)
                re, im = _part_errors(complex(g_tilde(z)), z)
                assert re <= 1e-15 and im <= 2e-15, z

    def test_both_sides_of_the_wall_of_xi(self):
        # the band reaches the wall that Newton confines to, the 4-ulp
        # boundary band included; past the wall the kernel serves, and keeps
        # the parts only to the roundoff of |g_tilde|.  At -conj z the value
        # is -conj g_tilde(z)
        u = math.ulp(0.5 * math.pi)
        for a in (3.2, 4.0, 5.5, 7.0, 9.4, 9.6, 12.0, 17.0, 23.0, 29.0):
            for k in range(-6, 7):
                z = complex(a, -(0.5 * math.pi + k * u) / a)
                want = _band_reference(z)
                for got in (complex(g_tilde(z)), -complex(g_tilde(-z.conjugate())).conjugate()):
                    with mpmath.workdps(30):
                        assert abs(mpmath.mpc(got) - want) <= 4.4e-16 * abs(want), z
                    if _confined(z):
                        assert max(_part_errors(got, z, want)) <= 1e-15, z

    def test_dawson_nodes_are_mpmath_rounded_to_nearest(self):
        assert len(_DAWSON_NODES) == 28
        with mpmath.workdps(40):
            for j, (d, dp) in enumerate(_DAWSON_NODES):
                xi = mpmath.mpf(j) / 4
                want = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-xi * xi) * mpmath.erfi(xi)
                assert d == float(want), j
                assert dp == float(1 - 2 * xi * want), j

    def test_weideman_coefficients_are_the_cosine_sums(self):
        n, L = transforms._W_TERMS, transforms._W_L
        f = [math.exp(-t * t) * (L**2 + t * t) for t in
             (L * math.tan(0.25 * math.pi * j / n) for j in range(2 * n))]
        want = tuple(
            math.fsum([f[0]] + [2.0 * v * math.cos(0.5 * math.pi * k * j / n)
                                for j, v in enumerate(f[1:], 1)]) / (4 * n)
            for k in range(n, 0, -1)
        )
        assert [c.hex() for c in transforms._W_COEF] == [c.hex() for c in want]

    def test_rho_is_i_g_tilde_of_i_x(self):
        for x in (-0.5, -0.3, -1e-300, -0.0, 0.0, 1e-300, 1e-12, 0.25, 0.5):
            v, g = rho(x), g_tilde(complex(0.0, x))
            assert v.log_scale == g.log_scale, x
            assert v.mantissa == 1j * g.mantissa, x

    def test_rho_is_i_g_tilde_of_i_x_bit_for_bit(self):
        # every region on the imaginary axis: the band, the kernel above and
        # below it, the moment series, the exponential term alone, plain
        # and scaled, and the kernel again past |x| = 1e150
        rng = random.Random(25)
        xs = [rng.uniform(-0.5, 0.5) for _ in range(500)]
        xs += [rng.uniform(-45.0, 45.0) for _ in range(2000)]
        xs += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 154.0) for _ in range(500)]
        edges = [0.5, 9.5, math.sqrt(84.0), math.sqrt(1400.0), 1e150, 1e149]
        xs += [s * e * f for e in edges for s in (1.0, -1.0)
               for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
        for x in xs + [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e200, 1e308]:
            v, g = rho(x), g_tilde(complex(0.0, x))
            want = 1j * g.mantissa
            assert v.log_scale.hex() == g.log_scale.hex(), x
            assert v.mantissa.real.hex() == want.real.hex(), x
            assert v.mantissa.imag == 0.0, x

    @pytest.mark.parametrize("re", [1e151, -1e151, 1e200, -1e200, 1.7e308, -1.7e308])
    def test_sign_of_the_imaginary_part_past_the_band_edge(self, re):
        # past |z|^2 = 1e300 the band is 1/z, whose Im has the sign of
        # -Im z; the kernel's Im was roundoff of |g_tilde| there, of either sign
        for im in (0.4, 1e-160):
            z = complex(re, im)
            if abs(im / re) < sys.float_info.min * sys.float_info.epsilon:
                continue  # Im(1/z)/|1/z| underflows
            g = g_tilde(z)
            assert g.mantissa.imag < 0.0, z
            assert abs(g.log_abs() + math.log(abs(re))) <= 1e-15 * math.log(abs(re)), z
        if abs(re) < 1e154:  # inside Xi, |Re z Im z| = 1
            z = complex(re, -1.0 / abs(re))
            g = g_tilde(z)
            assert g.mantissa.imag > 0.0, z
            assert abs(g.log_abs() + math.log(abs(re))) <= 1e-15 * math.log(abs(re)), z

    @pytest.mark.parametrize("z", [1e151 + 0.4j, -1e200 + 1e-160j, complex(1e160, -1e-200),
                                   complex(-3e299, 0.0), 1e151 + 1j, 1e151 + 1e151j,
                                   -1e200 + 3j, 1e-3 + 1e160j])
    def test_derivatives_past_the_band_edge(self, z):
        # 1 - z g and F (z - F) cancel to nothing there, in the band and
        # above it; each is its moment series' first term, -1/z^2 and 1
        gp = g_tilde_prime(z)
        want = -(ScaledComplex(z) * ScaledComplex(z)).reciprocal()
        assert abs(gp.log_abs() - want.log_abs()) <= 1e-15 * abs(want.log_abs())
        assert abs(gp.mantissa / want.mantissa - 1.0) <= 1e-15
        assert f_tilde_prime(z).to_complex() == 1.0


_BAND_RE = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 9.5, -9.5, 1e150, -1e150,
                     1e154, -1e154, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_BAND_IM = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.5]),
    st.floats(-0.5, 0.5),
)


class TestBandRobustness:
    @given(_BAND_RE, _BAND_IM)
    @settings(max_examples=300, deadline=None)
    def test_finite_values_or_refusals(self, x, y):
        z = complex(x, y)
        for fn in (g_tilde, g_tilde_prime, f_tilde, f_tilde_prime):
            assert _finite_or_refused(lambda: fn(z)), (fn.__name__, z)
        for t in (x, y):
            assert _finite_or_refused(lambda: rho(t)), t


class TestNearAxisSplit:
    def test_matches_the_continuation_down_to_half_depth(self):
        rng = random.Random(31)
        worst = 0.0
        for _ in range(300):
            x = rng.uniform(-8.0, 8.0)
            y = -rng.uniform(0.0, min(0.5, 0.99 * (math.pi / 2) / abs(x)))
            got = _g_eval(complex(x, y))
            want = continuation_oracle(complex(x, y))
            worst = max(worst, abs(got - want) / abs(want))
            # each part on its own, against mpmath (wofz's imaginary part
            # is only as good as the modulus below the axis)
            re, im = _part_errors(got, complex(x, y))
            assert re <= 1e-15 and im <= 2e-15, complex(x, y)
        assert worst <= 1e-14


def _slopes_mp(z: complex) -> tuple[complex, complex]:
    """``g_tilde'`` and ``f_tilde'`` at 40 digits, with no cancellation.

    ``1 - z G(z) = -2 z^-2 integral_0^inf t^2 phi(t) / (1 - t^2/z^2) dt``
    for the Gaussian Cauchy transform ``G``, plus ``i z sqrt(2 pi)
    exp(-z^2/2)`` below the axis; then ``g_tilde = (1 - g_tilde')/z`` and
    ``f_tilde' = -g_tilde'/g_tilde^2``.  (mpmath's ``erfc`` loses the
    digits of ``1 - z g_tilde`` near ``|z| = 1e100``.)
    """
    with mpmath.workdps(40):
        zz = mpmath.mpc(z)
        u = 1 / (zz * zz)
        gp = -2 * u * mpmath.quad(lambda t: t * t * mpmath.npdf(t) / (1 - t * t * u),
                                  [0, 4, 8, 12, 20, mpmath.inf])
        if z.imag < 0.0:
            gp += 1j * zz * mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-zz * zz / 2)
        g = (1 - gp) / zz
        return complex(gp), complex(-gp / (g * g))


class TestSymmetryAndDerivatives:
    @pytest.mark.parametrize("r", [12.0, 20.0, 40.0, 59.5, 1e4, 1e8, 1e10, 1e100, 1e120, 1e140])
    def test_derivatives_in_the_moment_series_region(self, r):
        # 1 - z g and F (z - F) cancel there, completely from |z| ~ 1e8,
        # and past |z| ~ 1e103 the series' tail w u t is below the normal
        # floats; the points lie above the band, in it on both sides, and
        # below it
        for z in (complex(r, 2.0), complex(-r, 0.3), complex(r, -0.3),
                  complex(r, -1.0 / r), complex(r, -1.0)):
            gp, fp = _slopes_mp(z)
            assert abs(g_tilde_prime(z).to_complex() - gp) <= 2e-15 * abs(gp), z
            assert abs(f_tilde_prime(z).to_complex() - fp) <= 2e-15 * abs(fp), z

    def test_derivatives_below_the_band_with_the_exponential_term(self):
        # 5 - 9.6i: the moment series plus the exponential term, which is
        # 3e14 times larger; 0.05 - 12i: the exponential term alone
        for z in (complex(5.0, -9.6), complex(0.05, -12.0)):
            gp, fp = _slopes_mp(z)
            assert abs(g_tilde_prime(z).to_complex() - gp) <= 1e-14 * abs(gp), z
            assert abs(f_tilde_prime(z).to_complex() - fp) <= 1e-14 * abs(fp), z

    @given(
        st.floats(-8, 8, allow_nan=False),
        st.floats(0.001, 8, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_reflection_in_the_imaginary_axis(self, x, y):
        z = complex(x, y)
        lhs = g_tilde(complex(-x, y))
        g = g_tilde(z)
        rhs = ScaledComplex(-g.mantissa.conjugate(), g.log_scale)
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
            # F' from f_tilde alone: trapezoidal Cauchy integral on a circle
            r, m = 0.04, 20
            fd = sum(
                complex(f_tilde(z + r * cmath.exp(2j * math.pi * k / m)))
                * cmath.exp(-2j * math.pi * k / m)
                for k in range(m)
            ) / (m * r)
            F = complex(f_tilde(z))
            assert abs(complex(f_tilde_prime(z)) - fd) <= 1e-9 * abs(fd)
            assert abs(F * (z - F) - fd) <= 1e-9 * abs(fd)
            n += 1

    def test_f_is_reciprocal_of_g(self):
        z = 1.3 + 0.4j
        assert rel_err(f_tilde(z) * g_tilde(z), 1.0) <= 1e-12

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

    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.inf),
        complex(-math.inf, -1.0), complex(1.0, -math.inf), complex(math.nan, math.nan),
    ])
    def test_classify_domain_raises_a_domain_error(self, z):
        with pytest.raises(DomainError):
            classify_domain(z)

    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(math.inf, 0.0), complex(1.0, -math.inf),
        complex(math.nan, 1.0),
    ])
    def test_the_solver_treats_a_non_finite_candidate_as_outside(self, z):
        assert not _confined(z)
        assert _confined(complex(1.0, -1.0))


#: both parts of the binary64 sweep: every decade where a part of the
#: evaluation (x*x, the kernel's (L - i zeta)^2, exp(-z^2/2)) overflows
_SWEEP = sorted({s * v for s in (1.0, -1.0) for v in (
    0.0, 1e-310, 1e-300, 1e-200, 1e-100, 1e-10, 1.0, 10.0, 1e10, 1e100,
    1e150, 1e154, 1e155, 1e200, 1e300, 1.7e308)})


def _finite_or_refused(call) -> bool:
    try:
        v = call()
    except FreeNormalError:
        return True
    return (type(v) is ScaledComplex and math.isfinite(v.log_scale)
            and cmath.isfinite(v.mantissa))


class TestWholeBinary64Plane:
    @pytest.mark.parametrize("fn", [g_tilde, g_tilde_prime, f_tilde, f_tilde_prime])
    def test_transforms_return_finite_values_or_refuse(self, fn):
        assert len(_SWEEP) == 31
        bad = [complex(a, b) for a in _SWEEP for b in _SWEEP
               if not _finite_or_refused(lambda: fn(complex(a, b)))]
        assert bad == []

    def test_rho_returns_finite_values_or_refuses(self):
        assert [x for x in _SWEEP if not _finite_or_refused(lambda: rho(x))] == []

    @pytest.mark.parametrize("z", [-2e154j, complex(1e155, -1e155), -1e155j])
    def test_overflowing_exponent_is_a_domain_error(self, z):
        with pytest.raises(DomainError):
            g_tilde(z)
        with pytest.raises(DomainError):
            rho(z.imag)

    @pytest.mark.parametrize("t", [15346282355.0, 1e12 + 0.5, 3.3e15 + 1.0])
    def test_sign_past_a_scale_of_two_to_the_53(self, t):
        # there the low part of -z^2/2 can pass 1, and exp(hi) (1 + lo) once
        # flipped the sign of the exponential term (rho raised ValueError)
        v = rho(-t)
        assert v.mantissa.real > 0.0 and v.log_scale > 1e20
        g = g_tilde(complex(0.0, -t))
        assert g.mantissa.imag < 0.0 and g.log_scale == v.log_scale

    def test_overflowing_kernel_is_a_domain_error(self):
        with pytest.raises(DomainError):
            g_tilde(complex(1.7e308, 1.7e308))


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
        with pytest.raises(DomainError):
            g_tilde_contour_oracle(1.0 + 1.0j, eta=0.5, eps=0.4)
        with pytest.raises(DomainError):
            g_tilde_contour_oracle(1.0 + 1.0j, eta=-0.1)

    def test_rejects_point_outside_cone(self):
        # deep in the excluded wedge below the axis
        with pytest.raises(DomainError):
            g_tilde_contour_oracle(2.0 - 2.0j, math.pi / 24, eps=math.pi / 16)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureFailure):
            g_tilde_contour_oracle(1 + 1j, math.pi / 24, tol=1e-20)

    def test_gaussian_moments_through_the_contour(self):
        assert abs(contour_moment(0, 0.3) - 1.0) <= 1e-12
        assert abs(contour_moment(2, 0.3) - 1.0) <= 1e-12
        assert abs(contour_moment(4, 0.3) - 3.0) <= 1e-11
        assert abs(contour_moment(3, 0.3)) <= 1e-12

    def test_higher_moments_meet_the_tolerance(self):
        assert abs(contour_moment(6, 0.3) - 15.0) <= 1e-11 * 15.0
        assert abs(contour_moment(8, 0.7) - 105.0) <= 1e-11 * 105.0
        assert abs(contour_moment(5, 0.3)) <= 1e-11

    def test_overflowing_integrand_is_a_quadrature_failure(self):
        with pytest.raises(QuadratureFailure):
            contour_moment(1000, 0.3)

    def test_error_estimate_beyond_tolerance_is_a_quadrature_failure(self):
        # at eta = 0.1 the order-40 moment is resolved to about 10 %
        with pytest.raises(QuadratureFailure):
            contour_moment(40, 0.1)


class TestQuad:
    @pytest.mark.parametrize("func, exact", [
        (lambda x: x**5 - 2.0 * x * x + 1.0, 0.5),
        (math.exp, math.e - 1.0),
        # endpoint singularities; log(0) would raise, so no node sits on 0
        (math.sqrt, 2.0 / 3.0),
        (math.log, -1.0),
    ])
    def test_exact_to_roundoff_on_the_unit_interval(self, func, exact):
        value, err = quad(func, 0.0, 1.0)
        assert abs(value - exact) <= 1e-15
        assert abs(value - exact) <= err <= 1e-14

    def test_complex_integrand(self):
        s = complex(1.0, 2.0)
        value, err = quad(lambda x: cmath.exp(s * x), 0.0, 2.0)
        exact = (cmath.exp(2.0 * s) - 1.0) / s
        assert abs(value - exact) <= 1e-14 * abs(exact)
        assert err <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_integrand_has_infinite_error(self, bad):
        _, err = quad(lambda x: bad if x > 0.9 else 1.0, 0.0, 1.0)
        assert err == math.inf

    def test_rejects_an_empty_or_reversed_interval(self):
        for a, b in ((1.0, 1.0), (1.0, 0.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                quad(math.exp, a, b)


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


def _transform_eval_ops(seed: int) -> list[dict]:
    """The operations of the ``transform_eval`` benchmark workload, from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.transform_eval_inputs(seed)["ops"]


class TestWorkPerCall:
    """Each public transform builds its one return value and nothing else."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        init = ScaledComplex.__init__

        def counted(self, *args):
            count[0] += 1
            init(self, *args)
        monkeypatch.setattr(ScaledComplex, "__init__", counted)
        return count

    @pytest.mark.parametrize("zone", ["origin", "band", "upper", "far", "lower"])
    @pytest.mark.parametrize("fn", [g_tilde, g_tilde_prime, f_tilde, f_tilde_prime])
    def test_one_scaled_value_per_transform_call(self, builds, fn, zone):
        points = [complex(*op["z"]) for op in _transform_eval_ops(7) if op["zone"] == zone]
        assert len(points) == 80
        for z in points:
            before = builds[0]
            fn(z)
            assert builds[0] - before == 1, z

    def test_one_scaled_value_per_rho_call(self, builds):
        for x in [-30.0, -0.0, 0.0, 30.0] + [op["r"] for op in _transform_eval_ops(7)]:
            before = builds[0]
            rho(x)
            assert builds[0] - before == 1, x


class TestKernelSkipped:
    """The far field, deep lower ``Xi`` and the near-axis band never run the
    40-term kernel."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        count = [0]
        kernel = transforms._w_upper

        def counted(*args):
            count[0] += 1
            return kernel(*args)
        monkeypatch.setattr(transforms, "_w_upper", counted)
        return count

    @pytest.mark.parametrize("fn", [g_tilde, g_tilde_prime, f_tilde, f_tilde_prime])
    def test_far_zone_and_deep_lower_points(self, kernel_calls, fn):
        ops = _transform_eval_ops(7)
        far = [complex(*op["z"]) for op in ops if op["zone"] == "far"]
        deep = [complex(*op["z"]) for op in ops if op["zone"] == "lower"
                and _hi(complex(*op["z"])) > 42.0]
        assert len(far) == 80 and len(deep) >= 30
        for z in far + deep:
            fn(z)
        assert kernel_calls[0] == 0
        fn(complex(0.5, -5.0))  # hi = 12.4: the kernel, and the count sees it
        assert kernel_calls[0] == 1

    def test_rho_past_the_edges(self, kernel_calls):
        xs = [x for x in (op["r"] for op in _transform_eval_ops(7))
              if x >= 9.5 or x < 0.0 and x * x / 2.0 > 42.0]
        assert len(xs) >= 100
        for x in xs + [9.5, -9.5, 1e149, -37.5, -40.0]:
            rho(x)
        assert kernel_calls[0] == 0
        rho(5.0)
        rho(-5.0)
        assert kernel_calls[0] == 2

    @pytest.mark.parametrize("fn", [g_tilde, g_tilde_prime, f_tilde, f_tilde_prime])
    def test_band_zone_points_near_the_axis(self, kernel_calls, fn):
        band = [complex(*op["z"]) for op in _transform_eval_ops(7)
                if op["zone"] == "band" and abs(op["z"][1]) <= 0.5]
        assert len(band) >= 30
        for z in band + [0j, complex(9.5, 0.5), complex(-3.0, -0.5)]:
            fn(z)
        assert kernel_calls[0] == 0
        fn(complex(3.0, 0.51))  # above the band: the kernel
        assert kernel_calls[0] == 1

    def test_rho_near_zero(self, kernel_calls):
        for x in (-0.5, -0.1, -0.0, 0.0, 1e-300, 0.3, 0.5):
            rho(x)
        assert kernel_calls[0] == 0

    def test_curve_solves_past_x_hi(self, kernel_calls):
        solve_H(_TAU_SPLIT)  # the jet table, built once from X_LO, may run the kernel
        kernel_calls[0] = 0
        for k in range(41):
            solve_H(_TAU_SPLIT + (X_ASYMPTOTIC - _TAU_SPLIT) * k / 40)
        assert kernel_calls[0] == 0
