"""Free Levy measure: densities, the shifted inverse transform, mass checks."""

import cmath
import math
import random
import sys

import mpmath
import pytest

from freenormal import curve, levy, ode
from freenormal.curve import f_of, in_omega, solve_H
from freenormal.errors import DomainError, FreeNormalError, QuadratureFailure
from freenormal.levy import (
    _TAU_CUT,
    _TAU_SPLIT,
    _phi_quadrature,
    levy_density,
    semicircular_component_check,
    tau_total_mass,
    voiculescu,
)
from freenormal.series import eval_h_asym_infinity
from freenormal.transforms import f_tilde, quad
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
        # below |w| = 0.5 Newton starts from w: the seed w + 1/w would lie so
        # deep below the axis that f_tilde' underflows there
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

    def test_tiny_arguments_just_above_the_positive_axis(self):
        # phi changes from Re w to w by far less than half an ulp, so the
        # real-axis branch serves it, for one evaluation
        w = complex(1.1754943508222875e-38, 1.1615500446600946e-108)
        want = complex(0.11947741816715082, -13.147223558156632)
        assert voiculescu(w) == voiculescu(w.real) == want
        assert voiculescu(-w.conjugate()) == voiculescu(-w.real) == -want.conjugate()

    @pytest.mark.parametrize("w", [
        # within rounding of the axis: Newton ended in NoConvergence at each
        # before they took the real-axis branch
        complex(3.5836942704559555e-297, 5.7501166107e-313),
        complex(1.0796147764970311e-298, 7.081085915e-315),
        complex(-5.354863806583073e-59, 4.1881225577471393e-75),
        complex(-0.00030637627035823555, 2.5852324540991363e-23),
        complex(0.11287824456181998, 5.8822694960055845e-18),
        complex(-0.12171022869749518, 2.601893791258332e-19),
    ])
    def test_arguments_within_rounding_of_the_axis_take_its_value(self, w):
        assert voiculescu(w) == voiculescu(w.real)
        assert voiculescu(-w.conjugate()) == voiculescu(-w.real)

    @pytest.mark.parametrize("w,want", [
        # the root of the one Newton start, from w below |w| = 0.5
        (2 + 1j, complex(0.35899868707718374, -0.27365178302301585)),
        (0.3 + 0.4j, complex(0.3145418178107076, -1.0111996900512796)),
        (1e-8j, -5.916374273413916j),
        (1e-300j, -37.14449055687826j),
        (0.01 + 0.01j, complex(0.2903018073317904, -2.613009914778433)),
        (-5 + 0.1j, complex(-0.20976469785337049, -0.004747195234231907)),
        (1e-200 + 1e-30j, complex(8.564945939140284e-172, -11.675496927892766)),
        (0.3 + 1e-12j, complex(0.8062444989213402, -1.2887519567898276)),
    ])
    def test_pinned_values(self, w, want):
        assert voiculescu(w) == want

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

    @pytest.mark.parametrize("lo, hi, budget", [
        (0.05, 1.0, 9.6), (1.0, 8.0, 5.0), (8.0, 29.0, 3.2),
    ])
    def test_evaluation_budget_below_the_series(self, monkeypatch, lo, hi, budget):
        # transform evaluations per call for w near the axis, whose root lies
        # in lower Xi below |w| = 8
        voiculescu(1.0 + 1.0j), solve_H(0.01)  # both halves of the jet table
        rng = random.Random(35)
        ws = []
        for k in range(200):
            x = lo * (hi / lo) ** ((k + 0.5) / 200)
            ws.append(complex(rng.choice((-x, x)), x * 10.0 ** rng.uniform(-10.0, 0.0)))
        calls = [0]
        for name in ("_f_eval", "g_tilde"):
            def counted(*args, _f=getattr(curve, name)):
                calls[0] += 1
                return _f(*args)
            monkeypatch.setattr(curve, name, counted)
        for w in ws:
            voiculescu(w)
        assert calls[0] / len(ws) <= budget

    @pytest.mark.parametrize("w, want", [
        # roots within an ulp of the curve, where Im f_tilde is rounding
        # noise: accepted on Xi
        (0.9656396686423487 + 8.87325707669383e-17j, 0.7742154934637049 - 0.5874227480321048j),
        (-1.0979033786724977 + 1.3932644715023452e-16j,
         -0.7530090630828923 - 0.5079294128912443j),
        (1.0180961337356098 + 9.918150567595659e-17j, 0.7660853469581983 - 0.5545692859641873j),
    ])
    def test_noise_level_im_f_near_the_axis(self, w, want):
        assert voiculescu(w) == want

    @pytest.mark.parametrize("w", [
        # within rounding of the axis but past the real-axis branch: each root
        # lies within an ulp of the curve, where in_omega, strict on the
        # curve, reads rounding noise (the first is cmath.rect(0.9425, pi))
        complex(-0.9425, 1.1542296081963804e-16),
        complex(0.9425, 1.1542296081963804e-16),
        complex(1.0791512663076106, 1.5190592898027817e-16),
        complex(-1.0791512663076106, 1.5190592898027817e-16),
        complex(1.0668121938700474, 1.7501419082458594e-16),
        complex(-1.0668121938700474, 1.7501419082458594e-16),
    ])
    def test_roots_within_an_ulp_of_the_curve(self, w):
        phi = voiculescu(w)
        assert voiculescu(-w.conjugate()) == -phi.conjugate()
        assert abs(complex(f_tilde(w + phi)) - w) <= 1e-15
        with mpmath.workdps(50):
            want = complex(mp_inverse(w, w + phi) - mpmath.mpc(w))
        assert abs(phi - want) <= 1e-15 * abs(want)

    def test_one_newton_start_per_call(self, monkeypatch):
        starts = []

        def counted(*args, **kwargs):
            starts.append(args[0])
            return curve._newton_confined(*args, **kwargs)

        monkeypatch.setattr(levy, "_newton_confined", counted)
        rng = random.Random(38)
        for _ in range(300):
            r = 10.0 ** rng.uniform(-300.0, math.log10(29.9))
            w = cmath.rect(r, rng.uniform(1e-6, math.pi - 1e-6))
            del starts[:]
            voiculescu(w)
            assert starts == [w + 1.0 / w if abs(w) >= 0.5 else w], w
        for w in (2.0, -0.3 + 1e-30j, 31.0 + 1.0j, 1e-300 + 1e-320j):
            del starts[:]
            voiculescu(w)  # the real-axis branch and the series
            assert starts == [], w

    @pytest.mark.parametrize("lo, hi", [(1e-5, 0.05), (0.05, 0.5)])
    @pytest.mark.parametrize("near_axis", [False, True])
    def test_evaluation_budget_below_the_large_argument_seed(self, monkeypatch, lo, hi,
                                                             near_axis):
        # one Newton start, from w itself
        voiculescu(1.0 + 1.0j), solve_H(0.01)  # both halves of the jet table
        rng = random.Random(37)
        ws = []
        for k in range(300):
            r = lo * (hi / lo) ** ((k + 0.5) / 300)
            if near_axis:
                q = 10.0 ** rng.uniform(-19.0, math.log10(0.02))
                ws.append(complex(rng.choice((-1.0, 1.0)) * r * math.sqrt(1.0 - q * q), r * q))
            else:
                ws.append(cmath.rect(r, rng.uniform(0.0, math.pi)))
        calls = [0]

        def counted(*args, _f=curve._f_eval):
            calls[0] += 1
            return _f(*args)

        monkeypatch.setattr(curve, "_f_eval", counted)
        for w in ws:
            voiculescu(w)
        assert calls[0] / len(ws) <= 7.5

    def test_seeded_sweep_meets_the_residual_contract(self):
        # |w| log-uniform down to the subnormals, Im w / |w| down to 1e-19,
        # the imaginary axis and cmath.rect(r, pi); each root in Xi is in
        # Omega wherever Im w is above the noise of the residual
        rng = random.Random(39)

        def modulus(lo, hi=29.99):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        def near_axis(r, q):
            return complex(rng.choice((-1.0, 1.0)) * r * math.sqrt(1.0 - q * q), r * q)

        ws = [cmath.rect(modulus(5e-324), rng.uniform(0.0, math.pi)) for _ in range(600)]
        ws += [near_axis(modulus(5e-324), 10.0 ** rng.uniform(-19.0, 0.0)) for _ in range(600)]
        ws += [complex(0.0, modulus(5e-324)) for _ in range(300)]
        ws += [cmath.rect(rng.uniform(0.5, 29.99), math.pi) for _ in range(300)]
        ws += [near_axis(modulus(0.5), 10.0 ** rng.uniform(-19.0, math.log10(0.02)))
               for _ in range(600)]
        for w in ws:
            z = w + voiculescu(w)
            assert abs(complex(f_tilde(z)) - w) <= 1e-10 * max(1.0, abs(w)), w
            if w.imag > 1e-10 * abs(w):
                assert in_omega(z), w

    def test_rejects_zero_and_lower_half_plane(self):
        with pytest.raises(DomainError):
            voiculescu(0.0)
        with pytest.raises(DomainError):
            voiculescu(1.0 - 1.0j)


@pytest.mark.parametrize("call, text", [
    (lambda: levy_density(38.6), "curve height at x = 38.6 is not a normal binary64 "
     "number; use eval_h_asym_infinity for a scaled value"),
    (lambda: levy_density(-37.7),
     "the free Levy density at x = -37.7 is not a normal binary64 number"),
    (lambda: levy_density(1e-160),
     "the free Levy density at x = 1e-160 is not a normal binary64 number"),
    (lambda: solve_H(37.9), "curve height at x = 37.9 is not a normal binary64 "
     "number; use eval_h_asym_infinity for a scaled value"),
    (lambda: f_of(38), "f(38) is not a normal binary64 number: the boundary "
     "height is exp(-x^2/2)-small"),
    (lambda: f_of(-38.0), "f(-38.0) is not a normal binary64 number: the "
     "boundary height is exp(-x^2/2)-small"),
    (lambda: ode.integrate(ode.make_anchor(1.0), 37.9),
     "the curve height at x = 37.9 is not a normal binary64 number"),
])
def test_error_texts_at_the_representability_walls(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text


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

    def test_no_transform_evaluation_once_the_table_is_built(self, monkeypatch):
        solve_H(0.01), solve_H(1.0)  # both halves of the jet table
        calls = []
        f_eval = curve._f_eval

        def counted(z):
            calls.append(z)
            return f_eval(z)

        monkeypatch.setattr(curve, "_f_eval", counted)
        monkeypatch.setattr("freenormal.levy.solve_H", counted)
        tau_total_mass(1e-8)
        assert calls == []

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_equals_the_quadrature_of_newton_heights(self, tol):
        # the same two pieces with a Newton solve at every node
        def body(x):
            return solve_H(x).h / (math.pi * (1.0 + x * x))

        total = 0.0
        for a, b in ((0.0, _TAU_SPLIT), (_TAU_SPLIT, _TAU_CUT)):
            total += quad(body, a, b, epsabs=tol / 8, epsrel=1e-12)[0]
        assert tau_total_mass(tol) == 2.0 * total

    def test_roundoff_accurate_at_the_default_tolerance(self):
        assert math.isclose(tau_total_mass(1e-8), TAU_MASS, rel_tol=1e-14)

    def test_tolerance_below_the_tail_bound_fails(self):
        with pytest.raises(QuadratureFailure):
            tau_total_mass(1e-16)


class TestLevyKhintchineIdentity:
    """``phi(w) = (2w/pi) integral_0^inf h(x)/(w^2 - x^2) dx``, ``h`` off the table."""

    @pytest.mark.parametrize("w", [
        1j, 0.5j, 5j, 0.3 + 0.4j, 0.2 + 0.45j, 1 + 0.25j, 2 + 1j, -2 + 1j,
        3 + 0.5j, -4 + 3j, 4.5 + 0.25j,
    ])
    def test_matches_the_inverse_transform(self, w):
        got, err = _phi_quadrature(w, 1e-12)
        want = voiculescu(w)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert err <= 1e-12

    def test_at_i_is_the_tau_mass(self):
        got, _ = _phi_quadrature(1j, 1e-10)
        assert got.real == 0.0
        assert math.isclose(-got.imag, TAU_MASS, rel_tol=1e-14)


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
