"""ODE transport oracle: anchoring, integration, certificates."""

import math
import sys

import pytest

from freenormal import curve, ode, verify
from freenormal.curve import CurvePoint, solve_H, trace_p0
from freenormal.errors import DomainError, NoConvergence
from freenormal.ode import (
    integrate,
    make_anchor,
    monotonicity_certificate,
)
from freenormal.series import eval_h_asym_infinity
from freenormal.transforms import f_tilde, g_tilde

HALF_PI = math.pi / 2.0


class TestAnchor:
    def test_matches_newton_solution_at_two(self):
        a = make_anchor(2.0)
        pt = solve_H(2.0)
        assert abs(a.g - pt.g) <= 1e-10
        assert abs(a.h - pt.h) <= 1e-10

    def test_state_inside_the_domain(self):
        a = make_anchor(3.0)
        assert a.g * a.h < HALF_PI

    def test_scan_endpoint_signs(self):
        # below the curve (toward the real axis) the imaginary part is
        # negative, above it (toward the domain boundary) positive
        a = make_anchor(2.0)
        c = a.g
        near_axis = complex(g_tilde(complex(c, -1e-6))).imag
        near_boundary = complex(
            g_tilde(complex(c, -(HALF_PI / c) * (1 - 1e-6)))
        ).imag
        assert near_axis < 0.0
        assert near_boundary > 0.0

    def test_residual_is_the_transform_defect(self):
        a = make_anchor(2.0)
        assert a.residual == abs(complex(f_tilde(a.z)) - 2.0)
        assert a.residual <= 1e-12

    def test_band_restriction(self):
        with pytest.raises(DomainError):
            make_anchor(0.3)
        with pytest.raises(DomainError):
            make_anchor(4.5)

    def test_anchors_across_the_band(self):
        for x0 in (0.5, 1.0, 4.0):
            a = make_anchor(x0)
            pt = solve_H(x0)
            assert abs(a.g - pt.g) <= 1e-10
            assert abs(a.h - pt.h) <= 1e-9 * pt.h

    def test_few_transform_calls(self, monkeypatch):
        calls = [0]
        g = ode.g_tilde

        def counted(z):
            calls[0] += 1
            return g(z)

        monkeypatch.setattr(ode, "g_tilde", counted)
        make_anchor(2.0)
        assert 0 < calls[0] <= 150

    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_anchor_residual(self, x0):
        assert make_anchor(x0).residual <= 1e-12

    @pytest.mark.parametrize("c", [1.3, 2.6, 4.3])
    def test_inner_root_is_the_same_from_any_start(self, c):
        # starts next to the root, far off it, and at either end of the strip
        # (these two fall back to the scan) close on the same crossing
        root = ode._inner_root(c)
        assert complex(f_tilde(complex(c, root))).imag == pytest.approx(0.0, abs=1e-12)
        for near in (root * (1.0 + 1e-9), root * 0.5, -1e-12, -HALF_PI / c):
            assert ode._inner_root(c, near) == pytest.approx(root, rel=1e-14)


class TestIntegrate:
    def test_zero_length_returns_the_anchor(self):
        a = make_anchor(2.0)
        s = integrate(a, 2.0)
        assert s == a

    def test_agreement_with_newton_down_to_small_x(self):
        a = make_anchor(2.0)
        xs = [10.0**k for k in range(-300, 0, 13)] + [0.01, 0.1, 0.5, 1.0]
        xs += [0.05 * 1.2**k for k in range(34)] + [30.0]
        for x in xs:
            s = integrate(a, x)
            q = solve_H(x)
            assert abs(s.g - q.g) / q.g <= 1e-12, x
            assert abs(s.h - q.h) / q.h <= 1e-12, x

    def test_ends_inside_xi_next_to_the_hyperbola(self):
        # below x ~ 0.04 the curve is within rounding of g h = pi/2; the
        # walk's error there, about 1e-14, ends past it at x = 1e-13
        a = make_anchor(2.0)
        for x in (1e-13, 1e-12, 1e-11, 1e-100):
            s = integrate(a, x)
            assert s.g * s.h <= HALF_PI + 4 * math.ulp(HALF_PI)
            assert abs(s.h - solve_H(x).h) <= 1e-13 * s.h

    def test_a_walk_ending_far_past_the_hyperbola_is_a_domain_error(self):
        # an anchor 1e-6 too high stays 2.4e-7 above the curve down to the
        # origin, far past the walk's own error: refused, not put back
        a = make_anchor(2.0)
        off = CurvePoint(x=a.x, g=a.g, h=a.h * (1.0 + 1e-6), residual=0.0)
        for x in (1e-13, 1e-100):
            with pytest.raises(DomainError, match="outside Xi"):
                integrate(off, x)

    def test_transported_points_carry_their_residual(self):
        a = make_anchor(2.0)
        for x in (0.01, 0.1, 0.5, 1.0, 3.0, 5.0):
            s = integrate(a, x)
            assert s.x == x
            assert s.residual == abs(complex(f_tilde(s.z)) - x)
            assert s.residual <= 1e-10 * max(1.0, x)

    def test_one_transform_call_for_the_residual(self, monkeypatch):
        a = make_anchor(2.0)
        calls = {"f_tilde": 0, "g_tilde": 0}
        for name in calls:
            def counted(z, name=name, fn=getattr(ode, name)):
                calls[name] += 1
                return fn(z)
            monkeypatch.setattr(ode, name, counted)
        for x in (1e-300, 0.3, 12.0):
            before = dict(calls)
            integrate(a, x)
            assert calls["f_tilde"] - before["f_tilde"] == 1
            assert calls["g_tilde"] == before["g_tilde"]

    def test_height_at_six_matches_the_series(self):
        a = make_anchor(2.0)
        s = integrate(a, 6.0)
        model = eval_h_asym_infinity(6.0, 3).to_complex().real
        assert abs(s.h - model) / model <= 0.03

    def test_round_trips(self):
        a = make_anchor(2.0)
        for xt in (5.0, 0.01, 0.3):
            s = integrate(a, xt)
            back = integrate(s, 2.0)
            assert abs(back.g - a.g) <= 1e-11 * a.g, xt
            assert abs(back.h - a.h) <= 1e-11 * a.h, xt

    def test_a_start_on_the_singular_line_is_a_domain_error(self):
        # H = x, where the right hand side 1/(x (H - x)) has its pole
        with pytest.raises(DomainError):
            integrate(CurvePoint(x=1.0, g=1.0, h=1e-300, residual=0.0), 2.0)

    def test_a_walk_that_stalls_is_no_convergence(self):
        # down from x = 12 neighbouring solutions part like exp(x^2/2): the
        # last bit of g runs the walk into the singular line H = x near 9
        s = integrate(make_anchor(2.0), 12.0)
        with pytest.raises(NoConvergence) as info:
            integrate(s, 2.0)
        assert 2.0 < info.value.last_iterate.real < 12.0

    def test_product_monotone_toward_zero(self):
        a = make_anchor(2.0)
        prods = []
        for xt in (1.0, 0.3, 0.1, 0.03, 0.01):
            s = integrate(a, xt)
            prods.append(s.g * s.h)
        assert all(b > v for v, b in zip(prods, prods[1:]))
        assert all(p < HALF_PI for p in prods)

    def test_refuses_targets_past_the_representable_tail(self):
        # beyond x ~ 38 the curve height is smaller than any positive
        # binary64 value, so there is no state the integrator could return
        a = make_anchor(2.0)
        with pytest.raises(DomainError):
            integrate(a, 50.0)

    def test_rejects_bad_targets(self):
        a = make_anchor(2.0)
        for x in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                integrate(a, x)

    @pytest.mark.parametrize("x", [37.85, 37.9])
    def test_subnormal_height_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            integrate(make_anchor(2.0), x)

    def test_height_is_normal_up_to_the_wall(self):
        assert integrate(make_anchor(2.0), 37.8).h >= sys.float_info.min


class TestCertificate:
    def test_clean_trace_has_no_violations(self):
        a = make_anchor(2.0)
        states = [integrate(a, x) for x in (0.01, 0.3, 1.0, 4.0, 8.0)]
        report = monotonicity_certificate(states)
        assert report["checked"] == 5
        assert report["violations"] == []

    def test_flags_state_with_wrong_ordering(self):
        bad = CurvePoint(x=2.0, g=1.5, h=0.1, residual=0.0)  # valid point, but g <= x
        report = monotonicity_certificate([bad])
        assert len(report["violations"]) == 1
        assert "g <= x" in report["violations"][0]["reasons"]

    def test_newton_trace_has_no_violations(self):
        report = monotonicity_certificate(trace_p0(1e-3, 12.0, 400))
        assert report["checked"] == 400
        assert report["violations"] == []

    def test_criterion_6_counts_certificate_violations(self, monkeypatch):
        good = trace_p0(1e-3, 12.0, 150)
        bad = CurvePoint(x=20.0, g=15.0, h=1e-30, residual=0.0)  # g <= x
        monkeypatch.setattr(verify, "trace_p0", lambda *args: good + (bad,))
        assert verify.monotonicity("fast")["violations"] == 1
        monkeypatch.setattr(verify, "trace_p0", lambda *args: good)
        assert verify.monotonicity("fast")["violations"] == 0

    def test_large_x_margin_is_the_leading_cumulant(self):
        s = solve_H(10.0)
        assert math.isclose(s.g - 10.0, 0.1, rel_tol=0.02)


class TestStateInvariants:
    """The ODE carries its state as ``CurvePoint``; a state outside Xi is refused."""

    def test_rejects_states_outside_the_domain(self):
        with pytest.raises(DomainError):
            CurvePoint(x=1.0, g=3.0, h=1.0, residual=0.0)  # g*h >= pi/2
        with pytest.raises(DomainError):
            CurvePoint(x=1.0, g=-1.0, h=1.0, residual=0.0)
        with pytest.raises(DomainError):
            CurvePoint(x=0.0, g=1.0, h=1.0, residual=0.0)


class TestIndependence:
    def test_shares_only_the_point_type_with_the_newton_solver(self):
        # the oracle must not share the Newton code it checks
        borrowed = [
            name for name, obj in vars(ode).items()
            if getattr(obj, "__module__", None) == curve.__name__
        ]
        assert borrowed == ["CurvePoint"]
