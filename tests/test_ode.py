"""ODE transport oracle: anchoring, integration, certificates."""

import math
import sys

import pytest

from freenormal.config import DEFAULT_CONFIG
from freenormal.curve import solve_H
from freenormal.errors import DomainError, StepUnderflow
from freenormal.ode import (
    AnchorPoint,
    OdeState,
    integrate,
    make_anchor,
    monotonicity_certificate,
)
from freenormal.series import eval_h_asym_infinity
from freenormal.transforms import g_tilde

HALF_PI = math.pi / 2.0


class TestAnchor:
    def test_matches_newton_solution_at_two(self):
        a = make_anchor(2.0)
        pt = solve_H(2.0)
        assert abs(a.state.g - pt.g) <= 1e-10
        assert abs(a.state.h - pt.h) <= 1e-10

    def test_state_inside_the_domain(self):
        a = make_anchor(3.0)
        assert a.state.g * a.state.h < HALF_PI

    def test_scan_endpoint_signs(self):
        # below the curve (toward the real axis) the imaginary part is
        # negative, above it (toward the domain boundary) positive
        a = make_anchor(2.0)
        c = a.state.g
        near_axis = complex(g_tilde(complex(c, -1e-6))).imag
        near_boundary = complex(
            g_tilde(complex(c, -(HALF_PI / c) * (1 - 1e-6)))
        ).imag
        assert near_axis < 0.0
        assert near_boundary > 0.0

    def test_band_restriction(self):
        with pytest.raises(DomainError):
            make_anchor(0.3)
        with pytest.raises(DomainError):
            make_anchor(4.5)

    def test_anchors_across_the_band(self):
        for x0 in (0.5, 1.0, 4.0):
            a = make_anchor(x0)
            pt = solve_H(x0)
            assert abs(a.state.g - pt.g) <= 1e-10
            assert abs(a.state.h - pt.h) <= 1e-9 * pt.h


class TestIntegrate:
    def test_zero_length_returns_the_anchor(self):
        a = make_anchor(2.0)
        s = integrate(a, 2.0, tol=1e-10)
        assert s == a.state

    def test_agreement_with_newton_down_to_small_x(self):
        a = make_anchor(2.0)
        for x in (0.01, 0.1, 0.5, 1.0, 3.0, 5.0):
            s = integrate(a, x, tol=1e-10)
            q = solve_H(x)
            assert abs(s.g - q.g) <= 1e-6
            assert abs(s.h - q.h) / q.h <= 1e-6

    def test_height_at_six_matches_the_series(self):
        a = make_anchor(2.0)
        s = integrate(a, 6.0, tol=1e-10)
        model = eval_h_asym_infinity(6.0, 3).to_complex().real
        assert abs(s.h - model) / model <= 0.03

    def test_round_trips(self):
        a = make_anchor(2.0)
        for tol in (1e-8, 1e-10):
            for xt in (5.0, 0.01, 0.3):
                s = integrate(a, xt, tol=tol)
                back = integrate(AnchorPoint(x0=xt, state=s), 2.0, tol=tol)
                assert abs(back.g - a.state.g) <= 10 * tol
                assert abs(back.h - a.state.h) <= 10 * tol

    def test_tolerance_scaling(self):
        a = make_anchor(2.0)
        q = solve_H(0.1)

        def discrepancy(tol):
            s = integrate(a, 0.1, tol=tol)
            return max(abs(s.g - q.g), abs(s.h - q.h) / q.h)

        d5, d6, d7 = (discrepancy(t) for t in (1e-5, 1e-6, 1e-7))
        assert d6 <= d5 / 2.0
        assert d7 <= d6 / 2.0

    def test_product_monotone_toward_zero(self):
        a = make_anchor(2.0)
        prods = []
        for xt in (1.0, 0.3, 0.1, 0.03, 0.01):
            s = integrate(a, xt, tol=1e-10)
            prods.append(s.g * s.h)
        assert all(b > v for v, b in zip(prods, prods[1:]))
        assert all(p < HALF_PI for p in prods)

    def test_refuses_targets_past_the_representable_tail(self):
        # beyond x ~ 38 the curve height is smaller than any positive
        # binary64 value, so there is no state the integrator could return
        a = make_anchor(2.0)
        with pytest.raises(DomainError):
            integrate(a, 50.0, tol=1e-8)

    def test_oversized_step_floor_underflows_immediately(self):
        a = make_anchor(2.0)
        cfg = DEFAULT_CONFIG.with_updates(ode_min_step_factor=1.0)
        with pytest.raises(StepUnderflow):
            integrate(a, 5.0, tol=1e-8, config=cfg)

    def test_rejects_bad_targets(self):
        a = make_anchor(2.0)
        with pytest.raises(DomainError):
            integrate(a, -1.0, tol=1e-8)
        with pytest.raises(DomainError):
            integrate(a, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            integrate(a, math.nan, tol=1e-8)
        with pytest.raises(DomainError):
            integrate(a, math.inf, tol=1e-8)

    @pytest.mark.parametrize("x", [37.85, 37.9])
    def test_subnormal_height_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            integrate(make_anchor(2.0), x, tol=1e-8)

    def test_height_is_normal_up_to_the_wall(self):
        assert integrate(make_anchor(2.0), 37.8, tol=1e-8).h >= sys.float_info.min


class TestCertificate:
    def test_clean_trace_has_no_violations(self):
        a = make_anchor(2.0)
        states = [integrate(a, x, tol=1e-10) for x in (0.01, 0.3, 1.0, 4.0, 8.0)]
        report = monotonicity_certificate(states)
        assert report["checked"] == 5
        assert report["violations"] == []

    def test_flags_state_with_wrong_ordering(self):
        bad = OdeState(x=2.0, g=1.5, h=0.1)  # valid state, but g <= x
        report = monotonicity_certificate([bad])
        assert len(report["violations"]) == 1
        assert "g <= x" in report["violations"][0]["reasons"]

    def test_large_x_margin_is_the_leading_cumulant(self):
        s = solve_H(10.0)
        assert math.isclose(s.g - 10.0, 0.1, rel_tol=0.02)


class TestStateInvariants:
    def test_rejects_states_outside_the_domain(self):
        with pytest.raises(DomainError):
            OdeState(x=1.0, g=3.0, h=1.0)  # g*h >= pi/2
        with pytest.raises(DomainError):
            OdeState(x=1.0, g=-1.0, h=1.0)
        with pytest.raises(DomainError):
            OdeState(x=0.0, g=1.0, h=1.0)
