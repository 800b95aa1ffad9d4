"""Curve solver against an independent bisection oracle and its invariants.

The oracle reimplements the curve point search with nothing but interval
bisection on the transform evaluator: find the height where Im G vanishes
on a vertical line, move the line until Re F hits the target.  It shares
no code with the Newton machinery under test.
"""

import cmath
import copy
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenormal import curve, series
from freenormal.curve import (
    X_ASYMPTOTIC,
    X_JET,
    X_LO,
    CurvePoint,
    f_of,
    in_omega,
    solve_H,
    trace_level_set,
    trace_p0,
)
from freenormal.errors import DomainError, FreeNormalError, NoConvergence
from freenormal.levy import _TAU_SPLIT, levy_density
from freenormal.series import eval_h_asym_infinity
from freenormal.transforms import DomainTag, classify_domain, f_tilde, g_tilde
from mpmath_oracle import mp_g_tilde, mp_inverse

HALF_PI = math.pi / 2.0


def mpmath_curve_point(x: float, seed: complex) -> complex:
    """Root of ``g_tilde(z) = 1/x`` near ``seed``, at ``40 + x^2/(2 ln 10)`` digits.

    The extra digits cover the ``exp(-x^2/2)`` scale of the height.
    """
    return complex(mp_inverse(x, seed, 40 + int(x * x / (2.0 * math.log(10.0)))))


def mpmath_graph(a: float, seed: float) -> float:
    """Root in ``y`` of ``arg g_tilde(a + i y)`` near ``seed``, with the digits
    of :func:`mpmath_curve_point`."""
    with mpmath.workdps(40 + int(a * a / (2.0 * math.log(10.0)))):
        return float(mpmath.findroot(lambda y: mpmath.arg(mp_g_tilde(mpmath.mpc(a, y))),
                                     mpmath.mpf(seed)))


def bisection_oracle(x_target: float) -> complex:
    """Solve F(z) = x_target by nested bisection; independent of solve_H."""

    def height(c: float) -> float:
        lo, hi = -HALF_PI / c * (1.0 - 1e-9), -1e-12
        f_hi = complex(g_tilde(complex(c, hi))).imag
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            fm = complex(g_tilde(complex(c, mid))).imag
            if fm == 0.0:
                return mid
            if fm * f_hi < 0.0:
                lo = mid
            else:
                hi, f_hi = mid, fm
        return 0.5 * (lo + hi)

    def real_part(c: float) -> float:
        return complex(f_tilde(complex(c, height(c)))).real

    lo, hi = 0.7, 6.0
    f_lo = real_part(lo) - x_target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = real_part(mid) - x_target
        if fm == 0.0:
            lo = hi = mid
            break
        if fm * f_lo < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, fm
    c = 0.5 * (lo + hi)
    return complex(c, height(c))


class TestSolveAgainstOracle:
    def test_bulk_point_matches_bisection(self):
        for x in (0.8, 2.0, 3.0):
            z_oracle = bisection_oracle(x)
            pt = solve_H(x)
            assert abs(pt.g - z_oracle.real) <= 1e-10
            assert abs(pt.h + z_oracle.imag) <= 1e-10 * abs(z_oracle.imag)

    def test_f_of_agrees_with_oracle_graph(self):
        z_oracle = bisection_oracle(3.0)
        # the oracle point lies on the graph of f at its own real part
        assert abs(f_of(z_oracle.real) - z_oracle.imag) <= 1e-9


class TestSolveRegimes:
    def test_pinned_values_across_regimes(self):
        pins = {
            0.01: (0.5652666246948257, 2.773251101375087),
            2.0: (2.5771836146056966, 0.17016436285743936),
            6.0: (6.171945334812455, 2.3391100544470117e-07),
            12.0: (12.083928917934582, 3.5091252814339155e-30),
        }
        for x, (g, h) in pins.items():
            pt = solve_H(x)
            assert abs(pt.g - g) <= 1e-11 * g
            assert abs(pt.h - h) <= 1e-9 * h

    @pytest.mark.parametrize("edge", [X_LO, _TAU_SPLIT, X_JET, X_ASYMPTOTIC])
    def test_solver_regimes_meet_at_the_edges(self, edge):
        # across X_LO the residual turns from relative to absolute, across
        # X_JET the seed from the jet table to the large-x series, and past
        # X_ASYMPTOTIC the series is the answer; by 3.5 the height has
        # turned to its exp(-x^2/2) decay.  The two points differ by the
        # slope dH/dx = 1/(x (H - x)) times the gap
        x1, x2 = (edge * (1.0 + s) for s in (-1e-12, 1e-12))
        below, above = solve_H(x1), solve_H(x2)
        predicted = below.z + (x2 - x1) / (x1 * (below.z - x1))
        assert abs(above.g - predicted.real) <= 1e-12 * above.g
        assert abs(above.h + predicted.imag) <= 1e-12 * above.h

    def test_defining_equation_holds_everywhere(self):
        for x in (1e-5, 0.03, 0.4, 1.5, 4.0, 7.0, 11.0):
            pt = solve_H(x)
            F = complex(f_tilde(pt.z))
            assert abs(F - x) <= 1e-8 * max(1.0, x)

    def test_small_x_height_and_product(self):
        pt = solve_H(1e-6)
        assert pt.h > 4.0
        assert pt.g < 0.31
        assert 0.0 < HALF_PI - pt.g * pt.h < 1e-5

    def test_large_x_height_collapses(self):
        assert solve_H(12.0).h < 1e-20

    def test_very_large_x_uses_series_regime(self):
        pt = solve_H(35.0)
        model = eval_h_asym_infinity(35.0, 3).to_complex().real
        assert abs(pt.h - model) <= 1e-3 * model

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            solve_H(0.0)
        with pytest.raises(DomainError):
            solve_H(-2.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            solve_H(x)
        with pytest.raises(DomainError):
            f_of(x)
        with pytest.raises(DomainError):
            in_omega(complex(x, -1.0))

    def test_height_underflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            solve_H(60.0)

    def test_height_is_normal_up_to_the_wall(self):
        assert solve_H(37.6).h >= sys.float_info.min

    @pytest.mark.parametrize("x", [38.0, 38.6])
    def test_subnormal_height_is_a_domain_error(self, x):
        with pytest.raises(DomainError) as info:
            solve_H(x)
        assert type(info.value) is DomainError

    def test_derivative_matches_finite_difference(self):
        x, d = 1.0, 1e-3
        a, b = solve_H(x - d), solve_H(x + d)
        g_fd = (b.g - a.g) / (2 * d)
        h_fd = (b.h - a.h) / (2 * d)
        pt = solve_H(x)
        den = x * ((pt.g - x) ** 2 + pt.h**2)
        assert abs(g_fd - (pt.g - x) / den) <= 1e-4
        assert abs(h_fd + pt.h / den) <= 1e-4


class TestSkeletonSeededBulk:
    XS = [X_LO * (_TAU_SPLIT / X_LO) ** ((k + 0.5) / 200) for k in range(200)]
    # where the height falls like exp(-x^2/2), [3.5, X_ASYMPTOTIC]
    XS_LARGE = [_TAU_SPLIT * (X_ASYMPTOTIC / _TAU_SPLIT) ** (k / 399) for k in range(400)]

    @staticmethod
    def _worst_evaluations(monkeypatch, xs):
        """Most ``_f_eval`` calls of one ``solve_H`` over ``xs``."""
        calls = [0]
        f_eval = curve._f_eval

        def counted(*args, **kwargs):
            calls[0] += 1
            return f_eval(*args, **kwargs)

        monkeypatch.setattr(curve, "_f_eval", counted)
        worst = 0
        for x in xs:
            calls[0] = 0
            solve_H(x)
            assert calls[0] >= 1, x
            worst = max(worst, calls[0])
        return worst

    def test_cold_bulk_solve_makes_few_transform_calls(self, monkeypatch):
        solve_H(1.0)  # builds the cached jet table outside the count
        assert self._worst_evaluations(monkeypatch, self.XS) <= 10

    def test_large_x_solve_makes_few_transform_calls(self, monkeypatch):
        solve_H(1.0)  # builds the cached jet table outside the count
        assert self._worst_evaluations(monkeypatch, self.XS_LARGE) <= 4

    def test_upper_bulk_matches_mpmath(self):
        for k in range(16):
            x = 3.0 + 3.0 * k / 16
            pt = solve_H(x)
            ref = mpmath_curve_point(x, pt.z)
            assert abs(pt.g - ref.real) <= 1e-12 * ref.real, x
            assert abs(pt.h + ref.imag) <= 1e-12 * -ref.imag, x

    def test_large_x_newton_matches_mpmath(self):
        xs = [_TAU_SPLIT * (X_ASYMPTOTIC / _TAU_SPLIT) ** (k / 39) for k in range(40)]
        # either side of X_JET, where the seed turns to the large-x series
        edges = [_TAU_SPLIT * (1.0 + 1e-12), X_JET * (1.0 - 1e-12), X_JET * (1.0 + 1e-12)]
        for x in edges + xs:
            pt = solve_H(x)
            ref = mpmath_curve_point(x, pt.z)
            assert abs(pt.g - ref.real) <= 1e-12 * ref.real, x
            assert abs(pt.h + ref.imag) <= 1e-12 * -ref.imag, x

    def test_same_bits_in_a_fresh_process_as_after_a_sweep(self):
        probes = (0.07, 0.9, 2.5, 5.9)
        for x in self.XS[::7]:
            solve_H(x)
        here = [repr(solve_H(x).z) for x in probes]
        script = textwrap.dedent(f"""
            from freenormal.curve import solve_H
            for x in {probes!r}:
                print(repr(solve_H(x).z))
        """)
        assert _run_fresh(script) == here


def _run_fresh(script: str) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[:-1]


def _evaluations_per_solve(monkeypatch, xs) -> float:
    """Mean ``_f_eval`` calls of one ``solve_H`` over ``xs``, table built."""
    solve_H(1.0)
    calls = [0]
    f_eval = curve._f_eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return f_eval(*args, **kwargs)

    monkeypatch.setattr(curve, "_f_eval", counted)
    for x in xs:
        solve_H(x)
    return calls[0] / len(xs)


def _log_grid(a: float, b: float, n: int) -> list[float]:
    return [a * (b / a) ** ((k + 0.5) / n) for k in range(n)]


#: 300 log-spaced x from 1e-6 to 30, ends included
_BUDGET_GRID = [1e-6 * (X_ASYMPTOTIC / 1e-6) ** (k / 299) for k in range(300)]


@pytest.mark.parametrize("a, b, budget", [
    (X_LO, 1.0, 1.0),
    (1.0, _TAU_SPLIT, 1.2),
    (_TAU_SPLIT, X_JET, 1.85),
    (X_JET, X_ASYMPTOTIC, 2.25),
])
def test_evaluation_budget_per_band(monkeypatch, a, b, budget):
    xs = [x for x in _BUDGET_GRID if a < x <= b]
    assert _evaluations_per_solve(monkeypatch, xs) <= budget


def test_absolute_residual_returns_f_tilde_of_the_point_it_evaluated(monkeypatch):
    # the last step is evaluated, or not taken (z and F as evaluated), or,
    # below 2**-52 of each component, taken unchecked from the point whose
    # F is returned
    def bits(v: complex) -> tuple:
        return v.real.hex(), v.imag.hex()

    solve_H(1.0)
    evaluated = {}
    f_eval = curve._f_eval

    def recording(z):
        evaluated[z] = f_eval(z)
        return evaluated[z]

    monkeypatch.setattr(curve, "_f_eval", recording)
    exact = 0
    for x in _log_grid(X_LO, X_ASYMPTOTIC, 400):
        evaluated.clear()
        seed = curve._table_H(x) if x <= X_JET else complex(
            series.eval_g_asym_infinity(x, curve._LARGE_X_ORDER),
            -eval_h_asym_infinity(x, curve._LARGE_X_ORDER).to_complex().real)
        z, F = curve._newton_confined(seed, x)
        if z in evaluated:
            assert bits(F) == bits(evaluated[z]) == bits(complex(f_tilde(z))), x
            exact += 1
        else:  # a step below 2**-52 of a part moves it by at most 2 ulps
            (p,) = [p for p, Fp in evaluated.items() if bits(Fp) == bits(F)]
            assert abs(z.real - p.real) <= 2.0 * math.ulp(p.real), x
            assert abs(z.imag - p.imag) <= 2.0 * math.ulp(p.imag), x
    assert exact >= 250


class TestXiWall:
    """``abs(Re z) * (-Im z) <= _XI_EDGE`` is ``classify_domain``'s wall."""

    @staticmethod
    def _points() -> list[complex]:
        p = HALF_PI
        for _ in range(6):
            p = math.nextafter(p, 0.0)
        products = []
        for _ in range(13):  # pi/2 - 6 ulps to pi/2 + 6 ulps
            products.append(p)
            p = math.nextafter(p, math.inf)
        points = []
        for p in products:
            # exact products (a power of two) and rounded ones
            for a in (1.0, 2.0, 0.25, 3.0, 0.7, 11.3, 1e-5):
                points += [complex(a, -p / a), complex(-a, -p / a)]
        inf, nan = math.inf, math.nan
        points += [complex(u, v) for u in (inf, -inf, nan, 0.0, 1.0, -1.0)
                   for v in (inf, -inf, nan, 0.0, 1.0, -1.0)]
        points += [complex(1e300, 1e300), complex(-1e300, 1e300),
                   complex(1e300, -1e300), complex(1e-300, -1e300), 1e300j, -1e300j]
        return points

    @staticmethod
    def _outside(z: complex) -> bool:
        try:
            return classify_domain(z) is DomainTag.OUTSIDE_XI
        except DomainError:  # not finite
            return True

    def test_newton_confinement_is_classify_domain(self):
        for z in self._points():
            assert curve._confined(z) is not self._outside(z), z

    def test_curve_point_and_omega_share_the_wall(self):
        for z in self._points():
            if not (z.real > 0.0 and z.imag < 0.0 and cmath.isfinite(z)):
                continue
            if self._outside(z):
                with pytest.raises(DomainError):
                    CurvePoint(1.0, z.real, -z.imag, 0.0)
                assert in_omega(z) is False
            else:
                assert CurvePoint(1.0, z.real, -z.imag, 0.0).z == z


#: the two halves of the jet table, below and above ``X_LO``
_HALVES = (sys.float_info.min, X_JET)


class TestJetTable:
    """Every solve up to ``X_JET`` is seeded from the jet of its nearest node."""

    @pytest.mark.parametrize("a, b, bound", [
        (1e-6, X_LO, 1.2),
        (X_LO, _TAU_SPLIT, 1.6),
        (_TAU_SPLIT, X_JET, 2.2),
    ])
    def test_mean_evaluations_per_solve(self, monkeypatch, a, b, bound):
        assert _evaluations_per_solve(monkeypatch, _log_grid(a, b, 200)) <= bound

    def test_nodes_span_the_normal_range_up_to_x_jet(self):
        for end in _HALVES:
            mids, nodes = curve._jet_table(end)
            xs = [node[0] for node in nodes]
            assert sorted((xs[0], xs[-1])) == sorted((X_LO, end))
            assert xs == sorted(set(xs))
            assert len(mids) == len(nodes) - 1
            for t, a, b in zip(mids, xs, xs[1:]):
                assert math.log(a) < t < math.log(b)
        # the X_LO node is the same in both halves
        assert curve._jet_table(_HALVES[0])[1][-1] == curve._jet_table(_HALVES[1])[1][0]

    def test_dropped_terms_are_below_rounding_at_each_midpoint(self, monkeypatch):
        # each node serves out to half the gap on either side; there the
        # terms past the sixteenth, read off a 32-term jet at the same node,
        # add below 1e-16 to g (relative) and to log h (absolute)
        tables = [curve._jet_table(end) for end in _HALVES]
        monkeypatch.setattr(series, "_JET_TERMS", 32)

        def horner(cs, s):
            acc = 0.0
            for c in cs:
                acc = acc * s + c
            return acc

        for mids, nodes in tables:
            bounds = [-math.inf] + mids + [math.inf]
            for k, (xk, hk, gs, Ls) in enumerate(nodes):
                _, _, gl, Ll = series._jet(xk, complex(gs[-1], -hk))
                assert gl[16:] == gs and Ll[16:] == Ls  # the same first terms
                for t in bounds[k:k + 2]:
                    if math.isinf(t):
                        continue
                    s = t - math.log(xk)
                    assert abs(horner(gl[:16], s) * s ** 16) <= 1e-16 * gs[-1], xk
                    assert abs(horner(Ll[:16], s) * s ** 16) <= 1e-16, xk

    def test_table_height_within_its_bound_of_solve_H(self):
        rng = random.Random(30)
        xs = [math.exp(rng.uniform(math.log(1e-300), math.log(X_JET))) for _ in range(400)]
        # 6.372755 is the worst of a 200,000-point scan of [3.5, 8]
        worst = 0.0
        for x in xs + [X_LO, _TAU_SPLIT, 6.372755, X_JET]:
            h = solve_H(x).h
            worst = max(worst, abs(-curve._table_H(x).imag - h) / h)
        assert worst <= curve._TABLE_H_REL_ERR
        assert worst >= 0.5 * curve._TABLE_H_REL_ERR  # the bound is not slack

    @pytest.mark.parametrize("x", [1e-300, 1e-30, 0.01, 0.5, 2.0, 3.5, 5.2, 6.372755, 8.0])
    def test_table_height_within_its_bound_of_mpmath(self, x):
        # the root of x g_tilde(z) = 1: relative, so findroot settles at 1e-300 too
        dps = 40 + int(x * x / (2.0 * math.log(10.0)))
        with mpmath.workdps(dps):
            z = mpmath.findroot(lambda z: mp_g_tilde(z) * x - 1, mpmath.mpc(solve_H(x).z))
        h = float(-z.imag)
        assert abs(-curve._table_H(x).imag - h) <= curve._TABLE_H_REL_ERR * h

    def test_solves_start_from_the_table(self, monkeypatch):
        seeds = []
        newton = curve._newton_confined

        def recorded(z, w, log=False):
            seeds.append(z)
            return newton(z, w, log)

        monkeypatch.setattr(curve, "_newton_confined", recorded)
        for x in (1e-200, 0.01, 1.0, 7.9):
            solve_H(x)
            assert seeds[-1] == curve._table_H(x)

    def test_built_on_the_first_solve_not_at_import(self):
        lines = _run_fresh(textwrap.dedent("""
            from freenormal import curve, levy
            print(curve._jet_table.cache_info().currsize)
            curve.solve_H(9.0)
            print(curve._jet_table.cache_info().currsize)
            curve.solve_H(1e-300)
            print(curve._jet_table.cache_info().currsize)
            curve.solve_H(1.0)
            print(curve._jet_table.cache_info().currsize)
        """))
        assert lines == ["0", "0", "1", "2"]

    def test_one_evaluation_per_node_past_the_first(self, monkeypatch):
        calls = [0]
        f_eval = curve._f_eval

        def counted(*args, **kwargs):
            calls[0] += 1
            return f_eval(*args, **kwargs)

        monkeypatch.setattr(curve, "_f_eval", counted)
        build = curve._jet_table.__wrapped__
        for end in _HALVES:
            first = calls[0]
            _, nodes = build(end)
            assert calls[0] - first <= len(nodes) - 1 + 8
            assert build(end) == curve._jet_table(end)

    def test_same_bits_whatever_the_first_call(self):
        xs = []
        for t in curve._jet_table(_HALVES[0])[0] + curve._jet_table(_HALVES[1])[0]:
            x = math.exp(t)
            xs += [x * (1.0 - 1e-12), x * (1.0 + 1e-12)]
        for edge in (X_LO, _TAU_SPLIT, X_JET, X_ASYMPTOTIC, sys.float_info.min):
            xs += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        xs += [5e-324, 1e-310, 1e-200, 1e-6, 0.3, 2.0, 5.5, 12.0]
        here = [
            " ".join(v.hex() for v in (p.g, p.h, p.residual)) for p in map(solve_H, xs)
        ]
        for first in (1e-200, 1.0, 7.9):
            script = textwrap.dedent(f"""
                from freenormal.curve import solve_H
                solve_H({first!r})
                for x in {xs!r}:
                    p = solve_H(x)
                    print(p.g.hex(), p.h.hex(), p.residual.hex())
            """)
            assert _run_fresh(script) == here, first


#: every node abscissa of the jet table and its neighbours one ulp away, the
#: regime edges, and the ends of the normal and subnormal range
_SWEEP_POINTS = sorted({
    y
    for x in [node[0] for end in _HALVES for node in curve._jet_table(end)[1]]
    + [X_LO, _TAU_SPLIT, X_JET, X_ASYMPTOTIC, 5e-324, 40.0]
    for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
    if 5e-324 <= y <= 40.0
})


class TestSolveSweep:
    """``solve_H``, ``levy_density`` and ``f_of`` over ``[5e-324, 40]``: a
    point of the curve inside ``Xi`` that meets the residual contract, a
    finite positive value, or a ``FreeNormalError``."""

    @given(st.one_of(st.sampled_from(_SWEEP_POINTS), st.floats(5e-324, 40.0)))
    @settings(max_examples=400, deadline=None)
    def test_values_meet_their_invariants_or_refuse(self, x):
        try:
            pt = solve_H(x)
        except FreeNormalError:
            pt = None
        if pt is not None:
            assert pt.x == x and 0.0 < pt.g < math.inf and 0.0 < pt.h < math.inf
            # g h < pi/2, up to the rounding of the product where the curve
            # meets the hyperbola to the last bit (Xi's boundary band)
            assert 0.0 < pt.g * pt.h <= HALF_PI + 4 * math.ulp(HALF_PI)
            contract = 1e-10 * max(1.0, x)
            assert pt.residual <= contract
            assert abs(complex(f_tilde(pt.z)) - x) <= contract
        try:
            density = levy_density(x)
        except FreeNormalError:
            # refused only where the height or the density is not normal
            assert pt is None or not sys.float_info.min <= pt.h / math.pi / x / x < math.inf
        else:
            assert sys.float_info.min <= density < math.inf
            assert density == pt.h / math.pi / x / x
        try:
            f = f_of(x)
        except FreeNormalError:
            pass
        else:
            assert sys.float_info.min <= -f < math.inf
            assert 0.0 < -x * f <= HALF_PI * (1.0 + 1e-12)


class TestTrace:
    def test_monotone_and_complete(self):
        points = trace_p0(0.02, 8.0, 60)
        assert len(points) == 60
        gs = [p.g for p in points]
        hs = [p.h for p in points]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        assert all(b < a for a, b in zip(hs, hs[1:]))

    def test_degenerate_two_point_trace(self):
        points = trace_p0(1.0, 1.0000001, 2)
        assert len(points) == 2

    @pytest.mark.parametrize(
        "a, b, n", [(0.01, 10.0, 400), (1e-3, 37.0, 97), (5.0, 30.0, 7)]
    )
    def test_each_point_is_solve_H_of_its_grid_abscissa(self, a, b, n):
        grid = [a * (b / a) ** (k / (n - 1)) for k in range(n)]
        grid[-1] = b
        points = trace_p0(a, b, n)
        assert len(points) == n
        for k, p in enumerate(points):
            assert p == solve_H(grid[k])

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            trace_p0(2.0, 1.0, 10)
        with pytest.raises(DomainError):
            trace_p0(0.5, 1.0, 1)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 2.0, 2.5),
            (1.0, 2.0, "3"),
            (1.0, math.inf, 3),
            (1.0, math.nan, 3),
            (math.nan, 1.0, 3),
            (1e-320, 1.0, 3),
            (5e-324, 1.0, 3),
            (1e-300, 1e10, 3),
        ],
    )
    def test_input_walls_are_domain_errors(self, args):
        with pytest.raises(DomainError):
            trace_p0(*args)

    def test_failed_point_names_its_abscissa(self):
        with pytest.raises(DomainError, match="trace failed at x = 40.0"):
            trace_p0(30.0, 40.0, 3)

    def test_failed_point_keeps_its_diagnostics(self, monkeypatch):
        def failing(x):
            raise NoConvergence("stuck", last_iterate=1 - 2j, residual=0.5)

        monkeypatch.setattr(curve, "solve_H", failing)
        with pytest.raises(NoConvergence) as err:
            trace_p0(0.1, 1.0, 3)
        assert str(err.value) == "trace failed at x = 0.1: stuck"
        assert err.value.last_iterate == 1 - 2j
        assert err.value.residual == 0.5


class TestGraphFunction:
    def test_even(self):
        assert f_of(1.5) == f_of(-1.5)

    def test_closed_form_region_is_exact(self):
        for x in (0.04, 0.02, 1e-3, 1e-6):
            assert f_of(x) == -math.pi / (2.0 * x)

    def test_graph_point_maps_to_a_positive_real(self):
        # the transform sends (a, f(a)) to the curve parameter s with
        # g(s) = a; the round trip through the solver recovers a
        for a in (0.5, 1.0, 3.0, 10.0):
            z = complex(a, f_of(a))
            F = complex(f_tilde(z))
            assert abs(F.imag) <= 1e-10 * max(1.0, abs(F))
            assert F.real > 0.0
            assert abs(solve_H(F.real).g - a) <= 1e-7 * max(1.0, a)

    @given(st.floats(0.06, 20.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_graph_round_trip_through_the_solver(self, a):
        z = complex(a, f_of(a))
        F = complex(f_tilde(z))
        assert abs(F.imag) <= 1e-9 * max(1.0, abs(F))
        assert abs(solve_H(F.real).g - a) <= 1e-6 * max(1.0, a)

    def test_sandwiched_near_zero(self):
        for x in (0.3, 0.2, 0.1):
            v = -x * f_of(x)
            assert v <= HALF_PI * (1.0 + 1e-12)
            assert v >= HALF_PI * (1.0 - 1e-3)

    def test_beyond_representable_height(self):
        # from about 1e8 the Newton slope Re(F - z) = -1/x rounds to 0 too
        for x in (50.0, 1e10, -1e100, 1e154, 1.7e308):
            with pytest.raises(DomainError):
                f_of(x)

    @pytest.mark.parametrize("x", [37.85, -37.9, 38.4])
    def test_wall_names_the_callers_argument(self, x):
        with pytest.raises(DomainError) as info:
            f_of(x)
        assert str(info.value).startswith(f"f({x})")
        assert "curve height at x" not in str(info.value)

    def test_zero_is_rejected(self):
        with pytest.raises(DomainError):
            f_of(0.0)

    @pytest.mark.parametrize("x", [8e-309, 1e-320, -5e-324])
    def test_overflowing_closed_form_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            f_of(x)
        assert in_omega(complex(x, -1.0))

    @pytest.mark.parametrize(
        "a", [0.05, 0.3, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0, 8.0, 15.0, 25.0, 33.0, 37.5]
    )
    def test_matches_mpmath(self, a):
        want = mpmath_graph(a, f_of(a))
        assert abs(f_of(a) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("a", [1.765450857590795, 1.8440199975330374])
    def test_former_limit_cycle_inputs_match_mpmath(self, a):
        for x in (a, -a):
            want = mpmath_graph(a, f_of(x))
            assert abs(f_of(x) - want) <= 1e-12 * abs(want)

    def test_seeded_sweep_never_raises(self):
        rng = random.Random(20261018)
        for _ in range(20000):
            x = rng.uniform(0.043, 37.5)
            assert 0.0 < -x * f_of(x) <= HALF_PI * (1.0 + 1e-12)

    def test_vertical_root_stops_when_rounding_steps_stop_shrinking(self, monkeypatch):
        # a reciprocal transform whose Newton steps on the vertical Re z = 2
        # hop between y1 and y2 = y1 + 5 ulp forever: arg F = +-d with
        # Re F - 2 = 1; each step is above the 1e-15 |y| stop test and none
        # shrinks
        y1 = -0.5
        d = 5.0 * math.ulp(y1)
        y2 = y1 + d
        assert y2 - d == y1 and d > 1e-15 * abs(y1)

        def hopping(z):
            return complex(3.0, 3.0 * math.tan(d if z.imag == y1 else -d))

        monkeypatch.setattr(curve, "_f_eval", hopping)
        assert curve._vertical_root(2.0, y1) in (y1, y2)


class TestOmegaMembership:
    def test_representative_points(self):
        assert in_omega(1j)
        assert in_omega(complex(0.0, -0.5))
        assert not in_omega(complex(3.0, -1.0))
        assert in_omega(complex(0.5, -0.01))

    def test_straddles_the_curve(self):
        a = 1.0
        y = f_of(a)
        assert in_omega(complex(a, y + 1e-6))
        assert not in_omega(complex(a, y - 1e-6))

    def test_closed_upper_half_plane_is_inside(self):
        assert in_omega(5.0 + 0j)
        assert in_omega(-17.0 + 3j)

    def test_deeper_than_g_tilde_reaches(self):
        # |Im z| past 1.3e154, where g_tilde raises: f is -pi/(2x) there
        assert in_omega(complex(1e-300, -1e300))
        assert in_omega(complex(-1e-160, -1e155))
        y = -HALF_PI / 1e-160  # the curve, within the boundary band of Xi
        assert in_omega(complex(1e-160, math.nextafter(y, 0.0)))
        assert not in_omega(complex(1e-160, math.nextafter(y, -math.inf)))


class TestOmegaSweep:
    """``in_omega`` against the graph of ``f`` on seeded points of lower ``Xi``."""

    @staticmethod
    def expected(z: complex) -> bool:
        try:
            return z.imag > f_of(z.real)
        except DomainError:
            # past f's wall the curve height is below every normal float
            return False

    def test_agrees_with_the_graph(self):
        rng = random.Random(6)
        pts = []
        for _ in range(1700):
            a = math.exp(rng.uniform(math.log(1e-3), math.log(40.0)))
            pts.append(complex(rng.choice((a, -a)), -rng.uniform(1e-6, 1.0) * HALF_PI / a))
        near = 0
        for _ in range(400):
            a = math.exp(rng.uniform(math.log(1e-3), math.log(37.8)))
            for side in (1.0, -1.0):
                delta = 10.0 ** rng.uniform(-9.0, -3.0)
                pts.append(complex(a, f_of(a) * (1.0 + side * delta)))
                near += 1
        assert len(pts) >= 2000 and near >= 300
        wrong = [z for z in pts if in_omega(z) is not self.expected(z)]
        assert wrong == []

    @pytest.mark.parametrize("k", range(40))
    def test_im_g_changes_sign_once_on_each_vertical(self, k):
        # in_omega is the sign of Im g_tilde below the axis; going down a
        # vertical it may switch from inside to outside once, never back
        a = 1e-3 * (40.0 / 1e-3) ** (k / 39)
        depths = sorted(
            [j / 400 for j in range(1, 400)] + [10.0 ** -j for j in range(3, 300, 3)]
        )
        inside = [in_omega(complex(a, -v * HALF_PI / a)) for v in depths]
        assert inside == sorted(inside, reverse=True)


class TestLevelSets:
    BBOX = (-3.2, 3.2, -2.2, 2.2)

    def test_t0_has_two_branches(self):
        traces = trace_level_set(0.0, self.BBOX, 0.1)
        branches = {t.branch for t in traces}
        assert branches == {"left", "right"}
        assert all(len(t.points) > 10 for t in traces)

    def test_t1_passes_through_known_axis_point(self):
        # the transform maps 0.3026308407115723i to i
        traces = trace_level_set(1.0, self.BBOX, 0.08)
        target = complex(0.0, 0.3026308407115723)
        d = min(abs(z - target) for t in traces for z in t.points)
        assert d <= 0.12

    def test_points_lie_on_their_level(self):
        for t in (0.0, 0.7):
            for tr in trace_level_set(t, self.BBOX, 0.12):
                for z in tr.points[::5]:
                    assert abs(complex(f_tilde(z)).imag - t) <= 1e-9

    def test_level_sets_are_symmetric(self):
        traces = trace_level_set(0.4, self.BBOX, 0.1)
        pts = [z for t in traces for z in t.points]
        for z in pts[::7]:
            mirrored = -z.conjugate()
            d = min(abs(w - mirrored) for w in pts)
            assert d <= 0.15

    def test_rejects_negative_level_and_bad_bbox(self):
        with pytest.raises(DomainError):
            trace_level_set(-0.5, self.BBOX, 0.1)
        with pytest.raises(DomainError):
            trace_level_set(0.5, (1.0, 1.0, -1.0, 1.0), 0.1)
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError):
                trace_level_set(t, self.BBOX, 0.1)
        for step in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                trace_level_set(0.5, self.BBOX, step)
        for bbox in ((-1.0, math.inf, -1.0, 1.0), (math.nan, 1.0, -1.0, 1.0),
                     (0.0, 1.0, 2.0), (-1.0, 1.0, -1.0, 1.0, 2.0)):
            with pytest.raises(DomainError):
                trace_level_set(0.5, bbox, 0.1)

    def test_cli_levels_lie_on_their_level(self):
        for t in (0.0, 0.1, 0.4, 0.7, 1.0, 1.3):
            for tr in trace_level_set(t, self.BBOX, 0.08):
                for z in tr.points:
                    assert abs(complex(f_tilde(z)).imag - t) <= 1e-12

    def test_branches_are_mirrored_half_planes(self):
        for t in (0.0, 0.4):
            right, left = trace_level_set(t, self.BBOX, 0.1)
            assert (right.branch, left.branch) == ("right", "left")
            assert all(z.real >= 0.0 for z in right.points)
            assert left.points == tuple(complex(0.0 - z.real, z.imag) for z in right.points)

    @pytest.mark.parametrize("t", [1e-300, 1e-20, 10.0])
    def test_extreme_levels_are_traced(self, t):
        traces = trace_level_set(t, (-3.2, 3.2, -2.2, 12.0), 0.1)
        assert [tr.branch for tr in traces] == ["right", "left"]
        for tr in traces:
            for z in tr.points:
                assert abs(complex(f_tilde(z)).imag - t) <= 1e-12 * t + 1e-15

    def test_an_arc_past_the_step_bound_raises(self, monkeypatch):
        # the right arc of t = 0.7 at step 0.08 takes 43 steps
        monkeypatch.setattr(curve, "_LEVEL_MAX_STEPS", 43)
        assert len(trace_level_set(0.7, self.BBOX, 0.08)[0].points) == 42
        monkeypatch.setattr(curve, "_LEVEL_MAX_STEPS", 42)
        with pytest.raises(NoConvergence) as err:
            trace_level_set(0.7, self.BBOX, 0.08)
        assert "takes more than 42 steps" in str(err.value)
        assert err.value.last_iterate is not None

    def test_a_level_that_misses_the_box_is_a_domain_error(self):
        # the arc of t = 0.5 runs near Im z = 0.5 and leaves Re z <= 6
        with pytest.raises(DomainError, match="level Im f_tilde = 0.5 misses"):
            trace_level_set(0.5, (5.0, 6.0, 5.0, 6.0), 0.1)

    def test_positive_level_starts_on_the_imaginary_axis(self):
        right, _ = trace_level_set(1.0, self.BBOX, 0.08)
        z = right.points[0]
        assert z.real == 0.0
        assert abs(z.imag - 0.3026308407115723) <= 1e-13
        xs = [p.real for p in right.points]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestNewtonExit:
    """The confined Newton's one exit: the residual contract decides."""

    def test_iteration_cap_within_the_contract_returns(self, monkeypatch):
        # one step from 1e-5 off the root leaves a residual of about 3e-11:
        # inside the contract 1e-10, above the goal 1e-14 that ends the loop
        monkeypatch.setattr(curve, "_NEWTON_MAX_ITER", 1)
        z, F = curve._newton_confined(solve_H(1.0).z + 1e-5, 1.0)
        assert 1e-14 < abs(F - 1.0) <= 1e-10
        assert F == complex(f_tilde(z))

    def test_iteration_cap_outside_the_contract_raises(self, monkeypatch):
        monkeypatch.setattr(curve, "_NEWTON_MAX_ITER", 1)
        seed = solve_H(1.0).z + 1e-3
        with pytest.raises(NoConvergence) as err:
            curve._newton_confined(seed, 1.0)
        assert err.value.last_iterate not in (None, seed)
        assert err.value.residual > 1e-10
        assert err.value.residual == abs(complex(f_tilde(err.value.last_iterate)) - 1.0)


class TestCurvePointInvariants:
    def test_is_a_read_only_value(self):
        p = solve_H(1.0)
        q = CurvePoint(x=p.x, g=p.g, h=p.h, residual=p.residual)
        assert q == p and hash(q) == hash(p) and q is not p
        assert q != CurvePoint(x=p.x, g=p.g, h=p.h, residual=1.0)
        # a named tuple: equal to the plain tuple of its fields
        assert p == (p.x, p.g, p.h, p.residual)
        for r in (eval(repr(p)), pickle.loads(pickle.dumps(p)), copy.copy(p),
                  copy.deepcopy(p), p._replace(), CurvePoint._make(p)):
            assert type(r) is CurvePoint and r == p
        for name in ("x", "g", "h", "residual", "z", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 2.0)
        with pytest.raises(AttributeError):
            del p.g
        assert (p.x, p.g, p.h) == (1.0, q.g, q.h)

    def test_every_constructor_validates(self):
        p = solve_H(1.0)
        with pytest.raises(DomainError):
            p._replace(g=-1.0)
        with pytest.raises(DomainError):
            p._replace(h=10.0)  # g*h > pi/2
        with pytest.raises(DomainError):
            CurvePoint._make((1.0, 3.0, 2.0, 0.0))
        # pickle and copy rebuild a point by this call, which validates
        rebuild, (cls, x, g, h, residual) = p.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
        assert rebuild(cls, x, g, h, residual) == p
        with pytest.raises(DomainError):
            rebuild(cls, x, -g, h, residual)

    def test_rejects_points_outside_the_domain(self):
        with pytest.raises(FreeNormalError):
            CurvePoint(x=1.0, g=3.0, h=2.0, residual=0.0)  # g*h > pi/2

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(FreeNormalError):
            CurvePoint(x=1.0, g=-1.0, h=0.5, residual=0.0)
        with pytest.raises(DomainError):
            CurvePoint(x=0.0, g=1.0, h=1.0, residual=0.0)
