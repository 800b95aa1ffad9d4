"""Robustness sweep of the public API and of every CLI subcommand.

Each public function of ``levy``, ``curve``, ``ode`` and ``series``, called
with draws that include 0, both subnormal signs, ``+-1e308``, ``+-inf`` and
NaN, returns a finite value of its documented type or raises a
``FreeNormalError``; any other exception fails the test.  Each subcommand,
run through ``main`` with such arguments, exits 0 or 2 (a usage error that
``argparse`` reports counts as 2).
"""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenormal import curve, levy, ode, series
from freenormal.cli import main
from freenormal.errors import FreeNormalError
from freenormal.scaled import ScaledComplex

_TINY = sys.float_info.min
#: the edges of binary64 and a few ordinary values, both signs
_EDGES = tuple(s * v for v in (0.0, 5e-324, _TINY, 1e-300, 0.5, 1.0, 4.0, 37.0,
                                40.0, 1e154, 1e308, math.inf)
               for s in (1.0, -1.0)) + (math.nan,)
_REALS = st.one_of(st.sampled_from(_EDGES), st.floats())
_COMPLEX = st.builds(complex, _REALS, _REALS)
#: orders: the moment and cumulant tables refuse past 500, the large-x series
#: and their tables past 150
_ORDERS = st.one_of(st.integers(-3, 40),
                    st.sampled_from((150, 151, 500, 501, 10**6, True)),
                    st.sampled_from(_EDGES))


def _finite(v) -> bool:
    """``v`` and every part of it is finite (a bool, an int and a str are)."""
    if isinstance(v, (bool, int, str, Fraction)):
        return True
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, complex):
        return cmath.isfinite(v)
    if isinstance(v, ScaledComplex):
        return math.isfinite(v.log_scale) and cmath.isfinite(v.mantissa)
    if isinstance(v, dict):
        return all(_finite(x) for x in v.values())
    if isinstance(v, (tuple, list)):
        return all(_finite(x) for x in v)
    return False


def _value_or_refusal(call):
    """The value of ``call()``, checked finite, or None where it refuses."""
    try:
        v = call()
    except FreeNormalError:
        return None
    assert _finite(v), v
    return v


class TestPublicFunctions:
    @given(_REALS)
    @settings(max_examples=150, deadline=None)
    def test_real_arguments(self, x):
        for fn in (levy.semicircular_component_check, levy.tau_total_mass,
                   curve.f_of, series.eval_g_asym_zero, series.eval_h_asym_zero,
                   series.eval_f_asym_zero):
            v = _value_or_refusal(lambda: fn(x))
            assert v is None or type(v) is float, (fn.__name__, x)
        for fn in (curve.solve_H, ode.make_anchor):
            pt = _value_or_refusal(lambda: fn(x))
            assert pt is None or pt.x == x and pt.g > 0.0 and pt.h > 0.0, (fn.__name__, x)
        density = _value_or_refusal(lambda: levy.levy_density(x))
        assert density is None or density >= 0.0

    @given(_COMPLEX)
    @settings(max_examples=150, deadline=None)
    def test_complex_arguments(self, w):
        phi = _value_or_refusal(lambda: levy.voiculescu(w))
        assert phi is None or type(phi) is complex
        inside = _value_or_refusal(lambda: curve.in_omega(w))
        assert inside is None or type(inside) is bool

    @given(_REALS, _ORDERS)
    @settings(max_examples=150, deadline=None)
    def test_series(self, x, n):
        for fn in (series.moments, series.boolean_cumulants, series.free_cumulants,
                   series.h_infinity_coefficients, series.f_infinity_coefficients):
            table = _value_or_refusal(lambda: fn(n))
            assert table is None or len(table) == n, (fn.__name__, n)
        g = _value_or_refusal(lambda: series.eval_g_asym_infinity(x, n))
        assert g is None or type(g) is float
        h = _value_or_refusal(lambda: series.eval_h_asym_infinity(x, n))
        assert h is None or type(h) is ScaledComplex

    @pytest.mark.parametrize("n", [151, 10**6])
    def test_floating_series_refuse_orders_whose_coefficients_overflow(self, n):
        # they raised a bare OverflowError from float(Fraction), after
        # building the exact table (3.6 s and 108 s for order 1000)
        for fn in (series.eval_g_asym_infinity, series.eval_h_asym_infinity):
            assert _value_or_refusal(lambda: fn(10.0, n)) is None
        # the exact tables they read share that ceiling (order 1000 took
        # about 100 s to build before it refused)
        for fn in (series.h_infinity_coefficients, series.f_infinity_coefficients):
            assert _value_or_refusal(lambda: fn(n)) is None
        assert _finite(series.eval_g_asym_infinity(10.0, 150))

    @given(_REALS, _REALS, st.sampled_from((2, 3, 0, 1, -2, 2.0, math.nan)))
    @settings(max_examples=150, deadline=None)
    def test_trace_p0(self, a, b, n):
        pts = _value_or_refusal(lambda: curve.trace_p0(a, b, n))
        if pts is not None:
            assert len(pts) == n and pts[0].x == a and pts[-1].x == b
            assert all(p.g < q.g and p.h > q.h for p, q in zip(pts, pts[1:]))
            # the ODE's right-hand side overflows at a subnormal x, which
            # the certificate reports as a violation, not as an exception
            assert _finite(ode.monotonicity_certificate(pts))

    @given(_REALS)
    @settings(max_examples=100, deadline=None)
    def test_ode(self, x):
        anchor = ode.make_anchor(1.0)
        pt = _value_or_refusal(lambda: ode.integrate(anchor, x))
        assert pt is None or pt.x == x
        pts = [anchor] if pt is None else [anchor, pt]
        report = _value_or_refusal(lambda: ode.monotonicity_certificate(pts))
        assert report is not None and report["checked"] == len(pts)

    # a step too small to move, and a box too large to leave, each take the
    # full 20,000 steps (about 0.3 to 0.8 s), so the draws are fixed here
    @pytest.mark.parametrize("t", [0.0, 5e-324, _TINY, 0.5, 1e308, math.inf, -1.0, math.nan])
    @pytest.mark.parametrize("step", [0.08, 1e308, 0.0, -0.08, math.inf, math.nan])
    def test_trace_level_set(self, t, step):
        traces = _value_or_refusal(lambda: curve.trace_level_set(t, (-3.2, 3.2, -2.2, 2.2), step))
        assert traces is None or all(tr.t == t for tr in traces)

    @pytest.mark.parametrize("bbox", [
        (-5e-324, 5e-324, -5e-324, 5e-324), (0.0, 1e308, -1e308, 0.0),
        (-1e308, 1e308, -1e308, 1e308), (1.0, -1.0, 0.0, 1.0), (math.nan, 1.0, 0.0, 1.0),
        (-math.inf, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0), (-3.0, 3.0, -2.0, 2.0),
    ])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_trace_level_set_boxes(self, bbox, t):
        traces = _value_or_refusal(lambda: curve.trace_level_set(t, bbox, 0.08))
        assert traces is None or all(tr.branch in ("left", "right") for tr in traces)

    def test_tiny_step_refuses(self):
        box = (-3.0, 3.0, -2.0, 2.0)
        assert _value_or_refusal(lambda: curve.trace_level_set(0.5, box, 5e-324)) is None


#: the numbers the command line sweep passes, as the shell would spell them
_CLI_NUMBERS = ("0", "-0", "5e-324", "-5e-324", "1e-300", "1", "-1", "37", "1e308",
                "-1e308", "inf", "-inf", "nan")
_CLI_COMPLEX = _CLI_NUMBERS + ("1e308+1e308i", "5e-324-5e-324i", "0.05-30i", "nan+1i",
                               "-40", "-1e11", "3-0.2i", "1e200")


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a malformed argument
        return exc.code


class TestCommandLine:
    @given(st.sampled_from(("G", "Gprime", "F", "Fprime", "rho")), st.sampled_from(_CLI_COMPLEX))
    @settings(max_examples=100, deadline=None)
    def test_eval(self, fn, z):
        assert _exit_code(["eval", "--fn", fn, f"--z={z}"]) in (0, 2)

    @given(st.sampled_from(("curve", "density")), st.sampled_from(_CLI_NUMBERS),
           st.sampled_from(_CLI_NUMBERS), st.sampled_from(("2", "3", "0", "-1", "1e308", "nan")),
           st.sampled_from(("csv", "json", "svg")))
    @settings(max_examples=100, deadline=None)
    def test_grids(self, cmd, a, b, n, fmt):
        argv = [cmd, f"--xmin={a}", f"--xmax={b}", f"--n={n}", "--format", fmt]
        assert _exit_code(argv) in (0, 2)

    @given(st.sampled_from(_CLI_NUMBERS + ("0.1,0.7", "0.1,nan", "")),
           st.sampled_from(("0.08", "1e308", "0", "-0.08", "inf", "nan")))
    @settings(max_examples=60, deadline=None)
    def test_levelsets(self, t, step):
        argv = ["levelsets", f"--t={t}", f"--step={step}", "--bbox=-3,3,-2,2"]
        assert _exit_code(argv) in (0, 2)

    @pytest.mark.parametrize("bbox", ["-5e-324,5e-324,-5e-324,5e-324", "1,-1,0,1",
                                      "nan,1,0,1", "-inf,1,0,1", "0,1,0", "1e308,1e308,0,1"])
    def test_levelset_boxes(self, bbox):
        assert _exit_code(["levelsets", "--t=0.5", f"--bbox={bbox}"]) in (0, 2)

    @pytest.mark.parametrize("order", ["0", "1", "2", "40", "1001", "-5", "1e308", "nan", "inf"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cumulants(self, order, fmt):
        assert _exit_code(["cumulants", f"--order={order}", "--format", fmt]) in (0, 2)

    @pytest.mark.parametrize("regime", ["zero", "infinity", "nan"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_asymptotics(self, regime, fmt):
        assert _exit_code(["asymptotics", "--regime", regime, "--format", fmt]) in (0, 2)

    @pytest.mark.parametrize("profile", ["fast", "none"])
    def test_verify(self, profile, tmp_path):
        out = str(tmp_path / "report.json")
        assert _exit_code(["verify", "--profile", profile, "--out", out]) in (0, 2)
