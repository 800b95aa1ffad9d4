"""End-to-end verification suite behind ``freenormal verify`` and the tests.

Each criterion is one function returning a result dict with a ``passed``
flag and the measured quantities; ``run_profile`` times them, attaches the
per-criterion wall-clock limits, and assembles the overall JSON report.
The ``fast`` profile thins the sampling without touching any tolerance.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

from .curve import f_of, solve_H, trace_level_set, trace_p0
from .errors import DomainError
from .levy import (
    _phi_quadrature,
    levy_density,
    semicircular_component_check,
    tau_total_mass,
    voiculescu,
)
from .ode import integrate, make_anchor, monotonicity_certificate
from .scaled import ScaledComplex
from .series import (
    eval_h_asym_infinity,
    eval_h_asym_zero,
    free_cumulants,
    h_infinity_coefficients,
)
from .transforms import (
    DomainTag,
    classify_domain,
    f_tilde,
    f_tilde_prime,
    g_tilde,
    g_tilde_contour_oracle,
)

__all__ = ["CRITERIA", "run_criterion", "run_profile"]

_HALF_PI = math.pi / 2.0


def _rel_scaled(a, b) -> float:
    """Relative deviation |a - b| / max(|a|, |b|) in log-scale arithmetic."""
    diff = a - b
    if diff.is_zero:
        return 0.0
    den = max(a.log_abs(), b.log_abs())
    return math.exp(diff.log_abs() - den)


def exact_cumulant_tables(profile: str) -> dict:
    """Criterion 1: exact rational cumulant and coefficient tables."""
    free = free_cumulants(4)
    want_free = (Fraction(1), Fraction(1), Fraction(4), Fraction(27))
    hcoef = h_infinity_coefficients(3)
    want_h = (Fraction(-5, 2), Fraction(-43, 8), Fraction(-579, 16))
    return {
        "passed": free == want_free and hcoef == want_h,
        "free_cumulants": [str(c) for c in free],
        "h_infinity_coefficients": [str(c) for c in hcoef],
    }


def stieltjes_identity(profile: str) -> dict:
    """Criterion 2: boundary imaginary part against the Gaussian density."""
    n = 1000 if profile == "full" else 250
    worst = 0.0
    scale = math.sqrt(_HALF_PI)
    for i in range(n):
        x = -8.0 + 16.0 * i / (n - 1)
        model = -scale * math.exp(-0.5 * x * x)
        got = complex(g_tilde(complex(x, 0.0))).imag
        worst = max(worst, abs(got - model) / abs(model))
    return {"passed": worst <= 1e-12, "points": n, "max_rel_error": worst}


def ode_identity(profile: str) -> dict:
    """Criterion 3: ``f_tilde_prime`` (``F (z - F)``, or ``-g_tilde'/g_tilde^2``
    from the moment series' parts where that serves), against
    ``F'`` of ``F = f_tilde`` by the 16-node trapezoidal Cauchy integral on
    ``|w - z| = 0.05`` (error ``(0.05/d)^16``, ``d`` the distance to a pole)."""
    circle = [cmath.exp(0.125j * math.pi * k) for k in range(16)]
    n = 200 if profile == "full" else 60
    rng = random.Random(20240817)
    worst = 0.0
    count = 0
    while count < n:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-1.5, 10.0))
        if abs(z) > 10.0:
            continue
        if classify_domain(z) in (DomainTag.OUTSIDE_XI, DomainTag.XI_BOUNDARY):
            continue
        fd = sum(complex(f_tilde(z + 0.05 * u)) / u for u in circle) / 0.8
        worst = max(worst, _rel_scaled(ScaledComplex(fd), f_tilde_prime(z)))
        count += 1
    return {"passed": worst <= 1e-9, "points": n, "max_rel_error": worst}


_ORACLE_POINTS = (
    # (radius, angle in units of pi); the cone for eps = pi/16 is
    # arg in (-3pi/16, pi] together with arg < -13pi/16
    (0.8, 0.10), (0.8, 0.45), (0.8, 0.85),
    (1.6, 0.06), (1.6, 0.30), (1.6, 0.60), (1.6, 0.94),
    (2.4, 0.15), (2.4, 0.50), (2.4, 0.80),
    (3.2, 0.25), (3.2, 0.70), (3.0, 0.97),
    (1.5, 0.0), (2.0, 1.0),
    # five points below the real axis
    (0.9, -0.10), (1.8, -0.05), (2.6, -0.12), (1.2, -0.95), (2.0, -0.90),
)


def oracle_agreement(profile: str) -> dict:
    """Criterion 4: contour quadrature versus the Faddeeva-kernel evaluator."""
    if profile == "full":
        pts = _ORACLE_POINTS
    else:
        pts = _ORACLE_POINTS[:3] + _ORACLE_POINTS[-2:]
    eps = math.pi / 16.0
    eta = math.pi / 24.0
    worst = 0.0
    below = 0
    for r, frac in pts:
        z = r * complex(math.cos(frac * math.pi), math.sin(frac * math.pi))
        if z.imag < 0.0:
            below += 1
        ref = g_tilde_contour_oracle(z, eta, eps=eps, tol=1e-11)
        worst = max(worst, _rel_scaled(g_tilde(z), ref))
    return {
        "passed": worst <= 1e-10,
        "points": len(pts),
        "points_below_axis": below,
        "max_rel_error": worst,
    }


_CROSSCHECK_X = (1e-100, 0.01, 0.1, 0.5, 1.0, 3.0, 5.0, 12.0)


def curve_crosscheck(profile: str) -> dict:
    """Criterion 5: ODE transport versus Newton solves, both coordinates."""
    anchor = make_anchor(2.0)
    rows = []
    worst = 0.0
    for x in _CROSSCHECK_X:
        s = integrate(anchor, x)
        q = solve_H(x)
        dg = abs(s.g - q.g)
        dh = abs(s.h - q.h) / q.h
        worst = max(worst, dg, dh)
        rows.append(
            {
                "x_target": x,
                "ode_g": s.g,
                "ode_h": s.h,
                "newton_g": q.g,
                "newton_h": q.h,
                "discrepancy": max(dg, dh),
            }
        )
    return {"passed": worst <= 1e-12, "max_discrepancy": worst, "rows": rows}


def monotonicity(profile: str) -> dict:
    """Criterion 6: strict monotonicity of g, h, and h/(pi x) on a log grid.

    ``trace_p0`` itself refuses a trace whose ``g`` is not increasing or
    whose ``h`` is not decreasing; counted here are the steps where
    ``h/(pi x)`` does not decrease and the points where the ODE's sign
    condition ``g > x`` fails.
    """
    n = 400 if profile == "full" else 150
    pts = trace_p0(1e-3, 12.0, n)
    violations = len(monotonicity_certificate(pts)["violations"])
    for a, b in zip(pts, pts[1:]):
        if not b.h / (math.pi * b.x) < a.h / (math.pi * a.x):
            violations += 1
    return {"passed": violations == 0, "points": n, "violations": violations}


def h_infinity_convergence(profile: str) -> dict:
    """Criterion 7: the large-x expansion of h with its remainder bound."""
    a2, a4, a6 = (float(c) for c in h_infinity_coefficients(3))
    # solved h over its bare prefactor e^-1 sqrt(pi/2) x^2 e^{-x^2/2}
    ratios = {
        x: solve_H(x).h / eval_h_asym_infinity(x, 1).to_complex().real
        for x in (6.0, 8.0, 10.0)
    }
    checks = []
    ok = True
    for x, ratio in ratios.items():
        err = abs(ratio - (1.0 + a2 / x**2 + a4 / x**4))
        bound = 5.0 * abs(a6) / x**6
        ok = ok and err <= bound
        checks.append({"x": x, "error": err, "bound": bound})
    x, ratio = 8.0, ratios[8.0]
    trunc = [
        abs(ratio - 1.0),
        abs(ratio - (1.0 + a2 / x**2)),
        abs(ratio - (1.0 + a2 / x**2 + a4 / x**4)),
    ]
    decreasing = trunc[0] > trunc[1] > trunc[2]
    return {
        "passed": ok and decreasing,
        "checks": checks,
        "truncation_at_8": trunc,
        "truncation_decreasing": decreasing,
    }


def zero_regime_convergence(profile: str) -> dict:
    """Criterion 8: square-root approach to the small-x closed forms."""
    xs = (1e-3, 1e-4, 1e-5, 1e-6)
    ratios = []
    defects = []
    for x in xs:
        pt = solve_H(x)
        h0 = eval_h_asym_zero(x)
        ratios.append(abs(pt.h - h0) / math.sqrt(x))
        defects.append(abs(pt.g * pt.h - _HALF_PI))
    C = max(ratios)
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    return {
        "passed": C < 10.0 and decreasing and defects[-1] < 1e-2,
        "fitted_C": C,
        "gh_defects": defects,
        "defects_decreasing": decreasing,
    }


def f_zero_sandwich(profile: str) -> dict:
    """Criterion 9: the two-sided bound on -x f(x) near the origin.

    The analytic window shrinks like exp(-pi^2/(16 x^2)), which is narrower
    than one unit in the last place of pi/2 already at x = 0.1; both sides
    therefore carry a relative slack of 1e-12 so the comparison happens at
    a representable width.
    """
    checks = []
    ok = True
    for x in (0.2, 0.1, 0.05):
        v = -x * f_of(x)
        window = math.exp(-math.pi**2 / (16.0 * x * x)) * 1e3
        lo = _HALF_PI * (1.0 - max(window, 1e-12))
        hi = _HALF_PI * (1.0 + 1e-12)
        good = lo <= v <= hi
        ok = ok and good
        checks.append({"x": x, "value": v, "lower": lo, "upper": hi,
                       "passed": good})
    return {"passed": ok, "checks": checks}


#: points of the free Levy-Khintchine identity beyond w = i; the fast
#: profile takes the first
_IDENTITY_W = (2.0 + 1.0j, 0.3 + 0.4j, -4.0 + 3.0j)


def tau_mass_consistency(profile: str) -> dict:
    """Criterion 10: the jet table's quadratures against Newton inversion.

    The mass of tau against ``-Im phi(i)``, and the identity
    ``phi(w) = (2w/pi) integral_0^inf h(x)/(w^2 - x^2) dx`` against
    ``voiculescu(w)`` at ``_IDENTITY_W`` to 1e-12 relative.  The integrands
    read ``h`` off the Newton-corrected jet table; ``voiculescu`` runs its
    own Newton on ``f_tilde``.
    """
    phi = voiculescu(1j)
    mass = tau_total_mass(1e-8)
    discrepancy = abs(mass + phi.imag)
    rows = []
    for w in _IDENTITY_W[: 3 if profile == "full" else 1]:
        want = voiculescu(w)
        got, err = _phi_quadrature(w, 1e-12)
        rows.append({"w": [w.real, w.imag], "phi": [want.real, want.imag],
                     "quadrature": [got.real, got.imag], "quad_error": err,
                     "rel_error": abs(got - want) / abs(want)})
    worst = max(row["rel_error"] for row in rows)
    return {
        "passed": discrepancy <= 1e-6 and abs(phi.real) <= 1e-9 and worst <= 1e-12,
        "check": "h from the Newton-corrected jet table against Newton inversion of f_tilde",
        "tau_mass": mass,
        "phi_at_i": [phi.real, phi.imag],
        "discrepancy": discrepancy,
        "real_part": abs(phi.real),
        "identity": rows,
        "max_identity_error": worst,
    }


def semicircular_component(profile: str) -> dict:
    """Criterion 11: the vanishing atom at the origin."""
    ts = (3.0, 4.0, 5.0, 6.0)
    vals = [semicircular_component_check(T) for T in ts]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return {
        "passed": vals[-1] <= 1e-7 and decreasing,
        "values": vals,
        "value_at_6": vals[-1],
    }


def figure_regeneration(profile: str) -> dict:
    """Criterion 12: curve, density, and level-set data all regenerate."""
    full = profile == "full"
    n_curve = 400 if full else 120
    step = 0.08 if full else 0.12
    report: dict = {"passed": True}

    report["curve_points"] = len(trace_p0(0.01, 10.0, n_curve))
    if report["curve_points"] != n_curve:
        report["passed"] = False

    grid = [0.2 + (5.0 - 0.2) * i / 59 for i in range(60 if full else 30)]
    dens = [levy_density(x) for x in grid]
    even_ok = all(
        levy_density(-x) == d for x, d in zip(grid[::10], dens[::10])
    )
    dec_ok = all(b < a for a, b in zip(dens, dens[1:]))
    report["density_points"] = len(dens)
    report["density_even"] = even_ok
    report["density_decreasing"] = dec_ok
    if not (even_ok and dec_ok and all(d > 0 for d in dens)):
        report["passed"] = False

    bbox = (-3.2, 3.2, -2.2, 2.2)
    levels = {}
    worst_dev = 0.0
    worst_match = 0.0
    for t in (0.0, 0.1, 0.4, 0.7, 1.0, 1.3):
        traces = trace_level_set(t, bbox, step)
        n_pts = sum(len(tr.points) for tr in traces)
        for tr in traces:
            for z in tr.points[:: 4 if full else 2]:
                worst_dev = max(
                    worst_dev, abs(complex(f_tilde(z)).imag - t)
                )
        levels[f"{t:g}"] = n_pts
        if n_pts == 0:
            report["passed"] = False
        if t == 0.0:
            for tr in traces:
                for z in tr.points:
                    xp = complex(f_tilde(z)).real
                    if xp < 0.0:
                        z, xp = -z.conjugate(), -xp
                    if 0.01 <= xp <= 10.0:
                        worst_match = max(
                            worst_match, abs(z - solve_H(xp).z)
                        )
    report["level_set_points"] = levels
    report["max_level_deviation"] = worst_dev
    report["t0_vs_trace_p0"] = worst_match
    if worst_dev > 1e-9 or worst_match > 1e-8:
        report["passed"] = False
    return report


CRITERIA = (
    (1, "exact_cumulant_tables", exact_cumulant_tables, 1.0),
    (2, "stieltjes_identity", stieltjes_identity, 1.0),
    (3, "ode_identity", ode_identity, 1.0),
    (4, "oracle_agreement", oracle_agreement, 30.0),
    (5, "curve_crosscheck", curve_crosscheck, 10.0),
    (6, "monotonicity", monotonicity, 20.0),
    (7, "h_infinity_convergence", h_infinity_convergence, 5.0),
    (8, "zero_regime_convergence", zero_regime_convergence, 10.0),
    (9, "f_zero_sandwich", f_zero_sandwich, 5.0),
    (10, "tau_mass_consistency", tau_mass_consistency, 60.0),
    (11, "semicircular_component", semicircular_component, 1.0),
    (12, "figure_regeneration", figure_regeneration, 60.0),
)


def run_criterion(index: int, profile: str = "full") -> dict:
    """Run one acceptance criterion by 1-based index; returns its report.

    Raises ``DomainError`` for an index with no criterion.
    """
    for idx, name, fn, limit in CRITERIA:
        if idx == index:
            t0 = time.perf_counter()
            result = fn(profile)
            seconds = time.perf_counter() - t0
            out = {"index": idx, "name": name, "limit_seconds": limit,
                   "seconds": seconds}
            out.update(result)
            return out
    raise DomainError(f"no criterion {index}")


def run_profile(profile: str = "full") -> dict:
    """Run the whole suite; the report carries every measured quantity.

    Raises ``DomainError`` for a profile other than ``"fast"`` or ``"full"``.
    """
    if profile not in ("fast", "full"):
        raise DomainError(f"profile must be fast or full, got {profile!r}")
    t0 = time.perf_counter()
    criteria = [run_criterion(idx, profile) for idx, *_ in CRITERIA]
    # criterion 5 already transported and solved these points
    crosscheck = [
        dict(row) for row in criteria[4]["rows"]
        if row["x_target"] in (0.01, 0.1, 1.0, 3.0)
    ]
    return {
        "profile": profile,
        "runtime_seconds": time.perf_counter() - t0,
        "all_passed": all(c["passed"] for c in criteria),
        "criteria": criteria,
        "ode_newton_crosscheck": crosscheck,
    }
