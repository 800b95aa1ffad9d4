"""Independent ODE-based oracle for the boundary curve.

The curve solver in :mod:`freenormal.curve` finds each point by Newton
iteration on ``f_tilde(H) = x``.  This module reaches the same points by a
different route: anchor one point by derivative-free bracketing (Illinois
regula falsi) in a well-conditioned band, then transport it along

    H'(x) = 1 / (x (H(x) - x)),

which is the derivative of the defining identity, with no Newton steps at
all.  Agreement of the two routes at distant abscissas is the strongest
end-to-end check the package has.  Of :mod:`freenormal.curve` this module
uses only the point type ``CurvePoint``, never the solver it checks.

The transport is the Taylor integrator of :mod:`freenormal.series`, the
walk that also lays out the solver's jet table, run here without the
table's Newton step per node.  Its 16-term jets are in ``log x``, where the
curve is logarithmically slow near the origin, and carry ``log h``, so an
``exp(-x^2/2)``-small height keeps its relative accuracy.
"""

from __future__ import annotations

import math

from .curve import CurvePoint
from .errors import DomainError, NoConvergence
from .series import _jet_walk
from .transforms import _require_normal, f_tilde, g_tilde

__all__ = [
    "make_anchor",
    "integrate",
    "monotonicity_certificate",
]

_HALF_PI = math.pi / 2.0

#: a transported point may end this far past the hyperbola ``g h = pi/2``,
#: relative, and be put back on it: 35 times the worst overshoot seen from
#: ``make_anchor(2.0)`` (2.9e-15 on x from 1e-300 to 0.05), below the
#: walk's own relative error
_HYPERBOLA_SLACK = 1e-13

#: first step from the previous inner root, relative to it; the steps double
#: until ``Im g_tilde`` changes sign
_NEAR_STEP = 1e-3


def _inner_root(c: float, near: float | None = None) -> float:
    """Root of ``Im g_tilde(c + iy)`` in ``y`` on ``(-pi/(2c), 0)``.

    Negative at the real axis, positive near the domain boundary.  With
    ``near``, a root on a nearby vertical, doubling steps from it towards
    the root bracket the sign change; without, or if they leave the strip,
    the strip is scanned from the boundary end.  Illinois regula falsi
    closes the bracket without a derivative.
    """
    def im_g(y: float) -> float:
        return complex(g_tilde(complex(c, y))).imag

    y_top, y_bot = -1e-12, -_HALF_PI / c * (1.0 - 1e-9)
    if near is not None:
        a, fa = near, im_g(near)
        step = math.copysign(_NEAR_STEP * near, fa)  # down while above the curve
        while y_bot <= a + step <= y_top:
            b, fb = a + step, im_g(a + step)
            if fa * fb <= 0.0:
                return _illinois(im_g, a, fa, b, fb)
            a, fa, step = b, fb, 2.0 * step
    f_top = im_g(y_top)
    for k in range(64):  # walk the lower end up through the strip
        y = y_bot * (1.0 - k / 64.0)
        f = im_g(y)
        if f * f_top <= 0.0:
            return _illinois(im_g, y, f, y_top, f_top)
    raise NoConvergence(f"no sign change of Im g_tilde on the vertical at c = {c}")


def _illinois(fn, a: float, fa: float, b: float, fb: float) -> float:
    """Root of ``fn`` between ``a`` and ``b``, where ``fa`` and ``fb`` differ in sign.

    Regula falsi, with the Illinois rule: an end kept twice in a row has its
    value halved, so both ends close in.  A point that rounds onto or past
    an end is replaced by the midpoint, and that one is returned once the
    ends are adjacent floats.
    """
    kept = 0  # the end the last step kept: -1 for a, +1 for b
    for _ in range(200):
        m = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < m < max(a, b):
            m = 0.5 * (a + b)
            if m == a or m == b:
                break
        fm = fn(m)
        if fm == 0.0:
            break
        if (fm > 0.0) == (fb > 0.0):
            b, fb, fa = m, fm, 0.5 * fa if kept == -1 else fa
            kept = -1
        else:
            a, fa, fb = m, fm, 0.5 * fb if kept == 1 else fb
            kept = 1
    return m


def make_anchor(x0: float) -> CurvePoint:
    """Bracket a curve point at ``x0`` in the well-conditioned band.

    Works entirely from the transform evaluator: an inner bracketed root
    (``_inner_root``, started from the previous one) finds the height of the
    curve above each candidate abscissa ``c``, and an outer Illinois regula
    falsi moves ``c`` until ``Re f_tilde`` equals ``x0``.  Restricted to
    ``x0`` in ``[0.5, 4]`` where every quantity is order one.
    """
    x0 = float(x0)
    if not 0.5 <= x0 <= 4.0:
        raise DomainError(
            f"anchors are restricted to the band [0.5, 4], got x0 = {x0}"
        )

    near = None  # the last inner root, where the next bracket starts

    def u_of(c: float) -> float:
        nonlocal near
        near = _inner_root(c, near)
        return complex(f_tilde(complex(c, near))).real - x0

    c_lo, c_hi = 1.0, 5.0
    f_lo, f_hi = u_of(c_lo), u_of(c_hi)
    if f_lo * f_hi > 0.0:
        raise NoConvergence(
            f"Re f_tilde - x0 does not change sign on [{c_lo}, {c_hi}]"
        )
    c = _illinois(u_of, c_lo, f_lo, c_hi, f_hi)
    y = _inner_root(c, near)
    residual = abs(complex(f_tilde(complex(c, y))) - x0)
    if residual > 1e-12 * max(1.0, x0):
        raise NoConvergence(
            f"anchor residual {residual:.3g} too large at x0 = {x0}",
            residual=residual,
        )
    return CurvePoint(x=x0, g=c, h=-y, residual=residual)


def integrate(anchor: CurvePoint, x_target: float) -> CurvePoint:
    """Transport the anchor point to ``x_target`` along the curve ODE.

    The jet walk of :mod:`freenormal.series` with no correction: Taylor
    steps in ``log x``, no transform evaluation on the way, and a relative
    error below 4e-13 from ``x = 1e-300`` to 30.  Below ``x`` about 0.04
    the curve is within rounding of the hyperbola ``g h = pi/2``, nearer
    than that error, so a walk that ends past it by at most
    ``_HYPERBOLA_SLACK`` relative is put back on it; one that ends farther
    past it has gone wrong and raises ``DomainError``.  So does a node
    whose height is no longer a normal binary64 number (from about ``x =
    37.8``), as ``solve_H`` at its wall.
    The point carries the residual ``|f_tilde(H) - x_target|``.
    """
    x_target = float(x_target)
    if not (x_target > 0.0 and math.isfinite(x_target)):
        raise DomainError(f"need a finite x_target > 0, got {x_target}")
    for x, h, gs, _ in _jet_walk(anchor.x, anchor.z, x_target):
        _require_normal(h, "the curve height at x = {}", x)
    g = gs[-1]
    if g * h > _HALF_PI:
        if g * h > _HALF_PI * (1.0 + _HYPERBOLA_SLACK):
            raise DomainError(
                f"the walk to x = {x_target} ended outside Xi, g h - pi/2 = {g * h - _HALF_PI:.3g}"
            )
        h = _HALF_PI / g  # back onto the hyperbola (see above)
    residual = abs(complex(f_tilde(complex(g, -h))) - x_target)
    return CurvePoint(x=x_target, g=g, h=h, residual=residual)


def monotonicity_certificate(points) -> dict:
    """Check the sign structure of the curve ODE on a sequence of curve points.

    The right hand sides ``g' = (g - x) / (x ((g - x)^2 + h^2))`` and
    ``h' = -h / (x ((g - x)^2 + h^2))`` keep ``g`` increasing and ``h``
    decreasing exactly when ``g > x`` and everything is finite.  Returns a
    report dict whose ``violations`` list must be empty.
    """
    points = list(points)
    violations = []
    for s in points:
        d = s.x * ((s.g - s.x) ** 2 + s.h * s.h)
        reasons = []
        if not s.g > s.x:
            reasons.append("g <= x")
        if d == 0.0 or not (math.isfinite(d) and math.isfinite((s.g - s.x) / d)):
            reasons.append("non-finite derivative")
        if reasons:
            violations.append({"x": s.x, "reasons": reasons})
    return {"checked": len(points), "violations": violations}
