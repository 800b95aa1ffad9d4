"""Independent ODE-based oracle for the boundary curve.

The curve solver in :mod:`freenormal.curve` finds each point by Newton
iteration on ``f_tilde(H) = x``.  This module reaches the same points by a
different route: anchor one point by derivative-free bracketing (Illinois
regula falsi) in a well-conditioned band, then transport it with an
adaptive Runge-Kutta integration of

    H'(x) = 1 / (x (H(x) - x)),

which is the derivative of the defining identity and involves no Newton
steps at all.  Agreement of the two routes at distant abscissas is the
strongest end-to-end check the package has.  Of :mod:`freenormal.curve`
this module uses only the point type ``CurvePoint``, never the solver it
checks.

The integrator is hand rolled (Dormand-Prince 5(4) on one complex state)
rather than delegated: the step acceptance logic must reject any step that
leaves the entire-continuation domain, the independent variable switches to
``log x`` near the origin where the curve is logarithmically slow, and the
error control is applied per real component so the exponentially small
imaginary part is tracked in relative terms.
"""

from __future__ import annotations

import math

from .curve import CurvePoint
from .errors import DomainError, NoConvergence, NoSignChange, StepUnderflow
from .transforms import _require_normal, f_tilde, g_tilde

__all__ = [
    "make_anchor",
    "integrate",
    "monotonicity_certificate",
]

_HALF_PI = math.pi / 2.0

#: absolute error slack of the real component (capped at 1e-3 tol)
_ATOL = 1e-13
#: ``StepUnderflow`` below this step, relative to ``max(1, |t|)``
_MIN_STEP_FACTOR = 1e-14
#: transport in ``log x`` when the target is below this fraction of the anchor
_LOGX_RATIO = 0.25


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
    raise NoSignChange(f"no sign change of Im g_tilde on the vertical at c = {c}")


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
        raise NoSignChange(
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


def _rhs_direct(x: float, H: complex) -> complex:
    return 1.0 / (x * (H - x))


def _rhs_logx(u: float, H: complex) -> complex:
    return 1.0 / (H - math.exp(u))


_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def _inside(H: complex) -> bool:
    g, h = H.real, -H.imag
    return g > 0.0 and h > 0.0 and g * h < _HALF_PI


def integrate(
    anchor: CurvePoint,
    x_target: float,
    tol: float = 1e-10,
) -> CurvePoint:
    """Transport the anchor point to ``x_target`` along the curve ODE.

    Dormand-Prince 5(4) with component-wise error control at relative
    tolerance ``tol``; switches the independent variable to ``log x`` when
    the target sits well below the anchor.  Every accepted step must stay
    inside the continuation domain, otherwise the step is retried at half
    size; ``StepUnderflow`` is raised when halving bottoms out, as it is for
    a ``tol`` so small that an error scale underflows to 0.  Where the
    transported height is no longer a normal binary64 number (from about
    ``x = 37.8``) ``DomainError`` is raised, as ``solve_H`` does at its wall.
    The point returned carries the residual ``|f_tilde(H) - x_target|``.
    """
    x_target = float(x_target)
    if not (x_target > 0.0 and math.isfinite(x_target)):
        raise DomainError(f"need a finite x_target > 0, got {x_target}")
    if not tol > 0.0:
        raise DomainError(f"need tol > 0, got {tol}")

    log_mode = x_target < anchor.x * _LOGX_RATIO
    if log_mode:
        rhs = _rhs_logx
        t, t_end = math.log(anchor.x), math.log(x_target)
    else:
        rhs = _rhs_direct
        t, t_end = anchor.x, x_target

    H = anchor.z
    if t == t_end:
        return anchor

    # absolute slack for the real component only, tied to tol so tightening
    # the tolerance tightens both channels
    atol = min(_ATOL, 1e-3 * tol)
    span = t_end - t
    dt = math.copysign(min(0.05 * abs(span), 0.1), span)
    k = [0j] * 7
    k[0] = rhs(t, H)
    while True:
        remaining = t_end - t
        if remaining == 0.0:
            break
        if not log_mode:
            # the imaginary component decays at local rate ~ x, and an
            # explicit pair only estimates that channel's error reliably
            # while x * dt stays modest, so cap the step accordingly
            cap = 0.5 / max(1.0, abs(t))
            if abs(dt) > cap:
                dt = math.copysign(cap, dt)
        if abs(dt) >= abs(remaining):
            dt = remaining
            last = True
        else:
            last = False
        floor = _MIN_STEP_FACTOR * max(1.0, abs(t))
        if abs(dt) < floor:
            raise StepUnderflow(
                f"step {abs(dt):.3g} fell below {floor:.3g} at t = {t}"
            )
        for i in range(1, 7):
            acc = 0j
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    acc += a * k[j]
            k[i] = rhs(t + _DP_C[i] * dt, H + dt * acc)
        H5 = H + dt * sum(b * ki for b, ki in zip(_DP_B5, k) if b != 0.0)
        err = dt * sum(
            (b5 - b4) * ki for b5, b4, ki in zip(_DP_B5, _DP_B4, k)
        )
        sc_re = atol + tol * max(abs(H.real), abs(H5.real))
        # the imaginary component spans hundreds of orders of magnitude and
        # stays strictly positive, so control it on a purely relative scale;
        # an absolute floor would silently release it from control once it
        # drops below the floor
        sc_im = tol * max(abs(H.imag), abs(H5.imag))
        # a scale underflowed to 0 by a tiny tol rejects the step
        e_norm = (
            max(abs(err.real) / sc_re, abs(err.imag) / sc_im)
            if sc_re and sc_im else math.inf
        )
        if e_norm <= 1.0 and _inside(H5):
            _require_normal(-H5.imag, f"the curve height at x = {t + dt}")
            t += dt
            H = H5
            k[0] = k[6]  # first-same-as-last
            if last:
                break
            # aim well below the acceptance threshold so the accumulated
            # error over a whole trajectory stays within a few tol
            factor = min(5.0, max(0.2, (0.1 / e_norm) ** 0.2 if e_norm > 0 else 5.0))
            dt *= factor
        elif e_norm <= 1.0:
            dt *= 0.5
        else:
            dt *= min(1.0, max(0.2, (0.1 / e_norm) ** 0.2))
    residual = abs(complex(f_tilde(H)) - x_target)
    return CurvePoint(x=x_target, g=H.real, h=-H.imag, residual=residual)


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
