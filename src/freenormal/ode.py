"""Independent ODE-based oracle for the boundary curve.

The curve solver in :mod:`freenormal.curve` finds each point by Newton
iteration on ``f_tilde(H) = x``.  This module reaches the same points by a
different route: anchor one point by pure bisection in a well-conditioned
band, then transport it with an adaptive Runge-Kutta integration of

    H'(x) = 1 / (x (H(x) - x)),

which is the derivative of the defining identity and involves no Newton
steps at all.  Agreement of the two routes at distant abscissas is the
strongest end-to-end check the package has.

The integrator is hand rolled (Dormand-Prince 5(4) on one complex state)
rather than delegated: the step acceptance logic must reject any step that
leaves the entire-continuation domain, the independent variable switches to
``log x`` near the origin where the curve is logarithmically slow, and the
error control is applied per real component so the exponentially small
imaginary part is tracked in relative terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, NoConvergence, NoSignChange, StepUnderflow
from .transforms import f_tilde, g_tilde

__all__ = [
    "OdeState",
    "AnchorPoint",
    "make_anchor",
    "integrate",
    "monotonicity_certificate",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class OdeState:
    """One point ``(x, g, h)`` of the curve as carried by the integrator."""

    x: float
    g: float
    h: float

    def __post_init__(self) -> None:
        if not (self.x > 0.0 and self.g > 0.0 and self.h > 0.0):
            raise DomainError(
                f"curve states have positive coordinates, got "
                f"(x, g, h) = ({self.x}, {self.g}, {self.h})"
            )
        if self.g * self.h >= _HALF_PI * (1.0 + 1e-12):
            raise DomainError(
                f"state left the continuation domain: g * h = "
                f"{self.g * self.h} >= pi/2"
            )

    @property
    def z(self) -> complex:
        return complex(self.g, -self.h)


@dataclass(frozen=True)
class AnchorPoint:
    """A certified starting state of the transport."""

    x0: float
    state: OdeState


def _im_g_on_vertical(c: float, y: float, config: EvalConfig) -> float:
    return complex(g_tilde(complex(c, y), config)).imag


def _inner_root(c: float, config: EvalConfig) -> float:
    """Root of ``Im g_tilde(c + iy)`` in ``y`` on ``(-pi/(2c), 0)``.

    Negative at the real axis, positive near the domain boundary; scanned
    from the boundary end until the sign change is bracketed.
    """
    y_hi = -1e-12
    f_hi = _im_g_on_vertical(c, y_hi, config)
    y_lo = -_HALF_PI / c * (1.0 - 1e-9)
    f_lo = _im_g_on_vertical(c, y_lo, config)
    if f_lo * f_hi > 0.0:
        # walk the lower end up through the strip to find the crossing
        found = False
        for k in range(1, 64):
            y_try = y_lo * (1.0 - k / 64.0)
            f_try = _im_g_on_vertical(c, y_try, config)
            if f_try * f_hi < 0.0:
                y_lo, f_lo = y_try, f_try
                found = True
                break
        if not found:
            raise NoSignChange(
                f"no sign change of Im g_tilde on the vertical at c = {c}"
            )
    for _ in range(80):
        y_mid = 0.5 * (y_lo + y_hi)
        if y_mid == y_lo or y_mid == y_hi:
            break
        f_mid = _im_g_on_vertical(c, y_mid, config)
        if f_mid == 0.0:
            return y_mid
        if f_mid * f_hi < 0.0:
            y_lo = y_mid
        else:
            y_hi, f_hi = y_mid, f_mid
    return 0.5 * (y_lo + y_hi)


def make_anchor(x0: float, config: EvalConfig = DEFAULT_CONFIG) -> AnchorPoint:
    """Bisect a curve point at ``x0`` in the well-conditioned band.

    Works entirely from the transform evaluator: an inner bisection finds
    the height of the curve above each candidate abscissa ``c``, an outer
    bisection moves ``c`` until ``Re f_tilde`` equals ``x0``.  Restricted to
    ``x0`` in ``[0.5, 4]`` where every quantity is order one.
    """
    x0 = float(x0)
    if not 0.5 <= x0 <= 4.0:
        raise DomainError(
            f"anchors are restricted to the band [0.5, 4], got x0 = {x0}"
        )

    def u_of(c: float) -> float:
        y = _inner_root(c, config)
        return complex(f_tilde(complex(c, y), config)).real - x0

    c_lo, c_hi = 1.0, 5.0
    f_lo, f_hi = u_of(c_lo), u_of(c_hi)
    if f_lo * f_hi > 0.0:
        raise NoSignChange(
            f"Re f_tilde - x0 does not change sign on [{c_lo}, {c_hi}]"
        )
    for _ in range(90):
        c_mid = 0.5 * (c_lo + c_hi)
        if c_mid == c_lo or c_mid == c_hi:
            break
        f_mid = u_of(c_mid)
        if f_mid == 0.0:
            c_lo = c_hi = c_mid
            break
        if f_mid * f_lo < 0.0:
            c_hi, f_hi = c_mid, f_mid
        else:
            c_lo, f_lo = c_mid, f_mid
    c = 0.5 * (c_lo + c_hi)
    y = _inner_root(c, config)
    residual = abs(complex(f_tilde(complex(c, y), config)) - x0)
    if residual > 1e-12 * max(1.0, x0):
        raise NoConvergence(
            f"anchor residual {residual:.3g} too large at x0 = {x0}",
            residual=residual,
        )
    return AnchorPoint(x0=x0, state=OdeState(x=x0, g=c, h=-y))


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
    anchor: AnchorPoint,
    x_target: float,
    tol: float = 1e-10,
    config: EvalConfig = DEFAULT_CONFIG,
) -> OdeState:
    """Transport the anchor state to ``x_target`` along the curve ODE.

    Dormand-Prince 5(4) with component-wise error control at relative
    tolerance ``tol``; switches the independent variable to ``log x`` when
    the target sits well below the anchor.  Every accepted step must stay
    inside the continuation domain, otherwise the step is retried at half
    size; ``StepUnderflow`` is raised when halving bottoms out.  Where the
    transported height is no longer a normal binary64 number (from about
    ``x = 37.8``) ``DomainError`` is raised, as ``solve_H`` does at its wall.
    """
    x_target = float(x_target)
    if not (x_target > 0.0 and math.isfinite(x_target)):
        raise DomainError(f"need a finite x_target > 0, got {x_target}")
    if not tol > 0.0:
        raise DomainError(f"need tol > 0, got {tol}")

    log_mode = x_target < anchor.x0 * config.ode_logx_ratio
    if log_mode:
        rhs = _rhs_logx
        t, t_end = math.log(anchor.x0), math.log(x_target)
    else:
        rhs = _rhs_direct
        t, t_end = anchor.x0, x_target

    H = anchor.state.z
    if t == t_end:
        return anchor.state

    # absolute slack for the real component only, tied to tol so tightening
    # the tolerance tightens both channels
    atol = min(config.ode_atol, 1e-3 * tol)
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
        floor = config.ode_min_step_factor * max(1.0, abs(t))
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
        e_norm = max(abs(err.real) / sc_re, abs(err.imag) / sc_im)
        if e_norm <= 1.0 and _inside(H5):
            if -H5.imag < sys.float_info.min:
                raise DomainError(
                    f"the curve height at x = {t + dt} is not a normal "
                    "binary64 number"
                )
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
    return OdeState(x=x_target, g=H.real, h=-H.imag)


def monotonicity_certificate(states) -> dict:
    """Check the sign structure of the curve ODE on a sequence of states.

    The right hand sides ``g' = (g - x) / (x ((g - x)^2 + h^2))`` and
    ``h' = -h / (x ((g - x)^2 + h^2))`` keep ``g`` increasing and ``h``
    decreasing exactly when ``g > x`` and everything is finite.  Returns a
    report dict whose ``violations`` list must be empty.
    """
    states = list(states)
    violations = []
    for s in states:
        d = s.x * ((s.g - s.x) ** 2 + s.h * s.h)
        reasons = []
        if not s.g > s.x:
            reasons.append("g <= x")
        if d == 0.0 or not (math.isfinite(d) and math.isfinite((s.g - s.x) / d)):
            reasons.append("non-finite derivative")
        if reasons:
            violations.append({"x": s.x, "reasons": reasons})
    return {"checked": len(states), "violations": violations}
