"""Boundary-curve solver: the preimage of the positive reals under ``f_tilde``.

For each ``x > 0`` there is exactly one point ``H(x) = g(x) - i h(x)`` with
``g, h > 0`` and ``g h < pi/2`` (inside ``Xi``) satisfying
``f_tilde(H(x)) = x``.  The family sweeps out the curve ``p0+``; together
with its mirror image ``p0-`` it bounds the domain

    Omega = { x + i y : x != 0, y > f(x) }  union  iR,
    f(x)  = -h(g^{-1}(|x|)),

on which ``f_tilde`` is an analytic bijection onto the upper half plane.

The solver is a damped Newton iteration on ``f_tilde(z) - x`` confined to
``Xi`` (the certified pole-free region), with regime-dependent seeding:
closed-form small-x asymptotics below ``X_LO``, large-x series above
``X_HI``, and between them skeleton-seeded Newton with a polish step: a
cubic Hermite interpolant in ``log x`` of a cached set of curve points, with
the exact slopes ``dH/dlog x = 1/(H - x)`` of the curve ODE.  Above
``X_HI`` the height falls like ``exp(-x^2/2)`` (``h(3.5) ~ 9e-3``,
``h(6) ~ 2e-7`` against ``g ~ 6``).  The transform carries that scale to
full relative accuracy (its near-axis Dawson split), and the Newton
there runs on the relative residual ``log f_tilde(z) - log x``, then takes
one pass on the absolute residual, which settles the last digits of ``h``.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from functools import cache

from .errors import DomainError, FreeNormalError, NoConvergence, SeedNotFound
from .series import (
    eval_f_asym_zero,
    eval_g_asym_infinity,
    eval_g_asym_zero,
    eval_h_asym_infinity,
    eval_h_asym_zero,
)
from .transforms import (
    DomainTag,
    _f_eval,
    _require_normal,
    classify_domain,
    g_tilde,
)

__all__ = [
    "CurvePoint",
    "LevelSetTrace",
    "solve_H",
    "trace_p0",
    "f_of",
    "in_omega",
    "trace_level_set",
]

_HALF_PI = 0.5 * math.pi
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: the solver's crossovers: at or below ``X_LO`` the zero-regime closed
#: forms seed it (and it solves the logarithmic residual); at or above
#: ``X_HI`` the order-3 large-x series seeds it (the logarithmic residual,
#: then one absolute pass), and beyond ``X_ASYMPTOTIC`` the large-x series is
#: the answer
X_LO = 0.05
X_HI = 3.5
X_ASYMPTOTIC = 30.0

#: order of the large-x series returned above ``X_ASYMPTOTIC``
_LARGE_X_ORDER = 6

#: nodes of the bulk skeleton that seeds every solve in ``(X_LO, X_HI)``
_SKELETON_NODES = 24

#: residual contract of a curve solve, relative to ``max(1, |w|)``
_NEWTON_TOL = 1e-10
#: Newton iterations before ``NoConvergence``
_NEWTON_MAX_ITER = 60
#: halvings of a step that leaves ``Xi`` or grows the residual
_NEWTON_MAX_HALVINGS = 8


class CurvePoint(namedtuple("CurvePoint", "x g h residual")):
    """One solved point ``H(x) = g - i h`` of the boundary curve; read-only.

    Every way of building one (the constructor, ``_make``, ``_replace``,
    pickle and copy) checks that it lies inside ``Xi``.
    """

    __slots__ = ()

    def __new__(cls, x: float, g: float, h: float, residual: float):
        if not (x > 0 and g > 0 and h > 0):
            raise DomainError(f"curve point needs positive x, g, h; got {x}, {g}, {h}")
        if classify_domain(complex(g, -h)) is DomainTag.OUTSIDE_XI:
            raise DomainError(f"curve point left Xi: g*h = {g * h!r} > pi/2")
        return super().__new__(cls, x, g, h, residual)

    @classmethod
    def _make(cls, iterable):  # the inherited one skips __new__
        return cls(*iterable)

    @property
    def z(self) -> complex:
        return complex(self.g, -self.h)


LevelSetTrace = namedtuple("LevelSetTrace", "t branch points")
LevelSetTrace.__doc__ = """The part of the level arc ``Im f_tilde = t`` in one half of the box.

``branch`` is ``"right"`` (``Re z >= 0``) or ``"left"`` (``Re z <= 0``, the
mirror image); ``points`` is a tuple of complex numbers.
"""


# --------------------------------------------------------------------------
# confined damped Newton (curve points and the inverse transform)
# --------------------------------------------------------------------------

def _confined(z: complex) -> bool:
    """``z`` in ``Xi``; a non-finite Newton candidate counts as outside."""
    try:
        return classify_domain(z) is not DomainTag.OUTSIDE_XI
    except DomainError:
        return False


def _newton_confined(
    z: complex, w: complex, log: bool = False, F: complex | None = None
) -> tuple[complex, complex]:
    """Damped Newton for ``f_tilde(z) = w`` kept inside ``Xi``.

    The derivative is ``f_tilde' = F (z - F)`` exactly, courtesy of the
    quadratic ODE the transform satisfies, so an iterate costs one plain
    ``_f_eval`` call, in ``complex`` wherever ``|f_tilde|`` stays below
    1e150 (``ScaledComplex`` only beyond).  Steps that would leave the
    region or grow the residual are halved up to ``_NEWTON_MAX_HALVINGS``
    times.  The iteration polishes down to near machine precision but counts
    as converged once the residual contract (``_NEWTON_TOL * max(1, |w|)``)
    holds; exceeding ``_NEWTON_MAX_ITER`` raises ``NoConvergence`` with the
    last iterate attached.  Returns the root and ``f_tilde`` there.  ``F``,
    when given, is ``f_tilde(z)`` already in hand (``z`` is not evaluated).

    With ``log`` the residual is ``log f_tilde(z) - log w``, relative rather
    than absolute: below ``X_LO`` the absolute contract is met by a whole
    neighborhood (everything near the curve maps close to 0).  Once the
    residual meets its goal, one more step is taken and kept if it stays in
    ``Xi`` without growing the residual.  It carries the digits the goal
    cannot see: those of a height that falls like ``exp(-x^2/2)``, and
    those ``phi(w) = z - w`` cancels, about ``2 log10 |w|``.
    """
    scale = 1.0 if log else max(1.0, abs(w))
    goal = (1e-13 if log else 1e-14) * scale
    contract = _NEWTON_TOL * scale
    lw, unit = math.log(abs(w)), (w / abs(w)).conjugate()

    def residual(v: complex, F=None) -> tuple[complex, complex]:
        F = _f_eval(v) if F is None else F
        if type(F) is complex:
            r = complex(math.log(abs(F)) - lw, cmath.phase(F * unit)) if log else F - w
            return r, F
        Fc = complex(F)  # |F| past 1e150
        r = complex(F.log_abs() - lw, cmath.phase(F.mantissa * unit)) if log else Fc - w
        return r, Fc

    r, F = residual(z, F)
    iters = 0
    while True:
        dz = -r / (z - F) if log else -r / (F * (z - F))
        if abs(r) <= goal:
            if z + dz != z and _confined(z + dz):
                rc, Fc = residual(z + dz)
                if abs(rc) <= abs(r):
                    z, F = z + dz, Fc
            return z, F
        if iters >= _NEWTON_MAX_ITER:
            if abs(r) <= contract:
                return z, F
            raise NoConvergence(
                f"no convergence for w = {w} after {iters} iterations",
                last_iterate=z,
                residual=abs(r),
            )
        iters += 1
        accepted = False
        for m in range(_NEWTON_MAX_HALVINGS + 1):
            cand = z + dz * (0.5**m)
            if not _confined(cand):
                continue
            rc, Fc = residual(cand)
            if abs(rc) <= abs(r):
                z, r, F = cand, rc, Fc
                accepted = True
                break
        if not accepted or abs(dz) <= 1e-15 * (abs(z) + 1.0):
            if abs(r) <= contract:
                return z, F
            raise NoConvergence(
                f"Newton stalled at w = {w} with residual {abs(r):.3g}",
                last_iterate=z,
                residual=abs(r),
            )


# --------------------------------------------------------------------------
# the curve on one vertical
# --------------------------------------------------------------------------

def _vertical_root(a: float, y: float) -> float:
    """Root in ``y`` of ``arg g_tilde(a + i y)`` on ``(-pi/(2a), 0)``, Newton from ``y``.

    The curve crosses each vertical of lower ``Xi`` once, where ``g_tilde``
    is real and positive.  The derivative is exact,
    ``d/dy arg g_tilde = Re(F - z)``; near the axis ``g_tilde`` carries its
    imaginary part, at ``exp(-a^2/2)`` scale there, to full relative
    accuracy.  A step that would leave the strip is replaced by halving the
    distance to the end it crossed.  An iterate whose height is below the
    normal binary64 range is returned at once (``f_of`` refuses it): Newton
    cannot settle on a subnormal.  So is one whose step, already within
    1e-13 of ``|y|``, no longer shrinks: rounding can make Newton cycle
    between iterates a few ulps apart.
    """
    lim = -_HALF_PI / a
    dy_prev = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        F = complex(_f_eval(complex(a, y)))
        dy = cmath.phase(F) / (F.real - a)
        y_new = y + dy
        if not lim < y_new < 0.0:
            y_new = 0.5 * (y + (lim if y_new <= lim else 0.0))
        y = y_new
        if abs(dy) <= 1e-15 * abs(y) or -y < sys.float_info.min:
            return y
        if abs(dy) >= abs(dy_prev) and abs(dy) <= 1e-13 * abs(y):
            return y  # steps at rounding level stopped shrinking
        dy_prev = dy
    raise NoConvergence(
        f"no crossing of the curve found on Re z = {a}", last_iterate=complex(a, y)
    )


# --------------------------------------------------------------------------
# seeding and the public solver
# --------------------------------------------------------------------------

def _seed_zero(x: float) -> complex:
    return complex(eval_g_asym_zero(x), -eval_h_asym_zero(x))


@cache
def _bulk_skeleton() -> tuple[tuple[float, complex, complex], ...]:
    """Nodes ``(log x, H, dH/dlog x)`` on a log-uniform grid of ``[X_LO, X_HI]``.

    One continuation from the small-x closed form at ``X_LO``, each node
    seeded by an Euler step along the curve ODE ``dH/dlog x = 1/(H - x)``
    (from ``F' = F (z - F)`` and ``F(H(x)) = x``), which also gives the exact
    node slopes.  Built once, on the first bulk solve.
    """
    t_lo, t_hi = math.log(X_LO), math.log(X_HI)
    dt = (t_hi - t_lo) / (_SKELETON_NODES - 1)
    nodes = []
    seed = _seed_zero(X_LO)
    for k in range(_SKELETON_NODES):
        x = X_HI if k == _SKELETON_NODES - 1 else math.exp(t_lo + k * dt)
        z, _ = _newton_confined(seed, x)
        slope = 1.0 / (z - x)
        nodes.append((math.log(x), z, slope))
        seed = z + dt * slope
    return tuple(nodes)


def _skeleton_seed(x: float) -> complex:
    """Cubic Hermite interpolant of the skeleton in ``t = log x``."""
    nodes = _bulk_skeleton()
    t = math.log(x)
    k = (t - nodes[0][0]) / (nodes[-1][0] - nodes[0][0]) * (len(nodes) - 1)
    k = min(int(k), len(nodes) - 2)
    (t0, z0, s0), (t1, z1, s1) = nodes[k], nodes[k + 1]
    d = t1 - t0
    u = (t - t0) / d
    v = 1.0 - u
    return (
        (1.0 + 2.0 * u) * v * v * z0
        + u * v * v * d * s0
        + u * u * (3.0 - 2.0 * u) * z1
        - u * u * v * d * s1
    )


def solve_H(x: float) -> CurvePoint:
    """Solve ``f_tilde(g - i h) = x`` inside ``Xi``.

    Residual contract: ``|f_tilde(z) - x| <= 1e-10 * max(1, x)``.  Below
    ``X_ASYMPTOTIC`` the one confined Newton solves it; the regime picks the
    seed.  In the bulk it is the cubic Hermite interpolant of a cached set
    of curve points (``_bulk_skeleton``), so the result depends on ``x``
    alone.  At or below ``X_LO`` it is the small-x closed form, and the
    residual is relative.  On ``[X_HI, X_ASYMPTOTIC]`` it is the order-3
    large-x series; the relative residual converges, and one pass on the
    absolute one wins back digits of ``h`` the logarithm rounds away.  Above
    ``X_ASYMPTOTIC`` the large-x series of order ``_LARGE_X_ORDER`` is
    returned directly (residuals there sit below binary64 noise).  The
    curve height falls below the smallest normal binary64 number near
    ``x = 37.81`` (and underflows entirely near ``x = 38.5``); beyond that
    the height is only representable in scaled form (see
    ``eval_h_asym_infinity``) and this solver raises ``DomainError`` rather
    than return a subnormal with a few significant bits.
    """
    x = float(x)
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"the curve is parametrized by finite x > 0, got {x}")
    if x > X_ASYMPTOTIC:
        g = eval_g_asym_infinity(x, _LARGE_X_ORDER)
        h = eval_h_asym_infinity(x, _LARGE_X_ORDER).to_complex().real
        _require_normal(
            h, f"curve height at x = {x}",
            "; use eval_h_asym_infinity for a scaled value",
        )
        residual = abs(_f_eval(complex(g, -h)) - x)
        return CurvePoint(x=x, g=g, h=h, residual=residual)
    if x <= X_LO:
        z, F = _newton_confined(_seed_zero(x), x, log=True)
    elif x < X_HI:
        z, F = _newton_confined(_skeleton_seed(x), x)
    else:
        h = eval_h_asym_infinity(x, 3).to_complex().real
        z, F = _newton_confined(complex(eval_g_asym_infinity(x, 3), -h), x, log=True)
        z, F = _newton_confined(z, x, F=F)
    return CurvePoint(x=x, g=z.real, h=-z.imag, residual=abs(F - x))


def trace_p0(x_min: float, x_max: float, n: int) -> tuple[CurvePoint, ...]:
    """``solve_H`` on a log-uniform grid of ``n`` points from ``x_min`` to ``x_max``.

    Each point is a cold solve of its abscissa, so it equals ``solve_H``
    there bit for bit; a failed solve is re-raised naming its ``x``.
    Monotonicity of ``g`` (up) and ``h`` (down) is verified before
    returning.  ``DomainError`` for a non-finite or unordered range, a
    ratio ``x_max / x_min`` that overflows, or ``n`` not an integer >= 2.
    """
    if not (0 < x_min < x_max and math.isfinite(x_max)):
        raise DomainError(f"need finite 0 < x_min < x_max, got {x_min}, {x_max}")
    if not (isinstance(n, int) and n >= 2):
        raise DomainError(f"need an integer n >= 2 grid points, got {n!r}")
    ratio = x_max / x_min
    if math.isinf(ratio):
        raise DomainError(f"x_max / x_min overflows binary64 for {x_min}, {x_max}")
    grid = [x_min * ratio ** (k / (n - 1)) for k in range(n)]
    grid[-1] = x_max
    points = []
    for x in grid:
        try:
            points.append(solve_H(x))
        except FreeNormalError as exc:
            raise type(exc)(f"trace failed at x = {x}: {exc}") from exc
    for a, b in zip(points, points[1:]):
        if not (b.g > a.g and b.h < a.h):
            raise FreeNormalError(
                f"monotonicity violated between x = {a.x} and x = {b.x}: "
                f"g {a.g} -> {b.g}, h {a.h} -> {b.h}"
            )
    return tuple(points)


# --------------------------------------------------------------------------
# the boundary function f and Omega membership
# --------------------------------------------------------------------------

#: below this |x| the closed form -pi/(2x) is f to the last bit (its relative
#: error exp(-pi^2/(8 x^2)) is below 1e-290)
_F_CLOSED_FORM_BELOW = 0.043


def f_of(x: float) -> float:
    """The boundary function ``f(x) = -h(g^{-1}(|x|))``, even in ``x``.

    ``a + i f(a)`` with ``a = |x|`` is where the curve crosses the vertical
    ``Re z = a``, so ``f(a)`` is one root of ``arg g_tilde(a + i y)`` in
    ``y`` (see ``_vertical_root``).  Newton starts from the hyperbola end of
    the strip below ``a = 2``, where the curve hugs the hyperbola, and from
    the axis above it, where its first step is already the large-``a``
    height.

    For ``|x| < 0.043`` the closed form ``-pi/(2x)`` is returned, exact to
    the last bit.  ``DomainError`` is raised where that overflows (``|x|``
    below about 8.7e-309), and from about ``|x| = 37.84``, where the
    boundary height is no longer a normal binary64 number.
    """
    a = abs(float(x))
    if not math.isfinite(a):
        raise DomainError(f"f is defined on finite x, got {x}")
    if a == 0.0:
        raise DomainError("f is defined on nonzero x only")
    if a < _F_CLOSED_FORM_BELOW:
        return eval_f_asym_zero(a)
    y = _vertical_root(a, -_HALF_PI / a if a < 2.0 else 0.0)
    _require_normal(-y, f"f({x})", ": the boundary height is exp(-x^2/2)-small")
    return y


def in_omega(z: complex) -> bool:
    """Membership in ``Omega``, the maximal domain mapped onto ``C+``.

    True on the imaginary axis and in the closed upper half plane.  Below
    the axis ``Omega`` is the part of ``Xi`` above the curve, which is where
    ``Im g_tilde < 0``: on each vertical of lower ``Xi``, ``Im g_tilde`` is
    negative at the axis, vanishes on the curve and only there, and is
    positive toward the hyperbola.  That it changes sign once is a checked
    numerical fact (the tests sweep it), the same one ``ode._inner_root``
    relies on.  Below ``|Re z| = 0.043`` the curve is the hyperbola
    ``-pi/(2|Re z|)`` to the last bit (see ``f_of``), and membership is that
    comparison; it holds there also where ``g_tilde`` overflows.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Omega membership needs a finite point, got {z!r}")
    if z.real == 0.0 or z.imag >= 0.0:
        return True
    if classify_domain(z) is DomainTag.OUTSIDE_XI:
        return False
    a = abs(z.real)  # Im g_tilde is even in Re z
    if a < _F_CLOSED_FORM_BELOW:
        return z.imag > -_HALF_PI / a
    return g_tilde(complex(a, z.imag)).mantissa.imag < 0.0


# --------------------------------------------------------------------------
# level sets of Im f_tilde
# --------------------------------------------------------------------------

#: steps per level arc before ``trace_level_set`` gives up (about 1 s); the
#: deepest arc in a test, (-3.2, 3.2, -40, 2.2) at step 0.5, takes 297, and
#: the default box at step 0.001 about 3,500
_LEVEL_MAX_STEPS = 20_000


def trace_level_set(
    t: float,
    bbox: tuple[float, float, float, float],
    step: float,
) -> list[LevelSetTrace]:
    """Trace the level ``Im f_tilde = t`` of ``Omega`` inside ``bbox``.

    ``bbox = (re_min, re_max, im_min, im_max)``.  ``f_tilde`` maps
    ``Omega`` one-to-one onto ``C+``, so for ``t > 0`` the level is the
    single arc ``z(s) = f_tilde^{-1}(s + i t)``, and ``f_tilde(-conj z) =
    -conj f_tilde(z)`` makes it symmetric about the imaginary axis, which
    it crosses at ``s = 0``.  The ``"right"`` trace follows it for
    ``s >= 0`` from that crossing; the ``"left"`` trace is its mirror image
    ``-conj z``, so each label is a half plane.  ``t = 0`` is the boundary
    curve: ``p0+`` (``"right"``, ``s > 0``) traced from just below the box,
    and its mirror ``p0-``.

    Each step moves ``s`` by ``step * |f_tilde'(z)|``, with the exact
    ``f_tilde' = F (z - F)``, so consecutive points lie about ``step``
    apart; the tangent predictor is corrected by warm-started confined
    Newton on the relative residual.  A trace ends where the arc leaves the
    box, or after ``_LEVEL_MAX_STEPS`` steps.

    Raises
    ------
    DomainError
        For a negative or non-finite ``t``, a non-finite or non-positive
        ``step``, or a ``bbox`` that is not four finite, ordered bounds.
    SeedNotFound
        If the arc misses the box.
    NoConvergence
        If the arc takes more than ``_LEVEL_MAX_STEPS`` steps, as a step too
        small to move ``s`` does.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"level sets are defined for finite t >= 0, got {t}")
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"need a finite step > 0, got {step}")
    if len(bbox) != 4:
        raise DomainError(f"bbox needs 4 entries, got {bbox!r}")
    if not all(math.isfinite(v) for v in bbox):
        raise DomainError(f"bbox needs finite bounds, got {bbox}")
    x0, x1, y0, y1 = bbox
    if not (x0 < x1 and y0 < y1):
        raise DomainError(f"degenerate bbox {bbox}")

    # the box and its mirror image, folded onto Re z >= 0
    lo, hi = max(0.0, x0, -x1), max(x1, -x0)
    if t > 0.0:
        # F(iy) = i/rho(y): seed with the larger of the root of rho(y) ~ 1/y
        # (high levels) and of rho(y) ~ sqrt(2 pi) exp(y^2/2) (low levels)
        y = max(t - 1.0 / t, -math.sqrt(2.0 * math.log1p(1.0 / (t * _SQRT_TWO_PI))))
        s = 0.0
        z, F = _newton_confined(complex(0.0, y), complex(0.0, t), log=True)
        z = complex(0.0, z.imag)
    else:
        # start on p0+ below the box: the parameter whose zero-regime height
        # sqrt(S + L) is depth, capped at X_LO where that closed form holds
        depth = max(-y0, 1.0) + step
        L = 0.5 * (depth * depth - (_HALF_PI / depth) ** 2)
        s = min(X_LO, max(math.exp(-L) / _SQRT_TWO_PI, sys.float_info.min))
        z, F = solve_H(s).z, complex(s)
    arc: list[complex] = []
    for _ in range(_LEVEL_MAX_STEPS):
        if lo <= z.real <= hi and y0 <= z.imag <= y1:
            arc.append(z)
        elif arc or z.real > hi:
            break
        d = F * (z - F)
        ds = step * abs(d)
        s += ds
        z, F = _newton_confined(z + ds / d, complex(s, t), log=True)
    else:
        raise NoConvergence(
            f"the level Im f_tilde = {t} takes more than {_LEVEL_MAX_STEPS} "
            f"steps of {step} through the bbox {bbox}; take a larger step",
            last_iterate=z,
        )

    right = tuple(z for z in arc if x0 <= z.real <= x1)
    # 0.0 - re keeps the axis point at +0
    left = tuple(complex(0.0 - z.real, z.imag) for z in arc if x0 <= -z.real <= x1)
    traces = [
        LevelSetTrace(t=t, branch=branch, points=points)
        for branch, points in (("right", right), ("left", left))
        if points
    ]
    if not traces:
        raise SeedNotFound(f"the level Im f_tilde = {t} misses the bbox {bbox}")
    return traces
