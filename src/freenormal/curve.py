"""Boundary-curve solver: the preimage of the positive reals under ``f_tilde``.

For each ``x > 0`` there is exactly one point ``H(x) = g(x) - i h(x)`` with
``g, h > 0`` and ``g h < pi/2`` (inside ``Xi``) satisfying
``f_tilde(H(x)) = x``.  The family sweeps out the curve ``p0+``; together
with its mirror image ``p0-`` it bounds the domain

    Omega = { x + i y : x != 0, y > f(x) }  union  iR,
    f(x)  = -h(g^{-1}(|x|)),

on which ``f_tilde`` is an analytic bijection onto the upper half plane.

The solver is a damped Newton iteration on ``f_tilde(z) - x`` confined to
``Xi`` (the certified pole-free region).  Up to ``X_JET`` it starts from
the nearest node of a table of jets, the 16-term Taylor series of ``g`` and
``log h`` in ``log x`` read off the curve ODE ``dH/dlog x = 1/(H - x)``;
each serves within 0.085 of its radius of convergence, so the seed is exact
to about an ulp and one evaluation usually ends the solve.  Above ``X_JET``
the large-x series seeds it.  The residual is relative at or below ``X_LO``
and absolute above it, where the height falls like ``exp(-x^2/2)``; the
transform carries that scale to full relative accuracy (its near-axis
Dawson split), so one pass settles ``h`` as well.  A last step of a few
ulps on the absolute residual, its rounding noise, is not evaluated.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect
from collections import namedtuple
from functools import cache

from .errors import DomainError, FreeNormalError, NoConvergence
from .series import (
    _jet_seed,
    _jet_walk,
    eval_f_asym_zero,
    eval_g_asym_infinity,
    eval_g_asym_zero,
    eval_h_asym_infinity,
    eval_h_asym_zero,
)
from .transforms import _XI_EDGE, _f_eval, _require_normal, g_tilde

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

#: the solver's crossovers: its residual is logarithmic at or below ``X_LO``,
#: absolute above; the jet table seeds it up to ``X_JET``, the large-x series
#: past it, and beyond ``X_ASYMPTOTIC`` that series is the answer
X_LO = 0.05
X_JET = 8.0
X_ASYMPTOTIC = 30.0

#: order of the large-x series above ``X_JET``
_LARGE_X_ORDER = 6
#: residual contract of a curve solve, relative to ``max(1, |w|)``
_NEWTON_TOL = 1e-10
#: Newton steps, the last one included, before the residual contract decides
_NEWTON_MAX_ITER = 60
#: halvings of a step that leaves ``Xi`` or grows the residual
_NEWTON_MAX_HALVINGS = 8


class CurvePoint(namedtuple("CurvePoint", "x g h residual")):
    """One solved point ``H(x) = g - i h`` of the boundary curve; read-only.

    Every way of building one (the constructor, ``_make``, ``_replace``,
    pickle and copy) checks that it lies inside ``Xi``, its 4-ulp boundary
    band included.
    """

    __slots__ = ()

    def __new__(cls, x: float, g: float, h: float, residual: float):
        if not (x > 0 and g > 0 and h > 0):
            raise DomainError(f"curve point needs positive x, g, h; got {x}, {g}, {h}")
        if not g * h <= _XI_EDGE:
            raise DomainError(f"curve point left Xi: g*h = {g * h!r} > pi/2")
        return tuple.__new__(cls, (x, g, h, residual))

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
    """``z`` in ``Xi`` (``classify_domain`` not ``OUTSIDE_XI``); a non-finite
    Newton candidate counts as outside, told from an overflowed product."""
    p = abs(z.real) * -z.imag
    return p <= _XI_EDGE and (p > -math.inf or cmath.isfinite(z))


def _below(dz: complex, z: complex, frac: float) -> bool:
    """Each component of ``dz`` is at most ``frac`` of that of ``z``."""
    return abs(dz.real) <= frac * abs(z.real) and abs(dz.imag) <= frac * abs(z.imag)


def _newton_confined(z: complex, w: complex, log: bool = False) -> tuple[complex, complex]:
    """Damped Newton for ``f_tilde(z) = w`` kept inside ``Xi``.

    The derivative is ``f_tilde' = F (z - F)`` exactly, courtesy of the
    quadratic ODE the transform satisfies, so an iterate costs one plain
    ``_f_eval`` call, in ``complex`` wherever ``|f_tilde|`` stays below
    1e150 (``ScaledComplex`` only beyond).  Steps that would leave the
    region or grow the residual are halved up to ``_NEWTON_MAX_HALVINGS``
    times.  The loop stops after ``_NEWTON_MAX_ITER`` steps, when no step is
    kept or one falls below 1e-15 of ``|z| + 1``, or after its last step
    (below).  Its one exit returns the root and ``f_tilde`` there if the
    residual contract (``_NEWTON_TOL * max(1, |w|)``) holds, and otherwise
    raises ``NoConvergence`` with the last iterate and its residual.

    With ``log`` the residual is ``log f_tilde(z) - log w``, relative
    rather than absolute: at or below ``X_LO`` the absolute contract is met
    by a whole neighborhood (everything near the curve maps close to 0).
    The last step, taken once the residual meets its goal, is not halved.
    It carries the digits the goal cannot see: those of a height that falls
    like ``exp(-x^2/2)``, and those ``phi(w) = z - w`` cancels, about
    ``2 log10 |w|``.  Below 2**-52 of each component of ``z`` it is taken
    unchecked (the ``f_tilde`` returned is then that of ``z`` an ulp
    before).  Otherwise it is skipped after a step below 1e-8 of each
    (quadratic convergence leaves it nothing), and on the absolute residual
    also when below 2**-50 of each: a step of a few ulps there is the
    rounding noise of ``F - w``, so ``z`` and ``F`` stay as evaluated.
    """
    scale = 1.0 if log else max(1.0, abs(w))
    goal = (1e-13 if log else 1e-14) * scale
    if log:
        lw, unit = math.log(abs(w)), (w / abs(w)).conjugate()

    def residual(v: complex) -> tuple[complex, complex]:
        F = _f_eval(v)
        if type(F) is complex:
            r = complex(math.log(abs(F)) - lw, cmath.phase(F * unit)) if log else F - w
            return r, F
        Fc = complex(F)  # |F| past 1e150
        r = complex(F.log_abs() - lw, cmath.phase(F.mantissa * unit)) if log else Fc - w
        return r, Fc

    r, F = residual(z)
    settled = False  # the last kept step was below 1e-8 of z, componentwise
    for _ in range(_NEWTON_MAX_ITER):
        slope = z - F if log else F * (z - F)
        if slope == 0:  # F rounds to z, from |z| about 1e8 (F = z - 1/z + ...)
            raise NoConvergence(f"f_tilde' rounds to 0 at z = {z!r}", last_iterate=z)
        dz = -r / slope
        last = abs(r) <= goal
        if last and _below(dz, z, 2.0**-52):
            z += dz  # unchecked: F stays that of z an ulp before
            break
        if last and (settled or not log and _below(dz, z, 2.0**-50)):
            break  # z and F stay as evaluated
        for m in range(1 if last else _NEWTON_MAX_HALVINGS + 1):
            cand = z + dz * (0.5**m)
            if _confined(cand):
                rc, Fc = residual(cand)
                if abs(rc) <= abs(r):
                    settled = _below(cand - z, z, 1e-8)
                    z, r, F = cand, rc, Fc
                    break
        else:
            break  # no step kept
        if last or abs(dz) <= 1e-15 * (abs(z) + 1.0):
            break
    if abs(r) > _NEWTON_TOL * scale:
        raise NoConvergence(f"Newton stopped at w = {w} with residual {abs(r):.3g}",
                            last_iterate=z, residual=abs(r))
    return z, F


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

@cache
def _jet_table(end: float) -> tuple[list[float], list[tuple]]:
    """The nodes from ``X_LO`` to ``end`` in increasing ``x``, and their ``log x`` midpoints.

    Built on the first solve on that side of ``X_LO`` (``end`` is ``X_JET``
    or ``sys.float_info.min``) by the jet walk of :mod:`freenormal.series`,
    out from the Newton solution at ``X_LO``, so each half is the same
    whichever solve builds it.  Each node past the first is corrected by
    one Newton step on ``log f_tilde``.
    """
    def newton_step(x: float, z: complex) -> complex:
        F = complex(_f_eval(z))
        return z - cmath.log(F / x) / (z - F)

    z = complex(eval_g_asym_zero(X_LO), -eval_h_asym_zero(X_LO))
    z = _newton_confined(z, X_LO, log=True)[0]
    nodes = sorted(_jet_walk(X_LO, z, end, newton_step))
    ts = [math.log(node[0]) for node in nodes]
    return [0.5 * (a + b) for a, b in zip(ts, ts[1:])], nodes


#: relative error of the height ``_table_H`` returns: dense scans against
#: ``solve_H`` and the 40-digit root put it at 7e-15 up to 3.5 and at 1.5e-13
#: on ``[3.5, X_JET]`` (at 6.37), where ``h`` is below 1e-3
_TABLE_H_REL_ERR = 2e-13


def _table_H(x: float) -> complex:
    """``H(x)`` for ``0 < x <= X_JET`` from the jet of the nearest node of ``_jet_table``.

    No transform evaluation once that half of the table is built; the
    height is good to ``_TABLE_H_REL_ERR`` relative.
    """
    mids, nodes = _jet_table(X_JET if x > X_LO else sys.float_info.min)
    return _jet_seed(nodes[bisect(mids, math.log(x))], x)


def solve_H(x: float) -> CurvePoint:
    """Solve ``f_tilde(g - i h) = x`` inside ``Xi``.

    Residual contract: ``|f_tilde(z) - x| <= 1e-10 * max(1, x)``.  Below
    ``X_ASYMPTOTIC`` the one confined Newton solves it.  Up to ``X_JET`` it
    starts from the jet of the nearest node of a cached table
    (``_jet_table``), exact to about an ulp, so one evaluation usually ends
    it; above, from the large-x series of order ``_LARGE_X_ORDER``, which
    past ``X_ASYMPTOTIC`` is returned directly (residuals there sit below
    binary64 noise).  It is one pass on the relative residual at or below
    ``X_LO``, and one on the absolute residual above it.  The height falls
    below the smallest normal binary64 number near ``x = 37.81`` (and
    underflows entirely near ``x = 38.5``); beyond that it is only
    representable in scaled form (see ``eval_h_asym_infinity``), and this
    solver raises ``DomainError`` rather than return a subnormal.
    """
    x = float(x)
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"the curve is parametrized by finite x > 0, got {x}")
    if x <= X_JET:
        z = _table_H(x)
    else:
        g = eval_g_asym_infinity(x, _LARGE_X_ORDER)
        h = eval_h_asym_infinity(x, _LARGE_X_ORDER).to_complex().real
        if x > X_ASYMPTOTIC:
            _require_normal(h, "curve height at x = {}", x,
                            "; use eval_h_asym_infinity for a scaled value")
            return CurvePoint(x, g, h, abs(_f_eval(complex(g, -h)) - x))
        z = complex(g, -h)
    z, F = _newton_confined(z, x, x <= X_LO)
    return CurvePoint(x, z.real, -z.imag, abs(F - x))


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
            exc.args = (f"trace failed at x = {x}: {exc}", *exc.args[1:])
            raise
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
    # past 40 the height, below exp(-x^2/2), is 0; past 1e8 the slope -1/x rounds away
    y = 0.0 if a >= 40.0 else _vertical_root(a, -_HALF_PI / a if a < 2.0 else 0.0)
    _require_normal(-y, "f({})", x, ": the boundary height is exp(-x^2/2)-small")
    return y


def in_omega(z: complex) -> bool:
    """Membership in ``Omega``, the maximal domain mapped onto ``C+``.

    True on the imaginary axis and in the closed upper half plane.  Below
    the axis ``Omega`` is the part of ``Xi`` above the curve, which is where
    ``Im g_tilde < 0``: on each vertical of lower ``Xi``, ``Im g_tilde`` is
    negative at the axis, vanishes on the curve and only there, and is
    positive toward the hyperbola.  That it changes sign once is a checked
    numerical fact (the tests sweep it), the same one ``ode._inner_root``
    and ``levy.voiculescu`` rely on: ``Im f_tilde > 0`` in lower ``Xi`` only
    above the curve, so a root in ``Xi`` of ``f_tilde(z) = w`` with ``Im w >
    0`` lies in ``Omega``.  Below ``|Re z| = 0.043`` the curve is the hyperbola
    ``-pi/(2|Re z|)`` to the last bit (see ``f_of``), and membership is that
    comparison; it holds there also where ``g_tilde`` overflows.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Omega membership needs a finite point, got {z!r}")
    if z.real == 0.0 or z.imag >= 0.0:
        return True
    a = abs(z.real)  # Im g_tilde is even in Re z
    if a * -z.imag > _XI_EDGE:
        return False
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
        ``step``, a ``bbox`` that is not four finite, ordered bounds, or a
        level whose arc misses the box.
    NoConvergence
        If the arc takes more than ``_LEVEL_MAX_STEPS`` steps, as a step too
        small to move ``s`` does, or a Newton correction fails.
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
        raise DomainError(f"the level Im f_tilde = {t} misses the bbox {bbox}")
    return traces
