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
closed-form small-x asymptotics below ``x_lo``, large-x series above
``x_hi``, and between them skeleton-seeded Newton with a polish step: a
cubic Hermite interpolant in ``log x`` of a cached set of curve points, with
the exact slopes ``dH/dlog x = 1/(H - x)`` of the curve ODE.  Above
``x_hi`` direct complex Newton loses the imaginary part to cancellation
(``h(6) ~ 2e-7`` against ``g ~ 6``), so the solve switches to an alternating
pair of real 1-D Newton iterations on the split form of the transform, where
the exponential term carrying the tiny imaginary scale is explicit.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, FreeNormalError, NoConvergence, SeedNotFound
from .scaled import ScaledComplex
from .series import (
    AsymptoticRegime,
    eval_g_asym_infinity,
    eval_g_asym_zero,
    eval_h_asym_infinity,
    eval_h_asym_zero,
)
from .transforms import (
    DomainTag,
    _g_tilde_near_axis_parts,
    classify_domain,
    f_tilde,
    g_tilde,
)

__all__ = [
    "CurvePoint",
    "CurveTrace",
    "LevelSetTrace",
    "solve_H",
    "trace_p0",
    "f_of",
    "in_omega",
    "trace_level_set",
]

_HALF_PI = 0.5 * math.pi
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: order of the large-x series returned above ``x_asymptotic``
_LARGE_X_ORDER = 6

#: nodes of the bulk skeleton that seeds every solve in ``(x_lo, x_hi)``
_SKELETON_NODES = 24


@dataclass(frozen=True)
class CurvePoint:
    """One solved point ``H(x) = g - i h`` of the boundary curve."""

    x: float
    g: float
    h: float
    residual: float
    regime: AsymptoticRegime = AsymptoticRegime.BULK

    def __post_init__(self) -> None:
        if not (self.x > 0 and self.g > 0 and self.h > 0):
            raise DomainError(
                f"curve point needs positive x, g, h; got {self.x}, {self.g}, {self.h}"
            )
        if classify_domain(self.z) is DomainTag.OUTSIDE_XI:
            raise DomainError(
                f"curve point left Xi: g*h = {self.g * self.h!r} > pi/2"
            )

    @property
    def z(self) -> complex:
        return complex(self.g, -self.h)


@dataclass(frozen=True)
class CurveTrace:
    """Ordered solved points with strictly increasing x, plus solver counters."""

    points: tuple[CurvePoint, ...]
    solver_stats: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class LevelSetTrace:
    """The part of the level arc ``Im f_tilde = t`` in one half of the box."""

    t: float
    branch: str  # "right" (Re z >= 0) | "left" (Re z <= 0, the mirror image)
    points: tuple[complex, ...]


# --------------------------------------------------------------------------
# confined damped Newton (curve points and the inverse transform)
# --------------------------------------------------------------------------

def _confined(z: complex, config: EvalConfig) -> bool:
    return classify_domain(z, config) is not DomainTag.OUTSIDE_XI


def _newton_confined(
    z: complex, w: complex, config: EvalConfig, log: bool = False
) -> tuple[complex, complex, int]:
    """Damped Newton for ``f_tilde(z) = w`` kept inside ``Xi``.

    The derivative is ``f_tilde' = F (z - F)`` exactly, courtesy of the
    quadratic ODE the transform satisfies, so an iterate costs one
    ``f_tilde`` call.  Steps that would leave the region or grow the
    residual are halved up to ``newton_max_halvings`` times.  The iteration
    polishes down to near machine precision but counts as converged once
    the residual contract (``newton_tol * max(1, |w|)``) holds; exceeding
    ``newton_max_iter`` raises ``NoConvergence`` with the last iterate
    attached.  Returns the root, ``f_tilde`` there and the iteration count.

    With ``log`` the residual is ``log f_tilde(z) - log w``, relative rather
    than absolute: below ``x_lo`` the absolute contract is met by a whole
    neighborhood (everything near the curve maps close to 0).  Once the
    residual meets its goal, one more step is taken and kept if it stays in
    ``Xi`` without growing the residual.  It carries the digits the goal
    cannot see: those of a height that falls like ``exp(-x^2/2)``, and
    those ``phi(w) = z - w`` cancels, about ``2 log10 |w|``.
    """
    scale = 1.0 if log else max(1.0, abs(w))
    goal = (1e-13 if log else 1e-14) * scale
    contract = config.newton_tol * scale
    lw, unit = math.log(abs(w)), (w / abs(w)).conjugate()

    def residual(v: complex) -> tuple[complex, complex]:
        ft = f_tilde(v, config)
        F = complex(ft)
        if log:
            return complex(ft.log_abs() - lw, cmath.phase(ft.mantissa * unit)), F
        return F - w, F

    r, F = residual(z)
    iters = 0
    while True:
        dz = -r / (z - F) if log else -r / (F * (z - F))
        if abs(r) <= goal:
            if _confined(z + dz, config):
                rc, Fc = residual(z + dz)
                if abs(rc) <= abs(r):
                    z, F = z + dz, Fc
            return z, F, iters
        if iters >= config.newton_max_iter:
            if abs(r) <= contract:
                return z, F, iters
            raise NoConvergence(
                f"no convergence for w = {w} after {iters} iterations",
                last_iterate=z,
                residual=abs(r),
            )
        iters += 1
        accepted = False
        for m in range(config.newton_max_halvings + 1):
            cand = z + dz * (0.5**m)
            if not _confined(cand, config):
                continue
            rc, Fc = residual(cand)
            if abs(rc) <= abs(r):
                z, r, F = cand, rc, Fc
                accepted = True
                break
        if not accepted or abs(dz) <= 1e-15 * (abs(z) + 1.0):
            if abs(r) <= contract:
                return z, F, iters
            raise NoConvergence(
                f"Newton stalled at w = {w} with residual {abs(r):.3g}",
                last_iterate=z,
                residual=abs(r),
            )


# --------------------------------------------------------------------------
# the curve on one vertical, and the split solver for large x
# --------------------------------------------------------------------------

#: within this depth below the axis the split evaluation serves the vertical
#: solves and Omega membership; plain evaluation loses the sign of Im g_tilde
#: there from about |Re z| = 4
_NEAR_AXIS = 0.5


def _vertical_root(a: float, y: float, config: EvalConfig) -> float:
    """Root in ``y`` of ``arg g_tilde(a + i y)`` on ``(-pi/(2a), 0)``, Newton from ``y``.

    The curve crosses each vertical of lower ``Xi`` once, where ``g_tilde``
    is real and positive.  The derivative is exact,
    ``d/dy arg g_tilde = Re(F - z)``.  Within ``_NEAR_AXIS`` of the axis the
    step is the equivalent ``Im`` form ``-Im g / Re(1 - z g)`` on the split
    evaluation, which keeps the ``exp(-a^2/2)`` scale of the root exact;
    deeper down, where ``|z|`` passes 30 for small ``a``, the phase form on
    the scaled evaluation.  A step that would leave the strip is replaced by
    halving the distance to the end it crossed.  An iterate whose height is
    below the normal binary64 range is returned at once (``f_of`` refuses
    it): Newton cannot settle on a subnormal.
    """
    lim = -_HALF_PI / a
    for _ in range(config.newton_max_iter):
        if y >= -_NEAR_AXIS:
            re, im = _g_tilde_near_axis_parts(a, y, config)
            dy = -im / (1.0 - (a * re - y * im))
        else:
            g = g_tilde(complex(a, y), config)
            dy = -g.arg() / (complex(g.reciprocal()).real - a)
        y_new = y + dy
        if not lim < y_new < 0.0:
            y_new = 0.5 * (y + (lim if y_new <= lim else 0.0))
        y = y_new
        if abs(dy) <= 1e-15 * abs(y) or -y < sys.float_info.min:
            return y
    raise NoConvergence(
        f"no crossing of the curve found on Re z = {a}", last_iterate=complex(a, y)
    )


def _solve_split(x: float, config: EvalConfig) -> tuple[float, float, float, int]:
    """Solve at ``x >= x_hi`` by alternating 1-D Newton pairs.

    Coordinates ``z = u + i y`` with ``y < 0``.  The inner solve finds the
    root of ``Im g_tilde(u + i y)`` in ``y`` (equivalent to ``Im f_tilde = 0``
    since the transform and its reciprocal vanish together in the imaginary
    part); the outer solve matches ``Re f_tilde = x`` in ``u``.  Both parts
    come from the near-axis split evaluation, which keeps the ``exp(-x^2/2)``
    imaginary scale exact instead of buried under the real part's roundoff.
    """
    u = eval_g_asym_infinity(x, 3)
    y = -float(eval_h_asym_infinity(x, 3).to_complex().real)
    iters = 0
    re = im = 0.0
    for _ in range(40):
        iters += 1
        y = _vertical_root(u, y, config)
        re, im = _g_tilde_near_axis_parts(u, y, config)
        # outer: one Newton step of Re g_tilde(u) = 1/x
        d = 1.0 - (u * re - y * im)
        du = -(re - 1.0 / x) / d
        u += du
        if abs(du) <= 1e-15 * abs(u):
            break
    re, im = _g_tilde_near_axis_parts(u, y, config)
    denom = re * re + im * im
    f_val = complex(re / denom, -im / denom)
    residual = abs(f_val - x)
    return u, -y, residual, iters


# --------------------------------------------------------------------------
# seeding and the public solver
# --------------------------------------------------------------------------

def _seed_zero(x: float) -> complex:
    return complex(eval_g_asym_zero(x), -eval_h_asym_zero(x))


@lru_cache(maxsize=8)
def _bulk_skeleton(config: EvalConfig) -> tuple[tuple[float, complex, complex], ...]:
    """Nodes ``(log x, H, dH/dlog x)`` on a log-uniform grid of ``[x_lo, x_hi]``.

    One continuation from the small-x closed form at ``x_lo``, each node
    seeded by an Euler step along the curve ODE ``dH/dlog x = 1/(H - x)``
    (from ``F' = F (z - F)`` and ``F(H(x)) = x``), which also gives the exact
    node slopes.  Built on the first bulk solve of a configuration; the
    nodes depend on nothing but the configuration.
    """
    t_lo, t_hi = math.log(config.x_lo), math.log(config.x_hi)
    dt = (t_hi - t_lo) / (_SKELETON_NODES - 1)
    nodes = []
    seed = _seed_zero(config.x_lo)
    for k in range(_SKELETON_NODES):
        x = config.x_hi if k == _SKELETON_NODES - 1 else math.exp(t_lo + k * dt)
        z, _, _ = _newton_confined(seed, x, config)
        slope = 1.0 / (z - x)
        nodes.append((math.log(x), z, slope))
        seed = z + dt * slope
    return tuple(nodes)


def _skeleton_seed(x: float, config: EvalConfig) -> complex:
    """Cubic Hermite interpolant of the skeleton in ``t = log x``."""
    nodes = _bulk_skeleton(config)
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


def solve_H(x: float, config: EvalConfig = DEFAULT_CONFIG) -> CurvePoint:
    """Solve ``f_tilde(g - i h) = x`` inside ``Xi``.

    Residual contract: ``|f_tilde(z) - x| <= 1e-10 * max(1, x)``.  Between
    ``x_lo`` and ``x_hi`` the solve is skeleton-seeded Newton with a polish
    step: the seed is the cubic Hermite interpolant of a cached set of curve
    points (see ``_bulk_skeleton``), so the result depends on ``x`` and
    ``config`` alone.  Above ``config.x_asymptotic`` the large-x series of
    order ``_LARGE_X_ORDER`` is returned directly, tagged ``NearInfinity``
    (residuals there sit below binary64 noise).  The curve height falls
    below the smallest normal binary64 number near ``x = 37.81`` (and
    underflows entirely near ``x = 38.5``); beyond that the height is only
    representable in scaled form (see ``eval_h_asym_infinity``) and this
    solver raises ``DomainError`` rather than return a subnormal with a few
    significant bits.
    """
    x = float(x)
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"the curve is parametrized by finite x > 0, got {x}")
    if x >= config.x_hi:
        if x > config.x_asymptotic:
            g = eval_g_asym_infinity(x, _LARGE_X_ORDER)
            h_sc = eval_h_asym_infinity(x, _LARGE_X_ORDER)
            h = float(h_sc.to_complex().real) if h_sc.log_abs() > -740 else 0.0
            if h < sys.float_info.min:
                raise DomainError(
                    f"curve height at x = {x} is not a normal binary64 number; "
                    "use eval_h_asym_infinity for a scaled value"
                )
            re, im = _g_tilde_near_axis_parts(g, -h, config)
            denom = re * re + im * im
            residual = abs(complex(re / denom, -im / denom) - x)
            return CurvePoint(
                x=x, g=g, h=h, residual=residual,
                regime=AsymptoticRegime.NEAR_INFINITY,
            )
        g, h, residual, _ = _solve_split(x, config)
        if residual > config.newton_tol * max(1.0, x):
            raise NoConvergence(
                f"split solve stalled at x = {x}",
                last_iterate=complex(g, -h),
                residual=residual,
            )
        return CurvePoint(x=x, g=g, h=h, residual=residual)
    if x <= config.x_lo:
        z, F, _ = _newton_confined(_seed_zero(x), x, config, log=True)
        return CurvePoint(
            x=x, g=z.real, h=-z.imag, residual=abs(F - x),
            regime=AsymptoticRegime.NEAR_ZERO,
        )
    z, F, _ = _newton_confined(_skeleton_seed(x, config), x, config)
    return CurvePoint(x=x, g=z.real, h=-z.imag, residual=abs(F - x))


def trace_p0(
    x_min: float, x_max: float, n: int, config: EvalConfig = DEFAULT_CONFIG
) -> CurveTrace:
    """Solve the curve on a log-uniform grid of ``n`` points.

    Continuation runs outward from the best-conditioned grid point (nearest
    ``x = 2``): descending to ``x_min`` first, then ascending to ``x_max``,
    reusing each solution as the next seed.  Monotonicity of ``g`` (up) and
    ``h`` (down) is verified before returning.
    """
    if not (0 < x_min < x_max):
        raise DomainError(f"need 0 < x_min < x_max, got {x_min}, {x_max}")
    if n < 2:
        raise DomainError(f"need n >= 2 grid points, got {n}")
    grid = [
        x_min * (x_max / x_min) ** (k / (n - 1)) for k in range(n)
    ]
    grid[-1] = x_max
    anchor_idx = min(range(n), key=lambda k: abs(math.log(grid[k] / 2.0)))
    points: dict[int, CurvePoint] = {}
    stats = {"newton_iterations": 0, "max_iterations_per_point": 0, "points": n}

    def solve_at(idx: int, seed: complex | None) -> CurvePoint:
        x = grid[idx]
        try:
            if seed is None or not (config.x_lo < x < config.x_hi):
                pt = solve_H(x, config)
            else:
                z, F, it = _newton_confined(seed, x, config)
                pt = CurvePoint(x=x, g=z.real, h=-z.imag, residual=abs(F - x))
                stats["newton_iterations"] += it
                stats["max_iterations_per_point"] = max(
                    stats["max_iterations_per_point"], it
                )
        except FreeNormalError as exc:
            raise type(exc)(f"trace failed at x = {x}: {exc}") from exc
        points[idx] = pt
        return pt

    pt = solve_at(anchor_idx, None)
    seed = pt.z
    for idx in range(anchor_idx - 1, -1, -1):
        seed = solve_at(idx, seed).z
    seed = points[anchor_idx].z
    for idx in range(anchor_idx + 1, n):
        seed = solve_at(idx, seed).z

    ordered = tuple(points[k] for k in range(n))
    for a, b in zip(ordered, ordered[1:]):
        if not (b.g > a.g and b.h < a.h):
            raise FreeNormalError(
                f"monotonicity violated between x = {a.x} and x = {b.x}: "
                f"g {a.g} -> {b.g}, h {a.h} -> {b.h}"
            )
    return CurveTrace(points=ordered, solver_stats=stats)


# --------------------------------------------------------------------------
# the boundary function f and Omega membership
# --------------------------------------------------------------------------

#: below this |x| the closed form -pi/(2x) is f to the last bit (its relative
#: error exp(-pi^2/(8 x^2)) is below 1e-290)
_F_CLOSED_FORM_BELOW = 0.043


def f_of(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
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
        f = -_HALF_PI / a
        if math.isinf(f):
            raise DomainError(f"f({x}) = -pi/(2x) overflows binary64")
        return f
    y = _vertical_root(a, -_HALF_PI / a if a < 2.0 else 0.0, config)
    if not -y >= sys.float_info.min:
        raise DomainError(
            f"f({x}) is not a normal binary64 number: the boundary height "
            "is exp(-x^2/2)-small"
        )
    return y


def in_omega(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> bool:
    """Membership in ``Omega``, the maximal domain mapped onto ``C+``.

    True on the imaginary axis and in the closed upper half plane.  Below
    the axis ``Omega`` is the part of ``Xi`` above the curve, which is where
    ``Im g_tilde < 0``: on each vertical of lower ``Xi``, ``Im g_tilde`` is
    negative at the axis, vanishes on the curve and only there, and is
    positive toward the hyperbola.  That it changes sign once is a checked
    numerical fact (the tests sweep it), the same one ``ode._inner_root``
    relies on.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Omega membership needs a finite point, got {z!r}")
    if z.real == 0.0 or z.imag >= 0.0:
        return True
    if classify_domain(z, config) is DomainTag.OUTSIDE_XI:
        return False
    # Im g_tilde is even in Re z
    a, y = abs(z.real), z.imag
    if y >= -_NEAR_AXIS:
        return _g_tilde_near_axis_parts(a, y, config)[1] < 0.0
    return g_tilde(complex(a, y), config).mantissa.imag < 0.0


# --------------------------------------------------------------------------
# level sets of Im f_tilde
# --------------------------------------------------------------------------

def trace_level_set(
    t: float,
    bbox: tuple[float, float, float, float],
    step: float,
    config: EvalConfig = DEFAULT_CONFIG,
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
    box.

    Raises
    ------
    DomainError
        For a negative or non-finite ``t``, a non-finite or non-positive
        ``step``, or a non-finite or degenerate ``bbox``.
    SeedNotFound
        If the arc misses the box.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"level sets are defined for finite t >= 0, got {t}")
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"need a finite step > 0, got {step}")
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
        z, F, _ = _newton_confined(complex(0.0, y), complex(0.0, t), config, log=True)
        z = complex(0.0, z.imag)
    else:
        # start on p0+ below the box: the parameter whose zero-regime height
        # sqrt(S + L) is depth, capped at x_lo where that closed form holds
        depth = max(-y0, 1.0) + step
        L = 0.5 * (depth * depth - (_HALF_PI / depth) ** 2)
        s = min(config.x_lo, max(math.exp(-L) / _SQRT_TWO_PI, sys.float_info.min))
        z, F = solve_H(s, config).z, complex(s)
    arc: list[complex] = []
    while True:
        if lo <= z.real <= hi and y0 <= z.imag <= y1:
            arc.append(z)
        elif arc or z.real > hi:
            break
        d = F * (z - F)
        ds = step * abs(d)
        s += ds
        z, F, _ = _newton_confined(z + ds / d, complex(s, t), config, log=True)

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
