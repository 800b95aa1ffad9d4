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
    f_tilde_prime,
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
    """A traced connected piece of the implicit curve ``Im f_tilde = t``."""

    t: float
    branch: str  # "left" | "right"
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
# split solver for large x (explicit exponential scale)
# --------------------------------------------------------------------------

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
        # inner: drive Im g_tilde to zero in y at fixed u
        for _ in range(30):
            re, im = _g_tilde_near_axis_parts(u, y, config)
            d = 1.0 - (u * re - y * im)  # Re g_tilde' at u + i y
            dy = -im / d
            y_new = y + dy
            lim = -_HALF_PI / u
            if not lim < y_new < 0.0:
                y_new = 0.5 * (y + (lim if y_new <= lim else 0.0))
            y = y_new
            if abs(dy) <= 1e-15 * abs(y):
                break
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

def _g_prime_on_curve(pt: CurvePoint) -> float:
    """Slope of ``g`` along the curve: ``(g - x) / (x ((g - x)^2 + h^2))``."""
    d = pt.g - pt.x
    return d / (pt.x * (d * d + pt.h * pt.h))


# |x| below this makes s = g^{-1}(|x|) underflow binary64 (s ~ exp(-pi^2/(8 x^2))).
_F_CLOSED_FORM_BELOW = 0.043


def f_of(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """The boundary function ``f(x) = -h(g^{-1}(|x|))``, even in ``x``.

    Solves ``g(s) = |x|`` by safeguarded 1-D Newton in ``log s`` (the
    closed-form curve slope supplies the derivative), keeping a bracket for
    geometric bisection fallback.

    For ``|x| < 0.043`` the parameter ``s`` underflows binary64; there the
    closed form ``-pi/(2x)`` is returned, whose relative error
    ``exp(-pi^2/(8 x^2)) < 1e-1150`` is far below representation, so the
    value is exact to the last bit.  From about ``|x| = 37.84`` the boundary
    height is no longer a normal binary64 number and ``DomainError`` is
    raised, as ``solve_H`` does at its wall.
    """
    a = abs(float(x))
    if not math.isfinite(a):
        raise DomainError(f"f is defined on finite x, got {x}")
    if a == 0.0:
        raise DomainError("f is defined on nonzero x only")
    if a < _F_CLOSED_FORM_BELOW:
        return -_HALF_PI / a
    try:
        return -_g_inverse(a, config).h
    except DomainError as exc:
        raise DomainError(
            f"f({x}) is not a normal binary64 number: the boundary height "
            "is exp(-x^2/2)-small"
        ) from exc


def _g_inverse(a: float, config: EvalConfig) -> CurvePoint:
    """The curve point with ``g(s) = a``."""
    # initial s guess from the asymptotic inverses of g
    if a < 1.2:
        la = (_HALF_PI**2 - a**4) / (2.0 * a * a)
        s = math.exp(-la) / math.sqrt(2.0 * math.pi)
    elif a >= 6.0:
        s = a - 1.0 / a
    else:
        s = a

    pt = solve_H(s, config)
    lo_s = hi_s = None
    lo = hi = None
    for _ in range(80):
        if pt.g < a:
            lo_s, lo = s, pt
        else:
            hi_s, hi = s, pt
        if lo_s is not None and hi_s is not None:
            break
        s = s * 2.0 if pt.g < a else s * 0.5
        pt = solve_H(s, config)
    else:
        raise NoConvergence(f"could not bracket g(s) = {a}", residual=abs(pt.g - a))

    assert lo is not None and hi is not None
    pt = lo if a - lo.g <= hi.g - a else hi
    s = pt.x
    best = abs(pt.g - a)
    for _ in range(80):
        err = pt.g - a
        if abs(err) <= 4e-16 * max(1.0, a):
            break
        # Newton in log s: d g / d log s = g'(s) * s
        step = -err / (_g_prime_on_curve(pt) * s)
        s_new = s * math.exp(max(-30.0, min(30.0, step)))
        if not (lo_s < s_new < hi_s):
            s_new = math.exp(0.5 * (math.log(lo_s) + math.log(hi_s)))
        pt_new = solve_H(s_new, config)
        if pt_new.g < a:
            lo_s, lo = s_new, pt_new
        else:
            hi_s, hi = s_new, pt_new
        s, pt = s_new, pt_new
        if abs(pt.g - a) >= best and best <= 1e-12 * max(1.0, a):
            break  # stalled at the evaluation floor, contract already met
        best = min(best, abs(pt.g - a))
    else:
        raise NoConvergence(
            f"g(s) = {a} not met: best residual {best:.3g}",
            last_iterate=pt.z,
            residual=best,
        )
    if abs(pt.g - a) > 1e-12 * max(1.0, a):
        pt = lo if a - lo.g <= hi.g - a else hi
        if abs(pt.g - a) > 1e-10 * max(1.0, a):
            raise NoConvergence(
                f"g(s) = {a} met only to {abs(pt.g - a):.3g}",
                last_iterate=pt.z,
                residual=abs(pt.g - a),
            )
    return pt


def in_omega(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> bool:
    """Membership in ``Omega``, the maximal domain mapped onto ``C+``.

    True iff ``z`` is on the imaginary axis or lies strictly above the
    boundary graph ``f(Re z)``.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Omega membership needs a finite point, got {z!r}")
    if z.real == 0.0 or z.imag >= 0.0:
        return True
    try:
        boundary = f_of(z.real, config)
    except DomainError:
        # |Re z| so large the boundary height underflows: below-axis points
        # with representable Im z sit under the graph
        return False
    return z.imag > boundary


# --------------------------------------------------------------------------
# level sets of Im f_tilde
# --------------------------------------------------------------------------

def _imf(z: complex, config: EvalConfig) -> float:
    return complex(f_tilde(z, config)).imag


def _grad_imf(z: complex, config: EvalConfig) -> complex:
    """Gradient of ``Im f_tilde`` as the complex vector ``(d/dx, d/dy)``."""
    fp = complex(f_tilde_prime(z, config))
    return complex(fp.imag, fp.real)


def _correct_onto_level(
    z: complex, t: float, config: EvalConfig, tol: float = 1e-11
) -> complex | None:
    for _ in range(12):
        v = _imf(z, config) - t
        if abs(v) <= tol:
            return z
        grad = _grad_imf(z, config)
        norm2 = grad.real**2 + grad.imag**2
        if norm2 == 0.0:
            return None
        z = z - v * grad / norm2
        if not _confined(z, config):
            return None
    return None


def _trace_from(
    seed: complex,
    t: float,
    bbox: tuple[float, float, float, float],
    step: float,
    config: EvalConfig,
) -> list[complex]:
    """Bidirectional predictor-corrector walk along ``Im f_tilde = t``."""
    x0, x1, y0, y1 = bbox

    def inside(z: complex) -> bool:
        return x0 <= z.real <= x1 and y0 <= z.imag <= y1 and _confined(z, config)

    halves: list[list[complex]] = []
    for direction in (1.0, -1.0):
        pts: list[complex] = []
        z = seed
        ds = step * direction
        prev_tan: complex | None = None
        for _ in range(4000):
            grad = _grad_imf(z, config)
            norm = abs(grad)
            if norm == 0.0:
                break
            tan = complex(-grad.imag, grad.real) / norm
            if prev_tan is not None:
                if (tan.real * prev_tan.real + tan.imag * prev_tan.imag) < 0:
                    tan = -tan
                # curvature control: slow down when the tangent turns fast
                turn = abs(tan - prev_tan)
                if turn > 0.4 and abs(ds) > 0.05 * step:
                    ds *= 0.5
                elif turn < 0.05 and abs(ds) < step:
                    ds = math.copysign(min(abs(ds) * 1.6, step), ds)
            prev_tan = tan
            cand = _correct_onto_level(z + ds * tan, t, config)
            if cand is None or not inside(cand):
                break
            if pts and abs(cand - pts[-1]) < 1e-14:
                break
            pts.append(cand)
            z = cand
            if abs(z - seed) < 0.25 * abs(ds) and len(pts) > 8:
                break  # closed the loop
        halves.append(pts)
    back, fwd = halves[1], halves[0]
    return list(reversed(back)) + [seed] + fwd


def trace_level_set(
    t: float,
    bbox: tuple[float, float, float, float],
    step: float,
    config: EvalConfig = DEFAULT_CONFIG,
) -> list[LevelSetTrace]:
    """Trace the curves ``Im f_tilde = t`` inside ``bbox``.

    ``bbox = (re_min, re_max, im_min, im_max)``, clipped against the
    certified region.  Seeds come from sign changes of ``Im f_tilde - t``
    along vertical scan lines; each seed not already covered by an earlier
    trace starts a bidirectional predictor-corrector walk with
    curvature-limited steps.

    Raises
    ------
    SeedNotFound
        If no scan line crosses the level.
    """
    if t < 0:
        raise DomainError(f"level sets are defined for t >= 0, got {t}")
    x0, x1, y0, y1 = bbox
    if not (x0 < x1 and y0 < y1):
        raise DomainError(f"degenerate bbox {bbox}")

    n_cols, n_rows = 17, 80
    traces: list[LevelSetTrace] = []
    covered: list[complex] = []
    for ci in range(n_cols):
        xc = x0 + (x1 - x0) * (ci + 0.5) / n_cols
        if abs(xc) < 1e-12 and t == 0.0:
            continue  # Im f_tilde > 0 on the imaginary axis
        ys = []
        for ri in range(n_rows + 1):
            y = y0 + (y1 - y0) * ri / n_rows
            z = complex(xc, y)
            if _confined(z, config):
                ys.append((y, _imf(z, config) - t))
        for (ya, va), (yb, vb) in zip(ys, ys[1:]):
            if va == 0.0:
                va = math.copysign(1e-300, vb if vb else 1.0)
            if va * vb >= 0.0 or abs(yb - ya) > 2.0 * (y1 - y0) / n_rows:
                continue
            lo_y, hi_y, lo_v = ya, yb, va
            for _ in range(60):
                mid = 0.5 * (lo_y + hi_y)
                vm = _imf(complex(xc, mid), config) - t
                if vm == 0.0:
                    lo_y = hi_y = mid
                    break
                if (vm > 0) == (lo_v > 0):
                    lo_y, lo_v = mid, vm
                else:
                    hi_y = mid
            seed = _correct_onto_level(complex(xc, 0.5 * (lo_y + hi_y)), t, config)
            if seed is None:
                continue
            if any(abs(seed - c) < 1.5 * step for c in covered):
                continue
            pts = _trace_from(seed, t, bbox, step, config)
            if len(pts) < 2:
                continue
            covered.extend(pts)
            span_r = max(p.real for p in pts)
            span_l = min(p.real for p in pts)
            branch = "right" if span_r >= -span_l else "left"
            traces.append(LevelSetTrace(t=t, branch=branch, points=tuple(pts)))
    if not traces:
        raise SeedNotFound(
            f"no crossing of Im f_tilde = {t} found in bbox {bbox}"
        )
    return traces
