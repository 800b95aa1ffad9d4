"""Entire continuation of the Gaussian Cauchy transform and its reciprocal.

Conventions
-----------
``G(z) = E[1/(z - X)]`` for standard normal ``X`` is holomorphic off the real
axis.  Continuing it from the upper half plane through the axis gives an entire
function, written ``g_tilde`` here, with the closed form

    g_tilde(z) = exp(-z^2/2) * ( -i*sqrt(pi/2) + sqrt(2) * S(z/sqrt(2)) ),
    S(w) = integral of exp(t^2) from 0 to w,

so on the real axis ``Im g_tilde(x) = -sqrt(pi/2) exp(-x^2/2)`` and below the
axis ``g_tilde(z) = G(z) - i*sqrt(2 pi) exp(-z^2/2)``.  The reciprocal
``f_tilde = 1/g_tilde`` is meromorphic; it is pole-free on the closed region

    Xi = { z : Im z >= 0 }  union  { z in C^- : |Re z * Im z| < pi/2 },

whose lower boundary consists of the two hyperbola branches
``Re z * Im z = -+ pi/2``.  Both satisfy the closed-form derivatives

    g_tilde'(z) = 1 - z * g_tilde(z),
    f_tilde'(z) = f_tilde(z) * (z - f_tilde(z)).

Values are returned as :class:`~freenormal.scaled.ScaledComplex` because
``g_tilde`` reaches ``exp(|z|^2/2)`` scale near the negative imaginary axis.

Evaluation is split by region (constants in :class:`~freenormal.config.EvalConfig`):
Maclaurin series near the origin, a Gaussian-lattice expansion of the
Dawson-type integral in the band along the real axis, the Jacobi continued
fraction of the Gaussian moment problem higher up, the moment asymptotic
series far out, and Schwarz reflection plus the explicit scaled exponential
term below the band.  With the default constants the relative error is
certified below 1e-12 on ``Xi  intersect  {|z| <= 30}`` (measured worst case
3e-13 against a 40-digit oracle; tests pin this against an independent
contour-integral oracle as well).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, InvalidContour, PoleProximity
from .scaled import ScaledComplex

__all__ = [
    "DomainTag",
    "classify_domain",
    "g_tilde",
    "g_tilde_prime",
    "f_tilde",
    "f_tilde_prime",
    "rho",
    "g_tilde_contour_oracle",
    "contour_moment",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_HALF_PI = 0.5 * math.pi


# --------------------------------------------------------------------------
# domain classification
# --------------------------------------------------------------------------

class DomainTag(enum.Enum):
    """Where a point sits relative to the pole-free region of ``f_tilde``."""

    UPPER_HALF_PLANE = "UpperHalfPlane"
    REAL_AXIS = "RealAxis"
    XI_INTERIOR = "XiInterior"
    XI_BOUNDARY = "XiBoundary"
    OUTSIDE_XI = "OutsideXi"


def classify_domain(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> DomainTag:
    """Classify ``z`` against the region ``Xi``.

    The lower boundary is the hyperbola pair ``|Re z * Im z| = pi/2``; points
    whose product lies within ``config.boundary_ulps`` ulps of ``pi/2`` are
    reported as :attr:`DomainTag.XI_BOUNDARY` rather than forced to a side.
    """
    z = complex(z)
    if z.imag > 0.0:
        return DomainTag.UPPER_HALF_PLANE
    if z.imag == 0.0:
        return DomainTag.REAL_AXIS
    p = abs(z.real) * (-z.imag)
    band = config.boundary_ulps * math.ulp(_HALF_PI)
    if abs(p - _HALF_PI) <= band:
        return DomainTag.XI_BOUNDARY
    if p < _HALF_PI:
        return DomainTag.XI_INTERIOR
    return DomainTag.OUTSIDE_XI


# --------------------------------------------------------------------------
# region evaluators (plain complex mantissa work; scales assembled at the end)
# --------------------------------------------------------------------------

def _maclaurin_bracket(zeta: complex) -> complex:
    """``-i*sqrt(pi/2) + sqrt(2) * S(zeta)`` by Maclaurin series.

    ``S(w) = sum_k w^{2k+1} / (k! (2k+1))`` converges everywhere; the region
    map only calls this where intermediate terms stay below ~e^4, keeping the
    summation roundoff inside the certification budget.
    """
    w2 = zeta * zeta
    term = zeta
    total = zeta
    k = 0
    while k < 120:
        k += 1
        term *= w2 / k
        inc = term / (2 * k + 1)
        total += inc
        if abs(inc) <= 1e-18 * abs(total):
            break
    return complex(0.0, -_SQRT_HALF_PI) + _SQRT2 * total


def _dawson_lattice(zeta: complex, config: EvalConfig) -> complex:
    """Dawson function by the Gaussian-lattice sampling series.

    ``D(w) ~ (1/sqrt(pi)) sum_{n odd} exp(-(w - n h)^2) / n`` with
    discretization error ``exp(-pi^2/(4 h^2)) * cosh(pi * Im(w) / h)``:
    below 1e-15 for ``|Im w| <= sqrt(2)`` at the default ``h = 0.2``.  Uniform
    in ``Re w``, which is what the band along the real axis needs.
    """
    h = config.lattice_spacing
    win = config.lattice_window
    x = zeta.real
    lo = int(math.floor((x - win) / h))
    hi = int(math.ceil((x + win) / h))
    if lo % 2 == 0:
        lo += 1
    acc = 0.0j
    for n in range(lo, hi + 1, 2):
        d = zeta - n * h
        acc += cmath.exp(-d * d) / n
    return acc / _SQRT_PI


def _dawson_lattice_real(xi: float, config: EvalConfig) -> float:
    """Real-axis specialization of :func:`_dawson_lattice`."""
    h = config.lattice_spacing
    win = config.lattice_window
    lo = int(math.floor((xi - win) / h))
    hi = int(math.ceil((xi + win) / h))
    if lo % 2 == 0:
        lo += 1
    acc = 0.0
    for n in range(lo, hi + 1, 2):
        d = xi - n * h
        acc += math.exp(-d * d) / n
    return acc / _SQRT_PI


def _cauchy_cf(z: complex, depth: int) -> complex:
    """Jacobi continued fraction ``1/(z - 1/(z - 2/(z - ...)))``.

    Converges to the Cauchy transform on the upper half plane; the backward
    recurrence at fixed depth is the classical Gauss-quadrature approximant.
    Used at ``Im z >= band_halfwidth`` where the calibrated depth gives
    ~1e-15.
    """
    t = z
    for k in range(depth, 0, -1):
        t = z - k / t
    return 1.0 / t


def _moment_series(z: complex) -> complex:
    """Moment asymptotic series ``sum (2n-1)!! / z^{2n+1}``, optimal truncation."""
    iz2 = 1.0 / (z * z)
    term = 1.0 / z
    total = term
    n = 0
    while n < 500:
        n += 1
        nxt = term * (2 * n - 1) * iz2
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
    return total


def _upper_eval(z: complex, config: EvalConfig) -> complex:
    """Cauchy transform for ``Im z >= band_halfwidth`` (no exponential term)."""
    if abs(z) < config.asymptotic_radius:
        return _cauchy_cf(z, config.cf_depth)
    return _moment_series(z)


def g_tilde(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> ScaledComplex:
    """Entire continuation of the Gaussian Cauchy transform.

    Parameters
    ----------
    z : complex
        Any point; accuracy is certified (relative 1e-12) on
        ``Xi intersect {|z| <= 30}`` and degrades gracefully only near the
        zeros of the function, all of which lie below ``Xi``.
    config : EvalConfig
        Region-map and lattice constants.

    Returns
    -------
    ScaledComplex

    Raises
    ------
    DomainError
        If ``z`` is not finite.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"g_tilde needs a finite argument, got {z!r}")
    x, y = z.real, z.imag
    r2 = x * x + y * y
    re_z2 = x * x - y * y

    if r2 <= config.series_radius**2 and re_z2 >= -config.series_lens_cut:
        E = ScaledComplex.exp_of(complex(-0.5 * re_z2, -x * y))
        return E * _maclaurin_bracket(z / _SQRT2)

    band = config.band_halfwidth
    if abs(y) < band:
        if r2 < config.asymptotic_radius**2:
            alg = _SQRT2 * _dawson_lattice(z / _SQRT2, config)
            coeff = complex(0.0, -_SQRT_HALF_PI)
        else:
            alg = _moment_series(z)
            if y < 0.0:
                coeff = complex(0.0, -_SQRT_TWO_PI)
            elif y == 0.0:
                coeff = complex(0.0, -_SQRT_HALF_PI)
            else:
                coeff = 0.0j
        if coeff == 0.0j:
            return ScaledComplex.from_complex(alg)
        E = ScaledComplex.exp_of(complex(-0.5 * re_z2, -x * y))
        return ScaledComplex.from_complex(alg) + coeff * E

    if y >= band:
        return ScaledComplex.from_complex(_upper_eval(z, config))

    # below the band: reflect the upper-half-plane value, then add the
    # explicit exponential term carrying the jump across the axis
    zb = z.conjugate()
    g_low = _upper_eval(zb, config).conjugate()
    E = ScaledComplex.exp_of(complex(-0.5 * re_z2, -x * y))
    return ScaledComplex.from_complex(g_low) + complex(0.0, -_SQRT_TWO_PI) * E


def g_tilde_prime(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> ScaledComplex:
    """Derivative of :func:`g_tilde` via the closed form ``1 - z*g_tilde(z)``."""
    z = complex(z)
    return ScaledComplex.from_complex(1.0 + 0.0j) - z * g_tilde(z, config)


def f_tilde(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> ScaledComplex:
    """Reciprocal transform ``1/g_tilde``.

    Raises
    ------
    PoleProximity
        If ``log|g_tilde(z)|`` is below ``config.pole_log_floor`` (the value
        would be dominated by the pole of ``f_tilde`` nearest to ``z``).
    """
    g = g_tilde(z, config)
    if g.is_zero or g.log_abs() < config.pole_log_floor:
        raise PoleProximity(
            f"|g_tilde({z!r})| ~ exp({g.log_abs():.3g}) is below the pole floor"
        )
    return g.reciprocal()


def f_tilde_prime(z: complex, config: EvalConfig = DEFAULT_CONFIG) -> ScaledComplex:
    """Derivative of ``f_tilde``, computed as ``-g_tilde'/g_tilde^2``."""
    z = complex(z)
    g = g_tilde(z, config)
    if g.is_zero or g.log_abs() < config.pole_log_floor:
        raise PoleProximity(
            f"|g_tilde({z!r})| ~ exp({g.log_abs():.3g}) is below the pole floor"
        )
    gp = ScaledComplex.from_complex(1.0 + 0.0j) - z * g
    return -gp / (g * g)


def rho(x: float, config: EvalConfig = DEFAULT_CONFIG) -> ScaledComplex:
    """``rho(x) = i * g_tilde(i x)``: positive, strictly decreasing on R.

    ``rho(x) = sqrt(pi/2) e^{x^2/2} erfc(x/sqrt 2)``, so it decays like
    ``1/x`` as ``x -> +inf`` and explodes like ``2 sqrt(pi/2) e^{x^2/2}`` as
    ``x -> -inf``; the scaled return type keeps the latter representable for
    any ``x``.  The imaginary residue of the computation (below 1e-12
    relative) is dropped.
    """
    x = float(x)
    sc = ScaledComplex.from_complex(1j) * g_tilde(complex(0.0, x), config)
    m = sc.mantissa
    if abs(m.imag) > 1e-9 * abs(m.real):
        raise PoleProximity(
            f"rho({x}) lost realness: mantissa {m!r}"
        )  # pragma: no cover - would flag an evaluator defect
    return ScaledComplex(complex(m.real, 0.0), sc.log_scale)


# --------------------------------------------------------------------------
# near-axis split evaluation (curve solves and Omega membership near the axis)
# --------------------------------------------------------------------------

def _dawson_real(xi: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Real Dawson function, same region logic as the complex evaluator."""
    a = abs(xi)
    s = 1.0 if xi >= 0 else -1.0
    if a <= config.series_radius / _SQRT2:
        w2 = a * a
        term = a
        total = a
        k = 0
        while k < 120:
            k += 1
            term *= w2 / k
            inc = term / (2 * k + 1)
            total += inc
            if inc <= 1e-18 * total:
                break
        return s * math.exp(-w2) * total
    if a < config.asymptotic_radius / _SQRT2:
        return s * _dawson_lattice_real(a, config)
    # asymptotic: D(x) ~ sum (2k-1)!! / (2^{k+1} x^{2k+1})
    ix2 = 1.0 / (a * a)
    term = 0.5 / a
    total = term
    k = 0
    while k < 400:
        k += 1
        nxt = term * (2 * k - 1) * 0.5 * ix2
        if nxt >= term:
            break
        term = nxt
        total += term
        if term < 1e-20 * total:
            break
    return s * total


def _g_tilde_near_axis_parts(
    x: float, y: float, config: EvalConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """``(Re, Im)`` of ``g_tilde(x + i y)`` for ``|y|`` small.

    Direct complex evaluation computes ``Im g_tilde`` only to absolute
    roundoff of the dominant real part, which is useless when the true
    imaginary part sits at ``exp(-x^2/2)`` scale (the curve solver's regime
    at large abscissa).  This path rebuilds both parts from real quantities:
    a vertical Taylor expansion of the Dawson term (derivatives by the
    recurrence ``D' = 1 - 2 w D``) plus the exactly-split exponential term.

    Holds for ``|y| <= 0.5``: there the 22-term Taylor tail stays below
    1e-16 and the relative error below 1e-15 (against 40-digit mpmath on
    lower ``Xi``).
    """
    xi = x / _SQRT2
    v = y / _SQRT2
    # derivatives of D at xi: d[k] = D^{(k)}(xi) / k!  (scaled to Taylor coeffs)
    n_terms = 22
    d0 = _dawson_real(xi, config)
    deriv = [d0, 1.0 - 2.0 * xi * d0]
    for k in range(2, n_terms):
        # D^{(k)} = -2 (k-1) D^{(k-2)} - 2 xi D^{(k-1)}  (from D' = 1 - 2 xi D)
        deriv.append(-2.0 * (k - 1) * deriv[k - 2] - 2.0 * xi * deriv[k - 1])
    re_d = 0.0
    im_d = 0.0
    fact = 1.0
    vk = 1.0
    for k in range(n_terms):
        if k:
            fact *= k
            vk *= v
        c = deriv[k] * vk / fact
        r = k % 4
        if r == 0:
            re_d += c
        elif r == 1:
            im_d += c
        elif r == 2:
            re_d -= c
        else:
            im_d -= c
    amp = math.exp(-0.5 * (x * x - y * y))
    phase = x * y
    re = _SQRT2 * re_d - _SQRT_HALF_PI * amp * math.sin(phase)
    im = _SQRT2 * im_d - _SQRT_HALF_PI * amp * math.cos(phase)
    return re, im


# --------------------------------------------------------------------------
# contour-integral oracle
# --------------------------------------------------------------------------

def _in_cone(z: complex, eps: float) -> bool:
    """Membership in the cone ``arg z in (-pi/4 + eps, 5 pi/4 - eps)``."""
    th = cmath.phase(z)
    return th > (-0.25 * math.pi + eps) or th < (-0.75 * math.pi - eps)


def _ray_distance(z: complex, angle: float) -> float:
    """Distance from ``z`` to the ray ``{t e^{i angle}: t >= 0}``."""
    u = cmath.exp(complex(0.0, -angle)) * z
    if u.real <= 0.0:
        return abs(z)
    return abs(u.imag)


#: the tanh-sinh rule sums over |t| <= _TS_T_MAX, where a node lies within
#: 5.5e-23 half-lengths of its end of the interval
_TS_T_MAX = 3.5
#: its steps: coarser sums than 1/4 can agree by accident (any two do on an
#: integral far below epsabs), and 2**-8 bounds the cost
_TS_STEPS = tuple(2.0**-k for k in range(2, 9))


def quad(
    func, a: float, b: float, epsabs: float = 1e-14, epsrel: float = 1e-13
) -> tuple:
    """``integral of func`` over ``[a, b]`` by the tanh-sinh rule.

    The substitution ``x = c + r tanh((pi/2) sinh t)``, with ``c`` and ``r``
    the midpoint and half-length, makes the integrand decay
    double-exponentially in ``t``.  The trapezoidal sum over
    ``|t| <= 3.5`` then converges geometrically in ``1/h`` for an integrand
    analytic in the open interval and bounded near its ends, such as
    ``sqrt(x)`` on ``[0, 1]`` (Takahashi & Mori 1974; Bailey, Jeyabalan &
    Li, Experimental Math. 14 (2005) 317-329).  An integrand unbounded at
    an end converges only as far as the truncation of ``t`` allows
    (``x^(-1/2)`` on ``[0, 1]`` to about 1e-11), which the error estimate
    reports.  The step starts at ``h = 1/4`` and halves, reusing every
    node, until two levels agree to ``max(epsabs, epsrel |I|)`` or ``h``
    reaches ``2**-8``.  ``func`` may return real or complex values.

    Returns ``(value, error)``.  ``error`` is the difference of the last two
    levels, plus twice ``|func|`` at the outermost node of each end times
    its distance to that end (which bounds the part the truncated ``t``
    range leaves out for any ``|func|`` growing no faster than
    ``|x - end|^(-1/2)`` towards the end), plus the rounding of the sum.
    It is infinite when a sum is not finite, so a caller comparing it with
    a tolerance rejects the value.  A node that rounds onto an end of the
    interval is skipped, so ``func`` is never called at ``a`` or ``b``.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    y = func(c)
    acc = _HALF_PI * y  # sum of weight * func over the nodes so far
    mag = abs(acc)
    # per end: (t, |func| * distance to the end) at the outermost node
    outer = [(0.0, abs(y) * r), (0.0, abs(y) * r)]
    prev = None
    for h in _TS_STEPS:
        # the first step takes every node, each later one the new odd ones
        for k in range(1, int(_TS_T_MAX / h) + 1, 1 if prev is None else 2):
            t = k * h
            u = _HALF_PI * math.sinh(t)
            cu = math.cosh(u)
            d = r / (math.exp(u) * cu)  # r (1 - tanh u), distance to each end
            w = _HALF_PI * math.cosh(t) / (cu * cu)
            for end, x in enumerate((a + d, b - d)):
                if a < x < b:
                    y = func(x)
                    acc += w * y
                    mag += w * abs(y)
                    if t > outer[end][0]:
                        outer[end] = (t, abs(y) * d)
        value = r * h * acc
        if not cmath.isfinite(value):
            return value, math.inf
        if prev is not None:
            diff = abs(value - prev)
            err = (diff + 2.0 * (outer[0][1] + outer[1][1])
                   + sys.float_info.epsilon * r * h * mag)
            if diff <= max(epsabs, epsrel * abs(value)):
                break
        prev = value
    return value, err


def g_tilde_contour_oracle(
    z: complex,
    eta: float,
    radius: float | None = None,
    eps: float | None = None,
    tol: float = 1e-10,
) -> ScaledComplex:
    """Independent evaluation of ``g_tilde`` by contour quadrature.

    For ``z`` inside the cone ``arg in (-pi/4+eps, 5pi/4-eps)`` the
    continuation equals the Cauchy integral taken over the rotated contour
    made of the two rays at angles ``-pi/4 + eta`` and ``5 pi/4 - eta`` (with
    ``0 < eta < eps``), along which the Gaussian density decays like
    ``exp(-(t^2/2) sin(2 eta))``.  Tanh-sinh quadrature (:func:`quad`) on the
    truncated rays plus an explicit tail bound gives a route entirely
    independent of the region-split evaluator; tests use it as the oracle.

    ``eps`` defaults to a hair inside the largest cone containing ``z``;
    pass it explicitly to assert membership in a particular ``D_eps``.  When
    ``radius`` is omitted one meeting ``tol`` is chosen from the tail bound.

    Raises
    ------
    InvalidContour
        If the angle ordering ``0 < eta < eps < pi/4`` fails, ``z`` is
        outside the cone, or the requested ``radius`` cannot meet ``tol``.
    """
    z = complex(z)
    if eps is None:
        th = cmath.phase(z) if z != 0 else 0.0
        # angular margin of z beyond the two limiting rays at eta = 0
        m1 = th - (-0.25 * math.pi)
        m2 = (-0.75 * math.pi) - th
        eps = max(m1, m2) * (1.0 - 1e-12)
        eps = min(eps, 0.25 * math.pi * (1.0 - 1e-12))
    if not (0.0 < eta < eps < 0.25 * math.pi):
        raise InvalidContour(f"need 0 < eta < eps < pi/4, got eta={eta}, eps={eps}")
    if z == 0 or not _in_cone(z, eps):
        raise InvalidContour(f"{z!r} is outside the validity cone for eps={eps}")

    alpha = -0.25 * math.pi + eta
    dist = min(_ray_distance(z, alpha), _ray_distance(z, math.pi - alpha))
    if dist <= 0.0:
        raise InvalidContour(f"{z!r} lies on the contour")
    s2 = math.sin(2.0 * eta)

    def tail_bound(r: float) -> float:
        if r <= abs(z) + 1.0:
            return math.inf
        # 2 rays, |z - w| >= |w| - |z| >= r - |z| past the truncation
        gap = r - abs(z)
        return (
            2.0
            * math.exp(-0.5 * r * r * s2)
            / (_SQRT_TWO_PI * gap * r * s2)
        )

    if radius is None:
        radius = abs(z) + 2.0
        for _ in range(200):
            if tail_bound(radius) < 0.1 * tol:
                break
            radius *= 1.25
    if tail_bound(radius) > tol:
        raise InvalidContour(
            f"radius {radius} leaves tail bound {tail_bound(radius):.3g} > tol {tol}"
        )

    e_r = cmath.exp(complex(0.0, alpha))
    e_l = cmath.exp(complex(0.0, math.pi - alpha))

    def integrand(t: float, direction: complex) -> complex:
        w = t * direction
        return direction * cmath.exp(-0.5 * w * w) / (_SQRT_TWO_PI * (z - w))

    val_r, err_r = quad(lambda t: integrand(t, e_r), 0.0, radius)
    # left ray traversed from infinity toward 0: subtract the 0->R integral
    val_l, err_l = quad(lambda t: integrand(t, e_l), 0.0, radius)
    total = val_r - val_l
    qerr = err_r + err_l + tail_bound(radius)
    if qerr > max(tol, tol * abs(total)):
        raise InvalidContour(
            f"quadrature error estimate {qerr:.3g} exceeds tolerance {tol}"
        )
    return ScaledComplex.from_complex(total)


def contour_moment(n: int, eta: float, radius: float | None = None) -> float:
    """``integral of w^n`` against the Gaussian density over the rotated contour.

    Reproduces the moments: 1 for ``n = 0``, ``(n-1)!!`` for even ``n``, 0 for
    odd ``n``.  Shares the contour conventions of
    :func:`g_tilde_contour_oracle`; used by tests to validate the contour
    plumbing on a closed-form target.
    """
    if not (0.0 < eta < 0.25 * math.pi):
        raise InvalidContour(f"need 0 < eta < pi/4, got {eta}")
    if radius is None:
        radius = math.sqrt(2.0 * (40.0 + 3.0 * n) / math.sin(2.0 * eta))
    alpha = -0.25 * math.pi + eta
    e_r = cmath.exp(complex(0.0, alpha))
    e_l = cmath.exp(complex(0.0, math.pi - alpha))

    def integrand(t: float, direction: complex) -> complex:
        w = t * direction
        return direction * w**n * cmath.exp(-0.5 * w * w) / _SQRT_TWO_PI

    val_r, _ = quad(lambda t: integrand(t, e_r), 0.0, radius, epsabs=1e-13)
    val_l, _ = quad(lambda t: integrand(t, e_l), 0.0, radius, epsabs=1e-13)
    total = val_r - val_l
    return total.real
