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

Below the axis ``g_tilde`` is an algebraic part ``G(z)`` plus the exponential
term ``-i sqrt(2 pi) exp(-z^2/2)``.  Each point goes to the first of these
regions that holds it, and each region's form is exact to roundoff there:

* **Within 0.5 of the axis in Xi, on both sides:** past ``|z|^2 = 1e300``
  ``1/z``, the moment series' first term, scaled; up to it the closed
  form's Dawson split ``g_tilde = sqrt(2) D(z/sqrt 2) - i
  sqrt(pi/2) exp(-z^2/2)``, with Dawson's ``D(w) = exp(-w^2) S(w)`` and
  the exponent formed exactly.  Below ``|z| = 9.5``, ``D`` is a Taylor
  expansion at the nearest of the nodes ``j/4``, whose values and slopes
  are stored from 40-digit mpmath; from 9.5 on the Dawson term is the
  moment series below.  Each part of ``g_tilde`` keeps its own roundoff
  there, where the kernel carries ``Im g_tilde`` only to that of ``|g_tilde|``.
* **Below the axis with Re(-z^2/2) > 42:** the exponential term alone.
  ``|w| <= 1`` on the closed upper half plane, so the algebraic part is at
  most ``sqrt(pi/2)``, below 2**-60 of ``sqrt(2 pi) e^42``.
* **9.5 <= |z|, with |z|^2 <= 1e300:** the moment series
  ``G(z) = sum_k (2k-1)!! z^(-2k-1)``, which is ``g_tilde`` above the axis
  and the algebraic part below it.  Its term count, 41 at ``|z| = 9.5`` and
  8 from 59 on, puts the first dropped term of ``1 - z G``, which
  ``g_tilde'`` takes from the same sum, below 2**-57 of it.  The remainder
  after ``K`` terms is ``z^-K integral t^K phi(t)/(z - t) dt``, and near
  the axis the one further piece, the Stokes term, is at most
  ``sqrt(pi/2) exp(-x^2/2)`` (3.6e-20 at ``|x| = 9.5``).  In the band
  the series stands for ``sqrt(2) D``, which that term separates from
  ``G``.
* **Elsewhere:** the Faddeeva function ``w`` on ``Im zeta >= 0`` by
  Weideman's 40-term rational series, ``g_tilde(z) = -i sqrt(pi/2)
  w(z/sqrt 2)`` above the axis and ``G(z) = i sqrt(pi/2) w(-z/sqrt 2)``
  below it.  That is, within ``|z| < 9.5``, more than 0.5 from the axis
  or below it outside ``Xi``, and past ``|z|^2 = 1e300`` off the band,
  where it keeps the binary64 walls.

One function, ``_g_eval``, holds this region map; ``g_tilde'``,
``f_tilde``, ``f_tilde'`` and ``rho(x) = i g_tilde(i x)`` all read it.
The work is in plain ``complex``; :class:`~freenormal.scaled.ScaledComplex`
appears only in the return values and past ``exp(-z^2/2) = e^700``.  The
relative error is certified below 1e-12 on ``Xi intersect {|z| <= 30}``
(tests pin it against ``scipy.special.wofz``, 40-digit mpmath and an
independent contour-integral oracle).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys

from .errors import DomainError, PoleProximity, QuadratureFailure
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
_MINUS_I_SQRT_HALF_PI = complex(0.0, -_SQRT_HALF_PI)
_I_SQRT_HALF_PI = complex(0.0, _SQRT_HALF_PI)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_HALF_PI = 0.5 * math.pi


def _require_normal(v: float, what: str, x, hint: str = "") -> float:
    """``v`` if it is a normal binary64 number, else ``DomainError``.

    The one representability wall of the package: ``solve_H``, ``f_of``,
    ``levy_density`` and ``ode.integrate`` refuse a value below the smallest
    normal number (a subnormal keeps only a few significant bits), or an
    infinite one, rather than return it degraded.  The message names the
    value as ``what.format(x)``, formatted only when it is raised.
    """
    if not sys.float_info.min <= v < math.inf:
        raise DomainError(f"{what.format(x)} is not a normal binary64 number{hint}")
    return v


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


#: half width of the boundary band of ``classify_domain``: 4 ulps of pi/2
_BOUNDARY_BAND = 4 * math.ulp(_HALF_PI)
#: the band's outer edge, the one wall of ``Xi``: ``z`` below the axis is in
#: ``Xi``, band included, exactly when ``|Re z| (-Im z) <= _XI_EDGE`` (both
#: ends of the band are binary64 and ``p - pi/2`` is exact there, Sterbenz)
_XI_EDGE = _HALF_PI + _BOUNDARY_BAND


def classify_domain(z: complex) -> DomainTag:
    """Classify ``z`` against the region ``Xi``.

    The lower boundary is the hyperbola pair ``|Re z * Im z| = pi/2``; points
    whose product lies within 4 ulps of ``pi/2`` are reported as
    :attr:`DomainTag.XI_BOUNDARY` rather than forced to a side.  Raises
    ``DomainError`` if ``z`` is not finite.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"classify_domain needs a finite point, got {z!r}")
    if z.imag > 0.0:
        return DomainTag.UPPER_HALF_PLANE
    if z.imag == 0.0:
        return DomainTag.REAL_AXIS
    p = abs(z.real) * (-z.imag)
    if p > _XI_EDGE:
        return DomainTag.OUTSIDE_XI
    if abs(p - _HALF_PI) <= _BOUNDARY_BAND:
        return DomainTag.XI_BOUNDARY
    return DomainTag.XI_INTERIOR


# --------------------------------------------------------------------------
# the Faddeeva kernel
# --------------------------------------------------------------------------

#: terms of Weideman's series: 32 lose a digit on lower Xi, 48 gain none
_W_TERMS = 40
_W_L = math.sqrt(_W_TERMS / _SQRT2)
_INV_SQRT_PI = 1.0 / _SQRT_PI
#: its coefficients, highest degree first: a_k is the k-th Fourier cosine
#: coefficient of (L^2 + t^2) exp(-t^2) under t = L tan(theta/2), by the
#: trapezoidal rule on 4N points of theta (the function vanishes at pi),
#: each summed with math.fsum; a test rebuilds them so, bit for bit
_W_COEF = (
    -1.5642909365809225e-15, 9.338985647728391e-16,
    1.0947461436686504e-14, -4.824191032490638e-15,
    -7.054677306740657e-14, 1.3844963704444706e-14,
    4.5328024004113736e-13, 1.2010420921207874e-13,
    -2.9075505317922914e-12, -2.727515553245929e-12,
    1.7714735097411645e-11, 3.472751111495436e-11,
    -9.055095593892207e-11, -3.5632346883032806e-10,
    2.108600692317678e-10, 3.0177803926989445e-09,
    3.2497464910418544e-09, -1.831561667470875e-08,
    -6.351773482533728e-08, 1.4198642597766085e-08,
    5.912136950873321e-07, 1.483566113249206e-06,
    -1.066013898353506e-06, -1.800744714466497e-05,
    -5.5913092642359196e-05, -3.939363145491374e-05,
    0.00043980701598706363, 0.0027054056330738335,
    0.010048186242783494, 0.029202916471242003,
    0.07182361779074338, 0.15504263802479495,
    0.29989437996150065, 0.5266528988277086,
    0.8472174576593817, 1.256381567576513,
    1.7253830848179779, 2.201513794878312,
    2.61605415276186, 2.8996245093897053,
)


def _w_upper(zeta: complex) -> complex:
    """Faddeeva function ``w(zeta) = exp(-zeta^2) erfc(-i zeta)``, ``Im zeta >= 0``.

    Weideman's series (SIAM J. Numer. Anal. 31 (1994) 1497-1518), ``w =
    2 p(Z)/(L - i zeta)^2 + 1/(sqrt(pi) (L - i zeta))`` with ``|Z| =
    |(L + i zeta)/(L - i zeta)| <= 1``: relative error about 1e-15, but
    ``Re w`` on the real line only to the roundoff of ``|w|``.
    """
    den = complex(_W_L + zeta.imag, -zeta.real)  # L - i zeta
    Z = complex(_W_L - zeta.imag, zeta.real) / den
    p = 0.0
    for c in _W_COEF:
        p = p * Z + c
    w = 2.0 * p / den / den + _INV_SQRT_PI / den  # den^2 overflows at 1e154
    if not cmath.isfinite(w):  # Z overflows with both parts of zeta near 1e308
        raise DomainError(f"the Faddeeva kernel overflows at {zeta!r}")
    return w


# --------------------------------------------------------------------------
# the moment series of the far field
# --------------------------------------------------------------------------

#: ``|z|^2`` from which the moment series replaces the kernel, and up to
#: which: past 1e300 the kernel keeps its own binary64 walls
_FAR_R2_MIN = 9.5**2
_FAR_R2_MAX = 1e300


def _far_coefficients(r: int) -> tuple[float, ...]:
    """``(2k-1)!!`` for ``k = K-1, ..., 2, 1``, highest degree first.

    ``K`` is the first ``k`` whose term ``(2k-1)!!/r^(2k-2)`` of the sum
    ``t`` of :func:`_moment_series` (so of ``g_tilde' = -u t``, ``r^2``
    smaller than ``G``) is below 2**-57 of ``t``, counted in exact
    integers, or the series' least term (``2k - 1 >= r^2``).
    """
    coeffs, k, r2k = [1], 1, 1
    while coeffs[-1] * (2 * k - 1) << 57 >= r2k and 2 * k - 1 < r * r:
        coeffs.append(coeffs[-1] * (2 * k - 1))
        k += 1
        r2k *= r * r
    return tuple(float(c) for c in reversed(coeffs[1:]))


#: the moment series' coefficients by ``floor(|z|)`` from 9 to 59: 41 terms
#: at 9, 20 at 12, 10 at 30, and the 8 at 59 serve every larger ``|z|``
_FAR_COEFFS = tuple(_far_coefficients(r) for r in range(9, 60))


def _moment_series(w, u, r: float):
    """``G(z) = E[1/(z - X)] = sum_k (2k-1)!! z^(-2k-1)`` and ``1 - z G``, from ``w = 1/z``.

    ``u`` is ``1/z^2`` and ``r = |z|`` lies in ``[9.5, 1e150]``.  ``G`` is
    ``w + w u t``, with ``t`` summed by Horner's rule in ``u``, so the
    rounding of the terms past the first is scaled down by ``|u|``; ``1 - z
    G`` is ``-u t``, which does not cancel.  The remainder after ``K``
    terms is ``z^-K integral t^K phi(t)/(z - t) dt``; with ``K`` from
    :data:`_FAR_COEFFS` the first dropped term is below 2**-57 of ``t``
    (3.9e-18 at ``|z| = 9.5``, where the least term caps ``K``), and the
    only other piece, the Stokes term near the real axis, is at most
    ``sqrt(pi/2) exp(-x^2/2)``, 3.6e-20 at ``|x| = 9.5``.
    """
    t = 0.0
    for c in _FAR_COEFFS[min(int(r), 59) - 9]:
        t = t * u + c
    return w + w * u * t, -u * t


def _half_diff_of_squares(x: float, y: float) -> tuple[float, float]:
    """``Re(-z^2/2) = (y^2 - x^2)/2`` as an unevaluated sum ``hi + lo``.

    Rounding ``x*x`` alone would cost ``exp(-z^2/2)`` 5e-14 at ``|z| = 30``;
    with Dekker's exact squares and Knuth's two-sum ``exp(hi) (1 + lo)`` is
    good to a few ulps.  ``lo`` is 0 from ``|x|`` or ``|y| = 1e150`` on,
    and from ``|hi| = 2^53`` on, where it could pass 1 and turn ``1 + lo``
    negative; the scale ``hi`` is uncertain by ``e^(ulp/2)`` there anyway.
    """
    px, py = x * x, y * y
    if not (abs(x) < 1e150 and abs(y) < 1e150):
        return 0.5 * (py - px), 0.0
    c = 134217729.0 * x  # Veltkamp's split at 2^27 + 1
    xh = c - (c - x)
    xl = x - xh
    c = 134217729.0 * y
    yh = c - (c - y)
    yl = y - yh
    ex = ((xh * xh - px) + 2.0 * xh * xl) + xl * xl  # x^2 = px + ex exactly
    ey = ((yh * yh - py) + 2.0 * yh * yl) + yl * yl
    s = py - px
    b = s - py
    t = ((py - (s - b)) - (px + b)) + (ey - ex)  # s + t = y^2 - x^2
    hi = s + t
    if not abs(hi) < 2.0**54:
        return 0.5 * hi, 0.0
    b = hi - s
    return 0.5 * hi, 0.5 * ((s - (hi - b)) + (t - b))


# --------------------------------------------------------------------------
# the near-axis band
# --------------------------------------------------------------------------

#: half width of the band about the axis, on both sides in ``Xi``, that the
#: closed form's Dawson split serves
_NEAR_AXIS = 0.5

#: Dawson's ``D(xi) = exp(-xi^2) integral_0^xi exp(t^2) dt`` and ``D'(xi)``
#: at the nodes ``xi_j = j/4``, ``j = 0..27``, each rounded to nearest from
#: 40-digit mpmath (a test recomputes them).  ``D'`` is stored, not formed
#: as ``1 - 2 xi D``, which would multiply the rounding of ``D`` by
#: ``2 xi^2`` (about 90 at the last node).
_DAWSON_NODES = (
    (0.0, 1.0),
    (0.23983916356289822, 0.8800804182185509),
    (0.4244363835020223, 0.5755636164979777),
    (0.5230127677445182, 0.21548084838322262),
    (0.5380795069127684, -0.07615901382553684),
    (0.4958270739643261, -0.2395676849108153),
    (0.4282490710853986, -0.2847472132561959),
    (0.3594364206717429, -0.25802747235110024),
    (0.30134038892379195, -0.20536155569516787),
    (0.25655426284484917, -0.1544941828018212),
    (0.2230837221674355, -0.1154186108371774),
    (0.19785094717415452, -0.08818020945784988),
    (0.1782710306105583, -0.06962618366334973),
    (0.162570914560687, -0.05671094464446548),
    (0.14962159308075648, -0.047351151565295395),
    (0.1387052395935912, -0.040289296951933985),
    (0.12934800123600512, -0.03478400988804092),
    (0.12122159429432365, -0.030383551501751083),
    (0.11408861022682498, -0.02679749204142482),
    (0.1077715111802445, -0.023829356212322707),
    (0.10213407442427684, -0.021340744242768356),
    (0.09706962847320189, -0.01923109896861986),
    (0.09249323231075476, -0.01742555541830236),
    (0.08833628281447531, -0.015867252366466085),
    (0.08454268897454385, -0.014512267694526227),
    (0.08106609406101173, -0.013326175762646528),
    (0.07786781898606987, -0.012281646818908329),
    (0.07491531382621561, -0.011356736653910788),
)
#: Taylor terms per node: with ``|delta| <= 0.375`` the first dropped one is
#: below 1e-20 of ``|D|``
_DAWSON_TERMS = 27


def _dawson_taylor(d: float, dp: float, xi: float) -> tuple[float, ...]:
    """``D^(k)(xi)/k!`` for ``k < _DAWSON_TERMS``, highest degree first.

    ``D' = 1 - 2 xi D`` differentiated gives ``c_k = -2 (c_{k-2} + xi
    c_{k-1}) / k`` from ``c_0 = D``, ``c_1 = D'``.
    """
    c = [d, dp]
    for k in range(2, _DAWSON_TERMS):
        c.append(-2.0 * (c[k - 2] + xi * c[k - 1]) / k)
    return tuple(reversed(c))


_DAWSON_TAYLOR = tuple(_dawson_taylor(d, dp, 0.25 * j)
                       for j, (d, dp) in enumerate(_DAWSON_NODES))


def _near_axis(x: float, y: float) -> complex:
    """``sqrt(2) D(z/sqrt 2)`` for ``z = x + i y`` in the band with ``|z| < 9.5``.

    The Taylor expansion of Dawson's ``D`` at the nearest node ``xi_j`` of
    :data:`_DAWSON_NODES`, by Horner's rule in ``delta = zeta - xi_j``
    (``|delta| <= 0.375``; ``D(-zeta) = -D(zeta)`` for ``Re z < 0``).
    """
    a = abs(x) / _SQRT2
    j = int(4.0 * a + 0.5)
    v = y / _SQRT2
    delta = complex(a - 0.25 * j, v if x >= 0.0 else -v)
    p = 0j
    for c in _DAWSON_TAYLOR[j]:
        p = p * delta + c
    return _SQRT2 * p if x >= 0.0 else -_SQRT2 * p


def _in_band(x: float, y: float) -> bool:
    """``x + i y`` lies within ``_NEAR_AXIS`` of the axis in ``Xi`` (band
    included, the wall of ``_confined`` and ``in_omega``), on either side."""
    return -_NEAR_AXIS <= y <= _NEAR_AXIS and (y >= 0.0 or abs(x * y) <= _XI_EDGE)


def _band_exp_term(x: float, y: float) -> complex:
    """The band's exponential term ``-i sqrt(pi/2) exp(-z^2/2)``, exponent split exactly."""
    hi, lo = _half_diff_of_squares(x, y)
    amp = _SQRT_HALF_PI * math.exp(hi) * (1.0 + lo)
    return complex(-amp * math.sin(x * y), -amp * math.cos(x * y))


# --------------------------------------------------------------------------
# the transforms: plain complex inside, one ScaledComplex at the boundary
# --------------------------------------------------------------------------

#: from this ``Re(-z^2/2)`` on, the exponential term is summed in scaled form
_SCALED_FROM = 700.0
#: below this ``|g_tilde|`` too, so ``1/g_tilde`` and ``F (z - F)`` stay finite
_PLAIN_G_MIN = 1e-150
#: past this ``Re(-z^2/2)`` the exponential term alone is ``g_tilde``: the
#: algebraic part, at most ``sqrt(pi/2)``, is below 2**-60 of
#: ``sqrt(2 pi) e^42``
_EXP_ALONE = 42.0


def _g_eval(z: complex, slope: bool = False):
    """``g_tilde(z)``: plain ``complex`` where that is safe, scaled elsewhere.

    The one region map (see the module docstring): an algebraic part (the
    moment series, the Dawson sum of :func:`_near_axis` or the kernel) plus
    an exponential term, each picked once per point: the band's half term
    (:func:`_band_exp_term`), none above the band, or the full term below
    it, alone past ``Re(-z^2/2) = 42``.  The sum is scaled where
    ``Re(-z^2/2) >= 700`` or it is below ``1e-150``.

    With ``slope``, where the moment series serves, the pair ``(g_tilde,
    g_tilde')`` instead (below the band only where ``g_tilde`` is plain):
    ``1 - z g_tilde`` cancels there, completely from ``|z|`` about 1e8, so
    ``g_tilde' = (1 - z G) - z e`` takes ``1 - z G`` from
    :func:`_moment_series`, with ``e`` the exponential term.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"g_tilde needs a finite argument, got {z!r}")
    x, y = z.real, z.imag
    r2 = x * x + y * y
    band = _in_band(x, y)
    below = not band and y <= 0.0
    if band:
        if r2 > _FAR_R2_MAX:  # 1/z, the moment series' first term, in scaled form
            v = ScaledComplex(z)
            return ScaledComplex(1.0 / v.mantissa, -v.log_scale)
        ex = _band_exp_term(x, y)
    elif below:
        hi, lo = _half_diff_of_squares(x, y)
        if not hi < math.inf:  # NaN or +inf; a finite hi implies a finite x*y
            raise DomainError(f"-z^2/2 overflows binary64 at z = {z!r}")
        coeff = complex(0.0, -_SQRT_TWO_PI * (1.0 + lo))
        e = complex(hi, -x * y)
        if hi > _EXP_ALONE:
            if hi < _SCALED_FROM:
                return coeff * cmath.exp(e)
            return ScaledComplex(coeff * cmath.exp(complex(0.0, e.imag)), hi)
        # exp(-z^2/2) is 0 at hi = -inf, though x*y may be infinite
        ex = coeff * cmath.exp(e) if hi > -math.inf else None
    else:
        ex = None
    dG = None
    if _FAR_R2_MIN <= r2 <= _FAR_R2_MAX:
        w = 1.0 / z
        alg, dG = _moment_series(w, w * w, math.sqrt(r2))
    elif band:
        alg = _near_axis(x, y)
    elif below:
        alg = _I_SQRT_HALF_PI * _w_upper(-z / _SQRT2)
    else:
        alg = _MINUS_I_SQRT_HALF_PI * _w_upper(z / _SQRT2)
    g = alg if ex is None else alg + ex
    plain = abs(g) >= _PLAIN_G_MIN
    # below the band a tiny g sits near a zero, where -g'/g^2 would overflow
    if slope and dG is not None and (plain or not below):
        return g, dG if ex is None else dG - z * ex
    if plain:
        return g
    if below and ex is not None:
        return ScaledComplex(alg) + coeff * ScaledComplex.exp_of(e)
    return ScaledComplex(g)


#: ``1/g_tilde`` is refused where ``log|g_tilde|`` is below this, the log of
#: the binary64 decade floor 1e-300
_POLE_LOG_FLOOR = -690.775527898214


def _f_eval(z: complex, slope: bool = False):
    """``1/g_tilde(z)``, raising ``PoleProximity`` below the pole floor.

    With ``slope``, the pair ``(g_tilde, g_tilde')`` where :func:`_g_eval`
    gives it.
    """
    g = _g_eval(z, slope)
    if type(g) is complex:  # |g| >= 1e-150 = e^-345.4 is above the floor
        return 1.0 / g
    if type(g) is tuple:
        return g
    if g.is_zero or g.log_abs() < _POLE_LOG_FLOOR:
        raise PoleProximity(
            f"|g_tilde({z!r})| ~ exp({g.log_abs():.3g}) is below the pole floor"
        )
    return g.reciprocal()


def g_tilde(z: complex) -> ScaledComplex:
    """Entire continuation of the Gaussian Cauchy transform.

    Certified to relative error 1e-12 on ``Xi intersect {|z| <= 30}``; it
    degrades only near the zeros, all below ``Xi``.  Raises ``DomainError``
    if ``z`` is not finite, where the Faddeeva kernel overflows (both parts
    of ``z`` near 1e308), and where ``Re(-z^2/2)`` overflows to ``+inf``
    below the axis (``|Im z|`` past about 1.3e154).
    """
    g = _g_eval(z)
    return g if type(g) is ScaledComplex else ScaledComplex(g)


def _far_field(z: complex) -> bool:
    """Past ``|z|^2 = 1e300`` above the axis or in the band: ``g' = -1/z^2``, ``f' = 1``."""
    x, y = z.real, z.imag
    return (y > 0.0 or _in_band(x, y)) and x * x + y * y > _FAR_R2_MAX


def g_tilde_prime(z: complex) -> ScaledComplex:
    """Derivative of :func:`g_tilde` by the closed form ``1 - z*g_tilde(z)``.

    Where the moment series serves, ``(1 - z G) - z e`` from its parts, as
    ``1 - z g_tilde`` cancels there (see :func:`_g_eval`); past ``|z|^2 =
    1e300`` above the axis or in the band, ``-g_tilde^2``.
    """
    z = complex(z)
    g = _g_eval(z, True)
    if type(g) is tuple:
        return ScaledComplex(g[1])
    if type(g) is ScaledComplex and _far_field(z):
        return -(g * g)
    gp = 1.0 - z * g
    if type(gp) is complex and not cmath.isfinite(gp):  # |z g| past 1e308
        gp = 1.0 - z * ScaledComplex(g)
    return gp if type(gp) is ScaledComplex else ScaledComplex(gp)


def f_tilde(z: complex) -> ScaledComplex:
    """Reciprocal transform ``1/g_tilde``.

    Raises ``PoleProximity`` where ``|g_tilde(z)|`` is below ``1e-300``
    (the pole of ``f_tilde`` nearest to ``z`` would dominate the value), and
    ``DomainError`` where :func:`g_tilde` does.
    """
    F = _f_eval(z)
    return F if type(F) is ScaledComplex else ScaledComplex(F)


def f_tilde_prime(z: complex) -> ScaledComplex:
    """Derivative of ``F = f_tilde(z)`` by the closed form ``F (z - F)``.

    Where the moment series serves, ``-g_tilde' / g_tilde^2`` with
    ``g_tilde'`` from its parts, as ``F (z - F)`` cancels there (see
    :func:`_g_eval`); past ``|z|^2 = 1e300`` above the axis or in the band,
    1.  Raises as :func:`f_tilde`.
    """
    z = complex(z)
    F = _f_eval(z, True)
    if type(F) is tuple:
        g, gp = F
        return ScaledComplex(-gp / g / g)
    if type(F) is ScaledComplex and _far_field(z):
        return ScaledComplex(1.0)
    fp = F * (z - F)
    return fp if type(fp) is ScaledComplex else ScaledComplex(fp)


def rho(x: float) -> ScaledComplex:
    """``rho(x) = i * g_tilde(i x)``: positive, strictly decreasing on R.

    ``rho(x) = sqrt(pi/2) e^{x^2/2} erfc(x/sqrt 2)``, so it decays like
    ``1/x`` as ``x -> +inf`` and explodes like ``2 sqrt(pi/2) e^{x^2/2}`` as
    ``x -> -inf``; the scaled return type keeps the latter representable
    down to ``x`` about ``-1.3e154``, past which ``DomainError`` is raised.

    Its public ``mantissa`` and ``log_scale`` are those of ``i g_tilde(i
    x)`` bit for bit.  One ``ScaledComplex`` is built where ``g_tilde(i x)``
    is plain, two where it is scaled (past ``x`` about -37.4 and 1e150).
    """
    y = float(x)
    if not math.isfinite(y):
        raise DomainError(f"rho needs a finite argument, got {x!r}")
    g = _g_eval(complex(0.0, y))
    if type(g) is complex:
        return ScaledComplex(1j * g)
    return ScaledComplex(1j * g.mantissa, g.log_scale)


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
    independent of the Faddeeva kernel; tests use it as the oracle.

    ``eps`` defaults to a hair inside the largest cone containing ``z``;
    pass it explicitly to assert membership in a particular ``D_eps``.  The
    rays are truncated at a radius chosen from the tail bound to meet ``tol``.

    Raises
    ------
    DomainError
        If the angle ordering ``0 < eta < eps < pi/4`` fails, or ``z`` is
        outside the cone or on the contour.
    QuadratureFailure
        If the tail bound or the quadrature cannot meet ``tol``.
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
        raise DomainError(f"need 0 < eta < eps < pi/4, got eta={eta}, eps={eps}")
    if z == 0 or not _in_cone(z, eps):
        raise DomainError(f"{z!r} is outside the validity cone for eps={eps}")

    alpha = -0.25 * math.pi + eta
    dist = min(_ray_distance(z, alpha), _ray_distance(z, math.pi - alpha))
    if dist <= 0.0:
        raise DomainError(f"{z!r} lies on the contour")
    s2 = math.sin(2.0 * eta)

    def tail_bound(r: float) -> float:
        if r <= abs(z) + 1.0:
            return math.inf
        # 2 rays, |z - w| >= |w| - |z| >= r - |z| past the truncation
        gap = r - abs(z)
        return 2.0 * math.exp(-0.5 * r * r * s2) / (_SQRT_TWO_PI * gap * r * s2)

    radius = abs(z) + 2.0
    for _ in range(200):
        if tail_bound(radius) < 0.1 * tol:
            break
        radius *= 1.25
    if tail_bound(radius) > tol:
        raise QuadratureFailure(
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
        raise QuadratureFailure(
            f"quadrature error estimate {qerr:.3g} exceeds tolerance {tol}"
        )
    return ScaledComplex(total)


def contour_moment(n: int, eta: float) -> float:
    """``integral of w^n`` against the Gaussian density over the rotated contour.

    Reproduces the moments: 1 for ``n = 0``, ``(n-1)!!`` for even ``n``, 0 for
    odd ``n``.  Shares the contour conventions of
    :func:`g_tilde_contour_oracle`; used by tests to validate the contour
    plumbing on a closed-form target.  Raises ``DomainError`` unless
    ``0 < eta < pi/4``, and ``QuadratureFailure`` if ``w^n`` overflows on
    the truncated rays or the summed error estimate of the two rays exceeds
    ``1e-11 * max(1, |value|)``.
    """
    if not (0.0 < eta < 0.25 * math.pi):
        raise DomainError(f"need 0 < eta < pi/4, got {eta}")
    radius = math.sqrt(2.0 * (40.0 + 3.0 * n) / math.sin(2.0 * eta))
    alpha = -0.25 * math.pi + eta
    e_r = cmath.exp(complex(0.0, alpha))
    e_l = cmath.exp(complex(0.0, math.pi - alpha))

    def integrand(t: float, direction: complex) -> complex:
        w = t * direction
        try:
            return direction * w**n * cmath.exp(-0.5 * w * w) / _SQRT_TWO_PI
        except OverflowError as exc:
            raise QuadratureFailure(
                f"the order-{n} moment integrand overflows at |w| = {t:.6g}"
            ) from exc

    val_r, err_r = quad(lambda t: integrand(t, e_r), 0.0, radius, epsabs=1e-13)
    val_l, err_l = quad(lambda t: integrand(t, e_l), 0.0, radius, epsabs=1e-13)
    total = val_r - val_l
    if not err_r + err_l <= 1e-11 * max(1.0, abs(total)):
        raise QuadratureFailure(
            f"order-{n} moment: error estimate {err_r + err_l:.3g} exceeds "
            f"1e-11 max(1, |value|)"
        )
    return total.real
