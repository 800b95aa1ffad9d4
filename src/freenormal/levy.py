"""Free Levy measure of the standard normal law, and its consistency checks.

The measure splits as ``nu(dx) = h(|x|)/(pi x^2) dx`` off the origin, where
``h`` is the boundary-curve height.  The companion finite measure ``tau``
from the Pick-Nevanlinna representation of the shifted inverse transform

    phi(w) = f_tilde^{-1}(w) - w = b + integral (1 + w x)/(w - x) tau(dx)

has density ``h(|x|)/(pi (1 + x^2))``; symmetry forces ``b = 0`` and the
atom at the origin (the semicircular component) vanishes.  Two facts make
cheap cross-checks possible.  Folded by symmetry the representation reads
``phi(w) = (2w/pi) integral_0^inf h(x)/(w^2 - x^2) dx``; its quadrature
reads ``h`` off the curve solver's Newton-corrected jet table, and
``voiculescu`` inverts ``f_tilde`` by Newton, so the two check each other,
``w = i`` giving ``Im phi(i) = -tau(R)``.  And ``tau({0}) = lim T
|f_tilde(-iT)| T`` is explicitly ``~ T exp(-T^2/2)/sqrt(2 pi)``.
"""

from __future__ import annotations

import cmath
import math
import sys

from .curve import (
    _TABLE_H_REL_ERR,
    X_ASYMPTOTIC,
    X_JET,
    _confined,
    _newton_confined,
    _table_H,
    solve_H,
)
from .errors import DomainError, NoConvergence, QuadratureFailure
from .series import _free_floats, _horner
from .transforms import _require_normal, f_tilde, quad

__all__ = [
    "levy_density",
    "voiculescu",
    "tau_total_mass",
    "semicircular_component_check",
]

_PI = math.pi

#: from |w| = X_ASYMPTOTIC on, phi(w) is the series in kappa_2 .. kappa_{2 _PHI_SERIES_ORDER}
_PHI_SERIES_ORDER = 8
#: from this |w| on, Newton starts from the two-term large-argument seed w + 1/w; below, from w
_PHI_SEED_SWITCH = 0.5
#: tau_total_mass splits here, where h turns from its log growth to Gaussian decay
_TAU_SPLIT = 3.5
#: tau_total_mass integrates up to here, the end of the jet table that
#: ``_table_H`` reads; the normal tail past it is 6e-16
_TAU_CUT = X_JET


def levy_density(x: float) -> float:
    """``h(|x|) / (pi x^2)``, the free Levy density; even and positive.

    Raises ``DomainError`` where the density is not a finite normal binary64
    number (from about ``|x| = 37.6``, and below about ``|x| = 2e-154``,
    where it overflows), rather than return a subnormal, zero or infinity.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("the free Levy density lives on nonzero x")
    h = solve_H(abs(x)).h
    # x * x would underflow to 0 for tiny x
    return _require_normal(h / _PI / x / x, "the free Levy density at x = {}", x)


def voiculescu(w: complex) -> complex:
    """``phi(w) = f_tilde^{-1}(w) - w`` on the closed upper half plane off 0.

    Real ``w`` uses the boundary parametrization
    ``f_tilde^{-1}(x) = sign(x) g(|x|) - i h(|x|)`` directly, and so does
    ``w`` whose first-order change of ``phi`` from ``Re w``, ``Im w
    |phi'(Re w)|``, is below half an ulp of ``|phi|``: there ``solve_H``'s
    curve point is ``phi`` to binary64, for one evaluation.  Elsewhere
    ``z - w`` cancels about ``2 log10 |w|`` digits of ``z``, so from ``|w| =
    X_ASYMPTOTIC`` (30, where the curve solver also switches to its series)
    the free-cumulant series ``sum kappa_{2n} w^{1-2n}`` is summed instead
    (its first dropped term is below 1e-16 relative there).  Below, one
    relative-residual Newton iteration on ``log f_tilde(z) = log w``,
    confined to the certified region ``Xi``, runs from the two-term
    large-argument seed ``w + 1/w`` from ``|w| = _PHI_SEED_SWITCH`` (0.5)
    on, and from ``w`` below it.  Its root is accepted on ``Xi``: there
    ``Im f_tilde > 0`` only above the curve (see ``in_omega``), so a root
    of ``f_tilde(z) = w`` with ``Im w > 0`` lies in the bijectivity domain.
    Past ``|w| = 1/sys.float_info.min`` (about 4.49e307), where ``|phi| ~
    1/|w|`` is no longer a normal binary64 number, ``DomainError`` is raised.
    """
    w = complex(w)
    if not cmath.isfinite(w):
        raise DomainError(f"phi needs a finite argument, got {w!r}")
    if w == 0:
        raise DomainError("the shifted inverse transform has a pole at w = 0")
    if w.imag < 0.0:
        raise DomainError(f"defined on the closed upper half plane, got {w!r}")
    # hypot gives inf where abs(w) would raise OverflowError
    r = math.hypot(w.real, w.imag)
    if r > 1.0 / sys.float_info.min:
        raise DomainError(f"|phi| ~ 1/|w| is subnormal at w = {w!r}")
    # the half-ulp test passes only for Im w < 1.4e-13 |Re w| (x from 1e-308 to 30)
    if w.imag <= 1e-12 * abs(w.real) and (w.imag == 0.0 or r < X_ASYMPTOTIC):
        pt = solve_H(abs(w.real))
        d = pt.z - pt.x  # phi(x), and phi'(x) = 1/(x d) - 1 by the curve ODE
        if w.imag * abs(1.0 - pt.x * d) <= 0.5 * math.ulp(abs(d)) * abs(d) * pt.x:
            return complex(math.copysign(pt.g, w.real) - w.real, -pt.h)
    if r >= X_ASYMPTOTIC:
        iw = 1.0 / w
        return _horner(_free_floats(_PHI_SERIES_ORDER), iw * iw) * iw

    z = _newton_confined(w + 1.0 / w if r >= _PHI_SEED_SWITCH else w, w, log=True)[0]
    if not _confined(z):  # a seed outside Xi from which no step was kept
        raise NoConvergence(f"inversion of f_tilde at w = {w!r} left Xi", last_iterate=z)
    return z - w


def _curve_quad(integrand, quad_tol: float) -> tuple:
    """``integral_0^_TAU_CUT integrand(x, h(x)) dx`` and its error estimate.

    Two tanh-sinh pieces on ``x`` itself, ``(0, _TAU_SPLIT]`` and
    ``[_TAU_SPLIT, _TAU_CUT]``, each stopping at the step its own integrand
    needs.  ``h`` is read off the jet table (``_table_H``), so no transform
    is evaluated once the table is built, and each piece's estimate carries
    the table's relative bound ``_TABLE_H_REL_ERR`` times its value.  The
    part past ``_TAU_CUT`` is the caller's to bound.
    """
    total = err = 0.0
    for a, b in ((0.0, _TAU_SPLIT), (_TAU_SPLIT, _TAU_CUT)):
        v, e = quad(lambda x: integrand(x, -_table_H(x).imag), a, b,
                    epsabs=quad_tol / 8, epsrel=1e-12)
        total += v
        err += e + _TABLE_H_REL_ERR * abs(v)
    return total, err


def tau_total_mass(quad_tol: float) -> float:
    """Total mass of ``tau`` by quadrature of ``h(|x|)/(pi (1 + x^2))``.

    The positive half line is integrated by ``_curve_quad`` and the result
    doubled by symmetry.  The rule takes the ``sqrt(2 log 1/x)`` growth of
    ``h`` at the origin in its stride.  Past ``_TAU_SPLIT = 3.5``,
    ``h ~ e^-1 sqrt(pi/2) x^2 exp(-x^2/2)``, so the integrand lies below the
    normal density ``exp(-x^2/2)/sqrt(2 pi)``; the part past ``_TAU_CUT`` is
    left out, and its bound ``erfc(_TAU_CUT/sqrt 2)/2`` (6e-16) is added to
    the error estimate, as is the jet table's bound on ``h``.  Raises
    ``QuadratureFailure`` when the combined error estimate exceeds
    ``quad_tol``.
    """
    if not (quad_tol > 0 and math.isfinite(quad_tol)):
        raise DomainError(f"need a finite positive tolerance, got {quad_tol}")
    total, err = _curve_quad(lambda x, h: h / (_PI * (1.0 + x * x)), quad_tol)
    err += 0.5 * math.erfc(_TAU_CUT / math.sqrt(2.0))
    if err > quad_tol:
        raise QuadratureFailure(
            f"error estimate {err:.3g} exceeds requested {quad_tol}"
        )
    return 2.0 * total


def _phi_quadrature(w: complex, quad_tol: float) -> tuple:
    """``phi(w)`` from the free Levy-Khintchine form, and its error estimate.

    ``phi(w) = (2w/pi) integral_0^inf h(x)/(w^2 - x^2) dx`` on the upper
    half plane, ``tau``'s representation folded by symmetry; ``w = i`` gives
    ``-i tau(R)``.  Integrated by ``_curve_quad``, whose cut at ``_TAU_CUT``
    leaves out at most ``2 |w| (1 + c^2)/(c^2 - |w|^2)`` times ``tau``'s tail
    ``erfc(c/sqrt 2)/2`` (``c = _TAU_CUT``, for ``|w| < c``), which is
    added to the estimate.
    """
    w2 = w * w
    v, e = _curve_quad(lambda x, h: h / (w2 - x * x), quad_tol)
    c2 = _TAU_CUT * _TAU_CUT
    r = abs(w)
    tail = r * (1.0 + c2) / (c2 - r * r) * math.erfc(_TAU_CUT / math.sqrt(2.0))
    return 2.0 * w / _PI * v, 2.0 * r / _PI * e + tail


def semicircular_component_check(T: float) -> float:
    """``|f_tilde(-iT) * T|``, the vanishing-atom witness at the origin.

    Decays like ``T exp(-T^2/2)/sqrt(2 pi)``; a nonvanishing limit would be
    the mass of a semicircular component.  Computed in scaled arithmetic,
    and returned as 0.0 wherever it falls below the smallest normal binary64
    number (``T`` below about 2.8e-308, or above about 37.71) rather than as
    a subnormal with a few significant bits.
    """
    T = float(T)
    if not (T >= 0 and math.isfinite(T)):
        raise DomainError(f"need a finite T >= 0, got {T}")
    # past 1e154 -T^2/2 overflows
    if T == 0.0 or T > 1e154:
        return 0.0
    val = abs((f_tilde(complex(0.0, -T)) * T).to_complex())
    return val if val >= sys.float_info.min else 0.0
