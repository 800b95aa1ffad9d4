"""Free Levy measure of the standard normal law, and its consistency checks.

The measure splits as ``nu(dx) = h(|x|)/(pi x^2) dx`` off the origin, where
``h`` is the boundary-curve height.  The companion finite measure ``tau``
from the Pick-Nevanlinna representation of the shifted inverse transform

    phi(w) = f_tilde^{-1}(w) - w = b + integral (1 + w x)/(w - x) tau(dx)

has density ``h(|x|)/(pi (1 + x^2))``; symmetry forces ``b = 0`` and the
atom at the origin (the semicircular component) vanishes.  Two facts make
cheap cross-checks possible: ``Im phi(i) = -tau(R)`` ties the quadrature of
the density to a single Newton solve, and ``tau({0}) = lim T |f_tilde(-iT)| T``
is explicitly ``~ T exp(-T^2/2)/sqrt(2 pi)``.
"""

from __future__ import annotations

import cmath
import math
import sys

from .curve import X_ASYMPTOTIC, X_HI, _newton_confined, in_omega, solve_H
from .errors import DomainError, NoConvergence, PoleProximity, QuadratureFailure
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
#: tau_total_mass integrates up to here; the normal tail past it is 6e-16
_TAU_CUT = 8.0


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
    return _require_normal(h / _PI / x / x, f"the free Levy density at x = {x}")


def voiculescu(w: complex) -> complex:
    """``phi(w) = f_tilde^{-1}(w) - w`` on the closed upper half plane off 0.

    Real ``w`` uses the boundary parametrization
    ``f_tilde^{-1}(x) = sign(x) g(|x|) - i h(|x|)`` directly.  Elsewhere
    ``z - w`` cancels about ``2 log10 |w|`` digits of ``z``, so from
    ``|w| = X_ASYMPTOTIC`` (30, where the curve solver also switches to its
    series) the free-cumulant series ``sum kappa_{2n} w^{1-2n}`` is summed
    instead (its first dropped term is below 1e-16 relative there).
    Below, a relative-residual Newton iteration on ``log f_tilde(z) = log w``
    runs from the two-term large-argument seed ``w + 1/w`` (falling back to
    ``w``), confined to the certified region, and the solution is verified
    to lie in the bijectivity domain.  Past ``|w| = 1/sys.float_info.min``
    (about 4.49e307), where ``|phi| ~ 1/|w|`` is no longer a normal binary64
    number, ``DomainError`` is raised.
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
    if w.imag == 0.0:
        pt = solve_H(abs(w.real))
        return complex(math.copysign(pt.g, w.real) - w.real, -pt.h)
    if r >= X_ASYMPTOTIC:
        iw = 1.0 / w
        return _horner(_free_floats(_PHI_SERIES_ORDER), iw * iw) * iw

    z = None
    for seed in (w + 1.0 / w, w):
        try:
            z, _ = _newton_confined(seed, w, log=True)
            break
        except (NoConvergence, PoleProximity, DomainError):
            continue  # w + 1/w is past the transform's range for tiny |w|
    if z is None:
        raise NoConvergence(f"inversion of f_tilde at w = {w!r} failed")
    if not in_omega(z):
        raise NoConvergence(
            f"inversion at w = {w!r} converged outside the bijectivity domain",
            last_iterate=z,
        )
    return z - w


def tau_total_mass(quad_tol: float) -> float:
    """Total mass of ``tau`` by quadrature of ``h(|x|)/(pi (1 + x^2))``.

    The positive half line is integrated in two tanh-sinh pieces on ``x``
    itself, ``(0, X_HI]`` and ``[X_HI, _TAU_CUT]``, and the result is doubled
    by symmetry.  The rule takes the ``sqrt(2 log 1/x)`` growth of ``h`` at
    the origin in its stride, and the cut at ``X_HI`` lets each piece stop
    at the step its own integrand needs.  Past ``X_HI``,
    ``h ~ e^-1 sqrt(pi/2) x^2 exp(-x^2/2)``, so the integrand lies below the
    normal density ``exp(-x^2/2)/sqrt(2 pi)``; the part past ``_TAU_CUT``
    is left out, and its bound ``erfc(_TAU_CUT/sqrt 2)/2`` (6e-16) is added
    to the error estimate.  Raises ``QuadratureFailure`` when the combined
    error estimate exceeds ``quad_tol``.
    """
    if not (quad_tol > 0 and math.isfinite(quad_tol)):
        raise DomainError(f"need a finite positive tolerance, got {quad_tol}")

    def body(x: float) -> float:
        return solve_H(x).h / (_PI * (1.0 + x * x))

    total = 0.0
    err = 0.5 * math.erfc(_TAU_CUT / math.sqrt(2.0))
    for a, b in ((0.0, X_HI), (X_HI, _TAU_CUT)):
        v, e = quad(body, a, b, epsabs=quad_tol / 8, epsrel=1e-12)
        total += v
        err += e
    if err > quad_tol:
        raise QuadratureFailure(
            f"error estimate {err:.3g} exceeds requested {quad_tol}"
        )
    return 2.0 * total


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
