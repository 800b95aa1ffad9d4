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

from .config import DEFAULT_CONFIG, EvalConfig
from .curve import _newton_confined, in_omega, solve_H
from .errors import DomainError, NoConvergence, PoleProximity, QuadratureFailure
from .series import eval_h_asym_infinity, free_cumulants
from .transforms import f_tilde, quad

__all__ = [
    "levy_density",
    "voiculescu",
    "tau_total_mass",
    "semicircular_component_check",
]

_PI = math.pi

#: from this |w| on, phi(w) is the series in kappa_2 .. kappa_{2 _PHI_SERIES_ORDER}
_PHI_SERIES_FROM = 30.0
_PHI_SERIES_ORDER = 8


def levy_density(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """``h(|x|) / (pi x^2)``, the free Levy density; even and positive.

    Raises ``DomainError`` where the density is not a finite normal binary64
    number (from about ``|x| = 37.6``, and below about ``|x| = 2e-154``,
    where it overflows), rather than return a subnormal, zero or infinity.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("the free Levy density lives on nonzero x")
    pt = solve_H(abs(x), config)
    density = pt.h / _PI / x / x  # x * x would underflow to 0 for tiny x
    if not sys.float_info.min <= density < math.inf:
        raise DomainError(
            f"the free Levy density at x = {x} is not a normal binary64 number"
        )
    return density


def voiculescu(w: complex, config: EvalConfig = DEFAULT_CONFIG) -> complex:
    """``phi(w) = f_tilde^{-1}(w) - w`` on the closed upper half plane off 0.

    Real ``w`` uses the boundary parametrization
    ``f_tilde^{-1}(x) = sign(x) g(|x|) - i h(|x|)`` directly.  Elsewhere
    ``z - w`` cancels about ``2 log10 |w|`` digits of ``z``, so from
    ``|w| = 30`` the free-cumulant series ``sum kappa_{2n} w^{1-2n}`` is
    summed instead (its first dropped term is below 1e-16 relative there).
    Below, a relative-residual Newton iteration on ``log f_tilde(z) = log w``
    runs from the two-term large-argument seed ``w + 1/w`` (falling back to
    ``w``), confined to the certified region, and the solution is verified
    to lie in the bijectivity domain.
    """
    w = complex(w)
    if not cmath.isfinite(w):
        raise DomainError(f"phi needs a finite argument, got {w!r}")
    if w == 0:
        raise DomainError("the shifted inverse transform has a pole at w = 0")
    if w.imag < 0.0:
        raise DomainError(f"defined on the closed upper half plane, got {w!r}")
    if w.imag == 0.0:
        pt = solve_H(abs(w.real), config)
        return complex(math.copysign(pt.g, w.real) - w.real, -pt.h)
    if abs(w) >= _PHI_SERIES_FROM:
        iw = 1.0 / w
        u = iw * iw
        acc = 0j
        for kappa in reversed(free_cumulants(_PHI_SERIES_ORDER).coefficients):
            acc = acc * u + float(kappa)
        return acc * iw

    z = None
    for seed in (w + 1.0 / w, w):
        try:
            z, _, _ = _newton_confined(seed, w, config, log=True)
            break
        except (NoConvergence, PoleProximity):
            continue
    if z is None:
        raise NoConvergence(f"inversion of f_tilde at w = {w!r} failed")
    if not in_omega(z, config):
        raise NoConvergence(
            f"inversion at w = {w!r} converged outside the bijectivity domain",
            last_iterate=z,
        )
    return z - w


def tau_total_mass(
    quad_tol: float, config: EvalConfig = DEFAULT_CONFIG
) -> float:
    """Total mass of ``tau`` by quadrature of ``h(|x|)/(pi (1 + x^2))``.

    The positive half line splits at the curve solver's regime thresholds:

    * ``(0, x_lo]`` under ``x = exp(-u)``, where the integrand inherits the
      ``sqrt(2 log 1/x)`` growth of ``h`` and decays like ``exp(-u) sqrt(u)``;
    * ``[x_lo, x_hi]`` directly against solver values;
    * ``[x_hi, oo)`` against the large-x series for ``h``, whose Gaussian
      factor makes everything beyond ``x = 40`` vanish under binary64.

    The result is doubled by symmetry.  Raises ``QuadratureFailure`` when the
    combined error estimate exceeds ``quad_tol``.
    """
    if not (quad_tol > 0 and math.isfinite(quad_tol)):
        raise DomainError(f"need a finite positive tolerance, got {quad_tol}")

    def body(x: float) -> float:
        return solve_H(x, config).h / (_PI * (1.0 + x * x))

    def small(u: float) -> float:
        x = math.exp(-u)
        return solve_H(x, config).h * x / (_PI * (1.0 + x * x))

    def tail(x: float) -> float:
        h = eval_h_asym_infinity(x, 3).to_complex().real
        return h / (_PI * (1.0 + x * x))

    u_lo = -math.log(config.x_lo)
    v1, e1 = quad(small, u_lo, 60.0, epsabs=quad_tol / 8, epsrel=1e-12, limit=300)
    v2, e2 = quad(
        body, config.x_lo, config.x_hi, epsabs=quad_tol / 8, epsrel=1e-12,
        limit=300,
    )
    v3, e3 = quad(tail, config.x_hi, 40.0, epsabs=quad_tol / 8, epsrel=1e-12,
                  limit=300)
    err = e1 + e2 + e3
    if err > quad_tol:
        raise QuadratureFailure(
            f"error estimate {err:.3g} exceeds requested {quad_tol}"
        )
    return 2.0 * (v1 + v2 + v3)


def semicircular_component_check(
    T: float, config: EvalConfig = DEFAULT_CONFIG
) -> float:
    """``|f_tilde(-iT) * T|``, the vanishing-atom witness at the origin.

    Decays like ``T exp(-T^2/2)/sqrt(2 pi)``; a nonvanishing limit would be
    the mass of a semicircular component.  Computed in scaled arithmetic, so
    very large ``T`` cleanly underflows to 0.0 rather than failing.
    """
    T = float(T)
    if T < 0:
        raise DomainError(f"need T >= 0, got {T}")
    if T == 0.0:
        return 0.0
    val = f_tilde(complex(0.0, -T), config) * T
    la = val.log_abs()
    if la < -745.0:
        return 0.0
    return abs(val.to_complex())
