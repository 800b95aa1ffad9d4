"""Independent reference values, computed with mpmath apart from the program.

* ``g_tilde(z) = -i sqrt(pi/2) exp(-z^2/2) erfc(-i z / sqrt 2)``, the entire
  continuation, in arbitrary precision (deliberately not
  ``scipy.special.wofz``, which an evaluator may come to use itself).
* Curve points ``H(x) = g - i h`` as Newton roots of ``g_tilde(H) = 1/x`` at
  ``40 + x^2/(2 ln 10)`` digits: ``h`` is ``exp(-x^2/2)``-small against
  ``g ~ x``, so a fixed working precision would resolve none of its digits at
  large ``x``.  Seeds come from the program's value; the root is accepted
  only if it is the unique curve point (``g, h > 0``, ``g h < pi/2``).
* The boundary function ``f(a) = -b`` where ``a - i b`` is the curve point
  with real part ``a``: a Newton root of ``arg g_tilde(a - i b) = 0``.
* Free and Boolean cumulants from the moments ``(2n-1)!!`` by the
  moment-cumulant recursions, in exact rationals.

Nothing here is cached: every run computes its references anew.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

LN10 = math.log(10.0)
BASE_DPS = 40


class OracleFailure(Exception):
    """A reference value could not be computed or validated."""


def _dps_for(x: float) -> int:
    return int(BASE_DPS + x * x / (2.0 * LN10)) + 10


def _g(z):
    """g_tilde at the current working precision (z an mpc)."""
    return -1j * mp.sqrt(mp.pi / 2) * mp.exp(-z * z / 2) * mp.erfc(-1j * z / mp.sqrt(2))


def scaled_to_mp(v):
    """A serialized ScaledComplex ``[re, im, log_scale]`` as an mpc."""
    return mp.mpc(v[0], v[1]) * mp.exp(mp.mpf(v[2]))


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

def transforms(z: complex) -> dict:
    """``g``, ``g'``, ``F``, ``F'`` at ``z``, each with the scale its error is
    taken at (an mpc and an mpf at 40 digits).

    ``g`` and ``F`` are judged by relative error.  ``g' = 1 - z g`` and
    ``F' = F (z - F)`` cancel at large ``|z|`` (both fall like ``1/z^2``),
    so their error is taken relative to the largest term of that closed
    form, the scale any evaluation through it works at.
    """
    with mp.workdps(BASE_DPS):
        zz = mp.mpc(z.real, z.imag)
        g = _g(zz)
        F = 1 / g
        gp = 1 - zz * g
        Fp = F * (zz - F)
        return {
            "g": (g, abs(g)),
            "gp": (gp, max(abs(gp), 1, abs(zz * g))),
            "f": (F, abs(F)),
            "fp": (Fp, max(abs(Fp), abs(F * zz), abs(F) ** 2)),
        }


def rho(x: float):
    """``rho(x) = sqrt(pi/2) exp(x^2/2) erfc(x/sqrt 2)``."""
    with mp.workdps(BASE_DPS):
        xx = mp.mpf(x)
        return mp.sqrt(mp.pi / 2) * mp.exp(xx * xx / 2) * mp.erfc(xx / mp.sqrt(2))


def transform_errors(z: complex, out: dict) -> dict:
    """Errors of the program's g, g', F, F' (serialized ScaledComplex) at
    ``z``, and of its own ``F'`` against ``F (z - F)`` with its own ``F``."""
    refs = transforms(z)
    with mp.workdps(BASE_DPS):
        got = {k: scaled_to_mp(out[k]) for k in refs}
        errs = {k: float(abs(got[k] - ref) / scale) for k, (ref, scale) in refs.items()}
        zz = mp.mpc(z.real, z.imag)
        errs["identity"] = float(abs(got["fp"] - got["f"] * (zz - got["f"])) / refs["fp"][1])
        return errs


def rho_error(x: float, out) -> float:
    with mp.workdps(BASE_DPS):
        ref = rho(x)
        return float(abs(scaled_to_mp(out) - ref) / ref)


# --------------------------------------------------------------------------
# the curve, the boundary function and the inverse transform
# --------------------------------------------------------------------------

def curve_point(x: float, seed: complex):
    """``(g, h)`` of ``H(x)`` as mpf at ``40 + x^2/(2 ln 10)`` digits."""
    dps = _dps_for(x)
    with mp.workdps(dps):
        z = mp.mpc(seed.real, seed.imag)
        target = 1 / mp.mpf(x)
        tol = mp.mpf(10) ** (-(dps - 8))
        for _ in range(60):
            g = _g(z)
            dz = (g - target) / (1 - z * g)
            z -= dz
            if abs(dz) <= tol * abs(z):
                break
        else:
            raise OracleFailure(f"curve root at x = {x} did not converge")
        gg, hh = z.real, -z.imag
        if not (gg > 0 and hh > 0 and gg * hh < mp.pi / 2):
            raise OracleFailure(f"root at x = {x} is not the curve point: {z}")
        return +gg, +hh


def boundary_f(a: float, seed_b: float):
    """``f(a) = -b`` with ``a - i b`` on the curve, as an mpf (``a > 0``)."""
    dps = _dps_for(a)
    with mp.workdps(dps):
        aa = mp.mpf(a)
        b = mp.mpf(seed_b)
        tol = mp.mpf(10) ** (-(BASE_DPS - 5))
        for _ in range(80):
            z = mp.mpc(aa, -b)
            g = _g(z)
            F = 1 / g
            # d/db arg g_tilde(a - i b) = a - Re F
            db = mp.arg(g) / (aa - F.real)
            b -= db
            if abs(db) <= tol * abs(b):
                break
        else:
            raise OracleFailure(f"boundary root at a = {a} did not converge")
        g = _g(mp.mpc(aa, -b))
        # near a = 0, a b is pi/2 to far more digits than are carried
        if not (b > 0 and aa * b < mp.pi / 2 * (1 + tol) and g.real > 0):
            raise OracleFailure(f"root at a = {a} is not on the curve: b = {b}")
        return -b


def voiculescu(w: complex, seed_z: complex):
    """``phi(w) = F^{-1}(w) - w`` as an mpc.

    For ``|w| >= 1e4`` it is the R-transform series
    ``sum_n kappa_{2n} w^{1-2n}`` with the cumulants of ``free_cumulants``;
    closer in, a Newton root of ``g_tilde(z) = 1/w`` at a working precision
    that covers the digits cancelling in ``z - w``.
    """
    if abs(w) >= 1e4:
        kappa = _free_cumulants(24)[1::2]
        with mp.workdps(BASE_DPS + 10):
            ww = mp.mpc(w.real, w.imag)
            u = 1 / (ww * ww)
            phi, term = mp.mpc(0), 1 / ww
            for k in kappa:
                phi += k * term
                term *= u
            return +phi
    dps = BASE_DPS + 4 * max(0, int(math.log10(max(1.0, abs(w))))) + 10
    with mp.workdps(dps):
        ww = mp.mpc(w.real, w.imag)
        z = mp.mpc(seed_z.real, seed_z.imag)
        target = 1 / ww
        tol = mp.mpf(10) ** (-(BASE_DPS - 5))
        for _ in range(60):
            g = _g(z)
            dz = (g - target) / (1 - z * g)
            z -= dz
            if abs(dz) <= tol * abs(z - ww):
                break
        else:
            raise OracleFailure(f"inverse at w = {w} did not converge")
        phi = z - ww
        # Nevanlinna: phi maps the upper half plane into the closed lower one;
        # below the axis the preimage lies inside the hyperbolas bounding Xi
        if phi.imag > 0 or z.imag < 0 and abs(z.real * z.imag) >= mp.pi / 2:
            raise OracleFailure(f"root at w = {w} is off the principal branch: {z}")
        return +phi


def semicircular(T: float):
    """``|f_tilde(-i T)| T``."""
    with mp.workdps(BASE_DPS):
        return mp.mpf(T) / abs(_g(mp.mpc(0, -T)))


def im_f_deviation(z: complex, t: float) -> float:
    """``|Im f_tilde(z) - t|`` (level-set membership)."""
    with mp.workdps(30):
        return float(abs((1 / _g(mp.mpc(z.real, z.imag))).imag - t))


def small_x_closed_forms(x: float):
    """``(g0, h0) = (sqrt(S - L), sqrt(S + L))``, ``L = log(1/(sqrt(2 pi) x))``,
    ``S = sqrt(L^2 + pi^2/4)``: the curve's closed form as ``x -> 0+``."""
    with mp.workdps(BASE_DPS):
        L = -mp.log(mp.sqrt(2 * mp.pi) * x)
        S = mp.sqrt(L * L + mp.pi**2 / 4)
        return mp.sqrt(S - L), mp.sqrt(S + L)


# --------------------------------------------------------------------------
# exact tables
# --------------------------------------------------------------------------

def gaussian_moments(n: int) -> list[Fraction]:
    """``m_0 .. m_n`` of N(0, 1): ``m_{2k} = (2k-1)!!``, odd ones 0."""
    m = [Fraction(0)] * (n + 1)
    m[0] = Fraction(1)
    for k in range(2, n + 1, 2):
        m[k] = m[k - 2] * (k - 1)
    return m


@lru_cache(maxsize=None)
def _free_cumulants(n: int) -> tuple[Fraction, ...]:
    return tuple(free_cumulants(n))


def free_cumulants(n: int) -> list[Fraction]:
    """``kappa_1 .. kappa_n`` from ``m_k = sum_s kappa_s [t^(k-s)] M(t)^s``."""
    m = gaussian_moments(n)
    powers = [[Fraction(1)] + [Fraction(0)] * n]  # M(t)^0
    for _ in range(n):
        prev = powers[-1]
        powers.append([sum(prev[i] * m[r - i] for i in range(r + 1)) for r in range(n + 1)])
    kappa = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        kappa[k] = m[k] - sum(kappa[s] * powers[s][k - s] for s in range(1, k))
    return kappa[1:]


def boolean_cumulants(n: int) -> list[Fraction]:
    """``b_1 .. b_n`` from ``m_k = sum_j b_j m_(k-j)``."""
    m = gaussian_moments(n)
    b = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        b[k] = m[k] - sum(b[j] * m[k - j] for j in range(1, k))
    return b[1:]
