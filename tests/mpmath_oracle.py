"""The mpmath reference for ``g_tilde``, ``rho`` and the inverse transform,
shared by the tests.

``g_tilde(z) = -i sqrt(pi/2) exp(-z^2/2) erfc(-i z/sqrt 2)`` is entire, so
mpmath evaluates it anywhere at the precision the caller sets; the inverse
transform is ``mpmath.findroot`` on ``g_tilde(z) = 1/w``.
"""

import mpmath


def mp_g_tilde(z):
    """``g_tilde`` of an mpmath number at the working precision."""
    return (-1j * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-z * z / 2)
            * mpmath.erfc(-1j * z / mpmath.sqrt(2)))


def rho_mp(x: float):
    """Density along the real axis at 40 digits, as an mpmath number."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(x * x / 2) * mpmath.erfc(x / mpmath.sqrt(2))


def mp_inverse(w: complex, seed: complex, dps: int = 50) -> mpmath.mpc:
    """Root of ``g_tilde(z) = 1/w`` near ``seed`` at ``dps`` digits."""
    with mpmath.workdps(dps):
        return mpmath.findroot(lambda z: mp_g_tilde(z) - 1 / mpmath.mpc(w), mpmath.mpc(seed))
