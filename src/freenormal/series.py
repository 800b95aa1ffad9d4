"""Exact rational series: moments, cumulants, and asymptotic coefficients.

Every table comes from one ODE.  The reciprocal Cauchy transform of N(0, 1)
satisfies the Riccati equation ``F' = F (z - F)``, and the boundary curve
the ODE ``H' = 1/(x (H - x))`` derived from it.  Put into them, each
expansion (in ``u = z^{-2}``, all series being even) becomes a short exact
recurrence over ``fractions.Fraction``:

    moments           m_{2n} = (2n-1)!!            (Gaussian moments)
    boolean cumulants f_tilde(z) ~ z - sum b_{2n} z^{1-2n}        (F' = F (z - F))
    free cumulants    f_tilde^{-1}(w) ~ w + sum k_{2n} w^{1-2n}   (w phi (1 + phi') = 1)
    a-coefficients    h(x) ~ (1/e) sqrt(pi/2) x^2 e^{-x^2/2} (1 + sum a_{2n} x^{-2n})
    c-coefficients    (1 - sum b u^n)^2 / (1 + sum (2n-1) b u^n) = u/B(u) - u

plus floating evaluators for the closed-form asymptotics of the boundary
curve ``H(x) = g(x) - i h(x)`` in both limits: series above for ``x -> inf``
and, for ``x -> 0+`` with ``L = log(1/(sqrt(2 pi) x))`` and
``S = sqrt(L^2 + pi^2/4)``,

    g(x) -> sqrt(S - L),   h(x) -> sqrt(S + L),   f(x) -> -pi/(2x),

whose product ``g h = pi/2`` holds exactly at the level of the closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .scaled import ScaledComplex

__all__ = [
    "moments",
    "boolean_cumulants",
    "free_cumulants",
    "h_infinity_coefficients",
    "f_infinity_coefficients",
    "eval_g_asym_infinity",
    "eval_h_asym_infinity",
    "eval_g_asym_zero",
    "eval_h_asym_zero",
    "eval_f_asym_zero",
]

_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_HALF_PI = 0.5 * math.pi


# --------------------------------------------------------------------------
# power-series kernels (dense Fraction lists in u, constant term first)
# --------------------------------------------------------------------------

def _mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def _recip(a: list[Fraction], n: int) -> list[Fraction]:
    """Reciprocal of a series with a[0] != 0."""
    out = [Fraction(0)] * n
    out[0] = 1 / a[0]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def _exp(a: list[Fraction], n: int) -> list[Fraction]:
    """``exp`` of a series whose constant term is zero, by the ODE recurrence.

    With ``e = exp(a)``, ``e' = a' e`` gives
    ``n e_n = sum_{k=1..n} k a_k e_{n-k}``, exact over rationals.
    """
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += j * a[j] * out[k - j]
        out[k] = s / k
    return out


@lru_cache(maxsize=None)
def _moment_list(n: int) -> tuple[Fraction, ...]:
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (2 * k - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _boolean_list(n: int) -> tuple[Fraction, ...]:
    """``b_2, b_4, ..., b_{2n}`` from ``F' = F (z - F)``.

    With ``F = z - sum b_N z^{1-2N}`` (``b_N`` for ``b_{2N}``), the ODE at
    ``z^{-2N}`` gives ``b_{N+1} = (2N-1) b_N + sum_{j=1..N} b_j b_{N+1-j}``; ``b_1 = 1``.
    """
    b = [1]
    for N in range(1, n):
        b.append((2 * N - 1) * b[N - 1] + sum(b[j] * b[N - 1 - j] for j in range(N)))
    return tuple(map(Fraction, b))


@lru_cache(maxsize=None)
def _free_list(n: int) -> tuple[Fraction, ...]:
    """``k_1..k_n`` with ``k_N = kappa_{2N}``, from the ODE of the inverse.

    ``F^{-1}(w) = w + phi(w)`` with ``phi = sum k_N w^{1-2N}``; differentiating
    ``F(w + phi) = w`` with ``F' = F (z - F)`` gives ``w phi (1 + phi') = 1``,
    whose ``w^{2-2N}`` coefficient, symmetrized, is
    ``k_N = (N-1) sum_{j=1..N-1} k_j k_{N-j}``, and ``k_1 = 1``.
    """
    k = [1]
    for N in range(2, n + 1):
        k.append((N - 1) * sum(k[j] * k[N - 2 - j] for j in range(N - 1)))
    return tuple(map(Fraction, k))


@lru_cache(maxsize=None)
def _a_list(n: int) -> tuple[Fraction, ...]:
    """Coefficients of ``1 + sum a_{2n} x^{-2n}``, the refined h-prefactor.

    Dropping the exponentially small ``h^2`` from the curve ODE
    ``H' = 1/(x (H - x))`` leaves ``(log h)' = -1/(x phi(x)^2)``, which by
    ``x phi (1 + phi') = 1`` is ``-x D(u)^2`` with ``u = x^{-2}`` and
    ``D = 1 + phi' = 1 - sum (2n-1) k_n u^n``.  ``D^2 = 1 - 2u + ...``
    supplies the prefactor ``x^2 e^{-x^2/2}``; the rest integrates to
    ``1 + sum a_n u^n = exp(sum_{m>=1} e_{m+1} u^m / (2m))``, ``e_j = [u^j] D^2``.
    """
    kap = _free_list(n + 1)
    d = [Fraction(1)] + [-(2 * j + 1) * c for j, c in enumerate(kap)]
    e = _mul(d, d, n + 2)
    log_a = [Fraction(0)] + [e[m + 1] / (2 * m) for m in range(1, n + 1)]
    return tuple(_exp(log_a, n + 1)[1:])


@lru_cache(maxsize=None)
def _c_list(n: int) -> tuple[Fraction, ...]:
    """Coefficients of ``(1 - B)^2 / F' = u/B(u) - u`` with ``B = sum b_n u^n``.

    ``F' = F (z - F) = B (1 - B) / u`` turns the quotient into one reciprocal.
    """
    full = _recip(list(_boolean_list(n + 1)), n + 1)
    full[1] -= 1
    return tuple(full[1:])


# --------------------------------------------------------------------------
# public tables
# --------------------------------------------------------------------------

def _require_order(N: int) -> None:
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"need an integer order N >= 1, got {N!r}")


def moments(N: int) -> tuple[Fraction, ...]:
    """Gaussian moments ``m_0, m_2, ..., m_{2(N-1)}`` with ``m_{2n} = (2n-1)!!``."""
    _require_order(N)
    return _moment_list(N)


def boolean_cumulants(N: int) -> tuple[Fraction, ...]:
    """``b_2, ..., b_{2N}``, by a recurrence read off ``F' = F (z - F)``.

    These are the coefficients in ``f_tilde(z) ~ z - sum b_{2n} z^{1-2n}``;
    the first few are 1, 2, 10.
    """
    _require_order(N)
    return _boolean_list(N)


def free_cumulants(N: int) -> tuple[Fraction, ...]:
    """``k_2, ..., k_{2N}`` of the inverse transform; prefix 1, 1, 4, 27."""
    _require_order(N)
    return _free_list(N)


def h_infinity_coefficients(N: int) -> tuple[Fraction, ...]:
    """``a_2, ..., a_{2N}`` of the large-x correction to h; prefix -5/2, -43/8, -579/16."""
    _require_order(N)
    return _a_list(N)


def f_infinity_coefficients(N: int) -> tuple[Fraction, ...]:
    """``c_2, ..., c_{2N}`` of the large-x correction family; c_2 = -3."""
    _require_order(N)
    return _c_list(N)


# --------------------------------------------------------------------------
# floating evaluators
# --------------------------------------------------------------------------

def _check_large_argument(x: float) -> None:
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"large-x series need a finite nonzero x, got {x}")


def eval_g_asym_infinity(x: float, N: int) -> float:
    """``x + k_2/x + k_4/x^3 + ...`` truncated after ``k_{2N}``."""
    _require_order(N)
    _check_large_argument(x)
    kap = _free_list(N)
    u = 1.0 / (x * x)
    acc = 0.0
    for k in reversed(range(N)):
        acc = acc * u + float(kap[k])
    return x + acc / x


def eval_h_asym_infinity(x: float, N: int) -> ScaledComplex:
    """``(1/e) sqrt(pi/2) x^2 e^{-x^2/2} (1 + a_2/x^2 + ...)``, order ``N``.

    ``N = 1`` is the bare prefactor; each increment appends one ``a`` term.
    Returned scaled because the prefactor passes below 1e-300 near x = 37.
    ``DomainError`` where ``sqrt(pi/2) x^2`` overflows (``|x|`` past about
    1.2e154).
    """
    _require_order(N)
    _check_large_argument(x)
    u = 1.0 / (x * x)
    acc = 1.0
    if N > 1:
        a = _a_list(N - 1)
        acc = 0.0
        for k in reversed(range(N - 1)):
            acc = acc * u + float(a[k])
        acc = 1.0 + acc * u
    scale = _SQRT_HALF_PI * x * x * acc
    if math.isinf(scale):
        raise DomainError(f"the prefactor sqrt(pi/2) x^2 overflows binary64 at x = {x}")
    return ScaledComplex.exp_of(complex(-0.5 * x * x - 1.0, 0.0)) * scale


def _check_zero_range(x: float) -> float:
    x = float(x)
    if not 0.0 < x < 1.0 / _SQRT_TWO_PI:
        raise DomainError(
            f"zero-regime formulas hold for 0 < x < 1/sqrt(2 pi), got {x}"
        )
    return x


def eval_g_asym_zero(x: float) -> float:
    """``sqrt(S - L)`` with ``L = log(1/(sqrt(2 pi) x))``, ``S = sqrt(L^2 + pi^2/4)``.

    Evaluated as ``(pi/2)/sqrt(S + L)`` so the difference of nearly equal
    quantities never forms; the product with :func:`eval_h_asym_zero` is then
    ``pi/2`` to the last bit.
    """
    x = _check_zero_range(x)
    L = -math.log(_SQRT_TWO_PI * x)
    S = math.hypot(L, _HALF_PI)
    return _HALF_PI / math.sqrt(L + S)


def eval_h_asym_zero(x: float) -> float:
    """``sqrt(S + L)``, the closed-form height of the curve as x -> 0+."""
    x = _check_zero_range(x)
    L = -math.log(_SQRT_TWO_PI * x)
    S = math.hypot(L, _HALF_PI)
    return math.sqrt(L + S)


def eval_f_asym_zero(x: float) -> float:
    """Leading boundary-function asymptotic ``-pi/(2x)`` near 0.

    ``DomainError`` below about 8.7e-309, where ``-pi/(2x)`` overflows.
    """
    f = -_HALF_PI / _check_zero_range(x)
    if math.isinf(f):
        raise DomainError(f"f({x}) = -pi/(2x) overflows binary64")
    return f
