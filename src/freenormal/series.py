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

The a- and c-tables take one recurrence each: ``a`` squares ``D = 1 + phi'``
by convolution and exponentiates through ``A' = A (log A)'``; ``c`` inverts
``B/u``.  Floating evaluators give the curve ``H(x) = g(x) - i h(x)`` in both
limits: one Horner rule sums every large-argument series (``levy.voiculescu``
sums its free-cumulant series with it too), and for ``x -> 0+``, with
``L = log(1/(sqrt(2 pi) x))`` and ``S = sqrt(L^2 + pi^2/4)``,

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
    ``A = 1 + sum a_n u^n = exp(sum_{m>=1} e_{m+1} u^m / (2m))``, ``e_j = [u^j] D^2``,
    and ``A' = A (log A)'`` gives ``k a_k = 1/2 sum_{m=1..k} e_{m+1} a_{k-m}``.
    """
    d = [Fraction(1)] + [-(2 * j + 1) * c for j, c in enumerate(_free_list(n + 1))]
    e = [sum(d[i] * d[m - i] for i in range(m + 1)) for m in range(n + 2)]
    a = [Fraction(1)]
    for k in range(1, n + 1):
        a.append(sum(e[m + 1] * a[k - m] for m in range(1, k + 1)) / (2 * k))
    return tuple(a[1:])


@lru_cache(maxsize=None)
def _c_list(n: int) -> tuple[Fraction, ...]:
    """Coefficients of ``(1 - B)^2 / F' = u/B(u) - u`` with ``B = sum b_n u^n``.

    ``F' = F (z - F) = B (1 - B) / u`` turns the quotient into one reciprocal,
    ``u/B = sum r_k u^k`` with ``r_0 = 1`` and ``r_k = -sum_{j=1..k} b_{j+1} r_{k-j}``.
    """
    b = _boolean_list(n + 1)
    r = [Fraction(1)]
    for k in range(1, n + 1):
        r.append(-sum(b[j] * r[k - j] for j in range(1, k + 1)))
    r[1] -= 1
    return tuple(r[1:])


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

def _check_large_argument(x: float) -> float:
    """``u = 1/x^2``, the variable of the large-x series.

    ``DomainError`` unless it is finite: ``x`` not finite, or ``x * x``
    underflowing past the reciprocal's range (``|x|`` below about 7.5e-155).
    """
    if not (math.isfinite(x) and x * x > 0.0 and 1.0 / (x * x) < math.inf):
        raise DomainError(f"large-x series need a finite x with finite 1/x^2, got {x}")
    return 1.0 / (x * x)


@lru_cache(maxsize=None)
def _free_floats(n: int) -> tuple[float, ...]:
    """``_free_list(n)`` in floats, highest degree first, for :func:`_horner`."""
    return tuple(float(c) for c in reversed(_free_list(n)))


@lru_cache(maxsize=None)
def _a_floats(n: int) -> tuple[float, ...]:
    """``1, a_2, ..., a_{2n}`` in floats, highest degree first."""
    return tuple(float(c) for c in reversed((1,) + _a_list(n)))


def _horner(coeffs: tuple[float, ...], u):
    """``sum c_k u^k`` by Horner's rule, ``coeffs`` highest degree first,
    for a float or complex ``u``."""
    it = iter(coeffs)
    acc = next(it)
    for c in it:
        acc = acc * u + c
    return acc


def eval_g_asym_infinity(x: float, N: int) -> float:
    """``x + k_2/x + k_4/x^3 + ...`` truncated after ``k_{2N}``.

    ``DomainError`` where ``1/x^2`` or the sum overflows (at tiny ``|x|``).
    """
    _require_order(N)
    g = x + _horner(_free_floats(N), _check_large_argument(x)) / x
    if math.isinf(g):
        raise DomainError(f"the large-x series of g overflows binary64 at x = {x}")
    return g


def eval_h_asym_infinity(x: float, N: int) -> ScaledComplex:
    """``(1/e) sqrt(pi/2) x^2 e^{-x^2/2} (1 + a_2/x^2 + ...)``, order ``N``.

    ``N = 1`` is the bare prefactor; each increment appends one ``a`` term.
    Returned scaled because the prefactor passes below 1e-300 near x = 37.
    ``DomainError`` where ``sqrt(pi/2) x^2`` overflows (``|x|`` past about
    1.2e154).
    """
    _require_order(N)
    u = _check_large_argument(x)
    scale = _SQRT_HALF_PI * x * x * _horner(_a_floats(N - 1), u)
    if math.isinf(scale):
        raise DomainError(f"the prefactor sqrt(pi/2) x^2 overflows binary64 at x = {x}")
    return ScaledComplex(complex(scale, 0.0), -0.5 * x * x - 1.0)


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
