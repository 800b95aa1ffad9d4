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

The curve ODE in ``log x`` gives each point's Taylor jet by one more
recurrence, and one walk steps from jet to jet: with a Newton step per node
it lays out the curve solver's seed table, alone it is the ODE oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError, NoConvergence
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

#: the highest order of the large-x series and of their exact tables:
#: ``k_302`` and ``a_300``, the first coefficients past it, overflow binary64
#: (``_a_list(150)`` builds in 0.14 s, ``_a_list(1000)`` in about 100 s)
_FLOAT_ORDER_MAX = 150


def _require_order(N: int, top: float = math.inf) -> None:
    if not (isinstance(N, int) and 1 <= N <= top):
        raise DomainError(f"need an integer order 1 <= N <= {top}, got {N!r}")


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
    """``a_2, ..., a_{2N}`` of the large-x correction to h; prefix -5/2, -43/8, -579/16.

    ``N`` at most ``_FLOAT_ORDER_MAX`` (150), the ceiling of the series it feeds.
    """
    _require_order(N, _FLOAT_ORDER_MAX)
    return _a_list(N)


def f_infinity_coefficients(N: int) -> tuple[Fraction, ...]:
    """``c_2, ..., c_{2N}`` of the large-x correction family; c_2 = -3; ``N <= 150``."""
    _require_order(N, _FLOAT_ORDER_MAX)
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

    ``DomainError`` where ``1/x^2`` or the sum overflows (at tiny ``|x|``),
    and for ``N`` past 150, whose coefficients overflow.
    """
    _require_order(N, _FLOAT_ORDER_MAX)
    g = x + _horner(_free_floats(N), _check_large_argument(x)) / x
    if math.isinf(g):
        raise DomainError(f"the large-x series of g overflows binary64 at x = {x}")
    return g


def eval_h_asym_infinity(x: float, N: int) -> ScaledComplex:
    """``(1/e) sqrt(pi/2) x^2 e^{-x^2/2} (1 + a_2/x^2 + ...)``, order ``N``.

    ``N = 1`` is the bare prefactor; each increment appends one ``a`` term.
    Returned scaled because the prefactor passes below 1e-300 near x = 37.
    ``DomainError`` where ``sqrt(pi/2) x^2`` overflows (``|x|`` past about
    1.2e154), and for ``N`` past 150, whose coefficients overflow.
    """
    _require_order(N, _FLOAT_ORDER_MAX)
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


# --------------------------------------------------------------------------
# Taylor jets of the curve ODE
# --------------------------------------------------------------------------

#: Taylor terms of each jet
_JET_TERMS = 16
#: a jet serves out to where its two last terms fall to this, and the next
#: node lies twice as far; the first dropped term stays below 6e-17
_JET_TAIL = 5e-17
#: nodes of one walk before ``NoConvergence``; 5e-324 to 37.8 takes 148
_WALK_MAX_NODES = 1000


def _jet(x: float, z: complex) -> tuple:
    """The node ``(x, h, g coefficients, log(h/h(x)) coefficients)`` at ``z = H(x)``.

    Taylor coefficients in ``s = log(x'/x)``, highest first, of the curve ODE
    in real form: ``g' = A = v R``, ``(log h)' = -R``, ``P' = -2 P R`` with
    ``v = g - x``, ``P = h^2``, and ``R_n`` from ``v A + P R = 1``.  ``h`` is
    never summed, so an ``exp(-x^2/2)``-small one keeps its relative accuracy.
    """
    g, h = z.real, -z.imag
    v0, P0 = g - x, h * h
    if v0 * v0 + P0 == 0.0:
        raise DomainError(f"the curve ODE is singular at H = x = {x}")
    R0 = 1.0 / (v0 * v0 + P0)
    A0 = v0 * R0
    v, vP = [A0 - x], [complex(A0 - x, -2.0 * P0 * R0)]  # v_j, v_j + i P_j for j >= 1
    Rr, Ar = [R0], [A0]  # R_n, A_n, highest order first
    gs, Ls, xn = [g, A0], [0.0, -R0], x  # xn: x/n!, the coefficients of x exp(s)
    for n in range(2, _JET_TERMS):
        c = sum(map(mul, vP, Rr))  # the parts of A_(n-1) and (P R)_(n-1) without R_(n-1)
        R = -R0 * (v0 * c.real + sum(map(mul, v, Ar)) + c.imag)
        A = v0 * R + c.real
        gs.append(A / n)
        Ls.append(-R / n)
        xn /= n
        v.append(A / n - xn)
        vP.append(complex(v[-1], -2.0 * (P0 * R + c.imag) / n))
        Rr.insert(0, R)
        Ar.insert(0, A)
    return x, h, tuple(reversed(gs)), tuple(reversed(Ls))


def _jet_seed(node: tuple, x: float) -> complex:
    """``H(x)`` from the jet of ``node``: two real Horner sums and one ``exp``."""
    xk, hk, gs, Ls = node
    s = math.log1p((x - xk) / xk) if x > 0.5 * xk else math.log(x / xk)  # x - xk exact
    g = L = 0.0
    for cg, cL in zip(gs, Ls):
        g, L = g * s + cg, L * s + cL
    return complex(g, -hk * math.exp(L))


def _jet_walk(x0: float, z0: complex, end: float, correct=None):
    """The jets of the curve from ``H(x0) = z0`` to ``end``, yielded one by one.

    A Taylor integrator in ``log x`` (Corliss & Chang, ACM TOMS 8 (1982);
    Jorba & Zou, Exp. Math. 14 (2005)).  The next node lies twice as far as
    the last one's two last terms reach ``_JET_TAIL`` (0.165 of the radius
    of convergence at most), at the last jet's sum there (error below
    4e-13), through ``correct(x, z)`` when given.  ``NoConvergence`` if the
    nodes stall short of ``end``, as at the singular line ``H = x``, which a
    start off the curve runs into (down from large ``x`` neighbouring
    solutions part like ``exp(x^2/2)``).
    """
    node = _jet(x0, z0)
    yield node
    for _ in range(_WALK_MAX_NODES):
        if node[0] == end:
            return
        xk, _, gs, Ls = node
        reach = min((_JET_TAIL * scale / abs(c)) ** (1.0 / k) if c else math.inf
                    for scale, cs in ((abs(gs[-1]), gs), (1.0, Ls))
                    for k, c in ((_JET_TERMS - 1, cs[0]), (_JET_TERMS - 2, cs[1])))
        x = xk * math.exp(2.0 * reach if end > xk else -2.0 * reach)
        x = min(x, end) if end > xk else max(x, end)
        z = _jet_seed(node, x)
        node = _jet(x, z if correct is None else correct(x, z))
        yield node
    raise NoConvergence(
        f"the jet walk from x = {x0} stalled short of {end} at x = {node[0]}",
        last_iterate=complex(node[2][-1], -node[1]),
    )
