"""Exact rational series: moments, cumulants, and asymptotic coefficients.

Everything here is formal Laurent-series arithmetic over ``fractions.Fraction``
in the variable ``u = z^{-2}`` (all series involved are even).  The chain is

    moments           m_{2n} = (2n-1)!!            (Gaussian moments)
    boolean cumulants 1/G-series reciprocal:  f_tilde(z) ~ z - sum b_{2n} z^{1-2n}
    free cumulants    compositional inverse:  f_tilde^{-1}(w) ~ w + sum k_{2n} w^{1-2n}
    a-coefficients    h(x) ~ (1/e) sqrt(pi/2) x^2 e^{-x^2/2} (1 + sum a_{2n} x^{-2n})
    c-coefficients    (1 - sum b u^n)^2 / (1 + sum (2n-1) b u^n)

plus floating evaluators for the closed-form asymptotics of the boundary
curve ``H(x) = g(x) - i h(x)`` in both limits: series above for ``x -> inf``
and, for ``x -> 0+`` with ``L = log(1/(sqrt(2 pi) x))`` and
``S = sqrt(L^2 + pi^2/4)``,

    g(x) -> sqrt(S - L),   h(x) -> sqrt(S + L),   f(x) -> -pi/(2x),

whose product ``g h = pi/2`` holds exactly at the level of the closed forms.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .scaled import ScaledComplex

__all__ = [
    "RationalSeries",
    "AsymptoticRegime",
    "regime_of",
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


class RationalSeries:
    """Truncated even Laurent series with exact rational coefficients; read-only.

    ``coefficients[n]`` multiplies ``z**(-2*n + offset)``; e.g. the moment
    series of the Cauchy transform has ``offset = -1`` and coefficients
    ``m_0, m_2, ...``.
    """

    __slots__ = ("coefficients", "offset")

    def __init__(self, coefficients, offset: int) -> None:
        coefficients = tuple(Fraction(c) for c in coefficients)
        if not coefficients:
            raise ValueError("a RationalSeries holds at least one coefficient")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RationalSeries is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not RationalSeries:
            return NotImplemented
        return (self.coefficients, self.offset) == (other.coefficients, other.offset)

    def __hash__(self) -> int:
        return hash((self.coefficients, self.offset))

    def __repr__(self) -> str:
        return f"RationalSeries(coefficients={self.coefficients!r}, offset={self.offset!r})"

    def __reduce__(self):
        return RationalSeries, (self.coefficients, self.offset)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def as_string_pairs(self) -> list[list[str]]:
        """Coefficients as exact ``[numerator, denominator]`` string pairs."""
        return [[str(c.numerator), str(c.denominator)] for c in self.coefficients]


class AsymptoticRegime(enum.Enum):
    """Which asymptotic family describes the curve at a given abscissa."""

    NEAR_ZERO = "NearZero"
    BULK = "Bulk"
    NEAR_INFINITY = "NearInfinity"


#: the curve solver's crossovers: at or below ``X_LO`` the zero-regime closed
#: forms seed it (and it solves the logarithmic residual); at or above
#: ``X_HI`` the large-x split solver takes over, and beyond ``X_ASYMPTOTIC``
#: the large-x series is the answer
X_LO = 0.05
X_HI = 3.5
X_ASYMPTOTIC = 30.0


def regime_of(x: float) -> AsymptoticRegime:
    """Classify ``x > 0`` against the crossovers ``X_LO`` and ``X_HI``."""
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"regime is defined for finite x > 0, got {x}")
    if x <= X_LO:
        return AsymptoticRegime.NEAR_ZERO
    if x >= X_HI:
        return AsymptoticRegime.NEAR_INFINITY
    return AsymptoticRegime.BULK


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


def _compose(outer: list[Fraction], inner: list[Fraction], n: int) -> list[Fraction]:
    """``outer(inner(u))`` for ``inner`` with zero constant term."""
    if inner and inner[0] != 0:
        raise ValueError("composition needs a zero constant term inside")
    out = [Fraction(0)] * n
    out[0] = outer[0] if outer else Fraction(0)
    power = [Fraction(0)] * n
    power[0] = Fraction(1)
    for k in range(1, len(outer)):
        power = _mul(power, inner, n)
        if all(c == 0 for c in power):
            break
        ck = outer[k]
        if ck != 0:
            for i in range(n):
                out[i] += ck * power[i]
    return out


def _exp(a: list[Fraction], n: int) -> list[Fraction]:
    """``exp`` of a series with zero constant term, by the ODE recurrence.

    With ``e = exp(a)``, ``e' = a' e`` gives
    ``n e_n = sum_{k=1..n} k a_k e_{n-k}``, exact over rationals.
    """
    if a and a[0] != 0:
        raise ValueError("series exponential needs a zero constant term")
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
    m = list(_moment_list(n + 1))
    p = _recip(m, n + 1)
    return tuple(-p[k] for k in range(1, n + 1))


@lru_cache(maxsize=None)
def _free_list(n: int) -> tuple[Fraction, ...]:
    """Free cumulants by iterative re-substitution of the inverse series.

    Writing ``f_tilde(z) = z (1 - B(u))`` with ``u = z^{-2}`` and the inverse
    ``f_tilde^{-1}(w) = w K(v)`` with ``v = w^{-2}``, the identity
    ``f_tilde(f_tilde^{-1}(w)) = w`` becomes the fixed point

        K = 1 + K * B(v / K^2),

    which gains one correct order per substitution starting from ``K = 1``.
    """
    order = n + 1
    b = _boolean_list(n)
    bs = [Fraction(0)] + list(b)  # B(u) = sum_{k>=1} b_k u^k
    k_ser = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for _ in range(order):
        k2 = _mul(k_ser, k_ser, order)
        inv_k2 = _recip(k2, order)
        inner = [Fraction(0)] + inv_k2[: order - 1]  # v / K(v)^2
        bk = _compose(bs, inner, order)
        k_ser = _mul(k_ser, bk, order)
        k_ser[0] += 1
    return tuple(k_ser[1 : n + 1])


@lru_cache(maxsize=None)
def _a_list(n: int) -> tuple[Fraction, ...]:
    """Coefficients of ``1 + sum a_{2n} x^{-2n}``, the refined h-prefactor.

    The generating identity multiplies the derivative series of the inverse
    transform by the exponential of ``-(f_tilde^{-1}(x)^2 - x^2 - 2)/2``,
    which is an honest power series in ``x^{-2}`` because the quadratic and
    constant terms cancel against ``x^2 + 2``.
    """
    order = n + 1
    kap = _free_list(order)
    k_ser = [Fraction(1)] + list(kap[:order])
    k2 = _mul(k_ser, k_ser, order + 1)
    # x^2 (K(v)^2 - 1) - 2 = sum_{j>=1} [K^2]_{j+1} v^j  (the v^1 term is 2 k2 = 2)
    w = [Fraction(0)] * order
    for j in range(1, order):
        if j + 1 < len(k2):
            w[j] = k2[j + 1]
    e = _exp([-c / 2 for c in w], order)
    dinv = [Fraction(1)] + [-(2 * j - 1) * kap[j - 1] for j in range(1, order)]
    full = _mul(dinv, e, order)
    return tuple(full[1 : n + 1])


@lru_cache(maxsize=None)
def _c_list(n: int) -> tuple[Fraction, ...]:
    order = n + 1
    b = _boolean_list(order)
    one_minus_b = [Fraction(1)] + [-b[j - 1] for j in range(1, order)]
    num = _mul(one_minus_b, one_minus_b, order)
    den = [Fraction(1)] + [(2 * j - 1) * b[j - 1] for j in range(1, order)]
    full = _mul(num, _recip(den, order), order)
    return tuple(full[1 : n + 1])


# --------------------------------------------------------------------------
# public tables
# --------------------------------------------------------------------------

def moments(N: int) -> RationalSeries:
    """Gaussian moments ``m_0, m_2, ..., m_{2(N-1)}`` with ``m_{2n} = (2n-1)!!``."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    return RationalSeries(_moment_list(N), offset=-1)


def boolean_cumulants(N: int) -> RationalSeries:
    """``b_2, ..., b_{2N}`` from the reciprocal of the moment Laurent series.

    These are the coefficients in ``f_tilde(z) ~ z - sum b_{2n} z^{1-2n}``;
    the first few are 1, 2, 10.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    return RationalSeries(_boolean_list(N), offset=-1)


def free_cumulants(N: int) -> RationalSeries:
    """``k_2, ..., k_{2N}`` from compositional inversion; prefix 1, 1, 4, 27."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    return RationalSeries(_free_list(N), offset=-1)


def h_infinity_coefficients(N: int) -> RationalSeries:
    """``a_2, ..., a_{2N}`` of the large-x correction to h; prefix -5/2, -43/8, -579/16."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    return RationalSeries(_a_list(N), offset=-2)


def f_infinity_coefficients(N: int) -> RationalSeries:
    """``c_2, ..., c_{2N}`` of the large-x correction family; c_2 = -3."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    return RationalSeries(_c_list(N), offset=-2)


# --------------------------------------------------------------------------
# floating evaluators
# --------------------------------------------------------------------------

def _check_large_argument(x: float) -> None:
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"large-x series need a finite nonzero x, got {x}")


def eval_g_asym_infinity(x: float, N: int) -> float:
    """``x + k_2/x + k_4/x^3 + ...`` truncated after ``k_{2N}``."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
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
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
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
