"""Overflow-safe complex numbers as mantissa times ``exp(log_scale)``.

The continued Cauchy transform grows like ``exp(|z|^2/2)`` deep in the lower
half plane, which leaves binary64 range around ``|z| ~ 38``.  A
:class:`ScaledComplex` holds one pair, ``value = mantissa * exp(log_scale)``.

The mantissa is renormalized (to modulus about 1) only when its modulus
leaves the window ``[2**-64, 2**64)``.  Inside it values are left alone, so
numbers of moderate size (``log_scale == 0``) add, subtract and multiply with
exactly the rounding of plain complex arithmetic; dividing by
``exp(log|m|)`` on every operation would put an error of a few ulps of the
operands into every value and so into every cancellation.  The window keeps
every product and quotient of two mantissas inside binary64 range.  To print
or range-check a value, :meth:`ScaledComplex.normalized` gives its pair with
``0.5 <= |m| < 2``.

Addition aligns the two scales and flushes the smaller summand when the scales
differ by more than ``FLUSH_LOG_GAP`` in natural log, because past that point
the summand cannot influence any mantissa bit.  A consequence worth knowing:
one value carries one scale, so a component (real or imaginary part) smaller
than the other by more than the flush window is represented as zero.

Instances are immutable and cheap.  The constructor stores its two slots
through the slots' own descriptors (bound once at import), which skips the
``__setattr__`` that refuses every later store.  Arithmetic never raises on
magnitude alone, with one exception: a sum of scales past about ±1.8e308.
A mantissa that is not finite, a log-scale that is NaN or infinite, a value
past binary64 range asked for as a plain ``complex``, and division by zero
are refused with ``DomainError``.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

__all__ = ["ScaledComplex", "FLUSH_LOG_GAP"]

#: summands whose log-scales differ by more than this are not mixed; the
#: smaller one is flushed to zero
FLUSH_LOG_GAP = 750.0

# The mantissa is renormalized only outside this window; the square of either
# end is still a normal binary64 number.
_STORE_LO = 2.0**-64
_STORE_HI = 2.0**64
_LN2 = math.log(2.0)
_EXACT_SCALE = 2.0**53
# below the smallest normal modulus, m * 2**1000 (exact) is renormalized, and
# the scale pays 1000 ln 2 in two parts, the first exact in binary64
_NORMAL_MIN = 2.0**-1022
_TWO_1000 = 2.0**1000
_LN2_1000_HI = 1000 * 6.93147180369123816490e-01  # ln 2 to 32 bits
_LN2_1000_LO = 1000 * 1.90821492927058770002e-10


def _two_sum_err(a: float, b: float, t: float) -> float:
    """``a + b - t`` exactly, for ``t`` the rounded sum ``a + b`` (TwoSum)."""
    u = t - a
    return (a - (t - u)) + (b - u)


def _renormalized(m: complex, s: float, a: float) -> tuple[complex, float]:
    """The pair of ``m e^s`` with ``|m| ~ 1``, for ``a = |m|`` finite and nonzero.

    The scale becomes ``t = s + log|m|``, rounded.  The mantissa is divided by
    ``exp(log|m|)`` and, at a nonzero ``s``, by ``exp(-e)`` for ``e = s +
    log|m| - t`` exactly (TwoSum), so the value carries no rounding of its
    scale.  From ``|t| = 2**53`` on, where ``e`` can reach 1 and more, it is
    divided by ``exp(log|m|)`` alone.
    """
    if a < _NORMAL_MIN:  # exp(log|m|) would be subnormal
        m, s = _renormalized(complex(m.real * _TWO_1000, m.imag * _TWO_1000), s, a * _TWO_1000)
        t = s - _LN2_1000_HI
        if -_EXACT_SCALE < t < _EXACT_SCALE:
            m /= math.exp(_LN2_1000_LO - _two_sum_err(s, -_LN2_1000_HI, t))
        return m, t
    d = math.log(a)
    t = s + d
    m /= cmath.exp(complex(d, 0.0))
    if s != 0.0 and -_EXACT_SCALE < t < _EXACT_SCALE:
        m /= math.exp(-_two_sum_err(s, d, t))
    return m, t


class ScaledComplex:
    """Complex value ``mantissa * exp(log_scale)``.

    Parameters
    ----------
    mantissa : complex
    log_scale : float
        Natural-log scale factor.  The constructor renormalizes when needed, so
        any ``(mantissa, log_scale)`` pair with finite entries is accepted; a
        mantissa or ``log_scale`` that is not finite raises ``DomainError``.

    Attributes
    ----------
    mantissa : complex
        ``m`` with ``2**-64 <= |m| < 2**64`` (or 0): as given if inside.
    log_scale : float
        Natural-log scale belonging to :attr:`mantissa`.
    """

    __slots__ = ("mantissa", "log_scale")

    def __init__(self, mantissa: complex, log_scale: float = 0.0):
        m = mantissa if type(mantissa) is complex else complex(mantissa)
        s = log_scale if type(log_scale) is float else float(log_scale)
        if not -math.inf < s < math.inf:
            raise DomainError(f"ScaledComplex needs a finite log_scale, got {s!r}")
        try:
            a = abs(m)
        except OverflowError:  # finite parts whose modulus overflows
            t = s + _LN2  # below 2**53 its rounding goes back into the mantissa
            e = _two_sum_err(s, _LN2, t) if -_EXACT_SCALE < t < _EXACT_SCALE else 0.0
            m, s = 0.5 * m / math.exp(-e), t
            a = abs(m)
        if not _STORE_LO <= a < _STORE_HI:  # also NaN or infinite
            if a == 0.0:
                m, s = 0j, 0.0
            elif a < math.inf:
                m, s = _renormalized(m, s, a)
            else:
                raise DomainError(f"ScaledComplex needs a finite mantissa, got {m!r}")
        _set_mantissa(self, m)
        _set_log_scale(self, s)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ScaledComplex is immutable")

    def __delattr__(self, name):
        raise AttributeError("ScaledComplex is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), (self.mantissa, self.log_scale)

    # ---- constructors ----

    @classmethod
    def exp_of(cls, w: complex) -> "ScaledComplex":
        """``exp(w)`` for arbitrary complex ``w``, never overflowing.

        Exact by construction: the phase goes into the mantissa, the real part
        into the scale.  Raises ``DomainError`` if either part is not finite.
        """
        w = complex(w)
        if not math.isfinite(w.imag):  # cmath.exp raises a bare ValueError
            raise DomainError(f"exp_of needs a finite imaginary part, got {w!r}")
        return cls(cmath.exp(complex(0.0, w.imag)), w.real)

    # ---- queries ----

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def log_abs(self) -> float:
        """Natural log of the magnitude (``-inf`` for zero)."""
        if self.is_zero:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def normalized(self) -> tuple[complex, float]:
        """The pair ``(m, s)`` of this value with ``0.5 <= |m| < 2`` (or 0)."""
        a = abs(self.mantissa)
        if 0.5 <= a < 2.0 or a == 0.0:
            return self.mantissa, self.log_scale
        return _renormalized(self.mantissa, self.log_scale, a)

    def to_complex(self) -> complex:
        """Plain complex value.

        Raises
        ------
        DomainError
            If the magnitude exceeds binary64 range.  Underflow is silent
            (returns 0, like float arithmetic).
        """
        s = self.log_scale
        if -700.0 < s < 665.0:  # |m| < 2**64 = exp(44.4): cannot overflow
            return self.mantissa * math.exp(s)
        m, s = self.normalized()
        if s > 709.0:
            raise DomainError(
                f"scaled value ~exp({self.log_abs():.6g}) exceeds binary64 range"
            )
        if s < -745.0:
            return 0j
        return m * math.exp(s)

    def __complex__(self) -> complex:
        return self.to_complex()

    # ---- arithmetic ----

    def _coerce(self, other) -> "ScaledComplex":
        if isinstance(other, ScaledComplex):
            return other
        if isinstance(other, (int, float, complex)):
            return ScaledComplex(other, 0.0)
        return NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero or o.is_zero:
            return _ZERO
        return ScaledComplex(self.mantissa * o.mantissa, self.log_scale + o.log_scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise DomainError("ScaledComplex division by zero")
        if self.is_zero:
            return _ZERO
        return ScaledComplex(self.mantissa / o.mantissa, self.log_scale - o.log_scale)

    def reciprocal(self) -> "ScaledComplex":
        if self.is_zero:
            raise DomainError("reciprocal of zero ScaledComplex")
        return ScaledComplex(1.0 / self.mantissa, -self.log_scale)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        hi, lo = (self, o) if self.log_scale >= o.log_scale else (o, self)
        gap = hi.log_scale - lo.log_scale
        if gap > FLUSH_LOG_GAP:
            return hi
        return ScaledComplex(hi.mantissa + lo.mantissa * math.exp(-gap), hi.log_scale)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return ScaledComplex(-self.mantissa, self.log_scale)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    # ---- misc ----

    def __repr__(self) -> str:
        return f"ScaledComplex({self.mantissa!r}, log_scale={self.log_scale!r})"


# the slots' descriptors, which store without going through __setattr__
_set_mantissa = ScaledComplex.mantissa.__set__
_set_log_scale = ScaledComplex.log_scale.__set__

_ZERO = ScaledComplex(0j, 0.0)
