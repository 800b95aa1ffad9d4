"""Overflow-safe complex numbers as mantissa times ``exp(log_scale)``.

The continued Cauchy transform grows like ``exp(|z|^2/2)`` deep in the lower
half plane, which leaves binary64 range around ``|z| ~ 38``.  A
:class:`ScaledComplex` stores ``value = m * exp(s)``: magnitude lives in the
float ``s`` and precision in the float components of ``m``.

The stored ``m`` is renormalized (to ``|m| ~ 1``) only when ``|m|`` leaves the
window ``[2**-64, 2**64)``.  Inside it values are left alone, so numbers of
moderate size (``s == 0``) add, subtract and multiply with exactly the rounding
of plain complex arithmetic; dividing by ``exp(log|m|)`` on every operation
would put an error of a few ulps of the operands into every value and so into
every cancellation.  The window keeps every product and quotient of two stored
mantissas inside binary64 range.  The public :attr:`mantissa` and
:attr:`log_scale` are the normalized view of the same value, with
``0.5 <= |mantissa| < 2`` (or exactly 0).  The constructor builds that view
once, from the stored pair, and keeps it in two more slots, so reading it is
an attribute read.

Addition aligns the two scales and flushes the smaller summand when the scales
differ by more than ``FLUSH_LOG_GAP`` in natural log, because past that point
the summand cannot influence any mantissa bit.  A consequence worth knowing:
one value carries one scale, so a component (real or imaginary part) smaller
than the other by more than the flush window is represented as zero.

Instances are immutable and cheap.  The constructor stores its four slots
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

# the public mantissa has modulus in [_MANT_LO, _MANT_HI)
_MANT_LO = 0.5
_MANT_HI = 2.0
# The stored mantissa is renormalized only outside this window; the square
# of either end is still a normal binary64 number.
_STORE_LO = 2.0**-64
_STORE_HI = 2.0**64
_LN2 = math.log(2.0)
# A renormalization of the scale ``s`` to ``t = s + log|m|`` keeps the rounding
# of ``t`` out of the value: the mantissa is divided by ``exp(log|m|)`` and,
# at a nonzero ``s``, by ``exp(-e)``, ``e = s + log|m| - t`` exactly (TwoSum),
# as is the constructor's ``s + ln 2``.  From ``2**53`` on an ulp of ``t`` is
# 2 or more and ``exp(-e)`` could leave the view outside ``[0.5, 2)``, so the
# mantissa is divided by ``exp(log|m|)`` alone.
_EXACT_SCALE = 2.0**53


def _two_sum_err(a: float, b: float, t: float) -> float:
    """``a + b - t`` exactly, for ``t`` the rounded sum ``a + b`` (TwoSum)."""
    u = t - a
    return (a - (t - u)) + (b - u)


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
        ``m`` with ``0.5 <= |m| < 2`` (or 0) and ``value = m * exp(log_scale)``.
    log_scale : float
        Natural-log scale belonging to :attr:`mantissa`.
    """

    __slots__ = ("_m", "_s", "mantissa", "log_scale")

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
            else:
                if not a < math.inf:
                    raise DomainError(f"ScaledComplex needs a finite mantissa, got {m!r}")
                d = math.log(a)
                t = s + d
                m /= cmath.exp(complex(d, 0.0))
                if s != 0.0 and -_EXACT_SCALE < t < _EXACT_SCALE:
                    m /= math.exp(-_two_sum_err(s, d, t))
                s = t
            a = abs(m)
        _set_m(self, m)
        _set_s(self, s)
        # the normalized view of the stored pair
        if _MANT_LO <= a < _MANT_HI or a == 0.0:
            _set_mantissa(self, m)
            _set_log_scale(self, s)
        else:
            d = math.log(a)
            t = s + d
            m /= cmath.exp(complex(d, 0.0))
            if s != 0.0 and -_EXACT_SCALE < t < _EXACT_SCALE:
                m /= math.exp(-_two_sum_err(s, d, t))
            _set_mantissa(self, m)
            _set_log_scale(self, t)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ScaledComplex is immutable")

    def __delattr__(self, name):
        raise AttributeError("ScaledComplex is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), (self._m, self._s)

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
        return self._m == 0

    def log_abs(self) -> float:
        """Natural log of the magnitude (``-inf`` for zero)."""
        if self.is_zero:
            return -math.inf
        return math.log(abs(self._m)) + self._s

    def to_complex(self) -> complex:
        """Plain complex value.

        Raises
        ------
        DomainError
            If the magnitude exceeds binary64 range.  Underflow is silent
            (returns 0, like float arithmetic).
        """
        m, s = self._m, self._s
        if -700.0 < s < 665.0:  # |m| < 2**64 = exp(44.4): cannot overflow
            return m * math.exp(s)
        m, s = self.mantissa, self.log_scale
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
        return ScaledComplex(self._m * o._m, self._s + o._s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise DomainError("ScaledComplex division by zero")
        if self.is_zero:
            return _ZERO
        return ScaledComplex(self._m / o._m, self._s - o._s)

    def reciprocal(self) -> "ScaledComplex":
        if self.is_zero:
            raise DomainError("reciprocal of zero ScaledComplex")
        return ScaledComplex(1.0 / self._m, -self._s)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        hi, lo = (self, o) if self._s >= o._s else (o, self)
        gap = hi._s - lo._s
        if gap > FLUSH_LOG_GAP:
            return hi
        return ScaledComplex(hi._m + lo._m * math.exp(-gap), hi._s)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return ScaledComplex(-self._m, self._s)

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
        return f"ScaledComplex({self._m!r}, log_scale={self._s!r})"


# the slots' descriptors, which store without going through __setattr__
_set_m = ScaledComplex._m.__set__
_set_s = ScaledComplex._s.__set__
_set_mantissa = ScaledComplex.mantissa.__set__
_set_log_scale = ScaledComplex.log_scale.__set__

_ZERO = ScaledComplex(0j, 0.0)
