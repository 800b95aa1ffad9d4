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
``0.5 <= |mantissa| < 2`` (or exactly 0).

Addition aligns the two scales and flushes the smaller summand when the scales
differ by more than ``FLUSH_LOG_GAP`` in natural log, because past that point
the summand cannot influence any mantissa bit.  A consequence worth knowing:
one value carries one scale, so a component (real or imaginary part) smaller
than the other by more than the flush window is represented as zero.

Instances are immutable and cheap; arithmetic never raises on magnitude alone.
"""

from __future__ import annotations

import cmath
import math

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


class ScaledComplex:
    """Complex value ``mantissa * exp(log_scale)``.

    Parameters
    ----------
    mantissa : complex
    log_scale : float
        Natural-log scale factor.  The constructor renormalizes when needed, so
        any ``(mantissa, log_scale)`` pair with finite entries is accepted.
    """

    __slots__ = ("_m", "_s")

    def __init__(self, mantissa: complex, log_scale: float = 0.0):
        m = complex(mantissa)
        s = float(log_scale)
        a = abs(m)
        if a == 0.0:
            m, s = 0j, 0.0
        elif not (_STORE_LO <= a < _STORE_HI):
            d = math.log(a)
            m /= cmath.exp(complex(d, 0.0))
            s += d
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_s", s)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ScaledComplex is immutable")

    # ---- constructors ----

    @classmethod
    def from_complex(cls, value: complex) -> "ScaledComplex":
        return cls(value, 0.0)

    @classmethod
    def exp_of(cls, w: complex) -> "ScaledComplex":
        """``exp(w)`` for arbitrary complex ``w``, never overflowing.

        Exact by construction: the phase goes into the mantissa, the real part
        into the scale.
        """
        w = complex(w)
        return cls(cmath.exp(complex(0.0, w.imag)), w.real)

    # ---- queries ----

    def _normalized(self) -> tuple[complex, float]:
        m, s = self._m, self._s
        a = abs(m)
        if a == 0.0 or _MANT_LO <= a < _MANT_HI:
            return m, s
        d = math.log(a)
        return m / cmath.exp(complex(d, 0.0)), s + d

    @property
    def mantissa(self) -> complex:
        """``m`` with ``0.5 <= |m| < 2`` (or 0) and ``value = m * exp(log_scale)``."""
        return self._normalized()[0]

    @property
    def log_scale(self) -> float:
        """Natural-log scale belonging to :attr:`mantissa`."""
        return self._normalized()[1]

    @property
    def is_zero(self) -> bool:
        return self._m == 0

    def log_abs(self) -> float:
        """Natural log of the magnitude (``-inf`` for zero)."""
        if self.is_zero:
            return -math.inf
        return math.log(abs(self._m)) + self._s

    def arg(self) -> float:
        return cmath.phase(self._m)

    def to_complex(self) -> complex:
        """Plain complex value.

        Raises
        ------
        OverflowError
            If the magnitude exceeds binary64 range.  Underflow is silent
            (returns 0, like float arithmetic).
        """
        m, s = self._m, self._s
        if -700.0 < s < 665.0:  # |m| < 2**64 = exp(44.4): cannot overflow
            return m * math.exp(s)
        m, s = self._normalized()
        if s > 709.0:
            raise OverflowError(
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
            raise ZeroDivisionError("ScaledComplex division by zero")
        if self.is_zero:
            return _ZERO
        return ScaledComplex(self._m / o._m, self._s - o._s)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def reciprocal(self) -> "ScaledComplex":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero ScaledComplex")
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

    def conjugate(self) -> "ScaledComplex":
        if self.is_zero:
            return self
        return ScaledComplex(self._m.conjugate(), self._s)

    def __abs__(self) -> float:
        """Magnitude as a plain float; inf on overflow, 0 on underflow."""
        if self._s == 0.0:
            return abs(self._m)
        la = self.log_abs()
        if la > 709.0:
            return math.inf
        if la == -math.inf or la < -745.0:
            return 0.0
        return math.exp(la)

    # ---- misc ----

    def __repr__(self) -> str:
        return f"ScaledComplex({self._m!r}, log_scale={self._s!r})"

    def isclose(self, other, rel_tol: float = 1e-12) -> bool:
        """Relative closeness that works at any scale."""
        o = self._coerce(other)
        if self.is_zero or o.is_zero:
            return self.is_zero and o.is_zero
        m, s = self._normalized()
        om, os = o._normalized()
        gap = s - os
        if abs(gap) > 1.0:  # > e apart: cannot be close at sane rel_tol
            return False
        return abs(m - om * math.exp(-gap)) <= rel_tol * abs(m)


_ZERO = ScaledComplex(0j, 0.0)
