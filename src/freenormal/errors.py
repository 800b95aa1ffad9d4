"""Exception hierarchy shared across the package: one class per kind of failure.

- :class:`FreeNormalError`: the base of every error raised on purpose, so
  one except clause catches the package's failures.
- :class:`DomainError` (also a ``ValueError``): an argument outside the
  operation's domain (a level that misses its box, a point the contour
  cannot reach), or a result that is no normal binary64 number.
- :class:`PoleProximity` (also an ``ArithmeticError``): too close to a pole
  of ``1/G`` for its value to carry digits.
- :class:`NoConvergence` (also an ``ArithmeticError``): an iterative solver
  or root search did not settle; it carries the last iterate and residual.
- :class:`QuadratureFailure` (also an ``ArithmeticError``): a quadrature's
  error estimate exceeds the requested tolerance.
"""

from __future__ import annotations


class FreeNormalError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FreeNormalError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleProximity(FreeNormalError, ArithmeticError):
    """Evaluation too close to a pole of the reciprocal transform.

    Raised when ``|G(z)|`` falls below the pole floor ``1e-300`` (see
    ``transforms._POLE_LOG_FLOOR``), so ``1/G`` would not carry meaningful
    digits even in scaled representation.
    """


class NoConvergence(FreeNormalError, ArithmeticError):
    """An iterative solver exhausted its iteration budget.

    Attributes
    ----------
    last_iterate : complex or float or None
        Best iterate seen before giving up, for diagnostics.
    residual : float or None
        Residual at that iterate.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class QuadratureFailure(FreeNormalError, ArithmeticError):
    """A tanh-sinh quadrature's error estimate exceeds the requested tolerance."""
