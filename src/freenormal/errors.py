"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`FreeNormalError`, so callers
can catch the package's failures with a single except clause while still
distinguishing domain violations (bad inputs) from numerical failures
(something did not converge).  Where a standard exception type fits, the
specific class also inherits from it.
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


class SeedNotFound(FreeNormalError, RuntimeError):
    """A level-set tracer found no starting point inside the search box."""


class NoSignChange(FreeNormalError, RuntimeError):
    """An anchor scan found no sign change in the bracketing interval."""


class InvalidContour(FreeNormalError, ValueError):
    """Contour parameters violate the validity conditions of the oracle."""


class QuadratureFailure(FreeNormalError, ArithmeticError):
    """A tanh-sinh quadrature's error estimate exceeds the requested tolerance."""
