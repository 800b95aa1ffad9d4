"""Shared numerical configuration.

All crossover radii, lattice spacings, iteration budgets and tolerances used by
the evaluator and the solvers are collected in one frozen record, so tests can
point at a single source of truth and experiments can swap a modified copy in
and out without touching module state.  The defaults are calibrated so that
binary64 arithmetic meets the documented accuracy targets; see the individual
field notes.

The continuation ``g_tilde`` of the Gaussian Cauchy transform is evaluated by
region:

* ``|z| <= series_radius`` and ``Re z^2 >= -series_lens_cut``: Maclaurin series
  of the integral term.  The lens cut keeps the bracket
  ``-i sqrt(pi/2) + sqrt(2) S(z/sqrt2)`` away from its cancellation zone near
  the imaginary axis.
* ``|Im z| < band_halfwidth``, ``|z| < asymptotic_radius``: Gaussian-lattice
  expansion of the Dawson-type integral with spacing ``lattice_spacing``
  (discretization error ``exp(-pi^2/(4h^2)) * cosh(pi Im(zeta)/h)``).
* ``Im z >= band_halfwidth``, ``|z| < asymptotic_radius``: Jacobi continued
  fraction of the moment problem at depth ``cf_depth``.
* ``|z| >= asymptotic_radius``: moment asymptotic series under optimal
  truncation.
* ``Im z <= -band_halfwidth``: Schwarz reflection of the upper evaluation plus
  the explicit scaled exponential term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EvalConfig:
    """Evaluator and solver constants.

    The defaults certify relative error ``<= 1e-12`` for ``g_tilde`` on
    ``{|z| <= 30}`` intersected with the closed upper half plane and the
    interior domain below the hyperbolas ``|Re z . Im z| = pi/2`` (measured
    worst case 3e-13 against a 40-digit oracle).
    """

    # --- region map of the entire continuation ---
    series_radius: float = 4.0
    series_lens_cut: float = 3.0
    band_halfwidth: float = 2.0
    asymptotic_radius: float = 12.0
    lattice_spacing: float = 0.2
    lattice_window: float = 6.6
    cf_depth: int = 80

    # --- scaled arithmetic ---
    #: |mantissa| is renormalized into [0.5, 2).
    mantissa_lo: float = 0.5
    mantissa_hi: float = 2.0
    #: summands whose log-scales differ by more than this are not mixed;
    #: the smaller one is flushed to zero.
    flush_log_gap: float = 750.0

    #: reciprocal refuses to produce a value when log|G| is below this
    #: (matches the binary64 decade floor 1e-300).
    pole_log_floor: float = -690.775527898214

    #: half width, in units in the last place of pi/2, of the boundary band
    #: reported by domain classification.
    boundary_ulps: int = 4

    # --- curve solver ---
    newton_tol: float = 1e-10
    newton_max_iter: int = 60
    newton_max_halvings: int = 8
    #: below x_lo the zero-regime closed forms seed the solver (and the solve
    #: switches to the logarithmic residual); above x_hi the large-x split
    #: formulation with asymptotic seeds takes over.
    x_lo: float = 0.05
    x_hi: float = 6.0
    #: beyond this the solver returns asymptotic values directly.
    x_asymptotic: float = 30.0

    # --- ODE oracle ---
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-13
    ode_min_step_factor: float = 1e-14
    #: switch to d/d(log x) when the target is below start/4.
    ode_logx_ratio: float = 0.25

    def with_updates(self, **kw) -> "EvalConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kw)


DEFAULT_CONFIG = EvalConfig()
