"""Shared numerical configuration.

All crossover points, iteration budgets and tolerances used by the
transforms and the solvers are collected in one frozen record, so tests can
point at a single source of truth and experiments can swap a modified copy in
and out without touching module state.  The evaluator of ``g_tilde`` (one
rational series for the Faddeeva function, see :mod:`freenormal.transforms`)
has no constants to tune; what is configured is the pole floor of the
reciprocal, the boundary band of the domain classification, the curve
solver's regimes and budgets, and the ODE oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EvalConfig:
    """Transform, solver and ODE constants.

    ``g_tilde`` is certified to relative error ``<= 1e-12`` on
    ``Xi intersect {|z| <= 30}`` whatever the configuration.
    """

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
    x_hi: float = 3.5
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
