"""Entire continuation of the Gaussian Cauchy transform and its free
Levy measure.

The standard normal law is freely infinitely divisible; this package
computes everything that statement touches: the entire continuation of the
Cauchy transform and its reciprocal, the boundary curve of the bijectivity
domain, exact rational cumulant tables, small- and large-argument
asymptotic expansions, the free Levy measure with its quadrature checks,
and an independent ODE transport that cross-validates the Newton solver.
"""

from .config import DEFAULT_CONFIG, EvalConfig
from .curve import (
    CurvePoint,
    CurveTrace,
    LevelSetTrace,
    f_of,
    in_omega,
    solve_H,
    trace_level_set,
    trace_p0,
)
from .errors import (
    DomainError,
    FreeNormalError,
    InvalidContour,
    NoConvergence,
    NoSignChange,
    PoleProximity,
    QuadratureFailure,
    SeedNotFound,
    StepUnderflow,
)
from .levy import (
    levy_density,
    semicircular_component_check,
    tau_total_mass,
    voiculescu,
)
from .ode import (
    AnchorPoint,
    OdeState,
    integrate,
    make_anchor,
    monotonicity_certificate,
)
from .scaled import ScaledComplex
from .series import (
    AsymptoticRegime,
    RationalSeries,
    boolean_cumulants,
    eval_f_asym_zero,
    eval_g_asym_infinity,
    eval_g_asym_zero,
    eval_h_asym_infinity,
    eval_h_asym_zero,
    f_infinity_coefficients,
    free_cumulants,
    h_infinity_coefficients,
    moments,
    regime_of,
)
from .transforms import (
    DomainTag,
    classify_domain,
    f_tilde,
    f_tilde_prime,
    g_tilde,
    g_tilde_contour_oracle,
    g_tilde_prime,
    rho,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorPoint",
    "AsymptoticRegime",
    "CurvePoint",
    "CurveTrace",
    "DEFAULT_CONFIG",
    "DomainError",
    "DomainTag",
    "EvalConfig",
    "FreeNormalError",
    "InvalidContour",
    "LevelSetTrace",
    "NoConvergence",
    "NoSignChange",
    "OdeState",
    "PoleProximity",
    "QuadratureFailure",
    "RationalSeries",
    "ScaledComplex",
    "SeedNotFound",
    "StepUnderflow",
    "boolean_cumulants",
    "classify_domain",
    "eval_f_asym_zero",
    "eval_g_asym_infinity",
    "eval_g_asym_zero",
    "eval_h_asym_infinity",
    "eval_h_asym_zero",
    "f_infinity_coefficients",
    "f_of",
    "f_tilde",
    "f_tilde_prime",
    "free_cumulants",
    "g_tilde",
    "g_tilde_contour_oracle",
    "g_tilde_prime",
    "h_infinity_coefficients",
    "in_omega",
    "integrate",
    "levy_density",
    "make_anchor",
    "moments",
    "monotonicity_certificate",
    "regime_of",
    "rho",
    "semicircular_component_check",
    "solve_H",
    "tau_total_mass",
    "trace_level_set",
    "trace_p0",
    "voiculescu",
]
