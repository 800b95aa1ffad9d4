"""Entire continuation of the Gaussian Cauchy transform and its free
Levy measure.

The standard normal law is freely infinitely divisible; this package
computes everything that statement touches: the entire continuation of the
Cauchy transform and its reciprocal, the boundary curve of the bijectivity
domain, exact rational cumulant tables, small- and large-argument
asymptotic expansions, the free Levy measure with its quadrature checks,
and an independent ODE transport that cross-validates the Newton solver.

``import freenormal`` loads no submodule: each name of ``__all__`` is
imported from its home module on first access (PEP 562), so a caller pays
only for the layers it uses.
"""

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("curve", "CurvePoint LevelSetTrace f_of in_omega solve_H trace_level_set "
                  "trace_p0"),
        ("errors", "DomainError FreeNormalError NoConvergence PoleProximity "
                   "QuadratureFailure"),
        ("levy", "levy_density semicircular_component_check tau_total_mass "
                 "voiculescu"),
        ("ode", "integrate make_anchor monotonicity_certificate"),
        ("scaled", "ScaledComplex"),
        ("series", "boolean_cumulants eval_f_asym_zero eval_g_asym_infinity "
                   "eval_g_asym_zero eval_h_asym_infinity eval_h_asym_zero "
                   "f_infinity_coefficients free_cumulants h_infinity_coefficients "
                   "moments"),
        ("transforms", "DomainTag classify_domain f_tilde f_tilde_prime g_tilde "
                       "g_tilde_contour_oracle g_tilde_prime rho"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _HOME.values():
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOME.values()})
