"""Numerical toolkit for a weighted fourth-order radial elliptic problem.

The package reduces the radial problem to the autonomous fourth-order
equation v'''' - K2 v'' + K0 v = v^p through a logarithmic change of
variables, and provides: parameter validation and derived coefficients,
explicit cosh-power solutions, the conserved energy, periodic and
homoclinic orbit solvers, singularity classification, Rayleigh-quotient
minimization with closed-form best constants, and quadrature verification
of the weighted integral identities underlying the norm estimates.

The exports below resolve lazily (PEP 562): ``import radial4`` loads no
submodule, and the first access to a name imports only the module that
defines it.  Scalar work (coefficients, conditions, the cosh solution, the
closed-form best constant) therefore never loads numpy.

The Dormand-Prince integrator (integrate, rhs, Trajectory) is not
exported: no solver calls it.  It stays in radial4.dynamics as an
independent ODE oracle for the tests and a target of the benchmark tracer.
"""

import importlib

__version__ = "0.1.0"

# Defining module of every public name.
_EXPORTS = {
    name: module
    for module, names in {
        "closed_form": "CoshSolution build_cosh_solution cosh_profile_derivatives curve_rows"
                       " eval_u radial_curve_rows",
        "dynamics": "ReducedProblem energy",
        "errors": "ConvergenceError DomainError NoExplicitSolutionError PoleError Radial4Error"
                  " RegimeError TailError ValidationError",
        "identities": "IdentityId IdentityReport QuadratureGrid RadialTestFunction TEST_FUNCTIONS"
                      " record_deviation run_identity_suite t_operator verify_identity"
                      " weighted_integral weighted_power_integral",
        "orbits": "HomoclinicProfile PeriodicOrbit SingularityVerdict Verdict classify_singularity"
                  " find_homoclinic find_periodic linearized_frequency",
        "params": "ConditionReport DerivedCoefficients ProblemParams SolutionCase beta_from_hyperbola"
                  " check_conditions derive_coefficients explicit_lambda_branches"
                  " k0_value k2_value",
        "specfun": "beta_fn gamma_fn omega_n",
        "variational": "BestConstantResult ConstantSource MinimizeResult"
                       " best_constant_numerical minimize_rayleigh phi_closed_form"
                       " rayleigh_quotient",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
