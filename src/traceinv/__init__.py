"""Evaluation and interpolation of t -> trace((A + t*B)^-1) for SPD A, B.

The exports below are loaded from their submodules on first access, so
importing the package (or ``traceinv.cli``) does not load numpy or its
BLAS. That lets the CLI set the BLAS thread count before any numerical
library starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "estimators": (
        "TraceEstimate",
        "estimate_trace_inv",
        "prepare_trace",
        "shifted_operand",
        "trace_inv_exact_cholesky",
        "trace_inv_hutchinson",
        "trace_inv_slq",
    ),
    "exceptions": (
        "DimensionMismatch",
        "InvalidShape",
        "NonPositiveResult",
        "NotPositiveDefinite",
        "PoleInDomain",
        "SingularSystem",
        "TraceInvError",
    ),
    "experiments": (
        "GcvProblem",
        "OptimizationResult",
        "gcv_experiment",
        "gcv_value",
        "gp_experiment",
        "make_gcv_problem",
        "relative_log_theta_error",
    ),
    "inequalities": ("InequalityReport", "check_inequality_suite"),
    "interpolation": (
        "Interpolant",
        "InterpolantPoints",
        "TauContext",
        "compute_tau_at_nodes",
        "compute_tau_context",
        "eval_basis",
        "eval_rational",
        "fit_basis",
        "fit_rational",
        "tau_lower_bound",
        "tau_upper_bound",
    ),
    "matrices": (
        "DesignMatrix",
        "SpdMatrix",
        "build_design_matrix",
        "build_exponential_kernel",
        "grid_points",
        "random_points",
    ),
    "optimize": ("differential_evolution",),
    "ortho": ("gram_schmidt",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
