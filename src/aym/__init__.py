"""Sectoral productivity equilibria.

Discrete constrained-maximization solver (Boltzmann and generalized-c
occupations), exact enumeration and Metropolis cross-checks, the continuous
information-theoretic productivity law with a numerical verifier for the
information principles that generate it, sector-binned comparison of the
two formulations, and tail fitting against empirical cumulative data.

Each public name loads its module on first use (PEP 562), so ``import aym``
alone imports no numpy, and a cold ``python -m aym`` run loads only the
modules its subcommand needs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AymError", "DegenerateFit", "DomainError", "DomainViolation", "EmptyDataset",
        "EmptyLadder", "InfeasibleDemand", "InstanceTooLarge", "MonotonicityError",
        "NoConvergence", "NoFeasibleState", "NonMonotoneLevels", "ParseError", "QuadratureFailure",
        "SolverError", "ValidationError",
    ),
    "model_core": (
        "EconomyParams", "LadderRatio", "OccupationVector", "ladder_ratio", "load_params",
        "make_ladder", "params_from_json", "params_to_json", "validate",
    ),
    "lattice": (
        "EnumerationResult", "enumerate_feasible", "integer_lattice", "log_multinomial_weight",
    ),
    "discrete_equilibrium": (
        "EquilibriumSolution", "Multipliers", "closed_form_ladder", "ladder_limit_form",
        "solve_boltzmann", "solve_generalized",
    ),
    "occupation_sampler": (
        "ChainConfig", "SampleSummary", "merge_summaries", "run_chain",
    ),
    "epi_distribution": ("Displacement", "EpiDistribution", "curve_csv", "make"),
    "principle_verifier": (
        "NumericsConfig", "PrincipleReport", "boundary_constant", "boundary_identity_residual",
        "euler_lagrange_residual", "fisher_kinematical", "fisher_metric_form",
        "fisher_statistical", "generating_equation_residual", "pointwise_information_density",
        "qtilde_recovered", "regularity_residual", "structural_principle", "verify_all",
    ),
    "discretization_compare": (
        "ComparisonMetrics", "asymptotic_ladder_pmf", "asymptotic_zero_min_pmf", "aym_ladder_pmf",
        "compare", "compare_sweep_csv", "epi_binned_ladder", "epi_binned_zero_min",
    ),
    "empirical_fit": (
        "FitResult", "TailDataset", "emit_overlay", "fit_tail", "load_csv", "save_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import a public name's module (or a submodule) on first access."""
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
