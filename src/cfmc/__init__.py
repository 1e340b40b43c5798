"""Gradient-based control functionals for Monte Carlo variance reduction.

Given cached sample points, integrand values and score vectors
grad log pi(x) (pi may be un-normalised), the estimators in this package
post-process the sample into expectation estimates that converge faster than
n^(-1/2), together with computable worst-case error bounds and standard
baselines for comparison.
"""

from .baselines import arithmetic_mean, riemann_1d, zv_estimate
from .bench import (
    ConvergenceReport,
    ExperimentConfig,
    MethodSpec,
    estimate_slope,
    load_config,
    run_experiment,
    write_csv,
    write_json,
)
from .data import (
    ScoredDataset,
    SplitPlan,
    random_split,
    read_sample_file,
    write_sample_file,
)
from .errors import (
    CfmcError,
    DataFormatError,
    InvalidInputError,
    NumericalError,
    SingularMatrixError,
)
from .estimator import (
    Estimate,
    RkhsFunction,
    cf_multisplit_estimate,
    cf_simplified_estimate,
    cf_split_estimate,
    cf_weights,
    cross_validate,
    fit_surrogate,
    select_lambda,
)
from .kernel import (
    SteinKernelParams,
    base_kernel,
    gram_matrix,
    stein_kernel_diag,
    stein_kernel_matrix,
)
from .targets import TargetProblem, gaussian_problem, mixture_problem, oracle_mean

__version__ = "0.1.0"

__all__ = [
    "CfmcError",
    "ConvergenceReport",
    "DataFormatError",
    "Estimate",
    "ExperimentConfig",
    "InvalidInputError",
    "MethodSpec",
    "NumericalError",
    "RkhsFunction",
    "ScoredDataset",
    "SingularMatrixError",
    "SplitPlan",
    "SteinKernelParams",
    "TargetProblem",
    "arithmetic_mean",
    "base_kernel",
    "cf_multisplit_estimate",
    "cf_simplified_estimate",
    "cf_split_estimate",
    "cf_weights",
    "cross_validate",
    "estimate_slope",
    "fit_surrogate",
    "gaussian_problem",
    "gram_matrix",
    "load_config",
    "mixture_problem",
    "oracle_mean",
    "random_split",
    "read_sample_file",
    "riemann_1d",
    "run_experiment",
    "select_lambda",
    "stein_kernel_diag",
    "stein_kernel_matrix",
    "write_csv",
    "write_json",
    "write_sample_file",
    "zv_estimate",
]
