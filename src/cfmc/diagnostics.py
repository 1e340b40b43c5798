"""Numerical health checks: zero-mean property, derivative correctness,
kernel boundedness.

The zero-mean check integrates x' -> k0(x, x') pi(x') by adaptive quadrature
at probe points; for a valid target/kernel pair every residual should sit at
quadrature noise level.  The gradient check compares the analytic kernel
derivatives against central finite differences.  The boundedness diagnostic
reports the sampled sup of k0(x, x), which must stay finite for the
estimators to be well behaved.
"""

from __future__ import annotations

import numpy as np

from .data import ScoredDataset
from .errors import InvalidInputError
from .kernel import SteinKernelParams, base_kernel, base_kernel_derivatives, stein_kernel, stein_kernel_diag
from .targets import TargetProblem, gaussian_problem


def mean_element_residuals(
    params: SteinKernelParams,
    probes=None,
    problem: TargetProblem | None = None,
    lower: float = -12.0,
    upper: float = 12.0,
) -> np.ndarray:
    """Quadrature values of integral k0(x, .) d pi at each probe point.

    Exact value is zero for a valid pair; returns the signed residuals.
    Only d = 1 problems with a normalised density are supported.
    """
    if problem is None:
        problem = gaussian_problem(1)
    if problem.dimension != 1 or problem.normalised_density is None:
        raise InvalidInputError("mean-element check needs a d=1 problem with a density")
    if probes is None:
        probes = np.linspace(-3.0, 3.0, 10)
    probes = np.asarray(probes, dtype=float)
    from scipy import integrate  # here: no estimate needs it, and it loads scipy.optimize

    def score_at(value: float) -> np.ndarray:
        return problem.score(np.array([[value]]))[0]

    residuals = np.empty(probes.size)
    for i, x in enumerate(probes):
        ux = score_at(float(x))
        xv = np.array([float(x)])

        def integrand(xp: float) -> float:
            k0 = stein_kernel(xv, ux, np.array([xp]), score_at(xp), params)
            return k0 * float(problem.normalised_density(xp))

        value, _ = integrate.quad(integrand, lower, upper, epsabs=1e-13, epsrel=1e-13, limit=400)
        residuals[i] = value
    return residuals


def _fd_derivatives(
    x: np.ndarray, xp: np.ndarray, params: SteinKernelParams, step: float, div_step: float
):
    """Central finite differences of the base kernel.

    The mixed second derivative uses its own (larger) step: the 4-point cross
    difference carries rounding noise of order eps/step^2, so the
    first-derivative step would drown the signal.
    """
    d = x.size
    grad_x = np.zeros(d)
    grad_xp = np.zeros(d)
    div = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        grad_x[i] = (base_kernel(x + e, xp, params) - base_kernel(x - e, xp, params)) / (2 * step)
        grad_xp[i] = (base_kernel(x, xp + e, params) - base_kernel(x, xp - e, params)) / (2 * step)
        e[i] = div_step
        div += (
            base_kernel(x + e, xp + e, params)
            - base_kernel(x + e, xp - e, params)
            - base_kernel(x - e, xp + e, params)
            + base_kernel(x - e, xp - e, params)
        ) / (4 * div_step * div_step)
    return grad_x, grad_xp, div


def gradient_check(
    n_configs: int = 100,
    dims=(1, 2, 5),
    step: float = 1e-5,
    div_step: float = 1e-4,
    seed: int = 0,
) -> dict:
    """Worst relative disagreement between analytic and finite-difference
    kernel derivatives over random configurations.

    Relative error for a quantity uses max(1, |analytic|_inf) as the scale.
    Returns per-quantity maxima plus the overall ``max``.
    """
    rng = np.random.default_rng(seed)
    worst = {"k_value": 0.0, "grad_x": 0.0, "grad_xp": 0.0, "div_grad": 0.0}
    for j in range(n_configs):
        d = dims[j % len(dims)]
        x = rng.normal(size=d)
        xp = rng.normal(size=d)
        params = SteinKernelParams(
            alpha1=float(rng.uniform(0.05, 0.5)), alpha2=float(rng.uniform(0.5, 2.0))
        )
        analytic = base_kernel_derivatives(x, xp, params)
        fd_gx, fd_gxp, fd_div = _fd_derivatives(x, xp, params, step, div_step)
        k_direct = base_kernel(x, xp, params)

        def rel(a, b):
            a = np.atleast_1d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a))))

        worst["k_value"] = max(worst["k_value"], rel(analytic.k_value, k_direct))
        worst["grad_x"] = max(worst["grad_x"], rel(analytic.grad_x, fd_gx))
        worst["grad_xp"] = max(worst["grad_xp"], rel(analytic.grad_xp, fd_gxp))
        worst["div_grad"] = max(worst["div_grad"], rel(analytic.div_grad, fd_div))
    worst["max"] = max(worst.values())
    return worst


def sampled_sup_diag(data: ScoredDataset, params: SteinKernelParams) -> float:
    """Largest k0(x, x) over the dataset; reported, not asserted."""
    return float(np.max(stein_kernel_diag(data.points, data.scores, params)))
