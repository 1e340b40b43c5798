"""Numerical health checks of the Stein kernel every estimate uses:
zero-mean property, derivative correctness, kernel boundedness.

The zero-mean check integrates x' -> k0(x, x') pi(x') by adaptive quadrature
at probe points; for a valid target/kernel pair every residual should sit at
quadrature noise level.  The gradient check compares k0 with the Stein
operator applied to the base kernel by central differences.  The
boundedness diagnostic reports the sampled sup of k0(x, x), which must stay
finite for the estimators to be well behaved.  All three evaluate k0 by the
assembly of :func:`stein_kernel_matrix`.
"""

from __future__ import annotations

import numpy as np

from .data import ScoredDataset
from .errors import InvalidInputError
from .kernel import SteinKernelParams, base_kernel, stein_kernel_diag, stein_kernel_matrix
from .targets import TargetProblem, gaussian_problem

# The mean-element check integrates over [-_QUAD_LIMIT, _QUAD_LIMIT].
_QUAD_LIMIT = 12.0

# The gradient check: _FD_CONFIGS random configurations, cycling through the
# dimensions _FD_DIMS, with central-difference steps _FD_STEP for the first
# derivatives and _FD_DIV_STEP for the mixed second one.
_FD_CONFIGS = 100
_FD_DIMS = (1, 2, 5)
_FD_STEP = 1e-5
_FD_DIV_STEP = 1e-4


def mean_element_residuals(
    params: SteinKernelParams, probes=None, problem: TargetProblem | None = None
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
    x = np.asarray(probes, dtype=float).reshape(-1, 1)
    u_x = problem.score(x)
    from scipy import integrate  # here: no estimate needs it, and it loads scipy.optimize

    def integrand(xp: float) -> np.ndarray:
        y = np.array([[xp]])
        k0 = stein_kernel_matrix(x, u_x, y, problem.score(y), params)[:, 0]
        return k0 * float(problem.normalised_density(xp))

    residuals, _ = integrate.quad_vec(
        integrand, -_QUAD_LIMIT, _QUAD_LIMIT, epsabs=1e-13, epsrel=1e-13, limit=400
    )
    return residuals


def _fd_stein_kernel(x, u_x, xp, u_xp, params: SteinKernelParams):
    """The Stein operator applied to the base kernel by central differences,
    at one pair of points.

    The mixed second derivative uses its own (larger) step: the 4-point cross
    difference carries rounding noise of order eps/step^2, so the
    first-derivative step would drown the signal.
    """
    step, div_step = _FD_STEP, _FD_DIV_STEP
    e, f = step * np.eye(x.size), div_step * np.eye(x.size)
    grad_x = (base_kernel(x + e, xp, params) - base_kernel(x - e, xp, params)) / (2 * step)
    grad_xp = (base_kernel(x, xp + e, params) - base_kernel(x, xp - e, params)) / (2 * step)
    div = np.sum(
        base_kernel(x + f, xp + f, params)
        - base_kernel(x + f, xp - f, params)
        - base_kernel(x - f, xp + f, params)
        + base_kernel(x - f, xp - f, params)
    ) / (4 * div_step * div_step)
    return div + u_x @ grad_xp + u_xp @ grad_x + (u_x @ u_xp) * base_kernel(x, xp, params)


def gradient_check(seed: int = 0) -> dict:
    """Worst relative disagreement between :func:`stein_kernel_matrix` and
    the Stein operator applied to :func:`base_kernel` by central differences,
    over random points, scores and kernels.

    The relative error uses max(1, |k0|) as the scale; the worst one is
    returned as ``max``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(_FD_CONFIGS):
        x, u_x, xp, u_xp = rng.normal(size=(4, _FD_DIMS[j % len(_FD_DIMS)]))
        params = SteinKernelParams(
            alpha1=float(rng.uniform(0.05, 0.5)), alpha2=float(rng.uniform(0.5, 2.0))
        )
        k0 = stein_kernel_matrix(x, u_x, xp, u_xp, params)[0, 0]
        fd = _fd_stein_kernel(x, u_x, xp, u_xp, params)
        worst = max(worst, float(abs(k0 - fd) / max(1.0, abs(k0))))
    return {"max": worst}


def sampled_sup_diag(data: ScoredDataset, params: SteinKernelParams) -> float:
    """Largest k0(x, x) over the dataset; reported, not asserted."""
    return float(np.max(stein_kernel_diag(data.points, data.scores, params)))
