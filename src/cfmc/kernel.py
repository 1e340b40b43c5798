"""Base kernel, its derivatives, and the gradient-based (Stein) kernel.

The base kernel is

    k(x, x') = (1 + a1*|x|^2 + a1*|x'|^2)^(-1) * exp(-|x - x'|^2 / (2*a2^2))

with a1, a2 > 0.  Writing u(x) = grad log pi(x) for the score of the target
density, the Stein kernel is

    k0(x, x') = div_x div_x' k + u(x).grad_x' k + u(x').grad_x k
                + (u(x).u(x')) k,

the reproducing kernel of a space of functions whose mean under pi is zero
whenever the usual tail conditions hold.  The prefactor above decays in |x|
so that k0(x, x) stays bounded even for scores growing linearly.

All derivative formulae below are analytic, derived from the product form
k = A*E with A the prefactor and E the Gaussian factor.  Unit tests pin each
of them against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ScoredDataset
from .errors import InvalidInputError


@dataclass(frozen=True)
class SteinKernelParams:
    """Base-kernel hyper-parameters.

    ``alpha1`` is the dimensionless prefactor weight; ``alpha2`` is the
    length-scale, in the same units as the sample coordinates.  Both must be
    strictly positive.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise InvalidInputError(f"{name} must be a positive finite real, got {value}")


@dataclass(frozen=True)
class KernelDerivatives:
    """First and mixed derivatives of the base kernel at one pair of points."""

    k_value: float
    grad_x: np.ndarray
    grad_xp: np.ndarray
    div_grad: float


def _check_pair(x, xp) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.ndim != 1 or xp.ndim != 1:
        raise InvalidInputError("points must be 1-d vectors")
    if x.shape != xp.shape:
        raise InvalidInputError(f"point dimensions differ: {x.shape[0]} vs {xp.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xp))):
        raise InvalidInputError("points must be finite")
    return x, xp


def base_kernel(x, xp, params: SteinKernelParams) -> float:
    """Evaluate k(x, x').  Always in (0, 1], symmetric in its arguments."""
    x, xp = _check_pair(x, xp)
    pref = 1.0 + params.alpha1 * (x @ x + xp @ xp)
    rho = float(np.sum((x - xp) ** 2))
    return float(np.exp(-rho / (2.0 * params.alpha2**2)) / pref)


def base_kernel_derivatives(x, xp, params: SteinKernelParams) -> KernelDerivatives:
    """Evaluate k, grad_x k, grad_x' k and div_x div_x' k analytically.

    With P = 1 + a1*(|x|^2 + |x'|^2), r = x - x' and k = exp(-|r|^2/(2 a2^2))/P:

        grad_x  k = -k * (2 a1 x / P + r / a2^2)
        grad_x' k =  k * (r / a2^2 - 2 a1 x' / P)
        div_x div_x' k = k * (d/a2^2 + 8 a1^2 (x.x')/P^2
                              - 2 a1 |r|^2 / (P a2^2) - |r|^2 / a2^4)
    """
    x, xp = _check_pair(x, xp)
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[0]
    pref = 1.0 + a1 * (x @ x + xp @ xp)
    r = x - xp
    rho = float(r @ r)
    k = float(np.exp(-rho / (2.0 * a2**2)) / pref)
    grad_x = -k * (2.0 * a1 * x / pref + r / a2**2)
    grad_xp = k * (r / a2**2 - 2.0 * a1 * xp / pref)
    div_grad = k * (
        d / a2**2
        + 8.0 * a1**2 * (x @ xp) / pref**2
        - 2.0 * a1 * rho / (pref * a2**2)
        - rho / a2**4
    )
    return KernelDerivatives(k_value=k, grad_x=grad_x, grad_xp=grad_xp, div_grad=float(div_grad))


def stein_kernel(x, u_x, xp, u_xp, params: SteinKernelParams) -> float:
    """Evaluate the Stein kernel k0 at one pair of (point, score) tuples.

    Symmetric under the joint swap (x, u_x) <-> (x', u_x'), exactly as
    computed: every term is evaluated in a swap-invariant form.
    """
    x, xp = _check_pair(x, xp)
    u_x = np.asarray(u_x, dtype=float)
    u_xp = np.asarray(u_xp, dtype=float)
    if u_x.shape != x.shape or u_xp.shape != xp.shape:
        raise InvalidInputError("score vectors must match point dimension")
    if not (np.all(np.isfinite(u_x)) and np.all(np.isfinite(u_xp))):
        raise InvalidInputError("scores must be finite")
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[0]
    pref = 1.0 + a1 * (x @ x + xp @ xp)
    r = x - xp
    rho = float(r @ r)
    k = float(np.exp(-rho / (2.0 * a2**2)) / pref)
    div_grad = k * (
        d / a2**2
        + 8.0 * a1**2 * (x @ xp) / pref**2
        - 2.0 * a1 * rho / (pref * a2**2)
        - rho / a2**4
    )
    # u(x).grad_x' k and u(x').grad_x k, written so a swap maps one onto the
    # exact negation pattern of the other; grouping them into a single
    # commutative addition keeps the result bitwise swap-symmetric.
    t_x = k * ((u_x @ x - u_x @ xp) / a2**2 - 2.0 * a1 * (u_x @ xp) / pref)
    t_xp = -k * (2.0 * a1 * (u_xp @ x) / pref + (u_xp @ x - u_xp @ xp) / a2**2)
    return float(div_grad + (t_x + t_xp) + (u_x @ u_xp) * k)


def stein_kernel_matrix(x, u_x, y, u_y, params: SteinKernelParams) -> np.ndarray:
    """Vectorised Stein-kernel evaluation between two point sets.

    Parameters
    ----------
    x, u_x : (p, d) arrays
        Row points and their scores.
    y, u_y : (q, d) arrays
        Column points and their scores.

    Returns
    -------
    (p, q) array with entries k0(x_i, y_j).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    u_x = np.atleast_2d(np.asarray(u_x, dtype=float))
    u_y = np.atleast_2d(np.asarray(u_y, dtype=float))
    if x.shape != u_x.shape or y.shape != u_y.shape:
        raise InvalidInputError("score arrays must match point arrays")
    if x.shape[1] != y.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[1]
    nx = np.sum(x * x, axis=1)[:, None]
    ny = np.sum(y * y, axis=1)[None, :]
    pref = 1.0 + a1 * (nx + ny)
    gram = x @ y.T
    rho = np.maximum(nx + ny - 2.0 * gram, 0.0)
    k = np.exp(-rho / (2.0 * a2**2)) / pref
    div_grad = k * (
        d / a2**2 + 8.0 * a1**2 * gram / pref**2 - 2.0 * a1 * rho / (pref * a2**2) - rho / a2**4
    )
    ux_x = np.sum(u_x * x, axis=1)[:, None]  # u(x_i).x_i
    uy_y = np.sum(u_y * y, axis=1)[None, :]  # u(y_j).y_j
    ux_y = u_x @ y.T  # u(x_i).y_j
    x_uy = x @ u_y.T  # x_i.u(y_j)
    t_x = k * ((ux_x - ux_y) / a2**2 - 2.0 * a1 * ux_y / pref)
    t_y = -k * (2.0 * a1 * x_uy / pref + (x_uy - uy_y) / a2**2)
    return div_grad + (t_x + t_y) + (u_x @ u_y.T) * k


def stein_kernel_diag(x, u_x, params: SteinKernelParams) -> np.ndarray:
    """Evaluate k0(x_i, x_i) for each row of ``x`` in O(n).

    Matches the general formula with x = x'; used for the boundedness
    diagnostic sup k0(x, x).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u_x = np.atleast_2d(np.asarray(u_x, dtype=float))
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[1]
    nx = np.sum(x * x, axis=1)
    pref = 1.0 + a1 * (nx + nx)
    k = 1.0 / pref
    ux_x = np.sum(u_x * x, axis=1)
    div_part = d / a2**2 + 8.0 * a1**2 * nx / pref**2
    return k * (div_part - 4.0 * a1 * ux_x / pref + np.sum(u_x * u_x, axis=1))


def _mirror_upper(mat: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one (exact symmetry)."""
    out = np.triu(mat)
    out = out + np.triu(mat, k=1).T
    return out


def gram_matrix(data: ScoredDataset, params: SteinKernelParams) -> np.ndarray:
    """Stein-kernel Gram matrix of a dataset, exactly symmetric."""
    full = stein_kernel_matrix(data.points, data.scores, data.points, data.scores, params)
    return _mirror_upper(full)
