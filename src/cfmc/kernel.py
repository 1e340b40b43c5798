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


# Entries in one row block of the elementwise Stein-kernel work, so that the
# block's temporaries (256 KiB each) stay in cache instead of streaming n x n
# arrays through memory.  Of 2**12 .. 2**17, 2**15 was the fastest for Gram
# matrices of n = 500 .. 2000 on an x86-64 core with 2 MiB of L2.
_BLOCK_ENTRIES = 2**15


def _check_sets(x, u_x, y, u_y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    u_x = np.atleast_2d(np.asarray(u_x, dtype=float))
    u_y = np.atleast_2d(np.asarray(u_y, dtype=float))
    if x.shape != u_x.shape or y.shape != u_y.shape:
        raise InvalidInputError("score arrays must match point arrays")
    if x.shape[1] != y.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, u_x, y, u_y


def _stein_block(x, u_x, y, u_y, inner, params: SteinKernelParams) -> np.ndarray:
    """k0(x_i, y_j) for one block of row points x and column points y.

    ``inner(i, j)`` returns ``(x, u_x)[i] @ (y, u_y)[j].T`` on this block.
    """
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[1]
    nx = np.sum(x * x, axis=1)[:, None]
    ny = np.sum(y * y, axis=1)[None, :]
    pref = 1.0 + a1 * (nx + ny)
    gram = inner(0, 0)
    rho = np.maximum(nx + ny - 2.0 * gram, 0.0)
    k = np.exp(-rho / (2.0 * a2**2)) / pref
    div_grad = k * (
        d / a2**2 + 8.0 * a1**2 * gram / pref**2 - 2.0 * a1 * rho / (pref * a2**2) - rho / a2**4
    )
    ux_x = np.sum(u_x * x, axis=1)[:, None]  # u(x_i).x_i
    uy_y = np.sum(u_y * y, axis=1)[None, :]  # u(y_j).y_j
    ux_y = inner(1, 0)  # u(x_i).y_j
    x_uy = inner(0, 1)  # x_i.u(y_j)
    t_x = k * ((ux_x - ux_y) / a2**2 - 2.0 * a1 * ux_y / pref)
    t_y = -k * (2.0 * a1 * x_uy / pref + (x_uy - uy_y) / a2**2)
    return div_grad + (t_x + t_y) + inner(1, 1) * k


def _single_block(x, u_x, y, u_y, params: SteinKernelParams) -> np.ndarray:
    """The whole matrix as one block.  Each inner product is computed only
    where the formula uses it, so fewer full-size arrays are live at once."""
    left, right = (x, u_x), (y, u_y)
    return _stein_block(x, u_x, y, u_y, lambda i, j: left[i] @ right[j].T, params)


def _block_rows(p: int, q: int) -> int:
    """Rows per block: the fewest blocks of at most about ``_BLOCK_ENTRIES``
    entries, with their rows spread evenly."""
    blocks = -(-p * q // _BLOCK_ENTRIES)
    return -(-p // blocks)


def _row_blocks(x, u_x, y, u_y, params: SteinKernelParams, upper: bool):
    """Yield (i0, i1, block): rows i0:i1 of the matrix k0(x_i, y_j).

    A block spans all columns, or with ``upper`` only columns i0: (the upper
    triangle of a Gram matrix).
    """
    left, right = (x, u_x), (y, u_y)
    # BLAS picks its kernel by call shape, so the inner products are whole
    # matmuls: computed per row block, their last bit could change.
    inner = {(i, j): left[i] @ right[j].T for i in (0, 1) for j in (0, 1)}
    p = x.shape[0]
    step = _block_rows(p, y.shape[0])
    for i0 in range(0, p, step):
        i1 = min(i0 + step, p)
        j0 = i0 if upper else 0
        block = _stein_block(
            x[i0:i1], u_x[i0:i1], y[j0:], u_y[j0:],
            lambda i, j: inner[i, j][i0:i1, j0:], params,
        )
        yield i0, i1, block


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
    (p, q) array with entries k0(x_i, y_j).  The elementwise work runs in
    row blocks of about ``_BLOCK_ENTRIES`` entries, so beyond the result and
    the four (p, q) inner-product matrices it holds one block at a time.
    """
    x, u_x, y, u_y = _check_sets(x, u_x, y, u_y)
    p, q = x.shape[0], y.shape[0]
    if p * q <= _BLOCK_ENTRIES:
        return _single_block(x, u_x, y, u_y, params)
    out = np.empty((p, q))
    for i0, i1, block in _row_blocks(x, u_x, y, u_y, params, upper=False):
        out[i0:i1] = block
    return out


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


def _mirror_square(block: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of a square block onto the lower one."""
    return np.triu(block) + np.triu(block, k=1).T


def _symmetric_gram(x, u_x, params: SteinKernelParams) -> np.ndarray:
    """Stein-kernel Gram matrix of one point set, exactly symmetric.

    Only the upper-triangle row blocks (rows i0:i1, columns i0:n) are
    evaluated; each block's transpose fills the lower triangle.
    """
    x, u_x, _, _ = _check_sets(x, u_x, x, u_x)
    n = x.shape[0]
    if n * n <= _BLOCK_ENTRIES:
        return _mirror_square(_single_block(x, u_x, x, u_x, params))
    out = np.empty((n, n))
    for i0, i1, block in _row_blocks(x, u_x, x, u_x, params, upper=True):
        out[i0:i1, i0:i1] = _mirror_square(block[:, : i1 - i0])
        # Adding 0.0 turns -0.0 into +0.0, as the mirror of the diagonal
        # square does, so the result does not depend on the block layout.
        rect = block[:, i1 - i0 :]
        rect += 0.0
        out[i0:i1, i1:] = rect
        out[i1:, i0:i1] = rect.T
    return out


def gram_matrix(data: ScoredDataset, params: SteinKernelParams) -> np.ndarray:
    """Stein-kernel Gram matrix of a dataset, exactly symmetric."""
    return _symmetric_gram(data.points, data.scores, params)
