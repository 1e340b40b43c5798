"""Base kernel and the gradient-based (Stein) kernel.

The base kernel is

    k(x, x') = (1 + a1*|x|^2 + a1*|x'|^2)^(-1) * exp(-|x - x'|^2 / (2*a2^2))

with a1, a2 > 0.  Writing u(x) = grad log pi(x) for the score of the target
density, the Stein kernel is

    k0(x, x') = div_x div_x' k + u(x).grad_x' k + u(x').grad_x k
                + (u(x).u(x')) k,

the reproducing kernel of a space of functions whose mean under pi is zero
whenever the usual tail conditions hold.  The prefactor above decays in |x|
so that k0(x, x) stays bounded even for scores growing linearly.

:func:`stein_kernel_matrix` (with :func:`gram_matrix`, its exactly symmetric
Gram form) is the one evaluation of k0; its derivative terms are analytic,
derived from the product form k = A*E with A the prefactor and E the
Gaussian factor.  ``cfmc.diagnostics`` checks it against the Stein operator
applied to :func:`base_kernel` by central differences, and its zero mean by
quadrature.  :func:`stein_kernel_diag`, for the boundedness diagnostic,
reads k0(x, x) off Gram blocks of the same assembly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .data import ScoredDataset
from .errors import InvalidInputError, _bad, _real


@dataclass(frozen=True)
class SteinKernelParams:
    """Base-kernel hyper-parameters.

    ``alpha1`` is the dimensionless prefactor weight; ``alpha2`` is the
    length-scale, in the same units as the sample coordinates.  Both must be
    positive finite numbers (not booleans) whose kernel constants,
    ``8*alpha1**2`` and ``alpha2**4``, are finite floats too; they are
    stored as floats.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name, (text, constant) in _CONSTANTS.items():
            value = _real(
                name, getattr(self, name), lambda x: x > 0.0 and _finite(constant, x),
                f"a positive finite number with {text} finite",
            )
            object.__setattr__(self, name, value)


# Each parameter's highest power among the kernel's constants, as the kernel
# forms it; a value that overflows it would make every evaluation raise
# OverflowError (Python's float power) or go non-finite.
_CONSTANTS = {
    "alpha1": ("8*alpha1**2", lambda a1: 8.0 * a1**2),
    "alpha2": ("alpha2**4", lambda a2: a2**4),
}


def _cv_grid(grid) -> tuple[SteinKernelParams, ...]:
    """``grid`` as a tuple of cross-validation candidates: a non-empty
    sequence of SteinKernelParams."""
    candidates = tuple(grid) if np.iterable(grid) else ()
    if not candidates or not all(isinstance(p, SteinKernelParams) for p in candidates):
        raise _bad("cv_grid", "a non-empty sequence of SteinKernelParams", grid)
    return candidates


def _finite(constant, value: float) -> bool:
    try:
        return math.isfinite(constant(value))
    except OverflowError:  # a float power past the float range
        return False


def base_kernel(x, xp, params: SteinKernelParams) -> np.ndarray:
    """Evaluate k(x, x') over the last axis of two arrays that broadcast
    against each other: one value per pair of points, each in (0, 1] and
    symmetric in its arguments.  Two single points give a 0-d value."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.ndim == 0 or xp.ndim == 0:
        raise InvalidInputError("points must be vectors along the last axis")
    if x.shape[-1] != xp.shape[-1]:
        raise InvalidInputError(f"point dimensions differ: {x.shape[-1]} vs {xp.shape[-1]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xp))):
        raise InvalidInputError("points must be finite")
    pref = 1.0 + params.alpha1 * (np.sum(x * x, axis=-1) + np.sum(xp * xp, axis=-1))
    rho = np.sum((x - xp) ** 2, axis=-1)
    return np.exp(-rho / (2.0 * params.alpha2**2)) / pref


# Entries in one row block of the elementwise Stein-kernel work, so that the
# block's temporaries (256 KiB each) stay in cache instead of streaming n x n
# arrays through memory.  Of 2**12 .. 2**17, 2**15 was the fastest for Gram
# matrices of n = 500 .. 2000 on an x86-64 core with 2 MiB of L2.
_BLOCK_ENTRIES = 2**15
# Block-sized buffers of the in-place evaluation in _stein_block.
_BUFFERS = 7
# Doubles of block scratch a thread keeps between calls (3.5 MiB): enough for
# every call with at most 2**15 columns, whose blocks hold at most
# _BLOCK_ENTRIES + q entries.  A request makes dozens of mid-size assemblies,
# and a fresh scratch per call is handed back to the OS and faulted in again
# each time; a larger call allocates its own, which the thread does not keep.
_KEPT_SCRATCH = 2 * _BUFFERS * _BLOCK_ENTRIES
_kept = threading.local()


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


def _point_terms(x, u):
    """|x_i|^2 and u(x_i).x_i, as (n, 1) columns."""
    return np.add.reduce(x * x, axis=1)[:, None], np.add.reduce(u * x, axis=1)[:, None]


class _Pairs:
    """Row points x and column points y of one assembly with their scores,
    their per-point terms, and the offsets of the current block: rows
    ``rows`` and columns ``cols``."""

    def __init__(self, x, u_x, y, u_y):
        self.nx, self.ux_x = _point_terms(x, u_x)
        ny, uy_y = (self.nx, self.ux_x) if y is x and u_y is u_x else _point_terms(y, u_y)
        self.ny, self.uy_y = ny.T, uy_y.T
        self.d = x.shape[1]
        self.left, self.right = (x, u_x), (y, u_y)
        self.whole = {} if self.d > 1 else None
        self.rows = self.cols = slice(None)

    def inner(self, i, j, buf):
        """``(x, u_x)[i] @ (y, u_y)[j].T`` on the current block."""
        left, right = self.left[i], self.right[j]
        if self.whole is None:
            # A length-1 dot product is one rounded multiply, the value dgemm
            # gives, so d = 1 needs no whole-shape matrix.
            np.copyto(buf, right[self.cols, 0])
            return np.multiply(left[self.rows], buf, out=buf)
        # BLAS picks its kernel by call shape, so at d >= 2 the inner products
        # are whole matmuls: computed per row block, their last bit could
        # change.  A block that is the whole matrix takes the product straight
        # into its buffer; otherwise each product is made on first use.
        if buf.shape == (left.shape[0], right.shape[0]):
            return np.matmul(left, right.T, out=buf)
        if (i, j) not in self.whole:
            self.whole[i, j] = left @ right.T
        return self.whole[i, j][self.rows, self.cols]


def _divide(a, c: float, out) -> None:
    """``out = a / c`` for a scalar c, by the cheapest pass that gives the
    same bytes (IEEE 754): none when c == 1 and ``out`` is ``a``, and a
    multiply by 1/c when c is a power of two whose reciprocal is finite."""
    if c == 1.0 and out is a:
        return
    if abs(math.frexp(c)[0]) == 0.5 and math.isfinite(1.0 / c):
        np.multiply(a, 1.0 / c, out=out)
    else:
        np.divide(a, c, out=out)


def _stein_block(pairs: _Pairs, params: SteinKernelParams, buf, out) -> None:
    """Write k0(x_i, y_j) for the current block of ``pairs`` into ``out``.

    Every operation of the whole-matrix formula runs in place in the seven
    block-shaped buffers ``buf``, in the formula's own order, so no entry
    depends on the block layout.  Passes are saved only where IEEE
    arithmetic gives the same bytes: (-a)/c = a/(-c), t + (-k)*s = t - k*s,
    x/1 = x, and x/c = x*(1/c) for a power of two c whose reciprocal is
    finite.  A row operand broadcast down the block (the column points'
    terms) is first copied into the buffer the operation overwrites, so the
    operation reads one contiguous operand; operand order stays as written.
    """
    a1, a2 = params.alpha1, params.alpha2
    rows, cols = pairs.rows, pairs.cols
    k, pref, b2, rho, b4, b5, b6 = buf
    np.copyto(k, pairs.ny[:, cols])
    norms = np.add(pairs.nx[rows], k, out=k)
    np.multiply(a1, norms, out=pref)
    pref += 1.0
    gram = pairs.inner(0, 0, b2)
    np.multiply(2.0, gram, out=rho)
    np.subtract(norms, rho, out=rho)
    np.maximum(rho, 0.0, out=rho)
    _divide(rho, -(2.0 * a2**2), out=k)
    np.exp(k, out=k)
    k /= pref
    # div_grad = k * (d/a2^2 + 8 a1^2 gram/pref^2 - 2 a1 rho/(pref a2^2) - rho/a2^4)
    div_grad = np.multiply(8.0 * a1**2, gram, out=b4)
    div_grad /= np.multiply(pref, pref, out=b5)
    div_grad += pairs.d / a2**2
    term = np.multiply(2.0 * a1, rho, out=b5)
    term /= pref if a2**2 == 1.0 else np.multiply(pref, a2**2, out=b6)
    div_grad -= term
    _divide(rho, a2**4, out=rho)
    div_grad -= rho
    div_grad *= k
    # t_x = k * ((ux_x - ux_y)/a2^2 - 2 a1 ux_y/pref)
    ux_y = pairs.inner(1, 0, b2)
    t_x = np.subtract(pairs.ux_x[rows], ux_y, out=rho)
    _divide(t_x, a2**2, out=t_x)
    term = np.multiply(2.0 * a1, ux_y, out=b5)
    term /= pref
    t_x -= term
    t_x *= k
    # t_y = -k * s with s = 2 a1 x_uy/pref + (x_uy - uy_y)/a2^2
    x_uy = pairs.inner(0, 1, b2)
    s = np.multiply(2.0 * a1, x_uy, out=b5)
    s /= pref
    term = np.subtract(x_uy, pairs.uy_y[:, cols], out=b6)
    _divide(term, a2**2, out=term)
    s += term
    s *= k
    # div_grad + (t_x + t_y) + (u_x.u_y) k
    t_x -= s
    div_grad += t_x
    np.add(div_grad, np.multiply(pairs.inner(1, 1, b2), k, out=b2), out=out)


def _block_rows(p: int, q: int) -> int:
    """Rows per block: the fewest blocks of at most about ``_BLOCK_ENTRIES``
    entries, with their rows spread evenly."""
    blocks = -(-p * q // _BLOCK_ENTRIES)
    return -(-p // blocks)


def _scratch(size: int) -> np.ndarray:
    """``size`` doubles of block scratch: the front of this thread's kept
    buffer, which grows to the largest size asked for up to
    ``_KEPT_SCRATCH``, or a buffer of its own past that."""
    if size > _KEPT_SCRATCH:
        return np.empty(size)
    kept = getattr(_kept, "scratch", None)
    if kept is None or kept.size < size:
        kept = _kept.scratch = np.empty(size)
    return kept[:size]


def _assemble(x, u_x, y, u_y, params: SteinKernelParams, upper: bool) -> np.ndarray:
    """The (p, q) matrix k0(x_i, y_j), filled row block by row block.

    With ``upper`` (a Gram matrix, y = x), a block of rows i0:i1 spans only
    columns i0:, and its transpose fills the lower triangle.  All blocks
    share one workspace of ``_BUFFERS`` contiguous block-sized buffers,
    taken from the thread's kept scratch (see :func:`_scratch`);
    ``_stein_block`` writes every buffer before it reads it, so what a
    previous call left there never reaches the result.  Beyond the result
    and the kept scratch, a call holds what :func:`stein_kernel_matrix`
    says.  An empty point set on either side gives the empty matrix.
    ``params`` that are not a :class:`SteinKernelParams` are refused.
    """
    if not isinstance(params, SteinKernelParams):
        raise _bad("params", "a SteinKernelParams", params)
    p, q = x.shape[0], y.shape[0]
    out = np.empty((p, q))
    if out.size == 0:
        return out
    step = _block_rows(p, q)
    work = _scratch(_BUFFERS * step * q).reshape(_BUFFERS, step * q)
    pairs = _Pairs(x, u_x, y, u_y)
    # Strict lower triangle of a block's square; a shorter block's is its corner.
    below = np.tri(step, k=-1, dtype=bool) if upper else None
    for i0 in range(0, p, step):
        i1 = min(i0 + step, p)
        j0 = i0 if upper else 0
        pairs.rows, pairs.cols = slice(i0, i1), slice(j0, None)
        strip = out[i0:i1, j0:]
        _stein_block(pairs, params, work[:, : strip.size].reshape(_BUFFERS, *strip.shape), strip)
        if upper:
            # Adding 0.0 turns -0.0 into +0.0, so the two triangles agree.
            strip += 0.0
            square = strip[:, : i1 - i0]
            # The transpose goes through a free buffer: copyto from the
            # overlapping square.T would first copy the whole square.
            mirror = work[0, : square.size].reshape(square.shape)
            np.copyto(mirror, square.T)
            np.copyto(square, mirror, where=below[: i1 - i0, : i1 - i0])
            out[i1:, i0:i1] = strip[:, i1 - i0 :].T
    return out


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
    (p, q) array with entries k0(x_i, y_j); (p, 0) or (0, q) when a point
    set is empty.  The elementwise work runs in place in row blocks of about
    ``_BLOCK_ENTRIES`` entries that share one workspace, which the calling
    thread keeps for its next call: at most ``_KEPT_SCRATCH`` doubles
    (3.5 MiB), and 1.8 MiB for blocks of up to 2000 columns.  A call whose
    workspace is larger allocates its own and keeps none of it.  Beyond
    the kept workspace, at d = 1 the inner products are formed per block,
    so little but the result is held: tracemalloc's peak is about 1.0x the
    result's bytes (p = q = 600 / 2000).  At d >= 2 they are four whole
    (p, q) matrix products, and the peak is about 5x, except that a matrix
    of one block takes each product into the workspace, which holds the
    peak at that of d = 1 (about 1.3x at p = q = 181).
    """
    x, u_x, y, u_y = _check_sets(x, u_x, y, u_y)
    return _assemble(x, u_x, y, u_y, params, upper=False)


# Rows of each Gram block whose diagonal stein_kernel_diag reads: each is one
# block of the assembly.
_DIAG_ROWS = 128


def stein_kernel_diag(x, u_x, params: SteinKernelParams) -> np.ndarray:
    """Evaluate k0(x_i, x_i) for each row of ``x``, in O(n * _DIAG_ROWS):
    the diagonal of the Gram of each block of ``_DIAG_ROWS`` rows.  At d = 1
    it has the bytes of the whole Gram's diagonal; at d >= 2 BLAS may round
    a block's inner products and the whole Gram's differently in the last
    bit.  Used for the boundedness diagnostic sup k0(x, x).
    """
    x, u_x, _, _ = _check_sets(x, u_x, x, u_x)
    diag = np.empty(x.shape[0])
    for i in range(0, x.shape[0], _DIAG_ROWS):
        rows, scores = x[i : i + _DIAG_ROWS], u_x[i : i + _DIAG_ROWS]
        diag[i : i + _DIAG_ROWS] = np.diag(_assemble(rows, scores, rows, scores, params, upper=True))
    return diag


def gram_matrix(data: ScoredDataset, params: SteinKernelParams) -> np.ndarray:
    """Stein-kernel Gram matrix of a dataset, exactly symmetric: only its
    upper triangle is evaluated."""
    return _assemble(data.points, data.scores, data.points, data.scores, params, upper=True)
