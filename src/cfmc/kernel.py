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
    ``8*alpha1**2`` and ``alpha2**4``, are finite floats too, and
    ``alpha2**4``, which the kernel divides by, non-zero; they are stored as
    floats.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name, (text, holds) in _CONSTANTS.items():
            value = _real(
                name, getattr(self, name), lambda x: x > 0.0 and _holds(holds, x),
                f"a positive finite number with {text}",
            )
            object.__setattr__(self, name, value)


# Each parameter's highest power among the kernel's constants, as the kernel
# forms it, and what that power must be.  A value that overflows it would
# make every evaluation raise OverflowError (Python's float power) or go
# non-finite; an alpha2 whose fourth power underflows to zero (below about
# 1.5e-81) would make every Gram non-finite, and past 1e-162 the division by
# alpha2**2 raise ZeroDivisionError.
_CONSTANTS = {
    "alpha1": ("8*alpha1**2 finite", lambda a1: math.isfinite(8.0 * a1**2)),
    "alpha2": ("alpha2**4 finite and non-zero", lambda a2: 0.0 < a2**4 < math.inf),
}


def _cv_grid(grid) -> tuple[SteinKernelParams, ...]:
    """``grid`` as a tuple of cross-validation candidates: a non-empty
    sequence of SteinKernelParams."""
    candidates = tuple(grid) if np.iterable(grid) else ()
    if not candidates or not all(isinstance(p, SteinKernelParams) for p in candidates):
        raise _bad("cv_grid", "a non-empty sequence of SteinKernelParams", grid)
    return candidates


def _holds(rule, value: float) -> bool:
    try:
        return rule(value)
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


# Entries in one row block of the elementwise Stein-kernel work of one
# kernel, so that the block's temporaries (256 KiB each) stay in cache
# instead of streaming n x n arrays through memory.  Of 2**12 .. 2**17, 2**15
# was the fastest for Gram matrices of n = 500 .. 2000 on an x86-64 core with
# 2 MiB of L2.  A block of several kernels has more buffers and takes fewer
# entries, so that its workspace stays the same size (see _block_rows).
_BLOCK_ENTRIES = 2**15
# Block-sized buffers of the in-place evaluation in _stein_block of one
# kernel; each further kernel adds _KERNEL_BUFFERS.
_BUFFERS = 7
_KERNEL_BUFFERS = 4
# Doubles of block scratch a thread keeps between calls (3.5 MiB): enough for
# every call whose blocks hold at most twice the one-kernel workspace, which
# is every call with no more columns than a block has entries.  A request
# makes dozens of mid-size assemblies, and a fresh scratch per call is handed
# back to the OS and faulted in again each time; a larger call allocates its
# own, which the thread does not keep.
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


def _divide(a, c: float, out):
    """``a / c`` for a scalar c, by the cheapest pass that gives the same
    bytes (IEEE 754): none when c == 1, which returns ``a`` itself, and a
    multiply by 1/c when c is a power of two whose reciprocal is finite.
    Any other c writes the quotient into ``out`` and returns it."""
    if c == 1.0:
        return a
    if abs(math.frexp(c)[0]) == 0.5 and math.isfinite(1.0 / c):
        return np.multiply(a, 1.0 / c, out=out)
    return np.divide(a, c, out=out)


def _stein_block(pairs: _Pairs, kernels, buf, outs) -> None:
    """Write k0(x_i, y_j) of each of ``kernels`` for the current block of
    ``pairs`` into the matching entry of ``outs``.

    The terms that do not depend on the kernel, |x_i|^2 + |y_j|^2, the four
    inner products, rho = |x_i - y_j|^2 and the score differences, are made
    once per block; each kernel then runs the whole-matrix formula's own
    operations on them, in the formula's order, so no entry depends on the
    block layout or on the other kernels.  The work runs in place in the
    block-shaped buffers ``buf``: five that the kernels share and four of
    each kernel but the last, which works in the shared buffers as their
    terms fall free, so one kernel alone runs the formula's operations in
    seven buffers.  Passes are saved only where IEEE arithmetic gives the same
    bytes: (-a)/c = a/(-c), t + (-k)*s = t - k*s, x/1 = x, and
    x/c = x*(1/c) for a power of two c whose reciprocal is finite.  A row
    operand broadcast down the block (the column points' terms) is first
    copied into the buffer the operation overwrites, so the operation reads
    one contiguous operand; operand order stays as written.
    """
    rows, cols = pairs.rows, pairs.cols
    norms, pref, product, rho, div_grad, b5, b6 = buf[:_BUFFERS]
    # Per kernel: a1, a2, its buffers k, pref, div_grad and t_x, where it
    # writes rho/a2^4, (x_uy - uy_y)/a2^2 and (u_x.u_y) k, and its result.
    # The last kernel overwrites the shared terms, which no kernel reads
    # after it.
    terms = [
        (params.alpha1, params.alpha2, *buf[i : i + _KERNEL_BUFFERS], b5, buf[i + 1], b5, out)
        for params, i, out in zip(kernels[:-1], range(_BUFFERS, len(buf), _KERNEL_BUFFERS), outs)
    ]
    last = kernels[-1]
    terms.append((last.alpha1, last.alpha2, norms, pref, div_grad, rho, rho, b6, product, outs[-1]))
    np.copyto(norms, pairs.ny[:, cols])
    np.add(pairs.nx[rows], norms, out=norms)
    gram = pairs.inner(0, 0, product)
    np.multiply(2.0, gram, out=rho)
    np.subtract(norms, rho, out=rho)
    np.maximum(rho, 0.0, out=rho)
    for a1, a2, k, pref, div_grad, _, rho_out, _, _, _ in terms:
        np.multiply(a1, norms, out=pref)
        pref += 1.0
        _divide(rho, -(2.0 * a2**2), out=k)
        np.exp(k, out=k)
        k /= pref
        # div_grad = k * (d/a2^2 + 8 a1^2 gram/pref^2 - 2 a1 rho/(pref a2^2) - rho/a2^4)
        np.multiply(8.0 * a1**2, gram, out=div_grad)
        div_grad /= np.multiply(pref, pref, out=b5)
        div_grad += pairs.d / a2**2
        term = np.multiply(2.0 * a1, rho, out=b5)
        term /= pref if a2**2 == 1.0 else np.multiply(pref, a2**2, out=b6)
        div_grad -= term
        div_grad -= _divide(rho, a2**4, out=rho_out)
        div_grad *= k
    # t_x = k * ((ux_x - ux_y)/a2^2 - 2 a1 ux_y/pref)
    ux_y = pairs.inner(1, 0, product)
    difference = np.subtract(pairs.ux_x[rows], ux_y, out=rho)
    for a1, a2, k, pref, _, t_x, _, _, _, _ in terms:
        scaled = _divide(difference, a2**2, out=t_x)
        term = np.multiply(2.0 * a1, ux_y, out=b5)
        term /= pref
        np.subtract(scaled, term, out=t_x)
        t_x *= k
    # t_y = -k * s with s = 2 a1 x_uy/pref + (x_uy - uy_y)/a2^2
    x_uy = pairs.inner(0, 1, product)
    difference = np.subtract(x_uy, pairs.uy_y[:, cols], out=b6)
    for a1, a2, k, pref, div_grad, t_x, _, difference_out, _, _ in terms:
        s = np.multiply(2.0 * a1, x_uy, out=b5)
        s /= pref
        s += _divide(difference, a2**2, out=difference_out)
        s *= k
        # div_grad + (t_x + t_y)
        t_x -= s
        div_grad += t_x
    # ... + (u_x.u_y) k
    ux_uy = pairs.inner(1, 1, product)
    for _, _, k, _, div_grad, _, _, _, product_out, out in terms:
        np.add(div_grad, np.multiply(ux_uy, k, out=product_out), out=out)


def _block_rows(p: int, q: int, buffers: int = _BUFFERS) -> int:
    """Rows per block: the fewest blocks of at most about ``_BLOCK_ENTRIES``
    entries, with their rows spread evenly.  A block of ``buffers`` buffers
    (several kernels) takes ``_BUFFERS / buffers`` of that, so that its
    workspace keeps the size of one kernel's."""
    blocks = -(-p * q * buffers // (_BLOCK_ENTRIES * _BUFFERS))
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


def _assemble(x, u_x, y, u_y, kernels, upper: bool) -> list[np.ndarray]:
    """The (p, q) matrix k0(x_i, y_j) of each kernel of ``kernels``, in
    their order, filled row block by row block in one pass: each block's
    kernel-free terms are made once for all the kernels.

    With ``upper`` (Gram matrices, y = x), a block of rows i0:i1 spans only
    columns i0:, and its transpose fills the lower triangle.  All blocks
    share one workspace of ``_BUFFERS`` contiguous block-sized buffers and
    ``_KERNEL_BUFFERS`` more per further kernel, taken from the thread's
    kept scratch (see :func:`_scratch`); ``_stein_block`` writes every
    buffer before it reads it, so what a previous call left there never
    reaches a result.  Every matrix has the bytes that a call with its
    kernel alone gives.  Beyond the results and the kept scratch, a call
    holds what :func:`stein_kernel_matrix` says.  An empty point set on
    either side gives empty matrices.  A kernel that is not a
    :class:`SteinKernelParams` is refused.
    """
    for params in kernels:
        if not isinstance(params, SteinKernelParams):
            raise _bad("params", "a SteinKernelParams", params)
    p, q = x.shape[0], y.shape[0]
    outs = [np.empty((p, q)) for _ in kernels]
    if p * q == 0:
        return outs
    buffers = _BUFFERS + _KERNEL_BUFFERS * (len(kernels) - 1)
    step = _block_rows(p, q, buffers)
    work = _scratch(buffers * step * q).reshape(buffers, step * q)
    pairs = _Pairs(x, u_x, y, u_y)
    # Strict lower triangle of a block's square; a shorter block's is its corner.
    below = np.tri(step, k=-1, dtype=bool) if upper else None
    for i0 in range(0, p, step):
        i1 = min(i0 + step, p)
        j0 = i0 if upper else 0
        pairs.rows, pairs.cols = slice(i0, i1), slice(j0, None)
        strips = [out[i0:i1, j0:] for out in outs]
        shape = strips[0].shape
        _stein_block(pairs, kernels, work[:, : shape[0] * shape[1]].reshape(buffers, *shape),
                     strips)
        if not upper:
            continue
        # The transpose goes through a free buffer: copyto from the
        # overlapping square.T would first copy the whole square.
        h = i1 - i0
        mirror, corner = work[0, : h * h].reshape(h, h), below[:h, :h]
        for out, strip in zip(outs, strips):
            # Adding 0.0 turns -0.0 into +0.0, so the two triangles agree.
            strip += 0.0
            square = strip[:, :h]
            np.copyto(mirror, square.T)
            np.copyto(square, mirror, where=corner)
            out[i1:, i0:i1] = strip[:, h:].T
    return outs


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
    return _assemble(x, u_x, y, u_y, (params,), upper=False)[0]


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
        diag[i : i + _DIAG_ROWS] = np.diag(_assemble(rows, scores, rows, scores, (params,), True)[0])
    return diag


def gram_matrix(data: ScoredDataset, params: SteinKernelParams) -> np.ndarray:
    """Stein-kernel Gram matrix of a dataset, exactly symmetric: only its
    upper triangle is evaluated."""
    return _assemble(data.points, data.scores, data.points, data.scores, (params,), True)[0]
