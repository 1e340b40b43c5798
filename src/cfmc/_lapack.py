"""Cholesky factor and solve of the kernel system, straight from LAPACK.

The same ``dpotrf``/``dpotrs`` calls as scipy.linalg's ``cho_factor`` and
``cho_solve`` with ``lower=True``, so the factor and every solution have the
same bytes, without their per-call costs: an array-API batch decorator and a
scan of the whole m x m factor for finite entries on every solve.  At the
sizes of a fit's kernel system (m in the tens to hundreds) those costs
exceed the LAPACK work.  Every factor here is lower triangular.

Both functions trust their arguments, which the estimator checks once per
system: ``a`` is a finite, square, Fortran-ordered float64 array that the
caller owns, and ``b`` a finite vector of matching length.  A successful
factorisation of a finite matrix is finite (|L_ij| <= sqrt(a_ii)), so the
factor needs no check of its own.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of the symmetric positive definite ``a``, computed in
    place from its lower triangle; the upper triangle keeps ``a``'s entries.
    Returns the factor array for :func:`cho_solve`, and raises
    ``np.linalg.LinAlgError`` when ``a`` is not positive definite."""
    c, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of A x = b from the factor ``c`` of A that
    :func:`cho_factor` returned; ``b`` is left unchanged."""
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x
