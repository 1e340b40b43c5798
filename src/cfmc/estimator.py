"""Control-functional estimators built on the Stein kernel.

The estimators here approximate mu(f), the expectation of an integrand f
under a target density pi, from cached samples, scores and function values.
A surrogate s(x) = c_hat + sum_i beta_i k0(x_i, x) is fitted to f on a subset
D0 by regularised least squares over the space of constants plus Stein-kernel
functions; because every Stein-kernel function integrates to zero against pi,
the surrogate's exact mean is c_hat.  The sample-splitting estimator corrects
the surrogate mean with the residual average over the held-out subset D1,

    mu_hat = mean_{D1}(f - f_hat) + c_hat,

which is unbiased when D1 is an IID sample from pi.  The simplified estimator
keeps only c_hat with all samples used for fitting; it trades a small bias for
lower variance.  A computable discrepancy D(D0, D1), which
:func:`cf_split_estimate` attaches on request, bounds the worst-case error
over the unit ball of the hypothesis space:

    |mu_hat - mu(f)| <= sqrt(D(D0, D1)) * ||f||.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dstev

from . import kernel
from ._lapack import cho_factor, cho_solve
from .data import (
    ScoredDataset, SplitPlan, _row_indices, _seed_sequence, _split_size, random_split,
)
from .errors import (
    InvalidInputError, NumericalError, SingularMatrixError, _count, _real,
)
from .kernel import SteinKernelParams, _cv_grid, gram_matrix, stein_kernel_matrix

# Regularisation grid: powers of 10 from 1e-16 up to 1.
LAMBDA_GRID = tuple(10.0**k for k in range(-16, 1))

# A factorisation is accepted once cond_2 of the jittered matrix is below this.
CONDITION_LIMIT = 1e10

# From this matrix size on, select_lambda decides with bounds and Cholesky
# tests instead of a full eigendecomposition (crossover measured in
# BENCH_lambda_select.json).
_GUARDED_MIN_SIZE = 200

# Relative accuracy of the top eigenvalue on the guarded path.  An error of
# _HI_TOL*hi moves each threshold by _HI_TOL*hi/CONDITION_LIMIT, which the
# Cholesky tests' band covers.
_HI_TOL = 1e-6

# The pivoted factor of the guarded path (BENCH_lambda_pivoted.json) has at
# most max(_PIVOT_MIN_COLUMNS, m // _PIVOT_RANK_SHARE) columns.  Every
# _PIVOT_RATE_STEPS columns, a stop rule gives it up once the geometric decay
# of its last _PIVOT_RATE_STEPS pivots, kept up, would need more than
# _PIVOT_STOP_FACTOR times that budget to reach its tolerance: the pivots of a
# full-rank Gram barely fall, those of a d = 1 Gram fall fast from the start.
_PIVOT_MIN_COLUMNS = 32
_PIVOT_RANK_SHARE = 8
_PIVOT_RATE_STEPS = 2
_PIVOT_STOP_FACTOR = 4

# Lanczos steps allowed before select_lambda falls back.  A kernel Gram's top
# eigenvalue converges within about 20; a flat top of the spectrum could take
# more matrix-vector products than the eigendecomposition costs.
_LANCZOS_MAX_STEPS = 60

# Share of the fitting samples cross-validation trains each candidate on.
_CV_TRAIN_FRACTION = 0.5

# Side of the square tiles select_lambda's symmetry check compares: each
# tile pair is read in cache, and the check holds one tile's boolean.
_SYMMETRY_TILE = 256


def select_lambda(k0: np.ndarray) -> float:
    """Pick the smallest grid regularisation that conditions the kernel system.

    Returns the smallest ``lam`` in :data:`LAMBDA_GRID` such that
    ``cond_2(k0 + lam*m*I) < 1e10``, where ``m`` is the matrix size and
    ``lam*m*I`` is the jitter actually applied when the system is factorised.
    If even ``lam = 1`` fails, 1.0 is returned with a warning.  ``k0`` must
    be square, finite and exactly symmetric, as :func:`gram_matrix` returns
    it.  Below 200 rows the rule is read off a full ``eigvalsh``; from that
    size on each grid point's verdict is proven without one, and both routes
    return the same ``lam``.
    """
    k0 = np.asarray(k0, dtype=float)
    if k0.ndim != 2 or k0.shape[0] != k0.shape[1]:
        raise InvalidInputError(f"k0 must be square, got shape {k0.shape}")
    _check_finite(k0)
    if not _symmetric(k0):
        raise InvalidInputError("k0 must be exactly symmetric, as gram_matrix returns it")
    return _lambda_search(k0)


def _symmetric(k0: np.ndarray) -> bool:
    """Whether the square ``k0`` equals its transpose, compared tile by
    tile on and above the diagonal: ``np.array_equal(k0, k0.T)`` without
    its m x m boolean or its strided read of the whole matrix."""
    b, m = _SYMMETRY_TILE, k0.shape[0]
    return all(
        np.array_equal(k0[i : i + b, j : j + b], k0[j : j + b, i : i + b].T)
        for i in range(0, m, b)
        for j in range(i, m, b)
    )


def _check_finite(k0: np.ndarray) -> None:
    if not np.isfinite(k0).all():
        raise InvalidInputError("k0 contains non-finite entries")


def _lambda_search(k0: np.ndarray) -> float:
    """The :func:`select_lambda` rule on a square, finite and exactly
    symmetric ``k0``, such as a Gram matrix built by ``gram_matrix``; the
    λ tests and the factorisation copy ``k0.T``, which has the bytes of
    ``k0`` only then."""
    m = k0.shape[0]
    if m >= _GUARDED_MIN_SIZE:
        lam = _guarded_lambda(k0)
        if lam is not None:
            return lam
    evals = np.linalg.eigvalsh(k0)
    lo_base, hi_base = float(evals[0]), float(evals[-1])
    for lam in LAMBDA_GRID:
        lo = lo_base + lam * m
        hi = hi_base + lam * m
        if lo > 0.0 and hi / lo < CONDITION_LIMIT:
            return lam
    warnings.warn(
        "kernel matrix remains ill-conditioned even with unit regularisation",
        RuntimeWarning,
        stacklevel=3,
    )
    return 1.0


def _exceeds(k0: np.ndarray, shift: float, work: np.ndarray) -> bool:
    """Whether the symmetric ``k0 - shift*I`` has a Cholesky factor, computed
    in the Fortran-ordered ``work`` as in :func:`_fit_coefficients`."""
    np.copyto(work, k0.T)  # k0' is Fortran-ordered: a straight copy
    work.ravel(order="F")[:: k0.shape[0] + 1] -= shift
    return dpotrf(work, lower=1, clean=0, overwrite_a=1)[1] == 0


def _gamma(k: int) -> float:
    """Higham's gamma_k = k*u/(1 - k*u), with u the unit roundoff."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


class _PivotedFactor:
    """A diagonal-pivoted partial Cholesky factor F of the symmetric ``k0``,
    whose columns are the rows of :attr:`rows`, and the bounds ``lb <=
    lambda_min(k0) <= rho`` that its residual S = k0 - F F' gives.  The
    proofs are in :func:`_guarded_lambda`; ``work`` is a Fortran-ordered
    m x m scratch."""

    def __init__(self, k0: np.ndarray, work: np.ndarray):
        m = k0.shape[0]
        self.k0, self.work = k0, work
        # At most m - 1 columns, so that F F' is singular.
        self._rows = np.empty((min(max(_PIVOT_MIN_COLUMNS, m // _PIVOT_RANK_SHARE), m - 1), m))
        self.pivots = k0.diagonal().copy()  # the diagonal of S, as updated
        self.taken = []  # the pivots taken, in order
        self.lb, self.rho = -math.inf, math.inf
        self.hi = math.nan  # the top eigenvalue, once _pivoted_factor has set it

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: len(self.taken)]

    def extend(self, tol: float) -> bool:
        """Take pivots until every remaining one is at most ``tol``; False if
        the column budget runs out first, or the stop rule predicts it
        would."""
        k0, rows, pivots, taken = self.k0, self._rows, self.pivots, self.taken
        square = np.empty_like(pivots)
        while True:
            p = int(pivots.argmax())
            top = float(pivots[p])
            if not top > tol:
                return True
            r = len(taken)
            if r == rows.shape[0] or self._too_slow(tol, top):
                return False
            row = np.dot(rows[:r, p], rows[:r], out=rows[r])
            np.subtract(k0[p], row, out=row)
            row *= 1.0 / math.sqrt(top)
            pivots -= np.square(row, out=square)
            pivots[p] = 0.0  # rounding may leave a speck; a pivot is taken once
            taken.append(top)

    def _too_slow(self, tol: float, top: float) -> bool:
        """The stop rule: whether the last _PIVOT_RATE_STEPS pivots' mean
        geometric decay, kept up, would take more columns than the budget to
        bring the pivot ``top`` down to ``tol``."""
        r, steps = len(self.taken), _PIVOT_RATE_STEPS
        if r < steps or r % steps:
            return False
        rate = math.log(top / self.taken[r - steps]) / steps
        needed = r + math.log(tol / top) / rate if rate < 0.0 else math.inf
        return needed > _PIVOT_STOP_FACTOR * self._rows.shape[0]

    def bound(self) -> None:
        """Set ``lb`` and ``rho`` from one pass over S^ = fl(k0 - F F')."""
        k0, rows, work = self.k0, self.rows, self.work
        m = k0.shape[0]
        np.copyto(work, k0.T)
        if rows.shape[0]:
            # S^ = k0 - F F' in place; F = rows' is Fortran-ordered.
            work = dgemm(-1.0, rows.T, rows.T, beta=1.0, c=work, trans_b=1, overwrite_c=1)
        diag = work.diagonal()
        lead = diag + np.abs(diag)  # S^_ii + |S^_ii|: 0 or 2 S^_ii, exact
        mags = np.abs(work, out=work)
        ones = np.ones(m)
        row_sums, col_sums = mags @ ones, ones @ mags
        spans = np.abs(rows)
        p = spans.sum(axis=1) @ spans
        g = _gamma(rows.shape[0] + 1)
        slack = (0.5 * (row_sums + col_sums) + g / (1.0 - g) * (2.0 * p + row_sums)) * (
            1.0 + _gamma(2 * m)
        )
        # One step down covers the rounding of the subtraction.
        self.lb = float(np.nextafter(np.min(lead - slack), -np.inf))
        self.rho = float(np.max(slack))

    def top(self) -> tuple[float, float]:
        """(hi, err): the largest eigenvalue of F F', from the r x r F' F, and
        ``rho`` plus the rounding of forming F' F, which bound its distance
        from the largest eigenvalue of ``k0`` once :meth:`bound` has run."""
        rows = self.rows
        gram = rows @ rows.T
        return (float(np.linalg.eigvalsh(gram)[-1]),
                self.rho + _gamma(rows.shape[1]) * float(np.trace(gram)))

    def above(self, tau: float) -> bool | None:
        """True if every eigenvalue of ``k0`` is proven above ``tau``, False
        if one is proven at or below it, None if the bounds decide neither."""
        if tau < self.lb:
            return True
        if tau >= self.rho:
            return False
        return None


def _thresholds(hi: float, m: int):
    """The thresholds t(lam) and bands of the grid points for the top
    eigenvalue ``hi``, and the index of the first point with t < 0."""
    jitters = [lam * m for lam in LAMBDA_GRID]
    thresholds = [(hi + jitter) / CONDITION_LIMIT - jitter for jitter in jitters]
    rounding, hi_error = 16.0 * m * np.finfo(float).eps, _HI_TOL * hi / CONDITION_LIMIT
    bands = [rounding * (hi + jitter) + hi_error for jitter in jitters]
    guess = next((i for i, t in enumerate(thresholds) if t < 0.0), len(LAMBDA_GRID) - 1)
    return thresholds, bands, guess


def _pivoted_factor(k0: np.ndarray, work: np.ndarray) -> _PivotedFactor | None:
    """The factor of the guarded search, bounded, with the top eigenvalue
    ``hi`` of F F' within ``_HI_TOL*hi/2`` of the matrix's; None if it misses
    its tolerance within its budget or ``hi`` is not that close."""
    m = k0.shape[0]
    factor = _PivotedFactor(k0, work)
    scale = float(np.max(factor.pivots))
    # A first estimate of hi sets the tolerance the guess's accept test needs.
    if not (scale > 0.0 and factor.extend(_HI_TOL * scale)):
        return None
    thresholds, bands, guess = _thresholds(factor.top()[0], m)
    tau = thresholds[guess] + bands[guess]
    if not factor.extend(max(-tau, bands[guess]) / (4.0 * m)):
        return None
    factor.bound()
    factor.hi, err = factor.top()
    return factor if factor.hi > 0.0 and 2.0 * err <= _HI_TOL * factor.hi else None


def _top_eigenvalue(k0: np.ndarray, v0: np.ndarray) -> float | None:
    """The largest eigenvalue of the symmetric ``k0`` to relative accuracy
    ``_HI_TOL``, by Lanczos from ``v0``; None if it has not converged within
    ``_LANCZOS_MAX_STEPS`` steps.

    Each step reorthogonalises the new vector against every earlier one, in
    two Gram-Schmidt passes, so no spurious copies of converged Ritz values
    appear.  After step j the top Ritz value theta of the tridiagonal T_j
    has the residual norm beta_j*|s_j|, with s the top eigenvector of T_j;
    once that is at most ``_HI_TOL*|theta|``, theta is returned (Parlett,
    *The Symmetric Eigenvalue Problem*, ch. 13).  An exact zero beta_j means
    the Krylov space is invariant, and theta is exact for it.  LAPACK's
    ``dstev`` eigendecomposes T_j; should it not converge, None is returned.
    """
    m = k0.shape[0]
    steps = min(_LANCZOS_MAX_STEPS, m)
    basis = np.empty((steps, m))  # the Lanczos vectors, one per row
    # The diagonal and off-diagonal of T; dstev reads one off-diagonal entry
    # even when T is 1 x 1.
    alphas, betas = np.empty(steps), np.zeros(steps)
    q = v0 / np.linalg.norm(v0)
    for j in range(steps):
        basis[j] = q
        w = k0 @ q
        alphas[j] = q @ w
        done = basis[: j + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        beta = math.sqrt(w @ w)
        ritz, vectors, info = dstev(alphas[: j + 1], betas[: max(j, 1)])
        if info:
            return None
        theta = float(ritz[-1])
        if beta * abs(vectors[-1, -1]) <= _HI_TOL * abs(theta):
            return theta
        betas[j] = beta
        q = w / beta
    return None


def _guarded_lambda(k0: np.ndarray) -> float | None:
    """The :func:`select_lambda` grid point, proven without an
    eigendecomposition; None when ``eigvalsh`` has to decide.

    With ``lo`` and ``hi`` the extreme eigenvalues of ``k0`` and ``hi > 0``,
    a grid point is accepted exactly when ``lo > t(lam) = (hi + lam*m)/L -
    lam*m`` with ``L = 1e10``; ``t`` falls as ``lam`` grows.  A point is
    accepted when ``lo > tau = t + band`` is proven, and rejected when ``lo <
    t - band`` is, with ``band = 16*m*eps*(hi + lam*m) + _HI_TOL*hi/L``.  The
    first term is far wider than the rounding of any test; the second covers
    an error of up to ``_HI_TOL*hi`` in ``hi``, which moves ``t`` by at most
    ``_HI_TOL*hi/L``.

    **Bounds from a pivoted factor.**  A diagonal-pivoted partial Cholesky
    factor ``F`` of ``r < m`` columns, taken until every remaining pivot is at
    most a tolerance, splits ``k0 = F F' + S`` exactly, with ``S = k0 - F
    F'``, for any ``F``, rounded or not (Harbrecht, Peters and Schneider,
    *Appl. Numer. Math.* 62, 2012).  One BLAS product gives ``S^ = fl(k0 - F
    F')``, with ``|S^ - S| <= g*(|k0| + |F||F'|)`` and ``g = gamma_(r+1)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    3.5).  Summing the rows of ``|k0| <= |F||F'| + |S^| + |S^ - S|`` bounds
    ``|k0| 1`` by ``((1 + g) p + R)/(1 - g)``, with ``p = |F||F'| 1`` and
    ``R``, ``C`` the row and column sums of ``|S^|``.  The entries of the
    symmetric ``S`` lie within that error of the symmetric part of ``S^``, so
    row i of ``|S|`` sums to at most

        s_i = (R_i + C_i)/2 + g/(1 - g) * (2 p_i + R_i),

    inflated by ``1 + gamma_(2m)`` to cover its own rounding, and Gershgorin's
    theorem gives ``lambda_min(S) >= lb = min_i (S^_ii + |S^_ii| - s_i)`` and
    ``||S||_2 <= rho = max_i s_i``.  As ``F F'`` is positive semidefinite and
    singular, Weyl's inequalities give ``lb <= lo <= rho`` and put the top
    eigenvalue of ``F F'`` within ``rho`` of ``hi``.  That eigenvalue is the
    top one of the r x r ``F' F``, whose rounding moves it by at most
    ``gamma_m*trace(F' F)``; it stands for ``hi`` when ``rho`` plus that is
    at most ``_HI_TOL*hi/2``, which leaves the other half of the tolerance
    for ``eigvalsh``'s own error, O(r*eps*hi).  The factor is built first to
    the tolerance ``_HI_TOL*max_i k0_ii``, for an estimate of ``hi``, then to
    ``max(|tau|, band)/(4m)`` for the ``tau`` and ``band`` of the guess's
    accept test: a semidefinite ``S`` has entries of at most the tolerance,
    so then ``lb`` is about ``lo - |tau|/4`` or better.  No later test needs
    a smaller one: below the guess ``t >= 0``, so a reject test there has
    ``tau >= -band``, and the grid minimum's accept test has ``tau > 0``.
    Every test asks whether ``lo > tau``, with ``tau = t + band`` for an
    accept test and ``tau = t - band`` for a reject test, which a no proves.
    ``tau < lb`` answers yes and ``tau >= rho`` no.

    **Cholesky tests.**  Where the bounds answer neither, a Cholesky factor
    of ``k0 - tau*I`` proves ``lo > tau``, and its failure proves ``lo``
    below ``tau`` up to a rounding the band covers.  A factor that misses
    its tolerance within its column budget, which the stop rule foresees
    early on the full-rank Grams of d >= 2 samples, is dropped: ``hi``
    comes from :func:`_top_eigenvalue` and every test is a Cholesky test.

    **Search.**  Three proofs at fixed grid points.  The guess, the first
    point with ``t < 0``, is the answer whenever ``lo`` is about 0: it must
    be accepted, and then the point just below it rejected, where a nearly
    singular ``k0`` fails within a few pivots; as ``t - band`` rises as
    ``lam`` falls, that rejects every smaller point too.  If that point is
    not rejected, ``k0`` is well conditioned, and the grid minimum is the
    answer if it is accepted.  Otherwise (an answer above the guess or
    strictly between it and the grid minimum, ``lo`` inside a band, ``hi <=
    0``, or a Lanczos iteration that does not converge within
    ``_LANCZOS_MAX_STEPS`` steps) None is returned and ``eigvalsh`` decides,
    so every route gives the same ``lam``.
    """
    m = k0.shape[0]
    work = np.empty(k0.shape, order="F")  # scratch for the bounds and the Cholesky tests
    factor = _pivoted_factor(k0, work)
    if factor is None:
        # A fixed random start vector: deterministic, and unlike the all-ones
        # vector it shares no symmetry with the sample.
        hi = _top_eigenvalue(k0, np.random.default_rng(m).standard_normal(m))
        if hi is None or not hi > 0.0:
            return None
    else:
        hi = factor.hi
    thresholds, bands, guess = _thresholds(hi, m)

    def above(tau):
        proven = None if factor is None else factor.above(tau)
        return _exceeds(k0, tau, work) if proven is None else proven

    def accept(i):
        return above(thresholds[i] + bands[i])

    def reject(i):
        return not above(thresholds[i] - bands[i])

    if not accept(guess):
        return None
    if guess == 0 or reject(guess - 1):
        return LAMBDA_GRID[guess]
    # Not rejected: k0 is well conditioned.
    return LAMBDA_GRID[0] if accept(0) else None


def _lambda_value(value) -> float | None:
    """The regularisation setting ``value``: None for the automatic rule,
    else a non-negative finite number, returned as a float."""
    if value is None:
        return None
    return _real("lambda", value, lambda x: x >= 0.0, "non-negative and finite, or 'auto' (None)")


@dataclass(frozen=True)
class _Fit:
    """The factorised kernel system of one fitting set, which every kernel
    estimate reads: ``lam``, the Cholesky factor ``chol`` of A = K0 + lam*m*I,
    z = A^-1 1 and q = 1'z.  It holds no integrand: one fit serves every f."""

    lam: float
    chol: np.ndarray
    z: np.ndarray
    q: float

    def surrogate(self, f0: np.ndarray):
        """(c_hat, beta) of the surrogate fitted to the values ``f0`` on the
        fitting set: c_hat = 1'A^-1 f0 / (1 + q), beta = A^-1 (f0 - c_hat*1)."""
        y = cho_solve(self.chol, f0)
        c_hat = float(np.ones(y.shape[0]) @ y) / (1.0 + self.q)
        return c_hat, y - c_hat * self.z

    def held_out(self, k10: np.ndarray):
        """(g, h, s) with g = K10'1, h = A^-1 g and s = 1'h for the cross block
        K10 of a held-out set: all that :meth:`split_weights` and
        :meth:`discrepancy` read of K10.  A non-finite entry of K10 makes its
        column sum in g non-finite, which raises InvalidInputError."""
        g = k10.T @ np.ones(k10.shape[0])
        if not np.isfinite(g).all():
            raise InvalidInputError("k10 contains non-finite entries")
        h = cho_solve(self.chol, g)
        return g, h, float(np.ones(h.shape[0]) @ h)

    def split_weights(self, k10: np.ndarray) -> np.ndarray:
        """The weights of the fitting set in the split estimate whose
        held-out cross block is K10: -h/(n - m) + s z / ((n - m)(1 + q))."""
        _, h, s = self.held_out(k10)
        n_minus_m = k10.shape[0]
        return -h / n_minus_m + (s / (n_minus_m * (1.0 + self.q))) * self.z

    def discrepancy(self, held, k1: np.ndarray) -> float:
        """Worst-case error constant D(D0, D1) of the split whose held-out
        set has the block K1 and the triple ``held = (g, h, s)`` that
        :meth:`held_out` gives for its cross block K10, so K10 need not be
        alive when K1 is:

            D = [ (1'K10 A^-1 1)^2 / (1 + 1'A^-1 1) - 1'K10 A^-1 K01 1 + 1'K1 1 ]
                / (n - m)^2
              = [ s^2 / (1 + q) - g'h + 1'K1 1 ] / (n - m)^2,

        which equals (1'w - 1)^2 + w'Kw for the estimator weight vector w and
        the full Gram matrix K (its D0 block jittered by lam*m*I), i.e. the
        squared worst-case estimation error over the unit ball of the
        hypothesis space.  For a kernel with k0(x, x) = 1 and no off-diagonal
        mass it reduces to 1/(n - m).
        """
        n_minus_m = k1.shape[0]
        g, h, s = held
        ones_eval = np.ones(n_minus_m)
        k1_sum = float(ones_eval @ k1 @ ones_eval)
        if not math.isfinite(k1_sum):
            raise InvalidInputError(
                f"k1 sums to {k1_sum}: it has non-finite or overflowing entries"
            )
        value = (s * s / (1.0 + self.q) - float(g @ h) + k1_sum) / (n_minus_m * n_minus_m)
        if value < -1e-10:
            raise NumericalError(f"discrepancy evaluated to {value}, below tolerance")
        return max(value, 0.0)


def _fit_coefficients(k0: np.ndarray, lambda_: float | None) -> _Fit:
    """The :class:`_Fit` of the Gram matrix ``k0`` of a fitting set.

    ``lambda_`` None applies the automatic conditioning rule.  A non-finite
    ``k0`` raises InvalidInputError whichever way lam is chosen, and a system
    without a Cholesky factor SingularMatrixError.  Beside ``k0`` the fit
    holds one m x m matrix at a time: the lambda search's scratch (or
    ``eigvalsh``'s workspace), freed before the system A is copied, then A,
    factorised in place into the fit's ``chol``.  The caller can let ``k0``
    go once the fit returns.
    """
    _check_finite(k0)
    lam = _lambda_value(lambda_)
    if lam is None:
        lam = _lambda_search(k0)
    m = k0.shape[0]
    # A Fortran-ordered copy lets LAPACK factorise it in place; k0 is
    # symmetric, so copying k0' is a straight copy.
    system = np.array(k0.T, dtype=float, order="F")
    # Its diagonal is every (m + 1)-th entry of the contiguous copy.
    system.ravel(order="F")[:: m + 1] += lam * m
    try:
        chol = cho_factor(system)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"kernel system of size {m} could not be factorised with lambda={lam!r}; "
            "try a larger regularisation parameter"
        ) from exc
    ones = np.ones(m)
    z = cho_solve(chol, ones)
    return _Fit(lam, chol, z, float(ones @ z))


@dataclass(frozen=True)
class RkhsFunction:
    """An element f = c + sum_j gamma_j k0(center_j, .) of the hypothesis
    space H+ of constants plus Stein-kernel functions.

    Because every Stein-kernel function has zero mean under the target, the
    exact mean of f is the constant c, and the squared norm decomposes as
    c^2 + gamma' K0 gamma over the centers.  :func:`fit_surrogate` returns
    one; built by hand, one is an integrand with known mean c and norm
    :meth:`norm_hplus`, so a split estimate of it must lie within
    sqrt(D) * norm_hplus() of c, with the D that :func:`cf_split_estimate`
    attaches.
    """

    c: float
    centers: np.ndarray
    center_scores: np.ndarray
    gamma: np.ndarray
    params: SteinKernelParams

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        center_scores = np.atleast_2d(np.asarray(self.center_scores, dtype=float))
        gamma = np.asarray(self.gamma, dtype=float)
        if centers.shape != center_scores.shape:
            raise InvalidInputError("center_scores must match centers")
        if gamma.shape != (centers.shape[0],):
            raise InvalidInputError("gamma must have one coefficient per center")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "center_scores", center_scores)
        object.__setattr__(self, "gamma", gamma)

    def evaluate(self, points, scores) -> np.ndarray:
        """Values of f at the given points (scores must match the points)."""
        cross = stein_kernel_matrix(
            np.atleast_2d(points), np.atleast_2d(scores), self.centers, self.center_scores,
            self.params,
        )
        return self.c + cross @ self.gamma

    def norm_hplus(self) -> float:
        """Hypothesis-space norm sqrt(c^2 + gamma' K0 gamma)."""
        x, u = self.centers, self.center_scores
        k0 = kernel._assemble(x, u, x, u, (self.params,), upper=True)[0]
        quad = float(self.gamma @ k0 @ self.gamma)
        return math.sqrt(self.c**2 + max(quad, 0.0))


@dataclass(frozen=True)
class Estimate:
    """An estimator value together with how it was produced.

    ``term_star`` is the held-out residual average, ``term_star_star`` the
    surrogate mean; when both are present their sum is the value.
    ``lambda_used`` is ``None`` for methods without a kernel system.
    """

    value: float
    method: str
    n: int
    m: int
    lambda_used: float | None
    term_star: float | None = None
    term_star_star: float | None = None
    discrepancy: float | None = None
    n_splits: int | None = None

    def __post_init__(self):
        if self.term_star is not None and self.term_star_star is not None:
            total = self.term_star + self.term_star_star
            if abs(self.value - total) > 1e-12 * max(1.0, abs(self.value)):
                raise NumericalError(
                    f"estimate value {self.value} does not decompose into "
                    f"{self.term_star} + {self.term_star_star}"
                )
        if self.discrepancy is not None and self.discrepancy < 0:
            raise InvalidInputError("discrepancy must be non-negative")


def fit_surrogate(
    d0: ScoredDataset, params: SteinKernelParams, lambda_: float | None = None
) -> RkhsFunction:
    """Fit the regularised least-squares surrogate on the fitting set ``d0``:
    the :class:`RkhsFunction` with c = c_hat, beta as its coefficients and
    the points of ``d0`` as its centers.

    ``lambda_`` defaults to the automatic conditioning rule.
    """
    c_hat, beta = _fit_coefficients(gram_matrix(d0, params), lambda_).surrogate(d0.f_values)
    return RkhsFunction(
        c=c_hat, centers=d0.points, center_scores=d0.scores, gamma=beta, params=params
    )


class _GramRows(ScoredDataset):
    """The rows ``index`` of the dataset ``whole`` (``slice(None)`` for all
    of them) as a dataset whose kernel blocks :func:`_block` slices from one
    Gram of ``whole`` per kernel in ``shared``.  The first use of any of
    them assembles all of them, in one pass, into ``grams``, which every
    subset of the view shares, so a fitting set or a cross-validation set of
    it keeps the Grams.  Its rows are taken straight from ``whole``, a
    checked dataset, at ``index``, which :meth:`subset` checks, so the view
    runs no second check of them.
    """

    def __init__(self, whole: ScoredDataset, shared, index=slice(None), grams=None):
        every = isinstance(index, slice)
        for name in ("points", "scores", "f_values"):
            values = getattr(whole, name)
            object.__setattr__(self, name, values if every else values[index])
        object.__setattr__(self, "whole", whole)
        object.__setattr__(self, "shared", frozenset(shared))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "grams", {} if grams is None else grams)

    def _at(self, local):
        """Rows ``local`` of this view as rows of ``whole``."""
        return local if isinstance(self.index, slice) else self.index[local]

    def subset(self, indices) -> "_GramRows":
        return _GramRows(self.whole, self.shared, self._at(_row_indices(indices, self.n)),
                         self.grams)


def _block(data: ScoredDataset, params: SteinKernelParams, rows, cols) -> np.ndarray:
    """The matrix k0(x_i, x_j) for i in ``rows`` and j in ``cols`` of
    ``data``, both index arrays or both ``slice(None)`` for all rows; exactly
    symmetric when ``rows is cols``.

    Every block an estimate uses (K0, K10 and K1 of a split, the train and
    test blocks of cross-validation) is a sub-block of the Gram of the whole
    sample.  When ``data`` is a :class:`_GramRows` view that shares
    ``params``, the block is a slice of that Gram, assembled on the first
    request in one pass with the view's other shared Grams, all of which a
    cell reads; the whole view's block is that read-only Gram.  Otherwise,
    a view's unshared kernel included, just the block is assembled from the
    rows of ``data``, which costs fewer entries when only a few blocks of a
    kernel are wanted.  At d = 1 a slice has the bytes of the freshly
    assembled block.  At d >= 2 the whole-shape inner products of the two
    can differ in the last bit.
    """
    if isinstance(data, _GramRows) and params in data.shared:
        at = data._at(rows)
        rows, cols = at, at if cols is rows else data._at(cols)
        if params not in data.grams:
            shared, x, u = tuple(data.shared), data.whole.points, data.whole.scores
            for each, gram in zip(shared, kernel._assemble(x, u, x, u, shared, upper=True)):
                gram.flags.writeable = False
                data.grams[each] = gram
        gram = data.grams[params]
        if isinstance(rows, slice):
            return gram  # the whole view's block: its Gram itself
        # A block must be C-ordered like a freshly assembled one: the layout
        # picks the BLAS kernel, and so the bits, of every product with it.
        # Rows, then columns by take, is about a third of the time of one
        # np.ix_ gather.  Strips of about _BLOCK_ENTRIES entries are taken
        # straight into the block, so no |rows| x n copy is held.  The
        # columns are rows of the view, so mode="wrap" reads what "raise"
        # would, without the copy of ``out`` that "raise" makes.
        block = np.empty((rows.size, len(cols)))
        step = max(1, kernel._BLOCK_ENTRIES // gram.shape[1])
        for i in range(0, rows.size, step):
            gram[rows[i : i + step]].take(cols, axis=1, out=block[i : i + step], mode="wrap")
        return block
    if rows is cols:
        return gram_matrix(data if isinstance(rows, slice) else data.subset(rows), params)
    points, scores = data.points, data.scores
    return stein_kernel_matrix(points[rows], scores[rows], points[cols], scores[cols], params)


def _check_split(data: ScoredDataset, plan: SplitPlan) -> None:
    """Refuse a split ``plan`` that does not fit ``data`` or leaves no
    evaluation samples."""
    if data.n != plan.n:
        raise InvalidInputError(f"plan covers {plan.n} samples, dataset has {data.n}")
    if not plan.index_d1.size:
        raise InvalidInputError(
            "plan leaves no evaluation samples (a split needs m < n); "
            "use cf_simplified_estimate"
        )


def cf_split_estimate(
    data: ScoredDataset,
    plan: SplitPlan,
    params: SteinKernelParams,
    lambda_: float | None = None,
    compute_discrepancy: bool = False,
) -> Estimate:
    """Sample-splitting control-functional estimate of mu(f).

    Fits the surrogate on the ``m`` samples selected by ``plan`` and averages
    the residual over the remaining ``n - m``:

        value = mean(f1 - f1_hat) + c_hat.

    ``lambda_`` defaults to the automatic conditioning rule.  With
    ``compute_discrepancy=True`` the worst-case error constant D(D0, D1) is
    attached to the estimate.  A non-finite entry of the cross block K10
    raises InvalidInputError, with or without D.

    The kernel blocks are assembled in the order of use, and each is let go
    once read: K0 for the fit, then K10 for the held-out predictions (and
    for the triple :meth:`_Fit.held_out` that D reads of it), then K1 for D.
    Beside the fit's m x m factor at most one block is alive, so with
    n - m <= m the call holds at most two m x m matrices at a time.
    """
    _check_split(data, plan)
    i0, i1 = plan.index_d0, plan.index_d1
    fit = _fit_coefficients(_block(data, params, i0, i0), lambda_)
    c_hat, beta = fit.surrogate(data.f_values[i0])
    k10 = _block(data, params, i1, i0)
    f1_hat = c_hat + k10 @ beta
    # A non-finite K10 entry makes its row's prediction non-finite (inf*0
    # is NaN): an O(n - m) check.
    if not np.isfinite(f1_hat).all():
        raise InvalidInputError("k10 contains non-finite entries")
    held = fit.held_out(k10) if compute_discrepancy else None
    del k10
    residual = data.f_values[i1] - f1_hat
    # The arithmetic of np.mean (a pairwise sum, then one division), without its dispatch.
    star = float(residual.sum() / residual.size)
    disc = fit.discrepancy(held, _block(data, params, i1, i1)) if compute_discrepancy else None
    return Estimate(
        value=star + c_hat,
        method="cf-split",
        n=data.n,
        m=plan.m,
        lambda_used=fit.lam,
        term_star=star,
        term_star_star=c_hat,
        discrepancy=disc,
    )


def cf_simplified_estimate(
    data: ScoredDataset, params: SteinKernelParams, lambda_: float | None = None
) -> Estimate:
    """Simplified control-functional estimate: the surrogate mean with m = n.

    value = 1'(K0 + lam*n*I)^-1 f / (1 + 1'(K0 + lam*n*I)^-1 1).  Biased but
    typically lower variance than the sample-splitting estimator.
    """
    every = slice(None)
    k0 = _block(data, params, every, every)
    fit = _fit_coefficients(k0, lambda_)
    c_hat, _ = fit.surrogate(data.f_values)
    return Estimate(
        value=c_hat,
        method="cf-simplified",
        n=data.n,
        m=data.n,
        lambda_used=fit.lam,
        term_star=None,
        term_star_star=c_hat,
    )


def cf_weights(
    data: ScoredDataset,
    plan: SplitPlan,
    params: SteinKernelParams,
    lambda_: float | None = None,
) -> np.ndarray:
    """Weights w such that w @ f reproduces the sample-splitting estimate.

    The weights depend only on the points, scores and split, never on f, so a
    single weight vector prices any number of integrands on the same samples.
    Entries are returned in the original dataset order.  Note the exact column
    sum is 1 - 1'K10 A^-1 1 / ((n-m)(1 + 1'A^-1 1)) with A = K0 + lam*m*I,
    not 1, because the constant is penalised like the kernel part.  Rows of
    K10 have zero mean under the target, so E[1'w | D0] = 1 whenever D1 is an
    IID sample from it.  As in :func:`cf_split_estimate`, K0 is let go after
    the fit and K10 assembled after it.
    """
    _check_split(data, plan)
    i0, i1 = plan.index_d0, plan.index_d1
    fit = _fit_coefficients(_block(data, params, i0, i0), lambda_)
    w = np.empty(data.n)
    w[i0] = fit.split_weights(_block(data, params, i1, i0))
    w[i1] = 1.0 / i1.size
    return w


def cf_multisplit_estimate(
    data: ScoredDataset,
    n_splits: int,
    split_fraction: float,
    params: SteinKernelParams,
    seed,
    lambda_: float | None = None,
) -> Estimate:
    """Average the sample-splitting estimator over random splits.

    Split k uses the stream derived from ``(seed, k)``; the average is taken
    in split order, so results do not depend on any execution schedule.
    Averaging over independent splits keeps the estimator unbiased.  With
    two or more splits every block is a slice of one Gram of ``data``: the K0
    and K10 blocks of two splits (3n^2/8 entries each) cost more than it
    (n^2/2).  When ``data`` is a :class:`_GramRows` view that shares
    ``params`` (a bench cell's dataset), that Gram is the view's; otherwise
    the call wraps ``data`` in a view of its own that shares ``params``.
    """
    n_splits = _count("n_splits", n_splits, 1)
    if n_splits >= 2 and not (isinstance(data, _GramRows) and params in data.shared):
        data = _GramRows(data, (params,))
    n = data.n
    m = _split_size(n, split_fraction)
    values = np.empty(n_splits)
    lam_used = None
    for k in range(n_splits):
        plan = random_split(n, m, seed, index=k)
        est = cf_split_estimate(data, plan, params, lambda_=lambda_)
        values[k] = est.value
        if lam_used is None:
            lam_used = est.lambda_used
    return Estimate(
        value=float(values.sum() / n_splits),  # np.mean's arithmetic
        method="cf-multisplit",
        n=n,
        m=m,
        lambda_used=lam_used,
        n_splits=n_splits,
    )


def cross_validate(d0: ScoredDataset, grid, seed=0) -> SteinKernelParams:
    """Select kernel hyper-parameters by hold-out prediction error on ``d0``.

    ``d0`` is split once, at random, into a training half of ``ceil(m / 2)``
    samples and a test half; every candidate is fitted on the training half
    (with the automatic regularisation rule) and scored by the l2 norm of its
    prediction error on the test half.  The candidate with the smallest error
    wins; ties go to the earliest grid entry.  A candidate whose fit fails or
    whose error is not finite loses, and if all do, the error raised lists
    each with its reason.  The split uses a dedicated stream derived from
    ``seed`` so selection never perturbs estimation randomness.
    """
    grid = _cv_grid(grid)
    m = d0.n
    m_train = math.ceil(_CV_TRAIN_FRACTION * m)
    if m_train < 2 or m - m_train < 1:
        raise InvalidInputError(
            f"{m} samples leave too few points to cross-validate "
            f"(train={m_train}, test={m - m_train})"
        )
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    perm = rng.permutation(m)
    train, test = perm[:m_train], perm[m_train:]
    f_train, f_test = d0.f_values[train], d0.f_values[test]
    errors = np.full(len(grid), np.inf)
    failures = []
    for i, cand in enumerate(grid):
        try:
            c_hat, beta = _fit_coefficients(_block(d0, cand, train, train), None).surrogate(f_train)
            residual = f_test - (c_hat + _block(d0, cand, test, train) @ beta)
            # The arithmetic of np.linalg.norm on a vector, without its dispatch.
            error = math.sqrt(residual.dot(residual))
            if not math.isfinite(error):
                raise NumericalError(f"held-out error is {error}")
            errors[i] = error
        except (InvalidInputError, SingularMatrixError, NumericalError) as exc:
            failures.append(f"candidate {i} ({cand}): {exc}")
    if not np.any(np.isfinite(errors)):
        raise NumericalError("all cross-validation fits failed:\n" + "\n".join(failures))
    return grid[int(np.argmin(errors))]
