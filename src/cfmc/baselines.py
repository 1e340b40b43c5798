"""Reference estimators: arithmetic mean, polynomial gradient control
variates, and a one-dimensional Riemann sum.

The polynomial ("zero variance") control variates use the same mean-zero
construction as the kernel method but restrict the trial function to the
gradient of a degree-1 or degree-2 polynomial, giving the basis

    psi_P(x) = laplacian P(x) + grad P(x) . u(x)

for monomials P.  The Riemann baseline, unlike everything else here, needs
the normalised density.
"""

from __future__ import annotations

import numpy as np

from .data import ScoredDataset
from .errors import InvalidInputError
from .estimator import Estimate

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def arithmetic_mean(f_values) -> float:
    """Plain sample mean of the integrand values."""
    f = np.asarray(f_values, dtype=float)
    if f.ndim != 1 or f.size < 1:
        raise InvalidInputError("f_values must be a non-empty vector")
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("f_values contains non-finite entries")
    return float(np.mean(f))


def zv_basis(points: np.ndarray, scores: np.ndarray, degree: int) -> np.ndarray:
    """Mean-zero basis columns psi_P = laplacian P + grad P . u per monomial P.

    Degree 1 uses P = x_k, giving psi = u_k.  Degree 2 adds P = x_k^2 with
    psi = 2 + 2 x_k u_k, and P = x_k x_l (k < l) with psi = x_l u_k + x_k u_l.
    """
    if degree not in (1, 2):
        raise InvalidInputError(f"degree must be 1 or 2, got {degree}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n, d = points.shape
    columns = [scores[:, k] for k in range(d)]
    if degree == 2:
        for k in range(d):
            columns.append(2.0 + 2.0 * points[:, k] * scores[:, k])
        for k in range(d):
            for l in range(k + 1, d):
                columns.append(points[:, l] * scores[:, k] + points[:, k] * scores[:, l])
    return np.column_stack(columns)


def zv_estimate(data: ScoredDataset, degree: int) -> Estimate:
    """Polynomial control-variate estimate: mean of f minus the fitted
    combination of the mean-zero :func:`zv_basis` columns, whose coefficients
    regress the centred f on the centred columns (OLS with an intercept).
    Degenerate columns, e.g. an identically zero score, get zero
    coefficients via the minimum-norm solution."""
    basis = zv_basis(data.points, data.scores, degree)
    n, p = basis.shape
    if n <= p:
        raise InvalidInputError(
            f"regression needs more samples than basis functions (n={n}, basis={p}); "
            "use a lower degree"
        )
    centred_f = data.f_values - data.f_values.mean()
    coef, *_ = np.linalg.lstsq(basis - basis.mean(axis=0), centred_f, rcond=None)
    return Estimate(
        value=float(np.mean(data.f_values - basis @ coef)),
        method=f"zv{degree}",
        n=data.n,
        m=data.n,
        lambda_used=None,
    )


def riemann_1d(data: ScoredDataset, normalised_density) -> float:
    """Trapezoid integration of f * pi between consecutive order statistics.

    Requires d = 1 and the normalised density; mass in the tails beyond the
    extreme samples is ignored.  Invariant to the input ordering.
    """
    if data.dimension != 1:
        raise InvalidInputError(f"riemann baseline supports d=1 only, got d={data.dimension}")
    if data.n < 2:
        raise InvalidInputError("riemann baseline needs at least two samples")
    order = np.argsort(data.points[:, 0], kind="stable")
    x = data.points[order, 0]
    g = data.f_values[order] * np.asarray(normalised_density(x), dtype=float)
    return float(_trapezoid(g, x))
