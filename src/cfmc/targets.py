"""Benchmark targets: score functions, samplers, integrands, ground truth.

Estimators only ever see the score u(x) = grad log pi(x), which is available
even when pi is un-normalised; the normalised density is kept separate and
used exclusively by oracles, samplers and the density-based baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class TargetProblem:
    """A target density (via its score), a sampler, and an integrand.

    ``score`` and ``integrand`` are vectorised over (n, d) point arrays.
    ``true_mean`` is the analytic expectation of the integrand when known;
    ``None`` marks problems whose ground truth must come from
    :func:`oracle_mean`.  ``normalised_density`` takes one point as a (d,)
    array (at d = 1 also a vector of points), and it and ``log_density``
    exist for oracles, the Riemann baseline and diagnostics, never for
    estimation.
    """

    name: str
    dimension: int
    score: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    integrand: Callable[[np.ndarray], np.ndarray]
    true_mean: float | None
    normalised_density: Callable[[np.ndarray], np.ndarray] | None = None
    log_density: Callable[[np.ndarray], np.ndarray] | None = None

    def dataset(self, rng: np.random.Generator, n: int):
        """Draw n samples and cache scores and integrand values."""
        from .data import ScoredDataset

        points = self.sampler(rng, n)
        return ScoredDataset(
            points=points, scores=self.score(points), f_values=self.integrand(points)
        )


def gaussian_problem(d: int) -> TargetProblem:
    """Standard Gaussian target in dimension d with a sinusoidal integrand.

    The target is N(0, I_d), so u(x) = -x, and the integrand is
    f(x) = sin((pi/d) * sum_i x_i).  By symmetry the true mean is 0 for
    every d.
    """
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")

    def score(points: np.ndarray) -> np.ndarray:
        return -np.atleast_2d(points)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, d))

    def integrand(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.sin((np.pi / d) * points.sum(axis=1))

    def log_density(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return -0.5 * np.sum(points * points, axis=1) - 0.5 * d * np.log(2.0 * np.pi)

    density = None
    if d == 1:

        def density(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)

    return TargetProblem(
        name=f"gaussian-d{d}",
        dimension=d,
        score=score,
        sampler=sampler,
        integrand=integrand,
        true_mean=0.0,
        normalised_density=density,
        log_density=log_density,
    )


def mixture_problem(weights, means, scales, integrand=None, name=None) -> TargetProblem:
    """One-dimensional Gaussian-mixture target with an analytic score.

    The score is computed from the mixture density in closed form, so the
    same estimation path used for un-normalised targets applies unchanged.
    The default integrand is f(x) = x; the true mean is left to the
    quadrature oracle.
    """
    w = np.asarray(weights, dtype=float)
    mu = np.asarray(means, dtype=float)
    s = np.asarray(scales, dtype=float)
    if w.ndim != 1 or w.shape != mu.shape or w.shape != s.shape:
        raise InvalidInputError("weights, means and scales must be equal-length vectors")
    if w.size < 1:
        raise InvalidInputError("mixture needs at least one component")
    if np.any(w <= 0) or np.any(s <= 0):
        raise InvalidInputError("mixture weights and scales must be strictly positive")
    if not np.all(np.isfinite(np.concatenate([w, mu, s]))):
        raise InvalidInputError("mixture parameters must be finite")
    w = w / w.sum()
    from scipy.special import softmax  # here, so that a cfmc process without a mixture skips it

    def _component_logs(x: np.ndarray) -> np.ndarray:
        # (n, k) log of w_i * N(x; mu_i, s_i^2) up to the shared constant
        z = (x[:, None] - mu[None, :]) / s[None, :]
        return np.log(w)[None, :] - np.log(s)[None, :] - 0.5 * z**2

    def score(points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(points)[:, 0]
        logs = _component_logs(x)
        resp = softmax(logs, axis=1)
        slopes = -(x[:, None] - mu[None, :]) / s[None, :] ** 2
        return np.sum(resp * slopes, axis=1)[:, None]

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        comp = rng.choice(w.size, size=n, p=w)
        draws = mu[comp] + s[comp] * rng.standard_normal(n)
        return draws[:, None]

    if integrand is None:

        def integrand(points: np.ndarray) -> np.ndarray:
            return np.atleast_2d(points)[:, 0]

    def density(x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - mu) / s
        comps = np.exp(-0.5 * z**2) / (s * np.sqrt(2.0 * np.pi))
        return np.sum(w * comps, axis=-1)

    def log_density(points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(points)[:, 0]
        logs = _component_logs(x)
        return np.logaddexp.reduce(logs, axis=1) - 0.5 * np.log(2.0 * np.pi)

    return TargetProblem(
        name=name or f"mixture-{w.size}",
        dimension=1,
        score=score,
        sampler=sampler,
        integrand=integrand,
        true_mean=None,
        normalised_density=density,
        log_density=log_density,
    )


# Absolute tolerance of a quadrature oracle mean.
_ORACLE_TOL = 1e-10


def oracle_mean(problem: TargetProblem) -> float:
    """Ground-truth mean of the problem's integrand, to absolute tolerance 1e-10.

    Returns the analytic mean when the problem carries one; otherwise falls
    back to adaptive quadrature (one ``nquad`` over R^d), supported for
    d <= 2 with a normalised density.  Higher dimensions without an analytic
    mean are refused rather than silently mis-integrated.
    """
    if problem.true_mean is not None:
        return float(problem.true_mean)
    if problem.normalised_density is None:
        raise InvalidInputError(
            f"problem {problem.name!r} has neither an analytic mean nor a density"
        )
    if problem.dimension > 2:
        raise InvalidInputError(
            f"oracle mean unsupported for d={problem.dimension} without an analytic mean"
        )

    def integrand(*x):
        point = np.array([x])
        density = problem.normalised_density(point[0])
        return float(problem.integrand(point)[0] * np.reshape(density, ()))

    from scipy import integrate  # here: no estimate needs it, and it loads scipy.optimize

    value, err = integrate.nquad(
        integrand, [(-np.inf, np.inf)] * problem.dimension,
        opts={"epsabs": _ORACLE_TOL / 10.0, "epsrel": 1e-12, "limit": 400},
    )
    if err > _ORACLE_TOL:
        raise InvalidInputError(
            f"quadrature error estimate {err} exceeds the tolerance {_ORACLE_TOL}"
        )
    return float(value)
