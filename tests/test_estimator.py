import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from cfmc import (
    Estimate,
    InvalidInputError,
    MethodSpec,
    NumericalError,
    RkhsFunction,
    ScoredDataset,
    SingularMatrixError,
    SplitPlan,
    SteinKernelParams,
    cf_multisplit_estimate,
    cf_simplified_estimate,
    cf_split_estimate,
    cf_weights,
    cross_validate,
    fit_surrogate,
    gram_matrix,
    mixture_problem,
    random_split,
    select_lambda,
    stein_kernel_matrix,
)
from cfmc import _lapack, estimator, kernel
from cfmc.estimator import _GUARDED_MIN_SIZE, CONDITION_LIMIT, LAMBDA_GRID
from kernel_oracle import stein_kernel
from split_discrepancy import split_discrepancy

PARAMS = SteinKernelParams(alpha1=0.1, alpha2=1.0)


def make_rkhs_function(seed, d=1, n_centers=8, params=PARAMS, gamma_scale=0.5):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_centers, d))
    return RkhsFunction(
        c=float(rng.standard_normal()),
        centers=centers,
        center_scores=-centers,
        gamma=gamma_scale * rng.standard_normal(n_centers),
        params=params,
    )


def discrepancy_of_blocks(k0, k10, k1, lambda_):
    """D from the blocks K0, K10 and K1, by the fit and the formula that every
    estimator's discrepancy goes through."""
    fit = estimator._fit_coefficients(k0, lambda_)
    return fit.discrepancy(fit.held_out(k10), k1)


def dataset_from_function(func, n, seed, d=1):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    scores = -points
    return ScoredDataset(points, scores, func.evaluate(points, scores))


class TestSelectLambda:
    def test_identity_takes_grid_minimum(self):
        assert select_lambda(np.eye(3)) == 1e-16

    def test_rank_one_matrix(self):
        # ones((3,3)) has eigenvalues {3, 0, 0}; with jitter 3*lam the
        # condition number is (3 + 3 lam)/(3 lam), below 1e10 first at 1e-9.
        assert select_lambda(np.ones((3, 3))) == 1e-9

    def test_near_duplicates_engage_regularisation(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(2)
        points = base + 1e-9 * rng.standard_normal((20, 2))
        data = ScoredDataset(points, -points, np.zeros(20))
        assert select_lambda(gram_matrix(data, PARAMS)) > 1e-16

    def test_grid_is_powers_of_ten(self):
        assert LAMBDA_GRID[0] == 1e-16
        assert LAMBDA_GRID[-1] == 1.0
        assert len(LAMBDA_GRID) == 17

    def test_non_symmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            select_lambda(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("diag", [0.5, 4.0, 1e6])
    def test_symmetry_must_be_exact(self, diag):
        # One step of the last bit off symmetry is refused at every scale.
        k0 = diag * np.eye(3)
        k0[0, 2] = k0[2, 0] = 0.25 * diag
        assert select_lambda(k0) in LAMBDA_GRID
        k0[0, 2] = np.nextafter(k0[0, 2], np.inf)
        with pytest.raises(InvalidInputError, match="exactly symmetric, as gram_matrix returns it"):
            select_lambda(k0)

    @pytest.mark.parametrize(
        "i, j",
        [(590, 580), (580, 590), (599, 598), (10, 300), (300, 10), (599, 0), (255, 256)],
        ids=["ragged_below", "ragged_above", "ragged_corner", "tile_above", "tile_below",
             "ragged_row", "tile_edge"],
    )
    def test_skew_in_any_tile_is_refused(self, i, j, make_gaussian_dataset):
        # m = 600 is two whole tiles and a ragged one of 88 rows; one step of
        # the last bit anywhere off the diagonal is refused.
        k0 = gram_matrix(make_gaussian_dataset(600, seed=6), PARAMS)
        assert select_lambda(k0) in LAMBDA_GRID
        k0[i, j] = np.nextafter(k0[i, j], np.inf)
        with pytest.raises(InvalidInputError, match="exactly symmetric, as gram_matrix returns it"):
            select_lambda(k0)

    def test_hopeless_matrix_warns_and_returns_one(self):
        k0 = np.diag([1e12, -1.0])
        with pytest.warns(RuntimeWarning):
            assert select_lambda(k0) == 1.0


def _fit_coefficients_auto(k0):
    return estimator._fit_coefficients(k0, None)


def _fit_coefficients_explicit(k0):
    return estimator._fit_coefficients(k0, 1e-3)


class TestGramLambdaEntry:
    """Estimators select lambda on their own Grams without the symmetry
    check; the public function checks that k0 is finite and exactly
    symmetric, and both give one lambda.  An estimator's fit checks
    finiteness whichever way lambda is chosen."""

    @pytest.mark.parametrize("m", [30, _GUARDED_MIN_SIZE, 400])
    def test_same_lambda_as_public_entry(self, m, make_gaussian_dataset):
        k0 = gram_matrix(make_gaussian_dataset(m, seed=m), PARAMS)
        assert estimator._lambda_search(k0) == select_lambda(k0)

    def test_near_duplicates_same_lambda(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal(2) + 1e-9 * rng.standard_normal((20, 2))
        k0 = gram_matrix(ScoredDataset(points, -points, np.zeros(20)), PARAMS)
        assert estimator._lambda_search(k0) == select_lambda(k0) > 1e-16

    @pytest.mark.parametrize(
        "select", [select_lambda, _fit_coefficients_auto, _fit_coefficients_explicit]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_by_both(self, select, bad):
        k0 = np.eye(3)
        k0[1, 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            select(k0)

    def test_estimators_do_not_check_symmetry(self, monkeypatch, make_gaussian_dataset):
        data = make_gaussian_dataset(40, seed=3)
        calls = _spy(monkeypatch, estimator, "select_lambda")
        cf_simplified_estimate(data, PARAMS)
        cf_split_estimate(data, random_split(40, 20, 0), PARAMS, compute_discrepancy=True)
        assert calls == []


def eigvalsh_rule(k0):
    """The full-spectrum rule that select_lambda must reproduce at every size."""
    m = k0.shape[0]
    evals = np.linalg.eigvalsh(k0)
    for lam in LAMBDA_GRID:
        lo, hi = evals[0] + lam * m, evals[-1] + lam * m
        if lo > 0.0 and hi / lo < CONDITION_LIMIT:
            return lam
    return 1.0


def matrix_with_spectrum(evals, seed=0):
    """A dense symmetric matrix with the given eigenvalues."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
    k0 = (q * np.asarray(evals)) @ q.T
    return 0.5 * (k0 + k0.T)


@st.composite
def large_stein_grams(draw):
    """Stein Gram matrices at or above the guarded size, with MCMC-like
    repeated rows or +- symmetric point sets among the designs."""
    m = draw(st.integers(_GUARDED_MIN_SIZE, 300))
    d = draw(st.sampled_from((1, 2, 3)))
    design = draw(st.sampled_from(("iid", "repeated", "symmetric")))
    params = SteinKernelParams(
        alpha1=draw(st.sampled_from((0.05, 0.1, 1.0))),
        alpha2=draw(st.sampled_from((0.3, 1.0, 3.0))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if design == "repeated":
        states = rng.standard_normal((m // 3 + 1, d))
        points = states[rng.integers(0, states.shape[0], m)]
    elif design == "symmetric":
        half = rng.standard_normal(((m + 1) // 2, d))
        points = np.concatenate([half, -half])[:m]
    else:
        points = rng.standard_normal((m, d))
    return gram_matrix(ScoredDataset(points, -points, np.zeros(m)), params)


def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's result."""
    results = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, spy)
    return results


def decaying_spectrum(lo, hi, m):
    """lo, hi and m - 2 eigenvalues between them, decaying from hi/10 as a
    kernel Gram's do (lo < 1e-8 * hi)."""
    return np.concatenate([[lo], np.logspace(-8, -1, m - 2) * hi, [hi]])


class TestGuardedSelectLambda:
    """From _GUARDED_MIN_SIZE rows on, lambda is decided by the bounds of a
    pivoted factor or a Lanczos top eigenvalue, and Cholesky tests, and must
    equal the full-spectrum rule."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(large_stein_grams())
    def test_matches_eigvalsh_rule(self, k0):
        assert select_lambda(k0) == eigvalsh_rule(k0)

    @pytest.mark.parametrize("m", [_GUARDED_MIN_SIZE, 400])
    def test_stein_gram_skips_eigendecomposition(self, m, monkeypatch, make_gaussian_dataset):
        k0 = gram_matrix(make_gaussian_dataset(m, seed=m), PARAMS)
        expected = eigvalsh_rule(k0)
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        tops = _spy(monkeypatch, estimator, "_top_eigenvalue")
        assert select_lambda(k0) == expected
        # Only the pivoted factor's r x r F'F is eigendecomposed.
        assert calls and all(len(e) < m // 4 for e in calls)
        assert tops == []

    def test_smaller_matrix_uses_eigendecomposition(self, monkeypatch, make_gaussian_dataset):
        m = _GUARDED_MIN_SIZE - 1
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        select_lambda(gram_matrix(make_gaussian_dataset(m), PARAMS))
        assert [e.shape for e in calls] == [(m,)]

    @pytest.mark.parametrize("index", [2, 4, 8, 15])
    def test_smallest_eigenvalue_inside_band_falls_back(self, index, monkeypatch):
        # lo is placed exactly on the threshold t(lambda) of one grid point,
        # so neither Cholesky test can settle that point.
        m, hi = _GUARDED_MIN_SIZE, 1.0
        jitter = LAMBDA_GRID[index] * m
        lo = (hi + jitter) / CONDITION_LIMIT - jitter
        k0 = matrix_with_spectrum(decaying_spectrum(lo, hi, m), seed=index)
        expected = eigvalsh_rule(k0)
        tops = _spy(monkeypatch, estimator, "_top_eigenvalue")
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        assert select_lambda(k0) == expected
        assert len(tops) == 1 and tops[0] == pytest.approx(hi, rel=1e-12)
        assert [e.shape for e in calls] == [(m,)]

    def test_answer_between_grid_minimum_and_guess_falls_back(self, monkeypatch):
        # hi = 1 puts the guess at 1e-12; lo = 9e-11 lies between t(1e-13)
        # and t(1e-14), so the rule's answer is 1e-13.  The guess is
        # accepted, the point below it not rejected and the grid minimum not
        # accepted: eigvalsh decides.
        m = _GUARDED_MIN_SIZE
        k0 = matrix_with_spectrum(decaying_spectrum(9e-11, 1.0, m), seed=13)
        assert eigvalsh_rule(k0) == 1e-13
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        verdicts = _spy(monkeypatch, estimator, "_exceeds")
        assert select_lambda(k0) == 1e-13
        assert verdicts == [True, True, False]
        assert [e.shape for e in calls if len(e) == m] == [(m,)]

    @pytest.mark.parametrize(
        "k0",
        [np.zeros((_GUARDED_MIN_SIZE, _GUARDED_MIN_SIZE)), -np.eye(_GUARDED_MIN_SIZE)],
        ids=["zero", "negative"],
    )
    def test_non_positive_top_eigenvalue_falls_back(self, k0, monkeypatch):
        expected = eigvalsh_rule(k0)
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        assert select_lambda(k0) == expected
        assert len(calls) == 1

    def test_lanczos_failure_falls_back(self, monkeypatch, make_gaussian_dataset):
        m = _GUARDED_MIN_SIZE
        k0 = gram_matrix(make_gaussian_dataset(m, seed=5), PARAMS)
        expected = eigvalsh_rule(k0)
        monkeypatch.setattr(estimator, "_pivoted_factor", lambda k0, work: None)
        monkeypatch.setattr(estimator, "_top_eigenvalue", lambda k0, v0: None)
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        assert select_lambda(k0) == expected
        assert len(calls) == 1

    def test_hopeless_matrix_warns_and_returns_one(self, monkeypatch):
        # hi = 1e3 > 0, so the Cholesky tests run; lo = -2m stays negative
        # even with lambda*m = m, so no grid point is accepted.
        m = _GUARDED_MIN_SIZE
        k0 = matrix_with_spectrum(decaying_spectrum(-2.0 * m, 1e3, m))
        tops = _spy(monkeypatch, estimator, "_top_eigenvalue")
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            assert select_lambda(k0) == 1.0
        assert len(tops) == 1 and tops[0] == pytest.approx(1e3, rel=1e-12)
        assert len(calls) == 1


class TestTopEigenvalue:
    """The Lanczos top eigenvalue of the guarded lambda search."""

    @staticmethod
    def start(m):
        return np.random.default_rng(m).standard_normal(m)

    @pytest.mark.parametrize("m", [200, 500])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("design", ["iid", "repeated"])
    def test_within_tolerance_of_eigvalsh(self, m, d, design):
        rng = np.random.default_rng(m + d)
        if design == "repeated":
            states = rng.standard_normal((m // 3 + 1, d))
            points = states[rng.integers(0, states.shape[0], m)]
        else:
            points = rng.standard_normal((m, d))
        k0 = gram_matrix(ScoredDataset(points, -points, np.zeros(m)), PARAMS)
        hi = np.linalg.eigvalsh(k0)[-1]
        top = estimator._top_eigenvalue(k0, self.start(m))
        assert abs(top - hi) <= estimator._HI_TOL * hi

    @pytest.mark.parametrize("c", [2.5, -1.0])
    def test_multiple_of_identity_takes_one_step(self, c, monkeypatch):
        # Every vector is an eigenvector: the first residual vanishes.
        monkeypatch.setattr(estimator, "_LANCZOS_MAX_STEPS", 1)
        top = estimator._top_eigenvalue(c * np.eye(50), self.start(50))
        assert top == pytest.approx(c, rel=1e-15)

    def test_unresolved_top_cluster_falls_back(self, monkeypatch):
        # 50 eigenvalues within 1e-3 of the top: _LANCZOS_MAX_STEPS steps
        # leave the residual far above _HI_TOL, so the eigendecomposition
        # decides lambda.
        m = _GUARDED_MIN_SIZE
        evals = np.concatenate([np.linspace(0.0, 0.5, m - 50), 1.0 - np.linspace(0.0, 1e-3, 50)])
        k0 = matrix_with_spectrum(evals)
        assert estimator._top_eigenvalue(k0, self.start(m)) is None
        expected = eigvalsh_rule(k0)
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        assert select_lambda(k0) == expected
        assert [e.shape for e in calls] == [(m,)]

    def test_dstev_failure_falls_back(self, monkeypatch, make_gaussian_dataset):
        # A full-rank d = 3 Gram drops its pivoted factor, so hi comes from
        # Lanczos; with dstev reporting no convergence there is no hi, and
        # the eigendecomposition decides lambda.
        m = 200
        k0 = gram_matrix(make_gaussian_dataset(m, d=3, seed=m), PARAMS)
        expected = eigvalsh_rule(k0)
        monkeypatch.setattr(estimator, "dstev", lambda d, e: (d, None, 1))
        factors = _spy(monkeypatch, estimator, "_pivoted_factor")
        tops = _spy(monkeypatch, estimator, "_top_eigenvalue")
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        assert estimator._lambda_search(k0) == expected
        assert factors == [None] and tops == [None]
        assert [e.shape for e in calls] == [(m,)]


def _lower_mirror(k0):
    """k0 with its upper triangle replaced by the transpose of its lower."""
    return np.tril(k0) + np.tril(k0, -1).T


@st.composite
def certificate_cases(draw):
    """(k0, tau, lo): a symmetric k0, a negative shift tau and eigvalsh's
    smallest eigenvalue lo of k0.  The designs are indefinite low-rank plus
    shifted-identity matrices, with or without symmetric noise, and Stein
    Grams of samples with repeated rows or large scores.  tau is placed just
    above or just below lo (by 2 or 1e3 times eigvalsh's error bound), or
    well below it."""
    m = draw(st.integers(20, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = draw(st.sampled_from(("low_rank", "low_rank_noise", "repeated", "large_scores")))
    if design.startswith("low_rank"):
        rank = draw(st.integers(1, 8))
        factor = rng.standard_normal((m, rank)) * 10.0 ** rng.uniform(-1.0, 3.0, rank)
        k0 = factor @ factor.T
        shift = -(10.0 ** rng.uniform(-12.0, -2.0)) * np.abs(k0).max()
        k0[np.diag_indices(m)] += shift
        if design == "low_rank_noise":
            k0 += 1e-3 * abs(shift) * rng.standard_normal((m, m))
    else:
        d = draw(st.sampled_from((1, 2, 3)))
        if design == "repeated":
            states = rng.standard_normal((m // 4 + 1, d))
            points = states[rng.integers(0, states.shape[0], m)]
            scores = -points
        else:
            points = rng.standard_normal((m, d))
            scores = -points * 10.0 ** rng.uniform(2.0, 6.0)
        params = SteinKernelParams(draw(st.sampled_from((0.05, 0.1, 1.0))), 1.0)
        k0 = gram_matrix(ScoredDataset(points, scores, np.zeros(m)), params)
    k0 = _lower_mirror(k0)
    evals = np.linalg.eigvalsh(k0)
    lo = float(evals[0])
    error = 4.0 * m * np.finfo(float).eps * float(np.linalg.norm(k0))
    offset = draw(st.sampled_from((-1e3, -2.0, 2.0, 1e3, "lo", "10lo", "hi")))
    if offset == "lo":
        tau = lo - abs(lo) - error
    elif offset == "10lo":
        tau = lo - 10.0 * abs(lo) - error
    elif offset == "hi":
        tau = lo - 1e-6 * float(evals[-1]) - error
    else:
        tau = lo - offset * error
    assume(tau < 0.0)
    return k0, tau, lo


def _factorised_sizes(monkeypatch):
    """The size of every matrix a guarded Cholesky test factorises, in call
    order."""
    sizes = []
    original = estimator._exceeds

    def spy(k0, shift, work):
        sizes.append(k0.shape[0])
        return original(k0, shift, work)

    monkeypatch.setattr(estimator, "_exceeds", spy)
    return sizes


def _recorded_factors(monkeypatch):
    """Every pivoted factor the guarded search builds, in call order."""
    factors = []

    class Recorded(estimator._PivotedFactor):
        def __init__(self, k0, work):
            super().__init__(k0, work)
            factors.append(self)

    monkeypatch.setattr(estimator, "_PivotedFactor", Recorded)
    return factors


def _bounded_factor(k0, tau):
    """A pivoted factor of k0 taken to the tolerance |tau|/(4m) that the
    guarded search gives it for a test at tau, bounded."""
    factor = estimator._PivotedFactor(k0, np.empty(k0.shape, order="F"))
    factor.extend(abs(tau) / (4 * k0.shape[0]))
    factor.bound()
    return factor


def metropolis_chain(rng, m, d, step=1.0):
    """m states of a random-walk Metropolis chain targeting N(0, I_d), from
    the origin; rejected proposals repeat the previous state."""
    points, x = np.empty((m, d)), np.zeros(d)
    for i in range(m):
        y = x + step * rng.standard_normal(d)
        if np.log(rng.uniform()) < 0.5 * (x @ x - y @ y):
            x = y
        points[i] = x
    return points


@st.composite
def d1_stein_grams(draw):
    """Stein Gram matrices of d = 1 iid or Metropolis samples, m in
    [200, 1200], under the benchmark's kernels with alpha2 >= 1."""
    m = draw(st.integers(_GUARDED_MIN_SIZE, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(("iid", "metropolis"))) == "metropolis":
        points = metropolis_chain(rng, m, 1)
    else:
        points = rng.standard_normal((m, 1))
    alphas = draw(st.sampled_from(((0.1, 1.0), (0.1, 2.0), (0.05, 1.5))))
    return gram_matrix(ScoredDataset(points, -points, np.zeros(m)), SteinKernelParams(*alphas))


class TestPivotedBounds:
    """The bounds of a partial pivoted Cholesky factor must be proofs, and
    the searches they serve must decide without Lanczos or Cholesky tests
    where they apply."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(certificate_cases())
    def test_never_accepts_at_or_above_the_smallest_eigenvalue(self, case):
        k0, tau, lo = case
        verdict = _bounded_factor(k0, tau).above(tau)
        if verdict:
            assert lo > tau
        elif verdict is False:
            # Refused by the upper bound: lo <= rho <= tau, up to eigvalsh's error.
            assert lo <= tau + 4.0 * k0.shape[0] * np.finfo(float).eps * np.linalg.norm(k0)

    @pytest.mark.parametrize("m", [500, 1000])
    def test_decides_a_low_rank_gram(self, m, make_gaussian_dataset):
        k0 = gram_matrix(make_gaussian_dataset(m, seed=m), PARAMS)
        lo, hi = np.linalg.eigvalsh(k0)[[0, -1]]
        tau = -1e-10 * hi
        assert lo > tau
        assert _bounded_factor(k0, tau).above(tau)

    def test_exact_diagonal_bound(self):
        # A rank-one block [[4, 2], [2, 1]] and -0.5 on the rest of the
        # diagonal: one pivot takes the block exactly, the residual is
        # diag(0, 0, -0.5, ...), and lo = -0.5, so only shifts below pass.
        m = 40
        k0 = np.diag(np.full(m, -0.5))
        k0[:2, :2] = [[4.0, 2.0], [2.0, 1.0]]
        factor = _bounded_factor(k0, -0.51)
        assert factor.above(-0.51)
        assert not factor.above(-0.5)
        assert len(factor.taken) == 1 and factor.lb <= -0.5 <= factor.rho

    def test_gives_up_at_the_rank_cap(self, monkeypatch):
        # A well-conditioned matrix keeps pivots above the tolerance: its flat
        # pivots stop the factor at the stop rule's first check, and without
        # the rule it stops at the column budget.  The columns it took still
        # bound the spectrum.
        m = 64
        work = np.empty((m, m), order="F")
        factor = estimator._PivotedFactor(np.eye(m), work)
        assert not factor.extend(1e-3 / (4 * m))
        assert len(factor.taken) == estimator._PIVOT_RATE_STEPS
        assert estimator._pivoted_factor(np.eye(m), work) is None
        monkeypatch.setattr(estimator, "_PIVOT_STOP_FACTOR", math.inf)
        factor = estimator._PivotedFactor(np.eye(m), work)
        assert not factor.extend(1e-3 / (4 * m))
        assert len(factor.taken) == estimator._PIVOT_MIN_COLUMNS
        factor.bound()
        assert factor.above(-1e-3) and factor.lb <= 1.0 <= factor.rho

    def test_d1_search_runs_no_full_size_factorisation(self, monkeypatch, make_gaussian_dataset):
        m = 1000
        k0 = gram_matrix(make_gaussian_dataset(m, seed=7), PARAMS)
        expected = eigvalsh_rule(k0)
        sizes = _factorised_sizes(monkeypatch)
        factors = _spy(monkeypatch, estimator, "_pivoted_factor")
        tops = _spy(monkeypatch, estimator, "_top_eigenvalue")
        assert estimator._lambda_search(k0) == expected
        assert len(factors) == 1 and factors[0] is not None and tops == []
        assert sizes == []

    def test_factor_bounds_decide_both_tests(self, monkeypatch, make_gaussian_dataset):
        # The guess is accepted by the factor's lower bound, and the point
        # below it rejected by its upper bound: no Cholesky test runs.
        m = 400
        k0 = gram_matrix(make_gaussian_dataset(m, seed=11), PARAMS)
        expected = eigvalsh_rule(k0)
        sizes = _factorised_sizes(monkeypatch)
        assert select_lambda(k0) == expected
        assert sizes == []

    @pytest.mark.parametrize("low_rank", [False, True], ids=["full_rank", "low_rank"])
    def test_band_falls_back_above_the_gates(self, low_rank, monkeypatch):
        # As in TestGuardedSelectLambda, lo sits on one grid threshold; on
        # the low-rank spectrum the factor's bounds run too, and neither they
        # nor the Cholesky tests may settle that point.
        m, index = 800, 3 if low_rank else 8
        jitter = LAMBDA_GRID[index] * m
        if low_rank:
            # Rank 20, with hi putting this point's threshold on lo = 0.
            hi = jitter * (CONDITION_LIMIT - 1.0)
            spectrum = np.concatenate([np.zeros(m - 20), np.logspace(-3, 0, 20) * hi])
        else:
            hi = 1.0
            spectrum = decaying_spectrum((hi + jitter) / CONDITION_LIMIT - jitter, hi, m)
        k0 = _lower_mirror(matrix_with_spectrum(spectrum, seed=index))
        expected = eigvalsh_rule(k0)
        factors = _spy(monkeypatch, estimator, "_pivoted_factor")
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        assert select_lambda(k0) == expected
        assert [e.shape for e in calls if len(e) == m] == [(m,)]
        assert (factors[0] is not None) == low_rank

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(d1_stein_grams())
    def test_d1_grams_need_no_lanczos_and_no_full_accept_test(self, k0):
        m = k0.shape[0]
        with pytest.MonkeyPatch.context() as mp:
            tops = _spy(mp, estimator, "_top_eigenvalue")
            sizes = _factorised_sizes(mp)
            assert estimator._lambda_search(k0) == eigvalsh_rule(k0)
            assert tops == [] and sizes == []
        evals = np.linalg.eigvalsh(k0)
        error = 4.0 * m * np.finfo(float).eps * evals[-1]
        factor = estimator._pivoted_factor(k0, np.empty(k0.shape, order="F"))
        assert abs(factor.hi - evals[-1]) <= factor.rho + error
        assert factor.lb - error <= evals[0] <= factor.rho + error

    @pytest.mark.parametrize("m, design", [(200, "iid"), (500, "iid"), (500, "metropolis")])
    def test_full_rank_d3_gram_stops_early_and_falls_back(self, m, design, monkeypatch,
                                                         make_gaussian_dataset):
        if design == "metropolis":
            points = metropolis_chain(np.random.default_rng(m), m, 3)
            data = ScoredDataset(points, -points, np.zeros(m))
        else:
            data = make_gaussian_dataset(m, d=3, seed=m)
        k0 = gram_matrix(data, PARAMS)
        expected = eigvalsh_rule(k0)
        factors = _recorded_factors(monkeypatch)
        tops = _spy(monkeypatch, estimator, "_top_eigenvalue")
        sizes = _factorised_sizes(monkeypatch)
        verdicts = _spy(monkeypatch, estimator, "_exceeds")
        assert estimator._lambda_search(k0) == expected
        assert len(factors) == 1 and len(tops) == 1
        assert len(factors[0].taken) == estimator._PIVOT_RATE_STEPS
        if design == "metropolis":
            # Repeated states make k0 singular: the guess's accept test
            # passes, and the point below it fails one whole-size reject test.
            assert list(zip(sizes, verdicts)) == [(m, True), (m, False)]

    def test_well_conditioned_gram_takes_three_factorisations(self, monkeypatch,
                                                             make_gaussian_dataset):
        # The guess is accepted, the point below it is not rejected, and the
        # grid minimum is accepted: every point is, with no accept test at
        # the point below the guess.
        m = 200
        k0 = gram_matrix(make_gaussian_dataset(m, d=3, seed=m), PARAMS)
        assert eigvalsh_rule(k0) == LAMBDA_GRID[0]
        sizes = _factorised_sizes(monkeypatch)
        assert estimator._lambda_search(k0) == LAMBDA_GRID[0]
        assert sizes == [m, m, m]


class TestSymmetricSystems:
    """The lambda tests and the factorisation copy k0' and read its lower
    triangle, so every k0 that reaches them must be exactly symmetric: each
    estimator's is, and select_lambda refuses any other."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(6, 40),
        d=st.sampled_from((1, 2, 3)),
        route=st.sampled_from(("view_split", "fresh_split", "simplified", "cv", "fit_surrogate",
                               "multisplit")),
        seed=st.integers(0, 2**16),
    )
    def test_every_fitted_k0_equals_its_transpose_bitwise(self, n, d, route, seed):
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((n // 2 + 1, d))
        points = states[rng.integers(0, states.shape[0], n)]
        data = ScoredDataset(points, -points, np.sin(points.sum(axis=1)))
        plan = random_split(n, n // 2, seed)
        grid = [PARAMS, SteinKernelParams(0.3, 2.0)]
        fitted = []
        real = estimator._fit_coefficients

        def record(k0, *args):
            fitted.append(np.array(k0))
            return real(k0, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_fit_coefficients", record)
            if route == "view_split":
                cf_split_estimate(estimator._GramRows(data, (PARAMS,)), plan, PARAMS,
                                  compute_discrepancy=True)
            elif route == "fresh_split":
                cf_split_estimate(data, plan, PARAMS, compute_discrepancy=True)
            elif route == "simplified":
                cf_simplified_estimate(data, PARAMS)
            elif route == "cv":
                cross_validate(estimator._GramRows(data, grid[:1]), grid, seed=seed)
                cross_validate(data, grid, seed=seed)
            elif route == "fit_surrogate":
                fit_surrogate(data, PARAMS)
            else:
                cf_multisplit_estimate(data, 3, 0.5, PARAMS, seed)
        assert fitted
        for k0 in fitted:
            assert k0.tobytes() == np.ascontiguousarray(k0.T).tobytes()

    def test_select_lambda_refuses_skew_and_searches_k0_itself(self, monkeypatch):
        m = _GUARDED_MIN_SIZE
        k0 = matrix_with_spectrum(decaying_spectrum(1e-12, 1.0, m), seed=3)
        skewed = k0.copy()
        skewed[np.triu_indices(m, 1)] *= 1.0 + 5e-13
        searched = []
        search = estimator._lambda_search

        def spy(k0):
            searched.append(k0)
            return search(k0)

        monkeypatch.setattr(estimator, "_lambda_search", spy)
        with pytest.raises(InvalidInputError, match="exactly symmetric"):
            select_lambda(skewed)
        assert searched == []
        assert select_lambda(k0) == eigvalsh_rule(k0)
        assert searched[0] is k0  # not copied


class TestFitSurrogate:
    def test_matches_augmented_system_solve(self, make_gaussian_dataset):
        # Independent route: coefficients of the fit in the sum space solve
        # (K0 + 11' + lam*m*I) gamma = f, with c_hat = 1'gamma and
        # beta = gamma.  Equivalent to the rank-one-update form by the
        # Sherman-Morrison identity.
        for seed, lam in [(0, 0.0), (1, 1e-6), (2, 1e-3)]:
            d0 = make_gaussian_dataset(12, d=2, seed=seed)
            fit = fit_surrogate(d0, PARAMS, lambda_=lam)
            k0 = gram_matrix(d0, PARAMS)
            m = d0.n
            gamma = np.linalg.solve(
                k0 + np.ones((m, m)) + lam * m * np.eye(m), d0.f_values
            )
            assert fit.c == pytest.approx(float(gamma.sum()), rel=1e-10)
            np.testing.assert_allclose(fit.gamma, gamma, rtol=1e-8, atol=1e-12)

    def test_constant_integrand_closed_form(self, make_gaussian_dataset):
        base = make_gaussian_dataset(10, seed=3)
        c0 = 2.5
        d0 = ScoredDataset(base.points, base.scores, np.full(10, c0))
        fit = fit_surrogate(d0, PARAMS, lambda_=0.0)
        k0 = gram_matrix(d0, PARAMS)
        chol = cho_factor(k0, lower=True)
        q = float(np.ones(10) @ cho_solve(chol, np.ones(10)))
        assert fit.c == pytest.approx(c0 * q / (1.0 + q), rel=1e-10)
        # fitted values reproduce the constant at the nodes
        fitted = fit.evaluate(d0.points, d0.scores)
        np.testing.assert_allclose(fitted, c0, rtol=1e-9)

    def test_single_node_scalar_algebra(self):
        x = np.array([[0.4]])
        d0 = ScoredDataset(x, -x, np.array([1.7]))
        k00 = stein_kernel(x[0], -x[0], x[0], -x[0], PARAMS)
        fit = fit_surrogate(d0, PARAMS, lambda_=0.0)
        assert fit.c == pytest.approx(1.7 * (1 / k00) / (1 + 1 / k00), rel=1e-12)

    def test_interpolates_space_member(self):
        func = make_rkhs_function(seed=4, n_centers=6)
        nodes = np.concatenate([func.centers])
        d0 = ScoredDataset(nodes, -nodes, func.evaluate(nodes, -nodes))
        fit = fit_surrogate(d0, PARAMS, lambda_=0.0)
        fitted = fit.evaluate(d0.points, d0.scores)
        assert np.max(np.abs(fitted - d0.f_values)) < 1e-8

    def test_returns_the_function_it_fitted(self, make_gaussian_dataset):
        d0 = make_gaussian_dataset(9, d=2, seed=7)
        fit = fit_surrogate(d0, PARAMS, lambda_=1e-6)
        assert isinstance(fit, RkhsFunction)
        assert fit.c == cf_simplified_estimate(d0, PARAMS, lambda_=1e-6).value
        np.testing.assert_array_equal(fit.centers, d0.points)
        np.testing.assert_array_equal(fit.center_scores, d0.scores)
        quad = float(fit.gamma @ gram_matrix(d0, PARAMS) @ fit.gamma)
        assert fit.norm_hplus() == np.sqrt(fit.c**2 + max(quad, 0.0))

    def test_singular_system_raises_with_advice(self):
        point = np.array([[0.3, -0.2]])
        points = np.repeat(point, 5, axis=0)
        d0 = ScoredDataset(points, -points, np.ones(5))
        with pytest.raises(SingularMatrixError, match="larger regularisation"):
            fit_surrogate(d0, PARAMS, lambda_=0.0)

    def test_negative_lambda_rejected(self, make_gaussian_dataset):
        with pytest.raises(InvalidInputError):
            fit_surrogate(make_gaussian_dataset(5), PARAMS, lambda_=-1e-3)


class TestPredictSurrogate:
    def test_zero_beta_returns_constant(self, make_gaussian_dataset):
        d0 = make_gaussian_dataset(4, seed=5)
        fit = fit_surrogate(d0, PARAMS, lambda_=1e-8)
        constant_only = RkhsFunction(
            c=fit.c,
            centers=fit.centers,
            center_scores=fit.center_scores,
            gamma=np.zeros_like(fit.gamma),
            params=fit.params,
        )
        assert constant_only.evaluate(np.array([9.0]), np.array([-9.0])).tolist() == [fit.c]

    def test_matches_explicit_prediction_formula(self, make_gaussian_dataset):
        # Two routes to f1_hat: the per-point surrogate and the matrix form
        # K10 (K0 + lam*m*I)^-1 f0 + (1 - K10 (K0+lam*m*I)^-1 1) c_hat.
        data = make_gaussian_dataset(20, d=2, seed=6)
        plan = random_split(20, 12, seed=0)
        d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
        lam = 1e-8
        fit = fit_surrogate(d0, PARAMS, lambda_=lam)
        via_predict = fit.evaluate(d1.points, d1.scores)
        k0 = gram_matrix(d0, PARAMS)
        k10 = stein_kernel_matrix(d1.points, d1.scores, d0.points, d0.scores, PARAMS)
        chol = cho_factor(k0 + lam * d0.n * np.eye(d0.n), lower=True)
        ones = np.ones(d0.n)
        c_hat = float(ones @ cho_solve(chol, d0.f_values)) / (
            1.0 + float(ones @ cho_solve(chol, ones))
        )
        explicit = k10 @ cho_solve(chol, d0.f_values) + (
            1.0 - k10 @ cho_solve(chol, ones)
        ) * c_hat
        np.testing.assert_allclose(via_predict, explicit, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch_raises(self, make_gaussian_dataset):
        fit = fit_surrogate(make_gaussian_dataset(4, d=2), PARAMS, lambda_=1e-8)
        with pytest.raises(InvalidInputError):
            fit.evaluate(np.zeros(3), np.zeros(3))


class TestLambdaValidation:
    """Every kernel solve rejects a negative or non-finite lambda up front."""

    @pytest.mark.parametrize("lam", [-1e-12, np.nan, np.inf])
    def test_estimators_reject_invalid_lambda(self, lam, make_gaussian_dataset):
        data = make_gaussian_dataset(12)
        plan = random_split(12, 6, seed=0)
        calls = [
            lambda: cf_split_estimate(data, plan, PARAMS, lambda_=lam),
            lambda: cf_simplified_estimate(data, PARAMS, lambda_=lam),
            lambda: cf_weights(data, plan, PARAMS, lambda_=lam),
            lambda: cf_multisplit_estimate(data, 2, 0.5, PARAMS, seed=0, lambda_=lam),
            lambda: fit_surrogate(data, PARAMS, lambda_=lam),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="lambda must be non-negative"):
                call()

    @pytest.mark.parametrize("lam", [-1e-12, np.nan])
    def test_discrepancy_rejects_invalid_lambda(self, lam, make_gaussian_dataset):
        data = make_gaussian_dataset(12)
        plan = random_split(12, 6, seed=0)
        d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
        with pytest.raises(InvalidInputError, match="lambda must be non-negative"):
            split_discrepancy(d0, d1, PARAMS, lambda_=lam)


class TestSettingRules:
    """Every entry judges a setting by the one rule for it, with no warning:
    a boolean, a string or a fractional count is refused, and a numpy scalar
    is taken as the number it holds."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda data: cf_simplified_estimate(data, PARAMS, lambda_=True),
                         id="lambda=True"),
            pytest.param(lambda data: cf_simplified_estimate(data, PARAMS, lambda_="1e-3"),
                         id="lambda='1e-3'"),
            pytest.param(lambda data: cf_multisplit_estimate(data, 2.5, 0.5, PARAMS, seed=0),
                         id="n_splits=2.5"),
            pytest.param(lambda data: cf_multisplit_estimate(data, True, 0.5, PARAMS, seed=0),
                         id="n_splits=True"),
            pytest.param(lambda data: random_split(10, 5.5, 0), id="m=5.5"),
            pytest.param(lambda data: random_split(10, True, 0), id="m=True"),
            pytest.param(lambda data: random_split(10.5, 5, 0), id="n=10.5"),
            pytest.param(lambda data: random_split(True, 1, 0), id="n=True"),
            pytest.param(lambda data: random_split(np.array([10]), 5, 0), id="n=array"),
        ],
    )
    def test_refuses_what_is_no_such_number(self, call, make_gaussian_dataset):
        data = make_gaussian_dataset(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                call(data)

    def test_takes_numpy_scalars(self, make_gaussian_dataset):
        lam = np.float32(1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = MethodSpec("cf-split", alpha1=np.float32(0.5), lambda_=lam)
            est = cf_simplified_estimate(make_gaussian_dataset(12), PARAMS, lambda_=lam)
        assert (spec.alpha1, spec.lambda_, est.lambda_used) == (0.5, float(lam), float(lam))
        assert type(spec.alpha1) is type(spec.lambda_) is type(est.lambda_used) is float


def _huge_score_data(rows):
    """A d = 1 Gaussian sample of 12 points whose listed rows have the given
    scores: finite data whose Stein kernel overflows where u_i * u_j > 1.8e308."""
    x = np.random.default_rng(0).standard_normal((12, 1))
    u = -x.copy()
    for row, score in rows:
        u[row] = score
    return ScoredDataset(x, u, np.sin(x[:, 0]))


class TestNonFiniteSystem:
    """A kernel system with a non-finite entry is refused with
    InvalidInputError on both lambda routes, before any factorisation."""

    @pytest.mark.parametrize("lam", [None, 1e-3])
    def test_every_estimator_refuses_it(self, lam):
        # Seven of twelve rows have u = 1e200, so every fitting set of six
        # or more holds one, and its K0 an infinite diagonal entry.
        data = _huge_score_data([(row, 1e200) for row in range(7)])
        plan = random_split(12, 6, seed=0)
        calls = [
            lambda: cf_split_estimate(data, plan, PARAMS, lambda_=lam),
            lambda: cf_simplified_estimate(data, PARAMS, lambda_=lam),
            lambda: cf_weights(data, plan, PARAMS, lambda_=lam),
            lambda: cf_multisplit_estimate(data, 2, 0.5, PARAMS, seed=0, lambda_=lam),
            lambda: fit_surrogate(data, PARAMS, lambda_=lam),
            lambda: split_discrepancy(data, data, PARAMS, lambda_=lam),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for call in calls:
                with pytest.raises(InvalidInputError, match="k0 contains non-finite"):
                    call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_held_out_solve_checks_the_cross_block(self, bad):
        fit = estimator._fit_coefficients(np.eye(3), 1e-3)
        k10 = np.ones((2, 3))
        k10[1, 2] = bad
        with pytest.raises(InvalidInputError, match="k10 contains non-finite"):
            fit.held_out(k10)

    def test_overflowing_cross_block_refused(self):
        # u = 1e150 in D0 keeps K0 finite; u = 1e200 in D1 overflows K10.
        plan = random_split(12, 6, seed=0)
        data = _huge_score_data([(plan.index_d0[0], 1e150), (plan.index_d1[0], 1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="k10 contains non-finite"):
                cf_weights(data, plan, PARAMS, lambda_=1e-3)
            with pytest.raises(InvalidInputError, match="k10 contains non-finite"):
                cf_split_estimate(data, plan, PARAMS, lambda_=1e-3, compute_discrepancy=True)

    def test_non_finite_cross_block_refused_with_or_without_bound(self):
        # u = 1e308 on the last D1 row overflows nine of its K10 entries,
        # and K0 stays finite.  Without D the prediction of that row is
        # non-finite; it must raise as the bound path and cf_weights do,
        # not return NaN.
        x = np.random.default_rng(0).standard_normal((40, 1))
        u = -x.copy()
        u[39] = 1e308
        data = ScoredDataset(x, u, np.sin(x[:, 0]))
        plan = SplitPlan(np.arange(20), np.arange(20, 40))
        seed = next(s for s in range(100) if 39 in random_split(40, 20, s).index_d1)
        calls = [
            lambda: cf_split_estimate(data, plan, PARAMS),
            lambda: cf_split_estimate(data, plan, PARAMS, compute_discrepancy=True),
            lambda: cf_weights(data, plan, PARAMS),
            lambda: cf_multisplit_estimate(data, 1, 0.5, PARAMS, seed=seed),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(stein_kernel_matrix(x[20:], u[20:], x[:20],
                                                              u[:20], PARAMS)))
            for call in calls:
                with pytest.raises(InvalidInputError, match="k10 contains non-finite"):
                    call()

    def test_overflowing_evaluation_block_refused(self):
        # u = 1e200 on one D1 row keeps K0 and K10 finite but overflows K1,
        # whose sum would otherwise make D NaN.
        plan = random_split(12, 6, seed=0)
        data = _huge_score_data([(plan.index_d1[0], 1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="k1 sums to"):
                cf_split_estimate(data, plan, PARAMS, compute_discrepancy=True)
            with pytest.raises(InvalidInputError, match="k1 sums to"):
                split_discrepancy(
                    data.subset(plan.index_d0), data.subset(plan.index_d1), PARAMS
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_discrepancy_checks_k1(self, bad):
        k1 = np.eye(2)
        k1[1, 1] = bad
        with pytest.raises(InvalidInputError, match="k1 sums to"):
            discrepancy_of_blocks(np.eye(3), np.zeros((2, 3)), k1, lambda_=1e-3)

    def test_one_check_per_system(self, monkeypatch, make_gaussian_dataset):
        checked = _spy(monkeypatch, estimator, "_check_finite")
        factorised = _spy(monkeypatch, estimator, "cho_factor")
        data = make_gaussian_dataset(40, seed=5)
        cf_split_estimate(data, random_split(40, 20, 0), PARAMS, compute_discrepancy=True)
        cf_simplified_estimate(data, PARAMS, lambda_=1e-6)
        cf_multisplit_estimate(data, 3, 0.5, PARAMS, seed=0)
        assert len(checked) == len(factorised) == 5


def _spd_system(seed, m):
    """A random symmetric positive definite m x m matrix, Fortran-ordered."""
    x = np.random.default_rng(seed).standard_normal((m, m + 2))
    return np.asfortranarray(x @ x.T / (m + 2))


class TestLapackCholesky:
    """The estimator's factor and solves are scipy.linalg's cho_factor and
    cho_solve byte for byte; scipy stays the reference here."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 300),
        lam=st.sampled_from(LAMBDA_GRID),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_as_scipy(self, m, lam, seed):
        k0 = _spd_system(seed, m)
        fit = estimator._fit_coefficients(k0, lam)
        chol, z = fit.chol, fit.z
        system = k0.copy(order="F")
        system[np.arange(m), np.arange(m)] += lam * m
        ref = cho_factor(system, lower=True)
        assert isinstance(chol, np.ndarray) and ref[1] is True
        assert chol.flags.f_contiguous
        assert chol.tobytes(order="F") == ref[0].tobytes(order="F")
        assert z.tobytes() == cho_solve(ref, np.ones(m)).tobytes()
        b = np.random.default_rng(seed + 1).standard_normal(m)
        kept = b.copy()
        assert estimator.cho_solve(chol, b).tobytes() == cho_solve(ref, b).tobytes()
        assert b.tobytes() == kept.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 300),
        lam=st.sampled_from(LAMBDA_GRID),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_non_positive_definite_names_lambda(self, m, lam, seed):
        # Pull one random direction v below zero: v'(k0 + lam*m*I)v = -1.
        k0 = _spd_system(seed, m)
        v = np.random.default_rng(seed + 1).standard_normal(m)
        v /= np.linalg.norm(v)
        k0 -= (float(v @ k0 @ v) + lam * m + 1.0) * np.outer(v, v)
        system = k0 + lam * m * np.eye(m)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(system, lower=True)
        with pytest.raises(SingularMatrixError, match=re.escape(f"lambda={lam!r}")):
            estimator._fit_coefficients(k0, lam)

    def test_factor_overwrites_its_argument(self):
        a = _spd_system(0, 5)
        c = estimator.cho_factor(a)
        assert c is a or np.shares_memory(c, a)

    def test_illegal_argument_raises_value_error(self, monkeypatch):
        # A negative dpotrf info, or any non-zero dpotrs info, names an
        # argument LAPACK refused; the estimator's own arrays never cause one.
        a = _spd_system(0, 5)
        monkeypatch.setattr(_lapack, "dpotrf", lambda a, **options: (a, -2))
        with pytest.raises(ValueError, match="^dpotrf: illegal value in argument 2$"):
            _lapack.cho_factor(a)
        monkeypatch.setattr(_lapack, "dpotrs", lambda c, b, **options: (b, -3))
        with pytest.raises(ValueError, match="^dpotrs: illegal value in argument 3$"):
            _lapack.cho_solve(a, np.ones(5))


def _traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call made after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """A kernel fit holds one m x m array at a time beside K0 and factorises
    in it, and a split assembles K0, K10 and K1 in order of use, letting each
    go once read.  The fit keeps the bytes of a factor of a fresh copy of k0."""

    @pytest.mark.parametrize("n, m", [(1000, 600), (2000, 1000)])
    def test_split_holds_two_square_matrices(self, n, m, make_gaussian_dataset):
        # Two m x m matrices are 2.0; the rest is the kernel assembly's
        # workspace (seven buffers of about 2**15 entries: 0.23 and 0.58 of
        # 8m^2 here) and the pivoted factor's rows.
        data = make_gaussian_dataset(n, seed=n)
        plan = random_split(n, m, seed=0)
        unit = 8 * m * m
        split = _traced_peak(
            lambda: cf_split_estimate(data, plan, PARAMS, compute_discrepancy=True)
        )
        weights = _traced_peak(lambda: cf_weights(data, plan, PARAMS))
        assert split < 2.5 * unit
        assert weights < 2.5 * unit

    def test_select_lambda_checks_make_no_square_temporary(self, make_gaussian_dataset):
        # The search's scratch is the one m x m array.
        m = 1000
        k0 = gram_matrix(make_gaussian_dataset(m, seed=m), PARAMS)
        assert _traced_peak(lambda: select_lambda(k0)) < 1.5 * 8 * m * m

    def test_multisplit_gathers_no_whole_rows(self, make_gaussian_dataset):
        # The whole Gram (8n^2, 30.5 MiB), a fit's two m x m matrices and K10
        # (7.6 MiB each).  Gathering each block's rows whole before taking
        # its columns held a 1000 x 2000 copy more and peaked at 61.1 MiB.
        data = make_gaussian_dataset(2000, seed=12)
        peak = _traced_peak(lambda: cf_multisplit_estimate(data, 4, 0.5, PARAMS, seed=3))
        assert peak < (61.1 - 10.0) * 2**20

    @pytest.mark.parametrize("m", [150, 250], ids=["eigvalsh", "guarded"])
    @pytest.mark.parametrize("given", [False, True], ids=["rule", "given"])
    def test_fit_has_the_bytes_of_a_fresh_copy(self, m, given, make_gaussian_dataset):
        k0 = gram_matrix(make_gaussian_dataset(m, seed=m), PARAMS)
        kept = k0.copy()
        lam = 1e-6 if given else eigvalsh_rule(k0)
        fit = estimator._fit_coefficients(k0, lam if given else None)
        system = np.array(k0.T, order="F")
        system[np.arange(m), np.arange(m)] += lam * m
        ref = cho_factor(system, lower=True)
        z = cho_solve(ref, np.ones(m))
        assert fit.lam == lam
        assert fit.chol.tobytes(order="F") == ref[0].tobytes(order="F")
        assert fit.z.tobytes() == z.tobytes()
        assert repr(fit.q) == repr(float(np.ones(m) @ z))
        assert k0.tobytes() == kept.tobytes()


class TestSplitEstimate:
    def test_decomposition_identity(self, make_gaussian_dataset):
        data = make_gaussian_dataset(30, seed=7)
        est = cf_split_estimate(data, random_split(30, 15, seed=1), PARAMS)
        assert est.value == pytest.approx(est.term_star + est.term_star_star, rel=1e-12)
        assert est.method == "cf-split"
        assert (est.m, est.n) == (15, 30)

    def test_constant_integrand_scales_with_weight_sum(self, make_gaussian_dataset):
        # The estimator is linear with f-independent weights, so a constant
        # integrand returns c0 * sum(w) (the sum is 1 only up to a
        # stochastically small deficit; see the weight tests).
        base = make_gaussian_dataset(16, seed=8)
        c0 = 3.0
        data = ScoredDataset(base.points, base.scores, np.full(16, c0))
        plan = random_split(16, 8, seed=2)
        lam = 1e-10
        est = cf_split_estimate(data, plan, PARAMS, lambda_=lam)
        w = cf_weights(data, plan, PARAMS, lambda_=lam)
        assert est.value == pytest.approx(c0 * w.sum(), rel=1e-10)
        assert abs(est.value - c0) < 0.1 * abs(c0)

    def test_beats_arithmetic_mean_on_smooth_problem(self, make_gaussian_dataset):
        cf_errors, mean_errors = [], []
        for seed in range(20):
            data = make_gaussian_dataset(50, seed=100 + seed)
            est = cf_split_estimate(data, random_split(50, 25, seed=seed), PARAMS)
            cf_errors.append(abs(est.value))
            mean_errors.append(abs(np.mean(data.f_values)))
        assert np.median(cf_errors) < np.median(mean_errors)

    def test_error_bound_for_space_members(self):
        for seed in range(5):
            func = make_rkhs_function(seed=20 + seed)
            data = dataset_from_function(func, n=24, seed=50 + seed)
            plan = random_split(24, 12, seed=seed)
            lam = 1e-12
            est = cf_split_estimate(data, plan, PARAMS, lambda_=lam)
            d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
            radius = np.sqrt(split_discrepancy(d0, d1, PARAMS, lambda_=lam)) * func.norm_hplus()
            assert abs(est.value - func.c) <= radius * (1.0 + 1e-6)

    def test_requires_evaluation_samples(self, make_gaussian_dataset):
        data = make_gaussian_dataset(6)
        plan = SplitPlan(index_d0=np.arange(6), index_d1=np.arange(0))
        with pytest.raises(InvalidInputError):
            cf_split_estimate(data, plan, PARAMS)

    def test_plan_m_is_the_fitting_set_size(self):
        plan = SplitPlan(index_d0=np.array([3, 0]), index_d1=np.array([1, 2, 4]))
        assert (plan.m, plan.n) == (2, 5)
        with pytest.raises(InvalidInputError, match="index_d0 must select at least one sample"):
            SplitPlan(index_d0=np.arange(0), index_d1=np.arange(4))
        with pytest.raises(InvalidInputError, match="must partition"):
            SplitPlan(index_d0=np.arange(2), index_d1=np.arange(3, 5))

    def test_plan_takes_only_1d_integer_indices(self):
        # As int, [0.9, 1.2] would be D0 = {0, 1}.
        with pytest.raises(InvalidInputError, match="must be integers, got dtype float64"):
            SplitPlan([0.9, 1.2], [2.0])
        with pytest.raises(InvalidInputError, match=r"1-D array, got shape \(1, 2\)"):
            SplitPlan(np.array([[0, 1]]), np.array([2]))
        plan = SplitPlan([1, 0], [])  # an empty list is a float array
        assert (plan.m, plan.n) == (2, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128, np.str_, object])
    def test_plan_refuses_every_non_integer_dtype(self, dtype):
        index_d0 = np.array([0, 1]).astype(dtype)
        with pytest.raises(InvalidInputError, match="must be integers, got dtype"):
            SplitPlan(index_d0, np.array([2]))
        with pytest.raises(InvalidInputError, match="must be integers, got dtype"):
            SplitPlan(np.array([2]), index_d0)

    def test_plan_takes_unsigned_indices(self):
        plan = SplitPlan(np.array([2, 0], dtype=np.uint8), np.array([1], dtype=np.uint64))
        assert plan.index_d0.tolist() == [2, 0] and plan.index_d1.tolist() == [1]
        assert plan.index_d0.dtype == plan.index_d1.dtype == np.dtype(int)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_random_split_partitions_the_indices(self, sizes, seed, index):
        # random_split builds its plan without SplitPlan's checks, which its
        # permutation must pass anyway: two 1-D integer index arrays that
        # partition 0..n-1, the first of m indices.
        n, m = sizes
        plan = random_split(n, m, seed, index)
        d0, d1 = plan.index_d0, plan.index_d1
        assert d0.dtype == d1.dtype == np.dtype(int)
        assert d0.ndim == d1.ndim == 1
        assert (plan.m, plan.n) == (m, n)
        assert np.array_equal(np.sort(np.concatenate([d0, d1])), np.arange(n))
        checked = SplitPlan(d0, d1)
        assert checked.index_d0.tobytes() == d0.tobytes()
        assert checked.index_d1.tobytes() == d1.tobytes()

    def test_weights_require_evaluation_samples(self, make_gaussian_dataset):
        data = make_gaussian_dataset(6)
        plan = SplitPlan(index_d0=np.arange(6), index_d1=np.arange(0))
        with pytest.raises(InvalidInputError, match=r"no evaluation samples \(a split needs m < n\)"):
            cf_weights(data, plan, PARAMS)

    def test_explicit_lambda_recorded(self, make_gaussian_dataset):
        data = make_gaussian_dataset(12, seed=9)
        est = cf_split_estimate(data, random_split(12, 6, seed=3), PARAMS, lambda_=1e-4)
        assert est.lambda_used == 1e-4

    def test_discrepancy_attached_on_request(self, make_gaussian_dataset):
        data = make_gaussian_dataset(12, seed=10)
        est = cf_split_estimate(
            data, random_split(12, 6, seed=4), PARAMS, compute_discrepancy=True
        )
        assert est.discrepancy is not None and est.discrepancy >= 0.0


class TestEstimateRecord:
    """An Estimate refuses a record that contradicts itself."""

    def test_refuses_a_value_that_does_not_decompose(self):
        fields = dict(method="cf-split", n=8, m=4, lambda_used=1e-3)
        with pytest.raises(NumericalError, match="does not decompose into 0.25 \\+ 0.5"):
            Estimate(value=1.0, term_star=0.25, term_star_star=0.5, **fields)
        # Within 1e-12 relative the value is the sum of its terms; beyond, not.
        est = Estimate(value=0.75 + 1e-13, term_star=0.25, term_star_star=0.5, **fields)
        assert est.value == 0.75 + 1e-13
        with pytest.raises(NumericalError, match="does not decompose"):
            Estimate(value=0.75 + 1e-11, term_star=0.25, term_star_star=0.5, **fields)
        assert Estimate(value=1.0, term_star=None, term_star_star=0.5, **fields).value == 1.0

    def test_refuses_a_negative_discrepancy(self):
        fields = dict(value=0.5, method="cf-split", n=8, m=4, lambda_used=1e-3)
        with pytest.raises(InvalidInputError, match="discrepancy must be non-negative"):
            Estimate(discrepancy=-1e-300, **fields)
        assert Estimate(discrepancy=0.0, **fields).discrepancy == 0.0


class TestSimplifiedEstimate:
    def test_constant_integrand_shrinks_toward_zero(self, make_gaussian_dataset):
        base = make_gaussian_dataset(10, seed=11)
        c0 = 2.0
        data = ScoredDataset(base.points, base.scores, np.full(10, c0))
        est = cf_simplified_estimate(data, PARAMS, lambda_=0.0)
        assert 0.0 < est.value < c0

    def test_single_sample_scalar_algebra(self):
        x = np.array([[-0.9]])
        data = ScoredDataset(x, -x, np.array([4.0]))
        lam = 1e-3
        k00 = stein_kernel(x[0], -x[0], x[0], -x[0], PARAMS)
        a = 1.0 / (k00 + lam)  # n = 1, so the jitter is lam * 1
        est = cf_simplified_estimate(data, PARAMS, lambda_=lam)
        assert est.value == pytest.approx(4.0 * a / (1.0 + a), rel=1e-12)

    def test_only_surrogate_term_populated(self, make_gaussian_dataset):
        est = cf_simplified_estimate(make_gaussian_dataset(8, seed=12), PARAMS)
        assert est.term_star is None
        assert est.term_star_star == est.value
        assert est.m == est.n == 8


class TestWeights:
    def test_weights_reproduce_estimate(self, make_gaussian_dataset):
        for seed in range(10):
            n = 10 + 3 * seed
            m = n // 2
            data = make_gaussian_dataset(n, d=1 + seed % 2, seed=200 + seed)
            plan = random_split(n, m, seed=seed)
            lam = 1e-8
            est = cf_split_estimate(data, plan, PARAMS, lambda_=lam)
            w = cf_weights(data, plan, PARAMS, lambda_=lam)
            assert w @ data.f_values == pytest.approx(est.value, rel=1e-10)

    def test_weight_sum_matches_closed_form_deficit(self, make_gaussian_dataset):
        # 1'w = 1 - s/((n-m)(1+q)) exactly, with s = 1'K10 A^-1 1 and
        # q = 1'A^-1 1; the deficit vanishes only in expectation.
        data = make_gaussian_dataset(18, seed=13)
        plan = random_split(18, 9, seed=5)
        lam = 1e-8
        w = cf_weights(data, plan, PARAMS, lambda_=lam)
        d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
        k0 = gram_matrix(d0, PARAMS)
        k10 = stein_kernel_matrix(d1.points, d1.scores, d0.points, d0.scores, PARAMS)
        chol = cho_factor(k0 + lam * d0.n * np.eye(d0.n), lower=True)
        ones = np.ones(d0.n)
        q = float(ones @ cho_solve(chol, ones))
        s = float(np.ones(d1.n) @ k10 @ cho_solve(chol, ones))
        assert w.sum() == pytest.approx(1.0 - s / (d1.n * (1.0 + q)), abs=1e-12)

    def test_distant_fitting_block_gets_zero_weight(self):
        # With the evaluation points 50 units away every cross kernel value
        # underflows to exactly zero, so the fitting samples cannot influence
        # the estimate: their weights vanish and the estimate is the plain
        # mean over the evaluation half.
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((6, 1))
        x1 = 50.0 + 0.1 * rng.standard_normal((4, 1))
        points = np.vstack([x0, x1])
        scores = -points
        f = rng.standard_normal(10)
        data = ScoredDataset(points, scores, f)
        plan = SplitPlan(index_d0=np.arange(6), index_d1=np.arange(6, 10))
        w = cf_weights(data, plan, PARAMS, lambda_=1e-10)
        np.testing.assert_array_equal(w[:6], np.zeros(6))
        np.testing.assert_allclose(w[6:], 0.25)
        est = cf_split_estimate(data, plan, PARAMS, lambda_=1e-10)
        assert est.value == pytest.approx(np.mean(f[6:]), rel=1e-12)

    def test_weights_reused_across_integrands(self, make_gaussian_dataset):
        # Two integrands with well-separated means: the single weight vector
        # prices both.
        base = make_gaussian_dataset(20, seed=15)
        rng = np.random.default_rng(16)
        g_values = 2.0 + rng.standard_normal(20)
        h_values = -5.0 + 0.5 * rng.standard_normal(20)
        plan = random_split(20, 10, seed=6)
        lam = 1e-8
        w = cf_weights(base, plan, PARAMS, lambda_=lam)
        est_g = cf_split_estimate(
            ScoredDataset(base.points, base.scores, g_values), plan, PARAMS, lambda_=lam
        )
        est_h = cf_split_estimate(
            ScoredDataset(base.points, base.scores, h_values), plan, PARAMS, lambda_=lam
        )
        assert w @ g_values == pytest.approx(est_g.value, rel=1e-10)
        assert w @ h_values == pytest.approx(est_h.value, rel=1e-10)

    def test_linearity_in_the_integrand(self, make_gaussian_dataset):
        base = make_gaussian_dataset(16, seed=17)
        rng = np.random.default_rng(18)
        g_values = rng.standard_normal(16)
        plan = random_split(16, 8, seed=7)
        lam = 1e-8
        a, b = 2.0, -3.5
        combo = ScoredDataset(
            base.points, base.scores, a * base.f_values + b * g_values
        )
        est_combo = cf_split_estimate(combo, plan, PARAMS, lambda_=lam)
        est_f = cf_split_estimate(base, plan, PARAMS, lambda_=lam)
        est_g = cf_split_estimate(
            ScoredDataset(base.points, base.scores, g_values), plan, PARAMS, lambda_=lam
        )
        assert est_combo.value == pytest.approx(
            a * est_f.value + b * est_g.value, rel=1e-10
        )


class TestMultisplit:
    def test_single_split_matches_split_estimator(self, make_gaussian_dataset):
        data = make_gaussian_dataset(20, seed=19)
        ms = cf_multisplit_estimate(data, 1, 0.5, PARAMS, seed=9)
        single = cf_split_estimate(data, random_split(20, 10, seed=9, index=0), PARAMS)
        assert ms.value == single.value
        assert ms.n_splits == 1

    def test_average_of_constituent_splits(self, make_gaussian_dataset):
        data = make_gaussian_dataset(20, seed=20)
        ms = cf_multisplit_estimate(data, 5, 0.5, PARAMS, seed=10)
        values = [
            cf_split_estimate(data, random_split(20, 10, seed=10, index=k), PARAMS).value
            for k in range(5)
        ]
        assert ms.value == pytest.approx(np.mean(values), rel=1e-15)

    def test_constant_integrand_near_constant(self, make_gaussian_dataset):
        base = make_gaussian_dataset(16, seed=21)
        data = ScoredDataset(base.points, base.scores, np.full(16, -1.5))
        ms = cf_multisplit_estimate(data, 4, 0.5, PARAMS, seed=11)
        assert ms.value == pytest.approx(-1.5, abs=0.1)

    def test_variance_non_increasing_in_splits(self, make_gaussian_dataset):
        # Paired across datasets: more splits never hurt beyond noise.
        v1, v4, v16 = [], [], []
        for rep in range(150):
            data = make_gaussian_dataset(40, seed=1000 + rep)
            v1.append(cf_multisplit_estimate(data, 1, 0.5, PARAMS, seed=rep).value)
            v4.append(cf_multisplit_estimate(data, 4, 0.5, PARAMS, seed=rep).value)
            v16.append(cf_multisplit_estimate(data, 16, 0.5, PARAMS, seed=rep).value)
        assert np.var(v4) <= np.var(v1) * 1.1
        assert np.var(v16) <= np.var(v4) * 1.1

    def test_degenerate_inputs_rejected(self, make_gaussian_dataset):
        data = make_gaussian_dataset(8)
        with pytest.raises(InvalidInputError):
            cf_multisplit_estimate(data, 0, 0.5, PARAMS, seed=0)
        with pytest.raises(InvalidInputError):
            cf_multisplit_estimate(data, 2, 1.0, PARAMS, seed=0)


class TestSplitFractionVariance:
    def test_half_split_beats_small_fitting_set(self, make_gaussian_dataset):
        # Estimator variance is much lower with half the samples fitting the
        # surrogate than with a tenth of them.
        half, tenth = [], []
        for rep in range(200):
            data = make_gaussian_dataset(50, seed=3000 + rep)
            half.append(
                cf_split_estimate(data, random_split(50, 25, seed=rep), PARAMS).value
            )
            tenth.append(
                cf_split_estimate(data, random_split(50, 5, seed=rep), PARAMS).value
            )
        assert np.var(half) < np.var(tenth)


class TestDiscrepancy:
    def test_diagonal_kernel_reduces_to_inverse_count(self):
        # Unit-diagonal kernel with no off-diagonal mass: D = 1/(n - m),
        # exactly.
        for m, n_minus_m in [(3, 3), (5, 2), (4, 7)]:
            value = discrepancy_of_blocks(
                np.eye(m), np.zeros((n_minus_m, m)), np.eye(n_minus_m), lambda_=0.0
            )
            assert value == 1.0 / n_minus_m

    def test_matches_weight_quadratic_form(self, make_gaussian_dataset):
        # D = (1'w - 1)^2 + w'Kw for the estimator weights: the squared
        # worst-case error has a constant-offset part from the weight-sum
        # deficit plus the kernel quadratic form.  The identity is exact at
        # lambda = 0, so it is checked on well-conditioned (d = 2) systems.
        for seed in range(5):
            data = make_gaussian_dataset(14 + seed, d=2, seed=400 + seed)
            n = data.n
            plan = random_split(n, n // 2, seed=seed)
            d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
            dval = split_discrepancy(d0, d1, PARAMS, lambda_=0.0)
            w = cf_weights(data, plan, PARAMS, lambda_=0.0)
            full = gram_matrix(data, PARAMS)
            expected = (w.sum() - 1.0) ** 2 + w @ full @ w
            assert dval == pytest.approx(expected, rel=1e-10, abs=1e-13)

    def test_nearby_evaluation_points_give_smaller_discrepancy(self):
        rng = np.random.default_rng(22)
        x0 = np.linspace(-2.0, 2.0, 12)[:, None]
        d0 = ScoredDataset(x0, -x0, np.zeros(12))
        near = x0 + 0.05 * rng.standard_normal((12, 1))
        far = x0 + 6.0
        d_near = ScoredDataset(near, -near, np.zeros(12))
        d_far = ScoredDataset(far, -far, np.zeros(12))
        assert split_discrepancy(d0, d_near, PARAMS) < split_discrepancy(d0, d_far, PARAMS)

    def test_small_negative_clamped_to_zero(self):
        value = discrepancy_of_blocks(
            np.eye(3), np.zeros((2, 3)), -1e-11 * np.eye(2), lambda_=0.0
        )
        assert value == 0.0

    def test_large_negative_raises(self):
        with pytest.raises(NumericalError):
            discrepancy_of_blocks(
                np.eye(3), np.zeros((2, 3)), -1e-6 * np.eye(2), lambda_=0.0
            )

    def test_singular_without_jitter_raises(self):
        with pytest.raises(SingularMatrixError):
            discrepancy_of_blocks(-np.eye(3), np.zeros((2, 3)), np.eye(2), lambda_=0.0)


class TestCrossValidate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=300))
    def test_residual_arithmetic_has_the_bits_of_numpy(self, values):
        # cross_validate scores by sqrt(r.r) and the split estimate averages
        # by r.sum()/r.size: np.linalg.norm's and np.mean's arithmetic on a
        # vector, without their dispatch.
        r = np.array(values)
        assert math.sqrt(r.dot(r)) == np.linalg.norm(r)
        assert r.sum() / r.size == np.mean(r)

    def test_singleton_grid_returned(self, make_gaussian_dataset):
        assert cross_validate(make_gaussian_dataset(10), [PARAMS], seed=0) == PARAMS

    def test_recovers_generating_hyperparameters(self):
        # f is drawn from the space of the true parameters; the mismatched
        # length-scale should lose the hold-out comparison almost always.
        wrong = SteinKernelParams(alpha1=0.1, alpha2=0.12)
        hits = 0
        for trial in range(100):
            func = make_rkhs_function(seed=5000 + trial)
            d0 = dataset_from_function(func, n=40, seed=6000 + trial)
            chosen = cross_validate(d0, [wrong, PARAMS], seed=trial)
            hits += chosen == PARAMS
        assert hits >= 80

    def test_selects_moderate_length_scale_on_smooth_problem(self, make_gaussian_dataset):
        grid = [
            SteinKernelParams(0.1, 0.08),
            SteinKernelParams(0.1, 1.0),
            SteinKernelParams(0.1, 15.0),
        ]
        wins = 0
        for trial in range(30):
            data = make_gaussian_dataset(50, seed=7000 + trial)
            if cross_validate(data, grid, seed=trial) == grid[1]:
                wins += 1
        assert wins >= 20

    def test_exact_tie_broken_by_grid_order(self, make_gaussian_dataset):
        data = make_gaussian_dataset(12, seed=23)
        first = SteinKernelParams(0.1, 1.0)
        duplicate = SteinKernelParams(0.1, 1.0)
        chosen = cross_validate(data, [first, duplicate], seed=0)
        assert chosen is first

    def test_all_failures_reported(self, make_gaussian_dataset):
        # Scores whose products overflow make every candidate's kernel
        # matrix non-finite, so every candidate fails and the error lists
        # each one.
        data = make_gaussian_dataset(10, seed=24)
        data = ScoredDataset(data.points, 1e200 * data.scores, data.f_values)
        grid = [PARAMS, SteinKernelParams(0.3, 2.0)]
        with pytest.raises(NumericalError, match="candidate 1"), np.errstate(over="ignore"):
            cross_validate(data, grid, seed=0)

    @pytest.mark.parametrize("score", [1e200, 1e308])
    def test_non_finite_held_out_errors_are_failures(self, score):
        # One huge score on the first test row makes every candidate's
        # held-out error inf (1e200) or nan (1e308) without raising; each is
        # listed as a failure, with its reason.
        x = np.random.default_rng(0).standard_normal((40, 1))
        u = -x
        perm = np.random.Generator(np.random.Philox(np.random.SeedSequence(0))).permutation(40)
        u[perm[20]] = score
        data = ScoredDataset(x, u, np.sin(np.pi * x[:, 0]))
        grid = [SteinKernelParams(0.1, a2) for a2 in (1.0, 2.0, 0.5)]
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as failed:
            cross_validate(data, grid, seed=0)
        listed = str(failed.value).splitlines()[1:]
        assert [line.split(" (")[0] for line in listed] == [f"candidate {i}" for i in range(3)]
        assert all("held-out error is " in line for line in listed)

    def test_preconditions(self, make_gaussian_dataset):
        data = make_gaussian_dataset(10)
        with pytest.raises(InvalidInputError):
            cross_validate(data, [], seed=0)
        with pytest.raises(InvalidInputError):
            cross_validate(make_gaussian_dataset(2), [PARAMS], seed=0)


class TestRkhsFunction:
    def test_norm_at_least_constant(self):
        for seed in range(5):
            func = make_rkhs_function(seed=seed)
            assert func.norm_hplus() >= abs(func.c)

    def test_norm_uses_the_symmetric_gram(self):
        func = make_rkhs_function(seed=27, d=2, n_centers=300)
        data = ScoredDataset(func.centers, func.center_scores, np.zeros(300))
        quad = float(func.gamma @ gram_matrix(data, PARAMS) @ func.gamma)
        assert func.norm_hplus() == np.sqrt(func.c**2 + max(quad, 0.0))

    def test_evaluate_matches_direct_expansion(self):
        func = make_rkhs_function(seed=26, n_centers=4)
        x = np.array([[0.3], [-1.2]])
        values = func.evaluate(x, -x)
        for i in range(2):
            expansion = func.c + sum(
                func.gamma[j]
                * stein_kernel(func.centers[j], func.center_scores[j], x[i], -x[i], PARAMS)
                for j in range(4)
            )
            assert values[i] == pytest.approx(expansion, rel=1e-12)

    def test_evaluate_on_no_points(self):
        func = make_rkhs_function(seed=28, d=2)
        values = func.evaluate(np.empty((0, 2)), np.empty((0, 2)))
        assert values.shape == (0,)

    def test_quadrature_confirms_exact_mean(self):
        # Independent check of the zero-mean property: the mean of f is c.
        from scipy import integrate

        func = make_rkhs_function(seed=27, n_centers=3)

        def integrand(x):
            xv = np.array([[x]])
            return float(
                func.evaluate(xv, -xv)[0] * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
            )

        value, _ = integrate.quad(integrand, -12, 12, epsabs=1e-12, limit=300)
        assert value == pytest.approx(func.c, abs=1e-8)

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            RkhsFunction(
                c=0.0,
                centers=np.zeros((3, 1)),
                center_scores=np.zeros((2, 1)),
                gamma=np.zeros(3),
                params=PARAMS,
            )


# Two well-separated modes, d = 1: samples whose analytic scores are large
# between the modes.
BIMODAL = mixture_problem(weights=[0.5, 0.5], means=[-2.0, 2.0], scales=[0.5, 0.5])


@st.composite
def split_instances(draw, repeats=True):
    """A random split of a sample, n in [3, 30]: standard-Gaussian points in
    d in {1, 2}, or draws of ``BIMODAL`` with its scores and f(x) = x.  With
    ``repeats``, some samples are MCMC-shaped: their n rows repeat a few
    states, as a chain's rejected moves do."""
    n = draw(st.integers(3, 30))
    m = draw(st.integers(1, n - 1))
    bimodal = draw(st.booleans())
    d = 1 if bimodal else draw(st.sampled_from((1, 2)))
    states = draw(st.none() | st.integers(1, n - 1)) if repeats else None
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = BIMODAL.sampler(rng, n) if bimodal else rng.standard_normal((n, d))
    if states is not None:
        points = points[rng.integers(states, size=n)]
    if bimodal:
        data = ScoredDataset(points, BIMODAL.score(points), BIMODAL.integrand(points))
    else:
        data = ScoredDataset(points, -points, np.sin((np.pi / d) * points.sum(axis=1)))
    return data, random_split(n, m, seed=seed)


# Below 1e-7 the rounding of the less well conditioned systems exceeds the
# tolerances of the deterministic tests (5e-8 relative for D at 1e-10).
WELL_CONDITIONED_LAMBDAS = tuple(lam for lam in LAMBDA_GRID if lam >= 1e-7)


class TestSplitCoreProperties:
    """Identities of the split solve over random splits, dimensions and lambdas."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(split_instances(), st.sampled_from(WELL_CONDITIONED_LAMBDAS))
    def test_weights_reproduce_estimate(self, instance, lam):
        data, plan = instance
        est = cf_split_estimate(data, plan, PARAMS, lambda_=lam)
        w = cf_weights(data, plan, PARAMS, lambda_=lam)
        assert w @ data.f_values == pytest.approx(est.value, rel=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(split_instances(), st.sampled_from(WELL_CONDITIONED_LAMBDAS))
    def test_discrepancy_is_weight_quadratic_form(self, instance, lam):
        # D = (1'w - 1)^2 + w'Kw, where the D0 block of K carries the same
        # jitter lam*m*I as the factorised system (none at lambda = 0).
        data, plan = instance
        d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
        dval = split_discrepancy(d0, d1, PARAMS, lambda_=lam)
        w = cf_weights(data, plan, PARAMS, lambda_=lam)
        full = gram_matrix(data, PARAMS)
        full[plan.index_d0, plan.index_d0] += lam * plan.m
        expected = (w.sum() - 1.0) ** 2 + w @ full @ w
        assert dval == pytest.approx(expected, rel=1e-10, abs=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True)
    # Without repeated rows: at lambda = 1e-16 a repeated state can leave K0
    # singular, and both routes raise.
    @given(split_instances(repeats=False), st.sampled_from((None,) + LAMBDA_GRID))
    def test_attached_discrepancy_equals_standalone(self, instance, lam):
        data, plan = instance
        est = cf_split_estimate(data, plan, PARAMS, lambda_=lam, compute_discrepancy=True)
        d0, d1 = data.subset(plan.index_d0), data.subset(plan.index_d1)
        assert est.discrepancy == split_discrepancy(d0, d1, PARAMS, lambda_=lam)


# Small length-scale: far pairs underflow to 0, where a freshly assembled
# cross block can hold -0.0 and a slice of the symmetric Gram holds +0.0.
NARROW = SteinKernelParams(alpha1=0.3, alpha2=0.05)


@st.composite
def cache_requests(draw):
    """A d = 1 sample and two random ordered row subsets of it."""
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = draw(st.sampled_from((1.0, 3.0))) * rng.standard_normal((n, 1))
    data = ScoredDataset(points, -points, np.sin(np.pi * points[:, 0]))
    rows = rng.permutation(n)[: draw(st.integers(1, n))]
    cols = rng.permutation(n)[: draw(st.integers(1, n))]
    return data, rows, cols


class TestKernelCache:
    """Blocks sliced by ``_block`` from the shared Gram of a ``_GramRows``
    view against freshly assembled ones."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cache_requests(), st.sampled_from((PARAMS, NARROW)))
    def test_d1_slices_equal_fresh_blocks(self, request, params):
        data, rows, cols = request
        shared = estimator._GramRows(data, {params})
        fresh = gram_matrix(data.subset(rows), params)
        assert estimator._block(shared, params, rows, rows).tobytes() == fresh.tobytes()
        cross = stein_kernel_matrix(
            data.points[rows], data.scores[rows], data.points[cols], data.scores[cols], params
        )
        block = estimator._block(shared, params, rows, cols)
        assert block.flags.c_contiguous
        # Equal bytes up to the sign of zero, which adding 0.0 makes +0.0.
        assert (block + 0.0).tobytes() == (cross + 0.0).tobytes()
        if params is PARAMS:
            assert block.tobytes() == cross.tobytes()
        for unshared in (data, estimator._GramRows(data, ())):
            assert estimator._block(unshared, params, rows, rows).tobytes() == fresh.tobytes()
            assert estimator._block(unshared, params, rows, cols).tobytes() == cross.tobytes()

    @pytest.mark.parametrize("entries", [2**15, 2**10], ids=["module", "small"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_strip_gather_has_the_bytes_of_whole_rows(
        self, monkeypatch, d, entries, make_gaussian_dataset
    ):
        # K0 and K10 of a split against the gather of whole rows then columns.
        # At n = 600 a strip is 54 rows (the module's budget) or 1 row, so the
        # 300 rows of K0 and K10 take 6 strips, the last one ragged, or 300.
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", entries)
        data = make_gaussian_dataset(600, d=d, seed=d)
        view = estimator._GramRows(data, {PARAMS})
        plan = random_split(600, 300, seed=9)
        i0, i1 = plan.index_d0, plan.index_d1
        estimator._block(view, PARAMS, i0, i0)
        gram = view.grams[PARAMS]
        for rows, cols in ((i0, i0), (i1, i0)):
            block = estimator._block(view, PARAMS, rows, cols)
            assert block.flags.c_contiguous
            assert block.tobytes() == gram[rows].take(cols, axis=1).tobytes()
        every = slice(None)
        assert np.shares_memory(estimator._block(view, PARAMS, every, every), gram)

    def test_shared_gram_assembled_once_and_read_only(self, assembled, make_gaussian_dataset):
        data = make_gaussian_dataset(30, d=3, seed=4)
        view = estimator._GramRows(data, {PARAMS})
        rows, cols = np.arange(0, 30, 2), np.arange(29, 0, -3)
        for _ in range(2):
            estimator._block(view, PARAMS, rows, rows)
            estimator._block(view, PARAMS, rows, cols)
        # A subset of the view slices the same Gram, at its own rows' places.
        part = estimator._block(view.subset(rows), PARAMS, np.arange(5), np.arange(5, 15))
        whole = estimator._block(view, PARAMS, slice(None), slice(None))
        assert assembled == [(30, 30, True, PARAMS)]
        assert part.tobytes() == whole[np.ix_(rows[:5], rows[5:15])].tobytes()
        assert whole.tobytes() == gram_matrix(data, PARAMS).tobytes()
        with pytest.raises(ValueError):
            whole[0, 0] = 1.0

    def test_view_assembles_its_shared_kernels_in_one_call(
        self, assembled, make_gaussian_dataset
    ):
        # The first block request for any shared kernel assembles all of
        # them in one pass; later requests, of every kernel and from
        # subsets, slice those Grams.
        data = make_gaussian_dataset(40, d=3, seed=11)
        grid = [SteinKernelParams(0.1, a2) for a2 in (0.5, 1.0, 1.5)] + [NARROW]
        view = estimator._GramRows(data, grid)
        rows, cols = np.arange(0, 40, 3), np.arange(39, 0, -4)
        estimator._block(view.subset(rows), grid[2], np.arange(5), np.arange(5, 10))
        for params in grid:
            estimator._block(view, params, rows, rows)
            estimator._block(view, params, rows, cols)
        calls = list(assembled)
        assert len(calls) == 1 and calls[0][:3] == (40, 40, True)
        assert sorted(map(repr, calls[0][3:])) == sorted(map(repr, grid))
        for params in grid:
            assert view.grams[params].tobytes() == gram_matrix(data, params).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_view_rows_have_the_bytes_of_subset(self, n, d, seed):
        # A view takes its rows straight from the whole dataset, with no
        # second ScoredDataset check: they must be the rows subset gives,
        # at every depth of subsets, repeated rows included.
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, d))
        data = ScoredDataset(points, -points, rng.standard_normal(n))
        view, plain = estimator._GramRows(data, {PARAMS}), data
        for _ in range(2):
            index = rng.integers(0, len(view), rng.integers(1, 2 * n))
            view, plain = view.subset(index), plain.subset(index)
            assert len(view) == len(plain) == index.size
            for name in ("points", "scores", "f_values"):
                rows, want = getattr(view, name), getattr(plain, name)
                assert rows.dtype == want.dtype and rows.shape == want.shape
                assert rows.flags.c_contiguous
                assert rows.tobytes() == want.tobytes()
        whole = estimator._GramRows(data, {PARAMS})
        assert whole.points is data.points and whole.f_values is data.f_values
        with pytest.raises(InvalidInputError, match=f"must lie in 0..{n - 1}"):
            whole.subset([n])

    @pytest.mark.parametrize("view", [False, True])
    def test_subset_refuses_boolean_mask(self, make_gaussian_dataset, view):
        data = make_gaussian_dataset(5, seed=7)
        rows = estimator._GramRows(data, {PARAMS}) if view else data
        picked = rows.subset([0, 2])
        np.testing.assert_array_equal(picked.points, data.points[[0, 2]])
        for mask in ([True, False, True, False, False], np.arange(5) % 2 == 0):
            with pytest.raises(InvalidInputError, match="boolean mask"):
                rows.subset(mask)

    @pytest.mark.parametrize("view", [False, True])
    def test_subset_refuses_fractional_indices(self, make_gaussian_dataset, view):
        # As int, 0.9 would pick row 0.
        data = make_gaussian_dataset(5, seed=7)
        rows = estimator._GramRows(data, {PARAMS}) if view else data
        with pytest.raises(InvalidInputError, match="must be integers, got dtype float64"):
            rows.subset([0.9])

    @pytest.mark.parametrize("d", [1, 3])
    def test_unshared_kernel_of_a_view_is_assembled(self, d, assembled, make_gaussian_dataset):
        # A view's kernel that it does not share is assembled from the view's
        # own rows, block by block, with the bytes of the plain dataset's.
        # At d = 3 a slice of the whole Gram differs from this K0 in the
        # last bit, so the bytes tell an assembled block from a slice.
        data = make_gaussian_dataset(40, d=d, seed=8)
        index = random_split(40, 30, seed=2).index_d0
        view = estimator._GramRows(data, {NARROW}).subset(index)
        plain = data.subset(index)
        plan = random_split(30, 20, seed=4)
        i0, i1 = plan.index_d0, plan.index_d1
        for rows, cols in ((i0, i0), (i1, i0), (i1, i1)):
            block = estimator._block(view, PARAMS, rows, cols)
            assert block.tobytes() == estimator._block(plain, PARAMS, rows, cols).tobytes()
        blocks = [(20, 20, True, PARAMS), (10, 20, False, PARAMS), (10, 10, True, PARAMS)]
        assert assembled == [call for block in blocks for call in (block, block)]

    @pytest.mark.parametrize("bound", [False, True])
    def test_lone_split_assembles_only_its_blocks(self, assembled, make_gaussian_dataset, bound):
        n, m = 40, 20
        cf_split_estimate(
            make_gaussian_dataset(n, seed=5), random_split(n, m, seed=1), PARAMS,
            compute_discrepancy=bound,
        )
        expected = [(m, m, True, PARAMS), (n - m, m, False, PARAMS)]
        assert assembled == expected + ([(n - m, n - m, True, PARAMS)] if bound else [])

    def test_multisplit_assembles_one_gram(self, assembled, make_gaussian_dataset):
        data = make_gaussian_dataset(40, seed=6)
        cf_multisplit_estimate(data, 4, 0.5, PARAMS, seed=3)
        assert assembled == [(40, 40, True, PARAMS)]

    @pytest.mark.parametrize("d", [1, 3])
    def test_shared_cross_validation_picks_as_public(self, d, make_gaussian_dataset):
        pairs = ((0.1, 0.3), (0.1, 1.0), (0.1, 2.0), (0.05, 1.5))
        grid = [SteinKernelParams(a1, a2) for a1, a2 in pairs]
        for trial in range(8):
            data = make_gaussian_dataset(60, d=d, seed=300 + trial)
            index = random_split(60, 30, seed=trial).index_d0
            rows = estimator._GramRows(data, grid).subset(index)
            chosen = cross_validate(rows, grid, seed=trial)
            assert chosen == cross_validate(data.subset(index), grid, seed=trial)
