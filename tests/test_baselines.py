import numpy as np
import pytest

from cfmc import (
    InvalidInputError,
    ScoredDataset,
    arithmetic_mean,
    gaussian_problem,
    riemann_1d,
    zv_estimate,
)
from cfmc import baselines
from cfmc.baselines import zv_basis


class TestArithmeticMean:
    def test_single_value(self):
        assert arithmetic_mean([3.0]) == 3.0

    def test_small_vector(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_constant_vector(self):
        assert arithmetic_mean(np.full(7, -4.25)) == -4.25

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            arithmetic_mean([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            arithmetic_mean([1.0, np.nan])


class TestZvBasis:
    def test_degree_one_is_score(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((6, 3))
        scores = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(zv_basis(points, scores, 1), scores)

    @pytest.mark.parametrize("d, width", [(3, 3 + 6), (2, 2 + 3)])
    def test_degree_two_column_count(self, d, width):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((10, d))
        scores = rng.standard_normal((10, d))
        basis = zv_basis(points, scores, 2)
        assert basis.shape == (10, width)

    def test_square_monomial_column(self):
        # P = x_k^2 gives laplacian 2 and gradient 2 x_k e_k.
        points = np.array([[1.5], [-0.5]])
        scores = np.array([[2.0], [1.0]])
        basis = zv_basis(points, scores, 2)
        np.testing.assert_allclose(basis[:, 1], 2.0 + 2.0 * points[:, 0] * scores[:, 0])

    def test_cross_monomial_column(self):
        # P = x_1 x_2 gives psi = x_2 u_1 + x_1 u_2.
        points = np.array([[1.0, 3.0]])
        scores = np.array([[0.5, -2.0]])
        basis = zv_basis(points, scores, 2)
        assert basis[0, -1] == pytest.approx(3.0 * 0.5 + 1.0 * (-2.0))

    def test_invalid_degree(self):
        with pytest.raises(InvalidInputError):
            zv_basis(np.zeros((3, 1)), np.zeros((3, 1)), 3)


class TestZvEstimate:
    def test_exact_for_linear_integrand(self):
        # f(x) = x under N(0,1): the degree-1 basis contains -x, so the
        # residual is identically zero and the estimate equals the true mean.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((20 + 5 * seed, 1))
            data = ScoredDataset(x, -x, x[:, 0].copy())
            est = zv_estimate(data, degree=1)
            assert abs(est.value) < 1e-10
            assert est.method == "zv1"

    def test_exact_for_quadratic_integrand(self):
        # f(x) = x^2 is spanned by {1, 2 - 2x^2} under the standard normal.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 1))
        data = ScoredDataset(x, -x, x[:, 0] ** 2)
        est = zv_estimate(data, degree=2)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_zero_scores_degenerate_to_mean(self):
        # With u identically zero the degree-1 basis vanishes; the
        # minimum-norm regression gives zero coefficients and the estimate
        # falls back to the arithmetic mean.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((12, 2))
        f = rng.standard_normal(12)
        data = ScoredDataset(x, np.zeros_like(x), f)
        est = zv_estimate(data, degree=1)
        assert est.value == pytest.approx(np.mean(f), rel=1e-15)

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 3))
        data = ScoredDataset(x, -x, x[:, 0])
        # degree 2 in d=3 needs more than 9 samples
        with pytest.raises(InvalidInputError, match="lower degree"):
            zv_estimate(data, degree=2)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_builds_the_basis_once(self, monkeypatch, degree):
        calls = []

        def spy(*args):
            calls.append(args)
            return zv_basis(*args)

        monkeypatch.setattr(baselines, "zv_basis", spy)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 2))
        data = ScoredDataset(x, -x, np.sin(x[:, 0]))
        est = zv_estimate(data, degree=degree)
        assert len(calls) == 1
        basis = zv_basis(x, -x, degree)
        f = data.f_values
        coef, *_ = np.linalg.lstsq(basis - basis.mean(axis=0), f - f.mean(), rcond=None)
        assert est.value == float(np.mean(f - basis @ coef))


class TestRiemann1d:
    def test_density_mass_between_extremes(self):
        # f = 1: the trapezoid of the density over a wide, dense sample
        # captures nearly all the mass.
        problem = gaussian_problem(1)
        x = np.linspace(-5.0, 5.0, 2001)[:, None]
        data = ScoredDataset(x, -x, np.ones(2001))
        value = riemann_1d(data, problem.normalised_density)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_two_samples_single_panel(self):
        problem = gaussian_problem(1)
        x = np.array([[-1.0], [1.0]])
        data = ScoredDataset(x, -x, np.array([2.0, 4.0]))
        phi = problem.normalised_density
        expected = 0.5 * (2.0 * phi(-1.0) + 4.0 * phi(1.0)) * 2.0
        assert riemann_1d(data, phi) == pytest.approx(float(expected), rel=1e-12)

    def test_invariant_to_input_order(self):
        problem = gaussian_problem(1)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((40, 1))
        f = np.sin(np.pi * x[:, 0])
        data = ScoredDataset(x, -x, f)
        perm = rng.permutation(40)
        shuffled = ScoredDataset(x[perm], -x[perm], f[perm])
        assert riemann_1d(data, problem.normalised_density) == riemann_1d(
            shuffled, problem.normalised_density
        )

    def test_higher_dimension_rejected(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10, 2))
        data = ScoredDataset(x, -x, np.zeros(10))
        with pytest.raises(InvalidInputError, match="d=1"):
            riemann_1d(data, lambda v: v)

    def test_single_sample_rejected(self):
        data = ScoredDataset(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(InvalidInputError):
            riemann_1d(data, lambda v: v)
