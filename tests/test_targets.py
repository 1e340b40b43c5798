import numpy as np
import pytest
from scipy import integrate

from cfmc import InvalidInputError, TargetProblem, gaussian_problem, mixture_problem, oracle_mean


def fd_score(problem, points, step=1e-6):
    """Finite differences of the log density, dimension by dimension."""
    points = np.atleast_2d(points)
    n, d = points.shape
    out = np.zeros((n, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        out[:, j] = (
            problem.log_density(points + e) - problem.log_density(points - e)
        ) / (2 * step)
    return out


class TestGaussianProblem:
    def test_score_at_origin_vanishes(self):
        problem = gaussian_problem(2)
        np.testing.assert_array_equal(problem.score(np.zeros((1, 2))), np.zeros((1, 2)))

    def test_score_is_negated_point(self):
        problem = gaussian_problem(2)
        np.testing.assert_array_equal(
            problem.score(np.array([[1.0, 2.0]])), np.array([[-1.0, -2.0]])
        )

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_true_mean_is_zero(self, d):
        assert gaussian_problem(d).true_mean == 0.0

    def test_integrand_formula(self):
        problem = gaussian_problem(2)
        x = np.array([[0.5, 0.25]])
        assert problem.integrand(x)[0] == pytest.approx(np.sin(np.pi / 2 * 0.75), rel=1e-15)

    @pytest.mark.parametrize("d", [1, 3])
    def test_score_consistent_with_log_density(self, d):
        problem = gaussian_problem(d)
        rng = np.random.default_rng(d)
        points = rng.standard_normal((100, d))
        analytic = problem.score(points)
        numeric = fd_score(problem, points)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)

    def test_sampler_moments(self):
        problem = gaussian_problem(2)
        rng = np.random.default_rng(0)
        draws = problem.sampler(rng, 100_000)
        # mean within 5 standard errors of 0, variance within 5 of 1
        se_mean = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 5 * se_mean)
        se_var = np.sqrt(2.0 / draws.shape[0])
        assert np.all(np.abs(draws.var(axis=0) - 1.0) < 5 * se_var)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInputError):
            gaussian_problem(0)


class TestMixtureProblem:
    def test_single_component_reduces_to_gaussian_score(self):
        problem = mixture_problem(weights=[1.0], means=[0.7], scales=[2.0])
        x = np.array([[1.5], [-0.3]])
        expected = -(x - 0.7) / 4.0
        np.testing.assert_allclose(problem.score(x), expected, rtol=1e-12)

    def test_score_consistent_with_log_density(self):
        problem = mixture_problem(weights=[0.3, 0.7], means=[-1.0, 2.0], scales=[0.5, 1.5])
        rng = np.random.default_rng(1)
        points = rng.normal(scale=2.0, size=(100, 1))
        np.testing.assert_allclose(
            problem.score(points), fd_score(problem, points), rtol=1e-6, atol=1e-6
        )

    def test_symmetric_mixture_identity_integrand_has_zero_mean(self):
        problem = mixture_problem(weights=[0.5, 0.5], means=[-1.0, 1.0], scales=[0.5, 0.5])
        assert problem.true_mean is None  # ground truth comes from the oracle
        assert oracle_mean(problem) == pytest.approx(0.0, abs=1e-10)

    def test_second_moment_oracle(self):
        # Equal-weight N(-1, 0.5^2) + N(1, 0.5^2), f = x^2: analytic mean
        # 1 + 0.25 = 1.25; the quadrature oracle must agree to 1e-10 and an
        # independent wide-interval trapezoid to 1e-8.
        problem = mixture_problem(
            weights=[0.5, 0.5],
            means=[-1.0, 1.0],
            scales=[0.5, 0.5],
            integrand=lambda pts: np.atleast_2d(pts)[:, 0] ** 2,
        )
        value = oracle_mean(problem)
        assert value == pytest.approx(1.25, abs=1e-10)
        grid = np.linspace(-30.0, 30.0, 400_001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        independent = trapezoid(grid**2 * problem.normalised_density(grid), grid)
        assert value == pytest.approx(independent, abs=1e-8)

    def test_sampler_moments(self):
        problem = mixture_problem(weights=[0.5, 0.5], means=[-1.0, 1.0], scales=[0.5, 0.5])
        rng = np.random.default_rng(2)
        draws = problem.sampler(rng, 100_000)[:, 0]
        # mean 0, variance 1 + 0.25
        assert abs(draws.mean()) < 5 * np.sqrt(1.25 / draws.size)
        assert abs(draws.var() - 1.25) < 5 * 1.25 * np.sqrt(2.0 / draws.size)

    def test_density_integrates_to_one(self):
        problem = mixture_problem(weights=[2.0, 1.0], means=[0.0, 3.0], scales=[1.0, 0.25])
        grid = np.linspace(-20.0, 20.0, 200_001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        assert trapezoid(problem.normalised_density(grid), grid) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            mixture_problem(weights=[-0.5, 1.5], means=[0.0, 1.0], scales=[1.0, 1.0])
        with pytest.raises(InvalidInputError):
            mixture_problem(weights=[1.0], means=[0.0], scales=[0.0])
        with pytest.raises(InvalidInputError):
            mixture_problem(weights=[1.0, 1.0], means=[0.0], scales=[1.0, 1.0])


class TestOracleMean:
    def test_analytic_mean_returned_directly(self):
        assert oracle_mean(gaussian_problem(1)) == 0.0
        assert oracle_mean(gaussian_problem(5)) == 0.0

    def test_known_second_moment(self):
        # f(x) = x^2 under the standard normal has mean 1.
        base = gaussian_problem(1)
        problem = TargetProblem(
            name="x2",
            dimension=1,
            score=base.score,
            sampler=base.sampler,
            integrand=lambda pts: np.atleast_2d(pts)[:, 0] ** 2,
            true_mean=None,
            normalised_density=base.normalised_density,
            log_density=base.log_density,
        )
        assert oracle_mean(problem) == pytest.approx(1.0, abs=1e-10)

    def test_two_dimensional_second_moment(self):
        # E[x_1^2] = 1 under N(0, I_2), to the default tolerance of 1e-10.
        base = gaussian_problem(2)
        problem = TargetProblem(
            name="x1-squared-d2",
            dimension=2,
            score=base.score,
            sampler=base.sampler,
            integrand=lambda pts: np.atleast_2d(pts)[:, 0] ** 2,
            true_mean=None,
            normalised_density=lambda x: np.exp(-0.5 * np.sum(x * x)) / (2.0 * np.pi),
        )
        assert oracle_mean(problem) == pytest.approx(1.0, abs=1e-10)

    def test_one_dimensional_oracle_is_plain_quad(self):
        problem = mixture_problem(weights=[0.3, 0.7], means=[-1.0, 2.0], scales=[0.5, 1.2])

        def integrand(x):
            return float(problem.integrand(np.array([[x]]))[0] * problem.normalised_density(x))

        direct, _ = integrate.quad(
            integrand, -np.inf, np.inf, epsabs=1e-11, epsrel=1e-12, limit=400
        )
        assert oracle_mean(problem) == direct

    def test_refuses_a_quadrature_error_above_tolerance(self, monkeypatch):
        # nquad reports an error estimate of 1e-9, above the 1e-10 tolerance.
        base = gaussian_problem(1)
        problem = TargetProblem(
            name="x2",
            dimension=1,
            score=base.score,
            sampler=base.sampler,
            integrand=lambda pts: np.atleast_2d(pts)[:, 0] ** 2,
            true_mean=None,
            normalised_density=base.normalised_density,
        )
        monkeypatch.setattr(integrate, "nquad", lambda *args, **kwargs: (1.0, 1e-9))
        with pytest.raises(InvalidInputError, match="quadrature error estimate 1e-09 exceeds"):
            oracle_mean(problem)
        monkeypatch.setattr(integrate, "nquad", lambda *args, **kwargs: (1.0, 1e-10))
        assert oracle_mean(problem) == 1.0

    def test_unsupported_dimension_rejected(self):
        base = gaussian_problem(3)
        problem = TargetProblem(
            name="d3-no-analytic",
            dimension=3,
            score=base.score,
            sampler=base.sampler,
            integrand=base.integrand,
            true_mean=None,
        )
        with pytest.raises(InvalidInputError):
            oracle_mean(problem)

    def test_dataset_shapes(self):
        problem = gaussian_problem(3)
        rng = np.random.default_rng(3)
        data = problem.dataset(rng, 17)
        assert data.points.shape == (17, 3)
        assert data.scores.shape == (17, 3)
        assert data.f_values.shape == (17,)
        np.testing.assert_array_equal(data.scores, -data.points)
