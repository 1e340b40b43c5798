
import numpy as np
import pytest

from cfmc import (
    InvalidInputError,
    ScoredDataset,
    SteinKernelParams,
    base_kernel,
    base_kernel_derivatives,
    discrepancy,
    gram_matrix,
    stein_kernel,
    stein_kernel_diag,
    stein_kernel_matrix,
)
from cfmc.diagnostics import gradient_check, mean_element_residuals

PARAMS = SteinKernelParams(alpha1=0.1, alpha2=1.0)


def _fd_parts(x, xp, params, step=1e-5, div_step=1e-4):
    """Central finite differences of the base kernel; the mixed second
    derivative uses a larger step because its rounding noise scales like
    eps/step^2."""
    d = len(x)
    grad_x = np.zeros(d)
    grad_xp = np.zeros(d)
    div = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        grad_x[i] = (base_kernel(x + e, xp, params) - base_kernel(x - e, xp, params)) / (2 * step)
        grad_xp[i] = (base_kernel(x, xp + e, params) - base_kernel(x, xp - e, params)) / (2 * step)
        e[i] = div_step
        div += (
            base_kernel(x + e, xp + e, params)
            - base_kernel(x + e, xp - e, params)
            - base_kernel(x - e, xp + e, params)
            + base_kernel(x - e, xp - e, params)
        ) / (4 * div_step * div_step)
    return grad_x, grad_xp, div


def fd_stein_kernel(x, u_x, xp, u_xp, params):
    """Independent oracle: the defining Stein combination with all kernel
    derivatives taken by central finite differences of the base kernel."""
    grad_x, grad_xp, div = _fd_parts(x, xp, params)
    k = base_kernel(x, xp, params)
    return div + np.dot(u_x, grad_xp) + np.dot(u_xp, grad_x) + np.dot(u_x, u_xp) * k


class TestBaseKernel:
    def test_coincident_origin_is_one(self):
        assert base_kernel(np.zeros(1), np.zeros(1), PARAMS) == 1.0
        assert base_kernel(np.zeros(3), np.zeros(3), SteinKernelParams(2.0, 0.3)) == 1.0

    def test_zero_distance_prefactor_arithmetic(self):
        # x = x' = 1: distance term is 1, prefactor is (1 + 0.1 + 0.1)^-1
        value = base_kernel(np.array([1.0]), np.array([1.0]), PARAMS)
        assert value == pytest.approx(1.0 / 1.2, rel=1e-15)

    def test_closed_form_value(self):
        # exp(-1/2)/1.1, frozen from a high-precision evaluation
        value = base_kernel(np.array([1.0]), np.array([0.0]), PARAMS)
        assert value == pytest.approx(0.5513915088296667, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_bounds_and_symmetry(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            x, xp = rng.normal(size=d), rng.normal(size=d)
            k = base_kernel(x, xp, PARAMS)
            assert 0.0 < k <= 1.0
            assert k == base_kernel(xp, x, PARAMS)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            base_kernel(np.array([np.inf]), np.array([0.0]), PARAMS)
        with pytest.raises(InvalidInputError):
            base_kernel(np.array([0.0]), np.array([np.nan]), PARAMS)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            base_kernel(np.zeros(2), np.zeros(3), PARAMS)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            SteinKernelParams(alpha1=0.0, alpha2=1.0)
        with pytest.raises(InvalidInputError):
            SteinKernelParams(alpha1=0.1, alpha2=-1.0)


class TestBaseKernelDerivatives:
    def test_matches_finite_differences(self):
        report = gradient_check(n_configs=100, dims=(1, 2, 5), step=1e-5, seed=42)
        assert report["max"] < 1e-6

    def test_coincident_gradient_closed_form(self):
        # At x = x' the Gaussian factor's gradient vanishes, leaving only the
        # prefactor gradient: grad_x = grad_x' = -2 a1 x / (1 + 2 a1 |x|^2)^2.
        # (The prefactor depends on both arguments the same way, so the two
        # gradients coincide rather than negate; finite differences agree.)
        rng = np.random.default_rng(1)
        for d in (1, 3):
            x = rng.normal(size=d)
            derivs = base_kernel_derivatives(x, x.copy(), PARAMS)
            expected = -2 * PARAMS.alpha1 * x / (1 + 2 * PARAMS.alpha1 * (x @ x)) ** 2
            np.testing.assert_allclose(derivs.grad_x, expected, rtol=1e-13)
            np.testing.assert_allclose(derivs.grad_xp, expected, rtol=1e-13)
            fd_gx, fd_gxp, _ = _fd_parts(x, x.copy(), PARAMS)
            np.testing.assert_allclose(fd_gx, expected, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(fd_gxp, expected, rtol=1e-6, atol=1e-9)

    def test_divergence_at_origin(self):
        # Both cross terms vanish at the origin, leaving d/alpha2^2;
        # pinned against the finite-difference oracle as well.
        derivs = base_kernel_derivatives(np.zeros(1), np.zeros(1), PARAMS)
        assert derivs.div_grad == pytest.approx(1.0, rel=1e-12)
        _, _, fd_div = _fd_parts(np.zeros(1), np.zeros(1), PARAMS)
        assert derivs.div_grad == pytest.approx(fd_div, rel=1e-6)

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 5):
            x, xp = rng.normal(size=d), rng.normal(size=d)
            ab = base_kernel_derivatives(x, xp, PARAMS)
            ba = base_kernel_derivatives(xp, x, PARAMS)
            np.testing.assert_array_equal(ab.grad_x, ba.grad_xp)
            np.testing.assert_array_equal(ab.grad_xp, ba.grad_x)
            assert ab.div_grad == ba.div_grad
            assert ab.k_value == ba.k_value


class TestSteinKernel:
    def test_zero_scores_reduce_to_divergence_term(self):
        rng = np.random.default_rng(3)
        for d in (1, 2):
            x, xp = rng.normal(size=d), rng.normal(size=d)
            zero = np.zeros(d)
            derivs = base_kernel_derivatives(x, xp, PARAMS)
            assert stein_kernel(x, zero, xp, zero, PARAMS) == pytest.approx(
                derivs.div_grad, rel=1e-14
            )

    def test_diagonal_specialisation(self):
        # k0(x, x) = div + 2 u.grad_x' k + |u|^2 k
        rng = np.random.default_rng(4)
        x = rng.normal(size=2)
        u = rng.normal(size=2)
        derivs = base_kernel_derivatives(x, x.copy(), PARAMS)
        expected = derivs.div_grad + 2 * (u @ derivs.grad_xp) + (u @ u) * derivs.k_value
        assert stein_kernel(x, u, x.copy(), u.copy(), PARAMS) == pytest.approx(
            expected, rel=1e-13
        )

    def test_frozen_value_gaussian_score(self):
        # x = 0.3, x' = -0.7, u(x) = -x; value frozen from a high-precision
        # evaluation and cross-checked against the finite-difference oracle.
        x, xp = np.array([0.3]), np.array([-0.7])
        value = stein_kernel(x, -x, xp, -xp, PARAMS)
        assert value == pytest.approx(-0.8561596031084893, rel=1e-13)
        assert value == pytest.approx(fd_stein_kernel(x, -x, xp, -xp, PARAMS), rel=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_finite_difference_oracle(self, d):
        rng = np.random.default_rng(d + 10)
        for _ in range(10):
            x, xp = rng.normal(size=d), rng.normal(size=d)
            u_x, u_xp = rng.normal(size=d), rng.normal(size=d)
            value = stein_kernel(x, u_x, xp, u_xp, PARAMS)
            oracle = fd_stein_kernel(x, u_x, xp, u_xp, PARAMS)
            assert value == pytest.approx(oracle, rel=1e-6, abs=1e-7)

    def test_exact_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for d in (1, 3):
            for _ in range(25):
                x, xp = rng.normal(size=d), rng.normal(size=d)
                u_x, u_xp = rng.normal(size=d), rng.normal(size=d)
                assert stein_kernel(x, u_x, xp, u_xp, PARAMS) == stein_kernel(
                    xp, u_xp, x, u_x, PARAMS
                )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            stein_kernel(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), PARAMS)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        u, v = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        matrix = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert matrix.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    stein_kernel(x[i], u[i], y[j], v[j], PARAMS), rel=1e-11, abs=1e-13
                )

    def test_diag_matches_matrix(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 2))
        u = rng.normal(size=(6, 2))
        full = stein_kernel_matrix(x, u, x, u, PARAMS)
        np.testing.assert_allclose(
            stein_kernel_diag(x, u, PARAMS), np.diag(full), rtol=1e-11, atol=1e-13
        )


class TestAssembleMatrices:
    """The K0, K10 and K1 blocks of a split, as the estimators assemble them."""

    def test_single_point(self, make_gaussian_dataset):
        d0 = make_gaussian_dataset(1)
        k0 = gram_matrix(d0, PARAMS)
        x, u = d0.points[0], d0.scores[0]
        assert k0.shape == (1, 1)
        assert k0[0, 0] == pytest.approx(stein_kernel(x, u, x, u, PARAMS), rel=1e-12)

    def test_blocks_exactly_symmetric(self, make_gaussian_dataset):
        data = make_gaussian_dataset(12, d=2, seed=3)
        d0 = data.subset(range(7))
        d1 = data.subset(range(7, 12))
        k0 = gram_matrix(d0, PARAMS)
        k1 = gram_matrix(d1, PARAMS)
        k10 = stein_kernel_matrix(d1.points, d1.scores, d0.points, d0.scores, PARAMS)
        np.testing.assert_array_equal(k0, k0.T)
        np.testing.assert_array_equal(k1, k1.T)
        assert k0.shape == (7, 7)
        assert k1.shape == (5, 5)
        assert k10.shape == (5, 7)

    def test_gram_positive_semidefinite(self, make_gaussian_dataset):
        k0 = gram_matrix(make_gaussian_dataset(5, seed=11), PARAMS)
        eigenvalues = np.linalg.eigvalsh(k0)
        assert eigenvalues.min() >= -1e-10 * np.trace(k0)

    def test_dimension_mismatch_raises(self, make_gaussian_dataset):
        with pytest.raises(InvalidInputError):
            discrepancy(make_gaussian_dataset(3, d=1), make_gaussian_dataset(3, d=2), PARAMS)


class TestZeroMeanProperty:
    def test_quadrature_residuals_vanish(self):
        # integral of k0(x, .) against the standard normal is zero; quick
        # three-probe version of the full ten-probe acceptance check.
        residuals = mean_element_residuals(PARAMS, probes=np.array([-3.0, 0.4, 3.0]))
        assert np.max(np.abs(residuals)) < 1e-8

    def test_diag_bounded_on_samples(self, make_gaussian_dataset):
        data = make_gaussian_dataset(200, seed=9)
        diag = stein_kernel_diag(data.points, data.scores, PARAMS)
        assert np.all(np.isfinite(diag))
