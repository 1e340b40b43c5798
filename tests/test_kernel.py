
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmc import (
    InvalidInputError,
    ScoredDataset,
    SteinKernelParams,
    base_kernel,
    gram_matrix,
    stein_kernel_diag,
    stein_kernel_matrix,
)
from cfmc import kernel
from cfmc.diagnostics import gradient_check, mean_element_residuals
from kernel_oracle import base_kernel_derivatives, stein_kernel

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

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_stacked_pairs_match_per_pair_calls(self, d):
        # One call over stacked pairs, and over one point broadcast against
        # many, gives each pair's value bit for bit.
        rng = np.random.default_rng(d + 20)
        x, xp = rng.normal(size=(7, d)), rng.normal(size=(7, d))
        per_pair = [base_kernel(x[i], xp[i], PARAMS) for i in range(7)]
        np.testing.assert_array_equal(base_kernel(x, xp, PARAMS), per_pair)
        np.testing.assert_array_equal(
            base_kernel(x[0], xp, PARAMS), [base_kernel(x[0], xp[i], PARAMS) for i in range(7)]
        )
        assert base_kernel(x[:, None], xp[None], PARAMS).shape == (7, 7)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            base_kernel(np.array([np.inf]), np.array([0.0]), PARAMS)
        with pytest.raises(InvalidInputError):
            base_kernel(np.array([0.0]), np.array([np.nan]), PARAMS)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            base_kernel(np.zeros(2), np.zeros(3), PARAMS)
        with pytest.raises(InvalidInputError, match="vectors along the last axis"):
            base_kernel(0.0, np.zeros(1), PARAMS)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            SteinKernelParams(alpha1=0.0, alpha2=1.0)
        with pytest.raises(InvalidInputError):
            SteinKernelParams(alpha1=0.1, alpha2=-1.0)

    @pytest.mark.parametrize("field", ["alpha1", "alpha2"])
    @pytest.mark.parametrize(
        "bad",
        [True, False, np.True_, "0.1", None, [0.1], 1 + 0j, float("nan"), float("inf"),
         -float("inf"), np.float32("nan"), 0, -0.5, pytest.param(10**400, id="10**400")],
        ids=repr,
    )
    def test_rejects_bad_alpha(self, field, bad):
        values = {"alpha1": 0.1, "alpha2": 1.0, field: bad}
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            SteinKernelParams(**values)

    @pytest.mark.parametrize("good", [2, np.int64(2), np.float64(0.5), np.float32(0.5), 1e76])
    def test_accepts_numbers(self, good):
        params = SteinKernelParams(alpha1=good, alpha2=good)
        assert (params.alpha1, params.alpha2) == (good, good)

    @pytest.mark.parametrize(
        "field, bad, constant",
        [("alpha1", 1e160, "8*alpha1**2"), ("alpha1", 4.8e153, "8*alpha1**2"),
         ("alpha1", 1e308, "8*alpha1**2"), ("alpha2", 1e80, "alpha2**4"),
         ("alpha2", 1.2e77, "alpha2**4"), ("alpha2", 1e308, "alpha2**4")],
    )
    def test_rejects_alpha_whose_kernel_constant_overflows(self, field, bad, constant):
        # 8*alpha1**2 overflows to inf from about 4.7e153, and alpha2**4
        # raises OverflowError from about 1.16e77; either would break every
        # kernel evaluation.
        values = {"alpha1": 0.1, "alpha2": 1.0, field: bad}
        with pytest.raises(InvalidInputError, match=rf"^{field} must be .* {re.escape(constant)} finite"):
            SteinKernelParams(**values)

    @pytest.mark.parametrize("bad", [1e-81, 1e-100, 1e-300])
    def test_rejects_alpha2_whose_fourth_power_underflows(self, bad):
        # alpha2**4 is 0.0 below about 1.5e-81, so every Gram would be
        # non-finite, and from about 1e-162 alpha2**2 is 0.0 too, whose
        # division raises ZeroDivisionError.
        with pytest.raises(InvalidInputError, match=r"^alpha2 must be .* alpha2\*\*4 finite and non-zero"):
            SteinKernelParams(alpha1=0.1, alpha2=bad)

    def test_smallest_alpha2_decade_accepted(self):
        # 1e-80**4 is a subnormal float, not zero.
        assert SteinKernelParams(alpha1=0.1, alpha2=1e-80).alpha2 == 1e-80

    def test_largest_accepted_alphas_evaluate(self):
        params = SteinKernelParams(alpha1=4.7e153, alpha2=1.1e77)
        x = np.array([[0.3], [-1.2]])
        with np.errstate(all="ignore"):
            k0 = stein_kernel_matrix(x, -x, x, -x, params)
        assert k0.shape == (2, 2)


class TestBaseKernelDerivatives:
    def test_matches_finite_differences(self):
        report = gradient_check(seed=42)
        assert isinstance(report["max"], float) and report["max"] < 1e-6

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
            stein_kernel_matrix(
                np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)), PARAMS
            )

    # Dimensions and score scales for the fast paths against the definition;
    # scores of about 1e3 make the score terms cancel the most.
    CASES = [(d, scale) for d in (1, 2, 3, 5) for scale in (1.0, 1e3)]

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(6)
        for d, scale in self.CASES:
            x, y = rng.normal(size=(4, d)), rng.normal(size=(5, d))
            u, v = scale * rng.normal(size=(4, d)), scale * rng.normal(size=(5, d))
            matrix = stein_kernel_matrix(x, u, y, v, PARAMS)
            assert matrix.shape == (4, 5)
            for i in range(4):
                for j in range(5):
                    assert matrix[i, j] == pytest.approx(
                        stein_kernel(x[i], u[i], y[j], v[j], PARAMS), rel=1e-11, abs=1e-13
                    ), (d, scale, i, j)

    @pytest.mark.parametrize("alpha2", [1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_diag_is_the_gram_diagonal(self, d, alpha2):
        # 300 rows: three blocks of the Gram and three of the diagonal.  At
        # d = 1 every inner product is one rounded multiply, so the bytes
        # agree.  At d >= 2 BLAS can round a block's products and the whole
        # Gram's differently in the last bit.
        params = SteinKernelParams(alpha1=0.1, alpha2=alpha2)
        rng = np.random.default_rng(7 + d)
        x, u = rng.normal(size=(2, 300, d))
        diag = stein_kernel_diag(x, u, params)
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(300)), params)
        if d == 1:
            assert diag.tobytes() == np.diag(gram).tobytes()
        np.testing.assert_allclose(diag, np.diag(gram), rtol=1e-14, atol=0.0)
        oracle = [stein_kernel(x[i], u[i], x[i], u[i], params) for i in range(300)]
        np.testing.assert_allclose(diag, oracle, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
    def test_diag_block_edges(self, n):
        # Row counts on each side of a diagonal block's edge; at d = 1 each
        # entry has the bytes of the whole Gram's diagonal.
        rng = np.random.default_rng(n)
        x, u = rng.normal(size=(2, n, 1))
        diag = stein_kernel_diag(x, u, PARAMS)
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(n)), PARAMS)
        assert diag.shape == (n,)
        assert diag.tobytes() == np.diag(gram).tobytes()

    def test_diag_rejects_mismatched_scores(self):
        x, u = np.zeros((3, 2)), np.ones((3, 1))
        with pytest.raises(InvalidInputError) as matrix_error:
            stein_kernel_matrix(x, u, x, u, PARAMS)
        with pytest.raises(InvalidInputError) as diag_error:
            stein_kernel_diag(x, u, PARAMS)
        assert str(diag_error.value) == str(matrix_error.value)


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
        d0, d1 = make_gaussian_dataset(3, d=1), make_gaussian_dataset(3, d=2)
        with pytest.raises(InvalidInputError, match="dimension mismatch: 2 vs 1"):
            stein_kernel_matrix(d1.points, d1.scores, d0.points, d0.scores, PARAMS)

    @pytest.mark.parametrize("p, q", [(3, 0), (0, 3), (0, 0)])
    def test_empty_point_set_gives_empty_matrix(self, p, q):
        x, u = _sample(p, 2, seed=1)
        y, v = _sample(q, 2, seed=2)
        matrix = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert matrix.shape == (p, q)
        assert matrix.dtype == np.float64


def _reference_matrix(x, u_x, y, u_y, params):
    """The whole-matrix vectorised Stein-kernel formula, kept as the reference
    that the blocked assembly must reproduce byte for byte."""
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[1]
    nx = np.sum(x * x, axis=1)[:, None]
    ny = np.sum(y * y, axis=1)[None, :]
    pref = 1.0 + a1 * (nx + ny)
    gram = x @ y.T
    rho = np.maximum(nx + ny - 2.0 * gram, 0.0)
    k = np.exp(-rho / (2.0 * a2**2)) / pref
    div_grad = k * (
        d / a2**2 + 8.0 * a1**2 * gram / pref**2 - 2.0 * a1 * rho / (pref * a2**2) - rho / a2**4
    )
    ux_x = np.sum(u_x * x, axis=1)[:, None]
    uy_y = np.sum(u_y * y, axis=1)[None, :]
    ux_y = u_x @ y.T
    x_uy = x @ u_y.T
    t_x = k * ((ux_x - ux_y) / a2**2 - 2.0 * a1 * ux_y / pref)
    t_y = -k * (2.0 * a1 * x_uy / pref + (x_uy - uy_y) / a2**2)
    return div_grad + (t_x + t_y) + (u_x @ u_y.T) * k


def _reference_gram(x, u, params):
    full = _reference_matrix(x, u, x, u, params)
    return np.triu(full) + np.triu(full, k=1).T


def _sample(n, d, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    x = spread * rng.standard_normal((n, d))
    return x, -x + 0.3 * rng.standard_normal((n, d))


# Small length-scale: far pairs underflow k to 0, so the raw formula yields
# entries of -0.0, which the symmetric assembly must turn into +0.0.
NARROW = SteinKernelParams(alpha1=0.3, alpha2=0.05)

# Length-scales on both sides of _stein_block's division rule: a power of two
# alpha2 divides by multiplying with the reciprocal (1.0 skips the pass), any
# other divides.
KERNELS = [PARAMS, NARROW] + [SteinKernelParams(alpha1=0.1, alpha2=a2) for a2 in (2.0, 0.5, 1.5)]
KERNEL_IDS = ["wide", "narrow", "a2=2", "a2=0.5", "a2=1.5"]


class TestBlockedAssembly:
    """Row-blocked assembly against the whole-matrix formula, byte for byte."""

    # With 2**10 entries per block: n = 30 is one block, 100 is ten even
    # blocks, 101 and 257 end in a shorter block.
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [30, 100, 101, 257])
    @pytest.mark.parametrize("params", KERNELS, ids=KERNEL_IDS)
    def test_gram_matches_reference(self, monkeypatch, d, n, params):
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 2**10)
        x, u = _sample(n, d, seed=10 * n + d, spread=3.0 if params is NARROW else 1.0)
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(n)), params)
        assert gram.tobytes() == _reference_gram(x, u, params).tobytes()
        assert gram.tobytes() == gram.T.copy().tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("p, q", [(101, 37), (37, 101), (1, 1500), (2500, 1), (64, 16)])
    @pytest.mark.parametrize("params", KERNELS, ids=KERNEL_IDS)
    def test_cross_matches_reference(self, monkeypatch, d, p, q, params):
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 2**10)
        x, u = _sample(p, d, seed=p + d)
        y, v = _sample(q, d, seed=1000 + q + d)
        matrix = stein_kernel_matrix(x, u, y, v, params)
        assert matrix.tobytes() == _reference_matrix(x, u, y, v, params).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        scale=st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)),
        exponent=st.integers(-12, 12),
        d=st.integers(1, 3),
        p=st.integers(1, 40),
        q=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_alpha2_scale_times_power_of_two_matches_reference(self, scale, exponent, d, p, q, seed):
        # alpha2 = s * 2^e: the constants alpha2^2 and alpha2^4 are powers of
        # two exactly when s is 1, and the bytes must not tell the two apart.
        params = SteinKernelParams(alpha1=0.1, alpha2=scale * 2.0**exponent)
        spread = 2.0 ** (exponent + 1)
        x, u = _sample(p, d, seed=seed, spread=spread)
        y, v = _sample(q, d, seed=seed + 1, spread=spread)
        with mock.patch.object(kernel, "_BLOCK_ENTRIES", 2**6), np.errstate(all="ignore"):
            gram = gram_matrix(ScoredDataset(x, u, np.zeros(p)), params)
            cross = stein_kernel_matrix(x, u, y, v, params)
            assert gram.tobytes() == _reference_gram(x, u, params).tobytes()
            assert cross.tobytes() == _reference_matrix(x, u, y, v, params).tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_tiny_alpha2_falls_back_to_division(self, monkeypatch, d):
        # alpha2 = 2^-260: alpha2^4 = 2^-1040 is a subnormal power of two
        # whose reciprocal overflows, so that division must stay one.
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 2**10)
        params = SteinKernelParams(alpha1=0.1, alpha2=2.0**-260)
        x, u = _sample(60, d, seed=d, spread=2.0**-255)
        y, v = _sample(45, d, seed=10 + d, spread=2.0**-255)
        with np.errstate(all="ignore"):
            gram = gram_matrix(ScoredDataset(x, u, np.zeros(60)), params)
            cross = stein_kernel_matrix(x, u, y, v, params)
            assert gram.tobytes() == _reference_gram(x, u, params).tobytes()
            assert cross.tobytes() == _reference_matrix(x, u, y, v, params).tobytes()
        assert np.isfinite(gram).any()

    @pytest.mark.parametrize(
        "c", [1.0, 4.0, -2.0, 2.0**-1022, 2.0**-1023, 2.0**-1040, 2.0**1023, np.inf, 1.5, 0.7, -3.0]
    )
    def test_divide_matches_division(self, c):
        # Every form the rule can take, against a plain division: a skipped
        # pass (1), a reciprocal multiply (powers of two down to 2^-1023),
        # and a division (a subnormal power of two whose reciprocal
        # overflows, inf, and other numbers).
        rng = np.random.default_rng(7)
        a = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.uniform(-300, 300, 200),
                            [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7e308]])
        # c = 1 returns ``a`` itself and writes nothing.
        out = np.empty_like(a)
        with np.errstate(all="ignore"):
            result = kernel._divide(a, c, out)
            assert result is (a if c == 1.0 else out)
            assert result.tobytes() == np.divide(a, c).tobytes()
            inplace = a.copy()
            assert kernel._divide(inplace, c, inplace) is inplace
            assert inplace.tobytes() == result.tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_default_block_size_matches_reference(self, d):
        # 410 rows at the module's own budget: several blocks, the last ragged.
        x, u = _sample(410, d, seed=d)
        y, v = _sample(250, d, seed=7 + d)
        assert 410 % kernel._block_rows(410, 410) != 0
        assert 410 % kernel._block_rows(410, 250) != 0
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(410)), PARAMS)
        assert gram.tobytes() == _reference_gram(x, u, PARAMS).tobytes()
        cross = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert cross.tobytes() == _reference_matrix(x, u, y, v, PARAMS).tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_inputs_match_reference(self, monkeypatch, d, layout):
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 2**10)

        def arrange(a):
            if layout == "fortran":
                return np.asfortranarray(a)
            wide = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
            wide[::2, ::2] = a
            return wide[::2, ::2]

        x, u = map(arrange, _sample(101, d, seed=3 + d))
        y, v = map(arrange, _sample(57, d, seed=30 + d))
        if layout == "strided":
            assert not (x.flags.c_contiguous or x.flags.f_contiguous)
        else:  # at d = 1 a Fortran-ordered column is C-contiguous too
            assert x.flags.f_contiguous and (d == 1 or not x.flags.c_contiguous)
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(101)), PARAMS)
        assert gram.tobytes() == _reference_gram(x, u, PARAMS).tobytes()
        cross = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert cross.tobytes() == _reference_matrix(x, u, y, v, PARAMS).tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("extra_row", [0, 1], ids=["one_block", "two_blocks"])
    def test_block_budget_edge_matches_reference(self, monkeypatch, d, extra_row):
        # p*q equal to the budget is one block; one more row makes two.
        q = 256
        p = kernel._BLOCK_ENTRIES // q + extra_row
        assert kernel._block_rows(p, q) == (p if extra_row == 0 else -(-p // 2))
        x, u = _sample(p, d, seed=p + d)
        y, v = _sample(q, d, seed=q + d)
        cross = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert cross.tobytes() == _reference_matrix(x, u, y, v, PARAMS).tobytes()
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 2**10)
        n = 32 + extra_row
        x, u = _sample(n, d, seed=n + d)
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(n)), PARAMS)
        assert gram.tobytes() == _reference_gram(x, u, PARAMS).tobytes()

    def test_narrow_kernel_has_no_negative_zeros(self, monkeypatch):
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 2**10)
        x, u = _sample(120, 2, seed=5, spread=3.0)
        raw = _reference_matrix(x, u, x, u, NARROW)
        assert np.any((raw == 0.0) & np.signbit(raw))
        gram = gram_matrix(ScoredDataset(x, u, np.zeros(120)), NARROW)
        assert not np.any((gram == 0.0) & np.signbit(gram))

    @staticmethod
    def _peak_over_result(which, d):
        x, u = _sample(600, d, seed=1)
        y, v = _sample(600, d, seed=2)
        data = ScoredDataset(x, u, np.zeros(600))
        tracemalloc.start()
        try:
            if which == "gram":
                result = gram_matrix(data, PARAMS)
            else:
                result = stein_kernel_matrix(x, u, y, v, PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / result.nbytes

    @pytest.mark.parametrize("which", ["gram", "cross"])
    def test_peak_memory_bounded(self, which):
        # Beyond the result, the assembly holds the four inner-product
        # matrices and one block of temporaries; whole-matrix elementwise
        # work would hold about a dozen matrices.
        assert self._peak_over_result(which, 3) < 7

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_block_matches_reference_and_holds_no_products(self, d):
        # 181 x 181 and 181 x 150 are one block each at the module's own
        # budget: the products go into the workspace, bytes as dgemm's.
        n, q = 181, 150
        assert kernel._block_rows(n, n) == n and kernel._block_rows(n, q) == n
        x, u = _sample(n, d, seed=40 + d)
        y, v = _sample(q, d, seed=50 + d)
        data = ScoredDataset(x, u, np.zeros(n))
        assert gram_matrix(data, PARAMS).tobytes() == _reference_gram(x, u, PARAMS).tobytes()
        cross = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert cross.tobytes() == _reference_matrix(x, u, y, v, PARAMS).tobytes()
        tracemalloc.start()
        try:
            result = gram_matrix(data, PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The block buffers are the thread's kept scratch from the calls
        # above, so little but the result remains (about 1.4x); four whole
        # products on top of it would reach 5.4x.
        assert peak / result.nbytes < 5

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_block_gram_mirrors_without_copying_its_square(self, d):
        # The lower triangle is copied from the transpose written into a
        # free block buffer (about 1.4x of the result at peak); copying from
        # the overlapping square itself makes numpy copy the whole square
        # first (2.1x).
        n = 181
        x, u = _sample(n, d, seed=60 + d)
        data = ScoredDataset(x, u, np.zeros(n))
        assert gram_matrix(data, PARAMS).tobytes() == _reference_gram(x, u, PARAMS).tobytes()
        tracemalloc.start()
        try:
            result = gram_matrix(data, PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / result.nbytes < 1.6

    @pytest.mark.parametrize("which", ["gram", "cross"])
    def test_peak_memory_bounded_d1(self, which):
        # At d = 1 the inner products are formed per block, so beyond the
        # result only the block workspace is held (about 0.8x here).
        assert self._peak_over_result(which, 1) < 2.5


# One-block and multi-block shapes at the module's own block budget.
SCRATCH_SHAPES = [(40, 30), (300, 250)]


def _assemble_case(d, upper, shape, alpha2):
    """A Gram (``upper``) or cross matrix of ``shape`` and the reference bytes
    it must have."""
    params = SteinKernelParams(alpha1=0.1, alpha2=alpha2)
    p, q = shape
    x, u = _sample(p, d, seed=p + 10 * d)
    if upper:
        data = ScoredDataset(x, u, np.zeros(p))
        return (lambda: gram_matrix(data, params)), _reference_gram(x, u, params).tobytes()
    y, v = _sample(q, d, seed=q + 20 * d)
    reference = _reference_matrix(x, u, y, v, params).tobytes()
    return (lambda: stein_kernel_matrix(x, u, y, v, params)), reference


def _shared_case(d, n):
    """The Grams of the ``SHARED`` kernels on n points by one shared pass,
    stacked, and the reference bytes they must have."""
    x, u = _sample(n, d, seed=n + 30 * d)
    reference = b"".join(_reference_gram(x, u, params).tobytes() for params in SHARED)
    return (lambda: np.concatenate(kernel._assemble(x, u, x, u, SHARED, True))), reference


class TestKeptScratch:
    """Each thread keeps one block scratch between assemblies; nothing a
    previous call left in it reaches a result."""

    @pytest.mark.parametrize("alpha2", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("shape", SCRATCH_SHAPES, ids=["one_block", "blocks"])
    @pytest.mark.parametrize("upper", [True, False], ids=["gram", "cross"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nan_filled_scratch_leaves_the_bytes(self, d, upper, shape, alpha2):
        assemble, reference = _assemble_case(d, upper, shape, alpha2)
        assert (kernel._block_rows(*shape) == shape[0]) == (shape == SCRATCH_SHAPES[0])
        assert assemble().tobytes() == reference
        kept = kernel._kept.scratch
        kept.fill(np.nan)
        assert assemble().tobytes() == reference
        assert kernel._kept.scratch is kept
        assert not np.isnan(kept).all()

    def test_threads_assembling_at_once_get_the_serial_bytes(self):
        cases = [
            _assemble_case(d, upper, shape, alpha2)
            for d in (1, 3)
            for upper in (True, False)
            for shape in SCRATCH_SHAPES
            for alpha2 in (0.5, 1.5)
        ] + [_shared_case(d, shape[0]) for d in (1, 3) for shape in SCRATCH_SHAPES]
        serial = [assemble().tobytes() for assemble, _ in cases]
        assert serial == [reference for _, reference in cases]

        start = threading.Barrier(4, timeout=60)

        def run(offset):
            # All four run at once, each from its own case, so that different
            # shapes overlap.
            start.wait()
            order = [(offset + i) % len(cases) for i in range(2 * len(cases))]
            return [(i, cases[i][0]().tobytes()) for i in order], id(kernel._kept.scratch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, 3 * t) for t in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, _ in results:
            assert all(data == serial[i] for i, data in got)
        assert len({scratch for _, scratch in results}) == 4

    def test_call_past_the_cap_keeps_no_larger_scratch(self):
        # One row against 70 000 columns: its seven buffers of 70 000
        # doubles exceed the kept cap of 7 * 2**16 doubles.
        assemble, reference = _assemble_case(1, False, (40, 30), 1.0)
        assemble()
        kept = kernel._kept.scratch
        x, u = _sample(1, 1, seed=3)
        y, v = _sample(70_000, 1, seed=4)
        assert kernel._BUFFERS * 70_000 > kernel._KEPT_SCRATCH == 7 * 2**16
        matrix = stein_kernel_matrix(x, u, y, v, PARAMS)
        assert matrix.tobytes() == _reference_matrix(x, u, y, v, PARAMS).tobytes()
        assert kernel._kept.scratch is kept
        assert kept.size <= kernel._KEPT_SCRATCH

    @pytest.mark.parametrize("upper", [True, False], ids=["gram", "cross"])
    def test_second_call_allocates_no_scratch(self, upper):
        n = 1000
        x, u = _sample(n, 1, seed=8)
        data = ScoredDataset(x, u, np.zeros(n))
        if upper:
            assemble = lambda: gram_matrix(data, PARAMS)  # noqa: E731
        else:
            assemble = lambda: stein_kernel_matrix(x, u, x, u, PARAMS)  # noqa: E731
        assemble()
        tracemalloc.start()
        try:
            result = assemble()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result and a few block-sized index arrays; the seven buffers
        # would add 0.23x.
        assert peak / result.nbytes < 1.05


# Kernels of one shared pass: alpha2 a power of two (1.0, 0.5) and not.
SHARED = [SteinKernelParams(0.1, 1.0), SteinKernelParams(0.05, 1.5),
          SteinKernelParams(0.3, 0.5), SteinKernelParams(0.1, 0.7)]


class TestSharedPass:
    """One assembly of several kernels against each kernel's own assembly,
    byte for byte, in either kernel order."""

    def test_four_kernels_take_smaller_blocks(self):
        # 181 x 181 is one block for one kernel and three for four, whose
        # nineteen buffers share the seven buffers' workspace.
        buffers = kernel._BUFFERS + 3 * kernel._KERNEL_BUFFERS
        assert kernel._block_rows(181, 181) == 181
        assert kernel._block_rows(181, 181, buffers) == 61
        assert buffers * 61 * 181 <= kernel._BUFFERS * kernel._BLOCK_ENTRIES

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 181, 182, 200, 500])
    def test_each_gram_has_the_bytes_of_its_own(self, d, n):
        x, u = _sample(n, d, seed=n + 7 * d)
        data = ScoredDataset(x, u, np.zeros(n))
        alone = {params: gram_matrix(data, params).tobytes() for params in SHARED}
        for kernels in (SHARED, SHARED[::-1], SHARED[1:3]):
            grams = kernel._assemble(x, u, x, u, kernels, upper=True)
            assert [gram.tobytes() for gram in grams] == [alone[p] for p in kernels]

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("p, q", [(1, 1), (129, 37), (37, 900), (300, 250)])
    def test_each_cross_matrix_has_the_bytes_of_its_own(self, d, p, q):
        x, u = _sample(p, d, seed=p + d)
        y, v = _sample(q, d, seed=1000 + q + d)
        alone = {params: stein_kernel_matrix(x, u, y, v, params).tobytes() for params in SHARED}
        for kernels in (SHARED, SHARED[::-1]):
            matrices = kernel._assemble(x, u, y, v, kernels, upper=False)
            assert [m.tobytes() for m in matrices] == [alone[k] for k in kernels]

    @pytest.mark.parametrize("d", [1, 3])
    def test_nan_filled_scratch_leaves_the_bytes(self, d):
        x, u = _sample(300, d, seed=d)
        data = ScoredDataset(x, u, np.zeros(300))
        alone = [gram_matrix(data, params).tobytes() for params in SHARED]
        kernel._assemble(x, u, x, u, SHARED, upper=True)
        kept = kernel._kept.scratch
        kept.fill(np.nan)
        grams = kernel._assemble(x, u, x, u, SHARED, upper=True)
        assert [gram.tobytes() for gram in grams] == alone
        assert kernel._kept.scratch is kept

    def test_refuses_a_kernel_that_is_no_params(self):
        x, u = _sample(5, 1, seed=1)
        with pytest.raises(InvalidInputError, match="params must be a SteinKernelParams"):
            kernel._assemble(x, u, x, u, [PARAMS, (0.1, 1.0)], upper=True)


class TestDiagnosticsCheckTheMatrixPath:
    """Both diagnose checks evaluate k0 through stein_kernel_matrix, so an
    offset on every entry that the assembly writes shows in each of them."""

    @pytest.fixture
    def offset_blocks(self, monkeypatch):
        block = kernel._stein_block

        def offset(pairs, kernels, buf, outs):
            block(pairs, kernels, buf, outs)
            for out in outs:
                out += 1e-4

        monkeypatch.setattr(kernel, "_stein_block", offset)

    def test_gradient_check_sees_an_offset(self, offset_blocks):
        assert gradient_check()["max"] > 1e-6

    def test_mean_element_residuals_see_an_offset(self, offset_blocks):
        assert np.max(np.abs(mean_element_residuals(PARAMS))) > 1e-8


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
