import numpy as np
import pytest

from cfmc import ScoredDataset, SteinKernelParams, kernel


@pytest.fixture
def params():
    return SteinKernelParams(alpha1=0.1, alpha2=1.0)


@pytest.fixture
def make_gaussian_dataset():
    """Factory for standard-Gaussian datasets with the sin integrand."""

    def make(n: int, d: int = 1, seed: int = 0) -> ScoredDataset:
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, d))
        return ScoredDataset(
            points=points,
            scores=-points,
            f_values=np.sin((np.pi / d) * points.sum(axis=1)),
        )

    return make


@pytest.fixture
def assembled(monkeypatch):
    """(rows, columns, upper, *kernels) of every Stein-kernel assembly made
    while the test runs, in call order: (rows, columns, upper, params) for
    an assembly of one kernel."""
    calls = []
    original = kernel._assemble

    def spy(x, u_x, y, u_y, kernels, upper):
        calls.append((x.shape[0], y.shape[0], upper, *kernels))
        return original(x, u_x, y, u_y, kernels, upper)

    monkeypatch.setattr(kernel, "_assemble", spy)
    return calls
