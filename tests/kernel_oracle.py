"""The Stein kernel at one pair of points, written term by term: an oracle
for the tests, independent of the matrix path in ``cfmc.kernel``.

With P = 1 + a1*(|x|^2 + |x'|^2), r = x - x' and k = exp(-|r|^2/(2 a2^2))/P:

    grad_x  k = -k * (2 a1 x / P + r / a2^2)
    grad_x' k =  k * (r / a2^2 - 2 a1 x' / P)
    div_x div_x' k = k * (d/a2^2 + 8 a1^2 (x.x')/P^2
                          - 2 a1 |r|^2 / (P a2^2) - |r|^2 / a2^4)

and k0 = div_x div_x' k + u(x).grad_x' k + u(x').grad_x k + (u(x).u(x')) k.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelDerivatives:
    """First and mixed derivatives of the base kernel at one pair of points."""

    k_value: float
    grad_x: np.ndarray
    grad_xp: np.ndarray
    div_grad: float


def base_kernel_derivatives(x, xp, params) -> KernelDerivatives:
    """k, grad_x k, grad_x' k and div_x div_x' k, by the formulas above."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    a1, a2 = params.alpha1, params.alpha2
    d = x.shape[0]
    pref = 1.0 + a1 * (x @ x + xp @ xp)
    r = x - xp
    rho = float(r @ r)
    k = float(np.exp(-rho / (2.0 * a2**2)) / pref)
    grad_x = -k * (2.0 * a1 * x / pref + r / a2**2)
    grad_xp = k * (r / a2**2 - 2.0 * a1 * xp / pref)
    div_grad = k * (
        d / a2**2
        + 8.0 * a1**2 * (x @ xp) / pref**2
        - 2.0 * a1 * rho / (pref * a2**2)
        - rho / a2**4
    )
    return KernelDerivatives(k_value=k, grad_x=grad_x, grad_xp=grad_xp, div_grad=float(div_grad))


def stein_kernel(x, u_x, xp, u_xp, params) -> float:
    """k0 at one pair of (point, score) tuples.  Symmetric under the joint
    swap (x, u_x) <-> (x', u_x'), exactly as computed: the swap exchanges the
    two score terms, which are added first."""
    derivs = base_kernel_derivatives(x, xp, params)
    u_x = np.asarray(u_x, dtype=float)
    u_xp = np.asarray(u_xp, dtype=float)
    score_terms = u_x @ derivs.grad_xp + u_xp @ derivs.grad_x
    return float(derivs.div_grad + score_terms + (u_x @ u_xp) * derivs.k_value)
