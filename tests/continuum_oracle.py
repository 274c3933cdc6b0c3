"""Continuum nu1 of the clamped radial bilaplacian, independent of mems4.

A Galerkin method in s = r^2 on the unit ball of R^N: radial functions
are polynomials in s, the basis (1 - s)^2 P_k(2s - 1), k = 0..K, is
clamped at r = 1 (value and r-derivative vanish), and the radial
Laplacian is 4s d^2/ds^2 + 2N d/ds.  With r^(N-1) dr = s^(N/2-1) ds / 2
both Gram matrices are integrals against the Jacobi weight s^(N/2-1),
which Gauss-Jacobi quadrature on K + 4 nodes integrates exactly.  The
smallest generalized eigenvalue of (stiffness, mass) is an upper bound
on nu1 that decreases to it as K grows.

Legendre values and derivatives come from numpy's Legendre series, never
a monomial expansion, whose cancellation loses the eigenvalue at K = 20.
"""

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigh
from scipy.special import roots_jacobi


def continuum_nu1(dim: int, k_max: int = 16) -> float:
    """Smallest eigenvalue of the clamped bilaplacian on radial functions
    in the unit ball of R^dim, from k_max + 1 basis functions."""
    x, weights = roots_jacobi(k_max + 4, 0.0, dim / 2.0 - 1.0)
    s = (x + 1.0) / 2.0
    values, laplacians = [], []
    for k in range(k_max + 1):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        # d/ds = 2 d/dx on the Legendre factor.
        p = legendre.legval(x, coef)
        dp = 2.0 * legendre.legval(x, legendre.legder(coef))
        ddp = 4.0 * legendre.legval(x, legendre.legder(coef, 2))
        phi = (1.0 - s) ** 2 * p
        dphi = -2.0 * (1.0 - s) * p + (1.0 - s) ** 2 * dp
        ddphi = 2.0 * p - 4.0 * (1.0 - s) * dp + (1.0 - s) ** 2 * ddp
        values.append(phi)
        laplacians.append(4.0 * s * ddphi + 2.0 * dim * dphi)
    values, laplacians = np.array(values), np.array(laplacians)
    stiffness = (laplacians * weights) @ laplacians.T
    mass = (values * weights) @ values.T
    return float(eigh(stiffness, mass, eigvals_only=True)[0])
