"""Continuum nu1 and lambda* of the clamped radial bilaplacian, independent
of mems4.

A Galerkin method in s = r^2 on the unit ball of R^N: radial functions
are polynomials in s, the basis (1 - s)^2 P_k(2s - 1), k = 0..K, is
clamped at r = 1 (value and r-derivative vanish), and the radial
Laplacian is 4s d^2/ds^2 + 2N d/ds.  With r^(N-1) dr = s^(N/2-1) ds / 2
both Gram matrices are integrals against the Jacobi weight s^(N/2-1),
which Gauss-Jacobi quadrature on K + 4 nodes integrates exactly.  The
smallest generalized eigenvalue of (stiffness, mass) is an upper bound
on nu1 that decreases to it as K grows.

The pull-in voltage lambda* is the fold of the minimal branch of
bilap(U) = lambda / (1 - U)^2: the same quadrature integrates the
nonlinear term, the branch is traced in U(0) by a bordered Newton
method, and lambda* is the largest voltage on it.

Legendre values and derivatives come from numpy's Legendre series, never
a monomial expansion, whose cancellation loses the eigenvalue at K = 20.
"""

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigh
from scipy.special import roots_jacobi


def _basis(dim: int, k_max: int):
    """The basis functions' values and Laplacians at the K + 4
    Gauss-Jacobi nodes (rows k = 0..k_max), and the nodes' weights."""
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
    return np.array(values), np.array(laplacians), weights


def continuum_nu1(dim: int, k_max: int = 16) -> float:
    """Smallest eigenvalue of the clamped bilaplacian on radial functions
    in the unit ball of R^dim, from k_max + 1 basis functions."""
    values, laplacians, weights = _basis(dim, k_max)
    stiffness = (laplacians * weights) @ laplacians.T
    mass = (values * weights) @ values.T
    return float(eigh(stiffness, mass, eigvals_only=True)[0])


def continuum_lambda_star(dim: int, k_max: int = 16) -> float:
    """The pull-in voltage of bilap(u) = lambda / (1 - u)^2 on the unit
    ball of R^dim, clamped, from k_max + 1 basis functions.

    The weak form is stiffness c = lambda b(c), with b_j the integral of
    (1 - U)^-2 phi_j.  At each height t the bordered Newton method solves
    it together with U(0) = t for (c, lambda), from the previous height's
    solution; t rises in steps of 1/50 until lambda falls, and golden
    section search on t refines the largest lambda."""
    values, laplacians, weights = _basis(dim, k_max)
    stiffness = (laplacians * weights) @ laplacians.T
    # U(0) = sum_k c_k P_k(-1).
    at_origin = (-1.0) ** np.arange(k_max + 1)
    unknowns = np.zeros(k_max + 2)  # c, then lambda

    def solve(t, guess):
        z = guess.copy()
        for _ in range(50):
            c, lam = z[:-1], z[-1]
            gap = 1.0 - c @ values
            load = values @ (weights / gap**2)
            residual = np.append(stiffness @ c - lam * load, at_origin @ c - t)
            jacobian = np.zeros((k_max + 2, k_max + 2))
            jacobian[:-1, :-1] = stiffness - lam * (values * (2.0 * weights / gap**3)) @ values.T
            jacobian[:-1, -1] = -load
            jacobian[-1, :-1] = at_origin
            step = np.linalg.solve(jacobian, residual)
            z -= step
            if np.max(np.abs(step)) <= 1e-15 * max(1.0, np.max(np.abs(z))):
                return z
        raise ArithmeticError(f"no Newton convergence at U(0) = {t}")

    heights, branch = [0.0], [unknowns]
    while len(branch) < 3 or branch[-1][-1] > branch[-2][-1]:
        heights.append(heights[-1] + 0.02)
        branch.append(solve(heights[-1], branch[-1]))
    # The largest lambda on the grid is at heights[-2]; refine within its
    # neighbours.
    lo, hi, start = heights[-3], heights[-1], branch[-2]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = solve(a, start)[-1], solve(b, start)[-1]
    while hi - lo > 1e-9:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = solve(b, start)[-1]
        else:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = solve(a, start)[-1]
    return float(max(fa, fb))
