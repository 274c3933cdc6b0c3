"""Discrete radial bilaplacian with clamped boundary conditions.

The radial Laplacian u'' + (N-1)/r u' is discretized in conservative form
r^(1-N) (r^(N-1) u')' on a graded mesh r_i = (i/(n+1))^gamma, with no node
at the origin (the flux through r = 0 vanishes by symmetry) and ghost
elimination of u(1) = u'(1) = 0 at r = 1.  Composing two Laplacians gives
a pentadiagonal operator that is exactly self-adjoint and positive
definite in the cell-volume inner product, so Green-matrix positivity and
the eigenvalue problems inherit clean linear algebra.

Only this module knows how A is stored; callers reach A through its
solves, its eigenvalues and ``OperatorMatrix.residual`` (the Newton
residual and its componentwise backward error).  A is factored once by
banded Cholesky; every back-solve (the clamped solve and the nu1 inverse
iteration) calls LAPACK pbtrs on that cached factor directly, after
checking that the right-hand side is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, eig_banded, solve_banded
from scipy.linalg.lapack import dpbtrs

from mems4.closed_forms import PowerSum

# Inverse iteration for the nu1 eigenfunction stops once the W-norm of a
# step falls below NU1_STEP_TOL; dims 1..17 take 9..27 steps.
NU1_STEP_TOL = 1e-12
NU1_MAX_ITER = 200


@dataclass(frozen=True)
class RadialGrid:
    """Graded mesh on (0, 1): interior nodes, grading exponent, dimension."""

    nodes: np.ndarray
    gamma: float
    dim: int

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_grid(n_nodes: int, gamma: float, dim: int) -> RadialGrid:
    """Graded mesh with nodes (i/(n+1))^gamma, i = 1..n, clustered at the
    origin for gamma > 1 to resolve r^(-8/3) forcing."""
    if n_nodes < 16:
        raise ValueError("need at least 16 interior nodes")
    if gamma < 1:
        raise ValueError("grading exponent must be >= 1")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    i = np.arange(1, n_nodes + 1, dtype=float)
    nodes = (i / (n_nodes + 1)) ** float(gamma)
    return RadialGrid(nodes, float(gamma), dim)


@dataclass(frozen=True)
class RadialField:
    """Sampled radial function: one value per interior grid node."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise ValueError("value vector does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")


def sample_power_sum(ps: PowerSum, radii: np.ndarray) -> np.ndarray:
    """Float samples of an exact power sum at the given radii."""
    out = np.zeros_like(radii, dtype=float)
    for t in ps.terms:
        out += float(t.coeff) * radii ** float(t.exponent)
    return out


class OperatorMatrix:
    """Discrete clamped bilaplacian on a radial grid.

    Weighted form: A = S W^-1 S + kappa e_n e_n^T with S the (symmetric)
    conservative Laplacian matrix and W the diagonal of cell volumes; the
    action of the bilaplacian is B = W^-1 A.  A is pentadiagonal,
    symmetric, positive definite.

    Raises ValueError when the grading is too strong for the mesh and
    dimension: a cell volume near the origin underflows to zero, or a
    band entry overflows.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self.dim = grid.dim
        r = grid.nodes
        n = grid.n
        nd = float(self.dim)
        mids = np.empty(n)
        mids[:-1] = 0.5 * (r[:-1] + r[1:])
        mids[-1] = 0.5 * (r[-1] + 1.0)
        gaps = np.empty(n)
        gaps[:-1] = r[1:] - r[:-1]
        gaps[-1] = 1.0 - r[-1]
        # Cell volumes int r^(N-1) dr over [m_{i-1}, m_i] (m_{-1} = 0).
        powers = mids**nd
        cells = np.empty(n)
        cells[0] = powers[0] / nd
        cells[1:] = (powers[1:] - powers[:-1]) / nd
        if not np.all(cells > 0):
            raise ValueError(f"gamma {grid.gamma:g} is too large for mesh {n} in dimension "
                             f"{self.dim}: a cell volume is not positive")
        flux = mids ** (nd - 1.0) / gaps
        self.cells = cells
        self.flux = flux
        self.delta = gaps[-1]
        # Tridiagonal S (weighted Laplacian): S[i,i+1] = flux[i],
        # S[i,i] = -(flux[i-1] + flux[i]) with flux[-1] := 0 at the origin.
        diag = -np.copy(flux)
        diag[1:] -= flux[:-1]
        self.s_diag = diag
        self.s_off = flux[:-1]
        self.kappa = flux[-1] * 2.0 / self.delta**2
        with np.errstate(over="ignore"):
            self._banded = self._assemble_banded()
        if not np.all(np.isfinite(self._banded)):
            raise ValueError(f"gamma {grid.gamma:g} is too large for mesh {n} in dimension "
                             f"{self.dim}: a band entry is not finite")
        self._chol = None

    def _assemble_banded(self) -> np.ndarray:
        n = self.grid.n
        d, e, c = self.s_diag, self.s_off, self.cells
        ab = np.zeros((3, n))
        # A = S diag(1/c) S, upper banded storage (row 2 = main diagonal).
        ab[2, :] = d * d / c
        ab[2, :-1] += e * e / c[1:]
        ab[2, 1:] += e * e / c[:-1]
        ab[1, 1:] = e * (d[:-1] / c[:-1] + d[1:] / c[1:])
        ab[0, 2:] = e[:-1] * e[1:] / c[1:-1]
        ab[2, -1] += self.kappa
        return ab

    def laplacian(self, v: np.ndarray, bv: float = 0.0) -> np.ndarray:
        """Discrete radial Laplacian at the interior nodes for a field with
        boundary value bv at r = 1."""
        out = self.s_diag * v
        out[:-1] += self.s_off * v[1:]
        out[1:] += self.s_off * v[:-1]
        out[-1] += self.flux[-1] * bv
        return out / self.cells

    def boundary_laplacian(self, v: np.ndarray, bv: float = 0.0, bs: float = 0.0) -> float:
        """Discrete Laplacian at r = 1 via the reflected ghost node."""
        return (
            2.0 * (v[-1] - bv) / self.delta**2
            + 2.0 * bs / self.delta
            + (self.dim - 1.0) * bs
        )

    def apply(self, v: np.ndarray, bv: float = 0.0, bs: float = 0.0) -> np.ndarray:
        """Discrete bilaplacian of a sampled field with boundary data
        (bv, bs) at r = 1; (0, 0) is the clamped operator action."""
        return self.laplacian(self.laplacian(v, bv), self.boundary_laplacian(v, bv, bs))

    def factor(self) -> np.ndarray:
        """Banded Cholesky factor of A, computed once.  Raises ValueError
        when A is not numerically positive definite on this mesh."""
        if self._chol is None:
            try:
                self._chol = cholesky_banded(self._banded, lower=False)
            except LinAlgError as exc:
                raise ValueError(
                    f"mesh {self.grid.n} with gamma {self.grid.gamma:g} in dimension "
                    f"{self.dim}: the operator is not numerically positive definite ({exc})"
                ) from exc
        return self._chol

    def _back_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs from the cached factor, overwriting rhs (callers pass a
        fresh temporary).  pbtrs propagates NaN silently, so a non-finite
        right-hand side is refused here; the factor of the finite A is
        finite and needs no check."""
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side contains non-finite entries")
        x, info = dpbtrs(self.factor(), rhs, lower=0, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
        return x

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Solve the clamped problem: bilaplacian(v) = f at interior nodes;
        a 2-D f holds one load per column."""
        return self._back_solve((self.cells * f.T).T)

    def solve_shifted(self, rhs: np.ndarray, shift_diag: np.ndarray) -> np.ndarray:
        """Solve (A - W diag(shift_diag)) x = W rhs with banded LU (the
        shifted matrix need not be definite near a fold)."""
        # General (2, 2) band layout: the upper rows are the symmetric
        # storage, the lower rows mirror it.
        ab = np.zeros((5, self.grid.n))
        ab[:3] = self._banded
        ab[3, :-1] = self._banded[1, 1:]
        ab[4, :-2] = self._banded[0, 2:]
        ab[2, :] -= self.cells * shift_diag
        return solve_banded((2, 2), ab, self.cells * rhs)

    def _lowest_eigenvalue(self, weight: np.ndarray | None) -> float:
        """Lowest eigenvalue of the symmetric-banded similarity transform
        W^-1/2 (A - W diag(weight)) W^-1/2 (no eigenvectors, so no dense
        band-reduction matrix)."""
        sq = np.sqrt(self.cells)
        ab = np.copy(self._banded)
        ab[2, :] /= self.cells
        ab[1, 1:] /= sq[1:] * sq[:-1]
        ab[0, 2:] /= sq[2:] * sq[:-2]
        if weight is not None:
            ab[2, :] -= weight
        vals = eig_banded(ab, lower=False, select="i", select_range=(0, 0), eigvals_only=True)
        return float(vals[0])

    def _w_normalized(self, v: np.ndarray) -> np.ndarray:
        return v / np.sqrt(np.sum(self.cells * v * v))

    def nu1(self) -> tuple[float, RadialField]:
        """Smallest eigenvalue of the clamped bilaplacian in the weighted
        inner product, with its (one-signed) eigenfunction.  The function
        comes from inverse iteration on the cached Cholesky factor of A,
        started from the constant: O(n) per step."""
        value = self._lowest_eigenvalue(None)
        phi = self._w_normalized(np.ones(self.grid.n))
        for _ in range(NU1_MAX_ITER):
            nxt = self._w_normalized(self._back_solve(self.cells * phi))
            step = nxt - phi
            phi = nxt
            if np.sum(self.cells * step * step) < NU1_STEP_TOL**2:
                break
        else:
            raise RuntimeError(f"nu1 inverse iteration did not converge in {NU1_MAX_ITER} steps")
        if phi[np.argmax(np.abs(phi))] < 0:
            phi = -phi
        return value, RadialField(self.grid, phi)

    def smallest_weighted_eigenvalue(self, weight: np.ndarray) -> float:
        """Smallest eigenvalue of bilaplacian - diag(weight) in the
        weighted inner product (the discrete stability eigenvalue when
        weight = 2 lambda / (1-u)^3)."""
        weight = np.asarray(weight, dtype=float)
        if len(weight) != self.grid.n or not np.all(np.isfinite(weight)):
            raise ValueError("weight must be a finite vector on the grid")
        if np.any(weight < 0):
            raise ValueError("weight entries must be nonnegative")
        return self._lowest_eigenvalue(weight)

    def residual(self, v: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Residual r = W^-1 A v - f of the clamped equation bilaplacian(v)
        = f, and rho, the componentwise backward error (Oettli-Prager) of
        the weighted system A v = W f: max |A v - W f| / (|A| |v| + |W f|).
        rho is the solver's residual measure, since an absolute sup-norm is
        meaningless next to matrix rows of order 1/h^4."""
        av = _band_product(self._banded, v)
        wf = self.cells * f
        scale = _band_product(np.abs(self._banded), np.abs(v)) + np.abs(wf)
        rho = float(np.max(np.abs(av - wf) / np.maximum(scale, 1e-300)))
        return av / self.cells - f, rho


def _band_product(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of a symmetric pentadiagonal matrix in upper banded storage
    (row 2 = main diagonal) with a vector."""
    out = ab[2, :] * v
    out[:-1] += ab[1, 1:] * v[1:]
    out[1:] += ab[1, 1:] * v[:-1]
    out[:-2] += ab[0, 2:] * v[2:]
    out[2:] += ab[0, 2:] * v[:-2]
    return out
