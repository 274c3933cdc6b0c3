"""Discrete radial bilaplacian with clamped boundary conditions.

The radial Laplacian u'' + (N-1)/r u' is discretized in conservative form
r^(1-N) (r^(N-1) u')' on the mesh r_i = (i/(n+1))^1.5 (GRADING), graded
toward the 1 - C|x|^(4/3) cusp of the singular solution, with no node at
the origin (the flux through r = 0 vanishes by symmetry) and ghost
elimination of u(1) = u'(1) = 0 at r = 1.  Composing two Laplacians gives
a pentadiagonal operator that is exactly self-adjoint and positive
definite in the cell-volume inner product, so Green-matrix positivity and
the eigenvalue problems inherit clean linear algebra.

Only this module knows how A is stored; callers reach A through its
clamped action ``apply`` (fields with other boundary data are applied
minus their boundary extension, whose bilaplacian is zero), its solves,
its eigenvalues and ``OperatorMatrix.residual`` (the Newton residual and
its componentwise backward error).  Building an
``OperatorMatrix`` assembles A and factors it by banded Cholesky, so an
operator that exists is positive definite on its mesh; every back-solve
(the clamped solve and the nu1 inverse iteration) calls LAPACK pbtrs on
that factor directly, after checking that the right-hand side is finite.

The LAPACK routines come from ``_lapack`` on the first operator built,
so importing this module loads numpy only; each call passes what SciPy's
wrapper (cholesky_banded, eig_banded, solve_banded) would, so results are
the wrapper's bit for bit.  The exact-engine commands load neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass

import numpy as np

from mems4.closed_forms import PowerSum

# Inverse iteration for the nu1 eigenfunction stops once the W-norm of a
# step falls below NU1_STEP_TOL; dims 1..17 take 9..27 steps.  Where A is
# too ill-conditioned (dims 2 and 3 at n = 16384) the step stalls at
# 2e-12..1.2e-11 from about step 12 on, and pull_in_voltage notes nu1's
# accuracy floor.  The iteration then stops once NU1_STALL_STEPS steps in
# a row have not fallen below the smallest step so far, or after
# NU1_MAX_ITER steps.  Up to n = 8192 (dims 1..17, 20, 24, 31, 32, 40,
# 64, where the operator builds) no run goes more than 6 steps without a
# new smallest step before it converges, so there the stall never ends one.
NU1_STEP_TOL = 1e-12
NU1_STALL_STEPS = 16
NU1_MAX_ITER = 200
GRADING = 1.5  # mesh nodes (i/(n+1))^GRADING, i = 1..n


def _lapack():
    """SciPy's compiled LAPACK module scipy.linalg._flapack, loaded without
    the package's __init__, which loads much of SciPy (27 MB resident with
    SciPy 1.17 on Python 3.11) for routines the engine never calls.  It is
    registered in sys.modules under its own name, so the package, if
    imported later, reuses it.  There is no fallback."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy.linalg")
    spec = package and importlib.machinery.PathFinder.find_spec(
        name, package.submodule_search_locations)
    if spec is None:
        raise ImportError(f"the float engine needs SciPy's compiled LAPACK module {name}")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_info(info: int, routine: str) -> None:
    """LAPACK's negative info: an argument the routine refused."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


@dataclass(frozen=True)
class RadialGrid:
    """Graded mesh on (0, 1): interior nodes and dimension."""

    nodes: np.ndarray
    dim: int

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_grid(n_nodes: int, dim: int) -> RadialGrid:
    """Graded mesh with nodes (i/(n+1))^GRADING, i = 1..n, clustered at
    the origin to resolve r^(-8/3) forcing."""
    if n_nodes < 16:
        raise ValueError("need at least 16 interior nodes")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim > sys.float_info.max:  # the operator computes in float(dim)
        raise ValueError("dimension must be at most the largest float (1.8e308)")
    i = np.arange(1, n_nodes + 1, dtype=float)
    return RadialGrid((i / (n_nodes + 1)) ** GRADING, dim)


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
    symmetric, positive definite; ``chol`` is its banded Cholesky factor
    (upper storage), computed here once.

    Raises ValueError when the mesh is too fine near the origin for the
    dimension (a cell volume there underflows to zero), when a band entry
    is not finite, and when A is not numerically positive definite on
    this mesh.
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
            raise ValueError(f"mesh {n} in dimension {self.dim}: a cell volume near the "
                             f"origin is not positive")
        self.cells = cells
        self.delta = gaps[-1]
        with np.errstate(over="ignore", divide="ignore"):
            flux = mids ** (nd - 1.0) / gaps
            self.flux = flux
            # Tridiagonal S (weighted Laplacian): S[i,i+1] = flux[i],
            # S[i,i] = -(flux[i-1] + flux[i]) with flux[-1] := 0 at the origin.
            diag = -np.copy(flux)
            diag[1:] -= flux[:-1]
            self.s_diag = diag
            self.s_off = flux[:-1]
            self.kappa = flux[-1] * 2.0 / self.delta**2
            self._banded = self._assemble_banded()
        if not np.all(np.isfinite(self._banded)):
            raise ValueError(f"mesh {n} in dimension {self.dim}: a band entry is not finite")
        self._lapack = _lapack()
        # cholesky_banded(ab, lower=False): its finite check is the one above.
        self.chol, info = self._lapack.dpbtrf(self._banded, lower=0)
        if info > 0:
            raise ValueError(f"mesh {n} in dimension {self.dim}: the operator is not "
                             f"numerically positive definite "
                             f"({info}-th leading minor not positive definite)")
        _check_info(info, "pbtrf")

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

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Clamped bilaplacian W^-1 A v of a sampled field: the Laplacian of
        its Laplacian, whose value at r = 1 is 2 v_n / delta^2 by the
        reflected ghost node of u(1) = u'(1) = 0.  A field with other
        boundary data is applied as v - Phi, Phi its boundary extension."""
        return self.laplacian(self.laplacian(v), 2.0 * v[-1] / self.delta**2)

    def _back_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs from the Cholesky factor, overwriting rhs (callers pass a
        fresh temporary).  pbtrs propagates NaN silently, so a non-finite
        right-hand side is refused here; the factor of the finite A is
        finite and needs no check."""
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side contains non-finite entries")
        x, info = self._lapack.dpbtrs(self.chol, rhs, lower=0, overwrite_b=1)
        _check_info(info, "pbtrs")
        return x

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Solve the clamped problem: bilaplacian(v) = f at interior nodes;
        a 2-D f holds one load per column."""
        return self._back_solve((self.cells * f.T).T)

    def solve_shifted(self, rhs: np.ndarray, shift_diag: np.ndarray) -> np.ndarray:
        """Solve (A - W diag(shift_diag)) x = W rhs with banded LU (the
        shifted matrix need not be definite near a fold), as the gbsv call
        of solve_banded((2, 2), ...).  ValueError for a non-finite entry,
        numpy.linalg.LinAlgError for an exactly singular matrix."""
        # gbsv's (2, 2) band layout: two rows of fill-in, then the upper
        # rows of the symmetric storage, then its mirror below.
        ab = np.zeros((7, self.grid.n))
        ab[2:5] = self._banded
        ab[4, :] -= self.cells * shift_diag
        ab[5, :-1] = self._banded[1, 1:]
        ab[6, :-2] = self._banded[0, 2:]
        b = self.cells * rhs
        if not (np.isfinite(ab[4]).all() and np.isfinite(b).all()):
            raise ValueError("shifted matrix or right-hand side contains non-finite entries")
        _, _, x, info = self._lapack.dgbsv(2, 2, ab, b, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        _check_info(info, "gbsv")
        return x

    def _lowest_eigenvalue(self, weight: np.ndarray) -> float:
        """Lowest eigenvalue of the symmetric-banded similarity transform
        W^-1/2 (A - W diag(weight)) W^-1/2 (no eigenvectors, so no dense
        band-reduction matrix)."""
        sq = np.sqrt(self.cells)
        ab = np.copy(self._banded)
        ab[2, :] /= self.cells
        ab[1, 1:] /= sq[1:] * sq[:-1]
        ab[0, 2:] /= sq[2:] * sq[:-2]
        ab[2, :] -= weight
        # eig_banded(ab, select="i", select_range=(0, 0), eigvals_only=True)
        lapack = self._lapack
        w, _, m, _, info = lapack.dsbevx(ab, 0.0, 1.0, 1, 1, compute_v=0, range=2, lower=0,
                                         abstol=2 * lapack.dlamch("s"), mmax=1)
        _check_info(info, "sbevx")
        if info > 0 or m != 1:
            raise np.linalg.LinAlgError(f"LAPACK sbevx found {m} eigenvalues, not 1 (info {info})")
        return float(w[0])

    def _w_normalized(self, v: np.ndarray) -> np.ndarray:
        return v / np.sqrt(np.sum(self.cells * v * v))

    def nu1(self) -> tuple[float, RadialField]:
        """Smallest eigenvalue of the clamped bilaplacian in the weighted
        inner product, with its (one-signed) eigenfunction.  The function
        comes from inverse iteration on the Cholesky factor of A,
        started from the constant: O(n) per step, at most NU1_MAX_ITER
        steps, fewer where the step stalls at round-off."""
        value = self._lowest_eigenvalue(np.zeros(self.grid.n))
        phi = self._w_normalized(np.ones(self.grid.n))
        smallest, stalled = np.inf, 0
        for _ in range(NU1_MAX_ITER):
            nxt = self._w_normalized(self._back_solve(self.cells * phi))
            step = nxt - phi
            phi = nxt
            size = np.sum(self.cells * step * step)
            if size < NU1_STEP_TOL**2:
                break
            smallest, stalled = (size, 0) if size < smallest else (smallest, stalled + 1)
            if stalled == NU1_STALL_STEPS:
                break
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
