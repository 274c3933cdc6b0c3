"""Tests for the discrete radial bilaplacian."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded
from scipy.optimize import brentq
from scipy.special import iv, jv

from mems4.closed_forms import (
    bilaplacian_power_coeff,
    hardy_rellich,
    singular_voltage,
    touchdown_profile,
    touchdown_shape,
)
import mems4.radial_operator
from mems4.radial_operator import (
    NU1_MAX_ITER,
    NU1_STEP_TOL,
    OperatorMatrix,
    RadialField,
    build_grid,
    sample_power_sum,
)

F = Fraction


def dense_a(op: OperatorMatrix) -> np.ndarray:
    """The pentadiagonal weighted matrix A as a dense array."""
    ab = op._banded
    dense = np.diag(ab[2])
    dense += np.diag(ab[1, 1:], 1) + np.diag(ab[1, 1:], -1)
    dense += np.diag(ab[0, 2:], 2) + np.diag(ab[0, 2:], -2)
    return dense


def rayleigh_quotient(op: OperatorMatrix, v: np.ndarray, weight: np.ndarray) -> float:
    """Discrete Rayleigh quotient (v, (A - W diag(weight)) v) / (v, W v)."""
    num = v @ dense_a(op) @ v - np.sum(op.cells * weight * v * v)
    return float(num / np.sum(op.cells * v * v))


def dense_ground_state(op: OperatorMatrix, weight: np.ndarray) -> np.ndarray:
    """Lowest eigenfunction of W^-1 (A - W diag(weight)) from a dense
    symmetric eigensolve, W-normalised and positive at its largest entry."""
    sq = np.sqrt(op.cells)
    sym = dense_a(op) / np.outer(sq, sq) - np.diag(weight)
    phi = np.linalg.eigh(sym)[1][:, 0] / sq
    phi /= np.sqrt(np.sum(op.cells * phi * phi))
    return phi if phi[np.argmax(np.abs(phi))] > 0 else -phi


# Independent eigenvalue oracles, computed by scalar root-finding on the
# classical characteristic equations before touching the operator.


def beam_nu1() -> float:
    # Clamped rod on (-1, 1): cos(2 beta) cosh(2 beta) = 1, nu1 = beta^4.
    beta = brentq(lambda b: np.cos(2 * b) * np.cosh(2 * b) - 1.0, 2.0, 3.0)
    assert abs(2 * beta - 4.73004) < 1e-4
    return beta**4


def disk_nu1() -> float:
    # Clamped circular plate: J0(k) I1(k) + I0(k) J1(k) = 0, nu1 = k^4.
    k = brentq(lambda x: jv(0, x) * iv(1, x) + iv(0, x) * jv(1, x), 2.5, 3.5)
    assert abs(k - 3.19622) < 1e-4
    return k**4


def test_build_grid_uniform():
    grid = build_grid(64, 1.0, 3)
    assert np.allclose(grid.nodes, np.arange(1, 65) / 65.0)


def test_build_grid_graded():
    grid = build_grid(64, 1.5, 9)
    assert np.allclose(grid.nodes, (np.arange(1, 65) / 65.0) ** 1.5)
    spacing = np.diff(grid.nodes)
    # clustered at the origin: first gap smaller than last
    assert spacing[0] < spacing[-1]
    assert np.all(spacing > 0)
    assert grid.nodes[-1] < 1.0


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(8, 1.5, 3)
    with pytest.raises(ValueError):
        build_grid(64, 0.5, 3)
    with pytest.raises(ValueError):
        build_grid(64, 1.0, 0)


def test_radial_field_validation():
    grid = build_grid(32, 1.0, 2)
    with pytest.raises(ValueError):
        RadialField(grid, np.zeros(5))
    with pytest.raises(ValueError):
        RadialField(grid, np.full(32, np.nan))


@pytest.mark.parametrize("dim", [1, 3, 9, 17])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_power_residuals(dim, s):
    grid = build_grid(256, 1.5, dim)
    op = OperatorMatrix(grid)
    vals = grid.nodes**s
    out = op.apply(vals, bv=1.0, bs=float(s))
    K = float(bilaplacian_power_coeff(s, dim))
    exact = K * grid.nodes ** (s - 4.0)
    mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
    if K == 0.0:
        assert np.max(np.abs(out[mask])) < 5e-3
    else:
        rel = np.max(np.abs(out[mask] - exact[mask]) / np.abs(exact[mask]))
        assert rel < 5e-3


@pytest.mark.parametrize("dim,s", [(3, 3), (9, 4), (17, 3)])
def test_power_residual_richardson_order(dim, s):
    # Richardson ratio between two refinements within 20% of the nominal
    # second order.
    K = float(bilaplacian_power_coeff(s, dim))
    errs = []
    for n in (256, 512):
        grid = build_grid(n, 1.5, dim)
        op = OperatorMatrix(grid)
        out = op.apply(grid.nodes**s, bv=1.0, bs=float(s))
        exact = K * grid.nodes ** (s - 4.0)
        mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
        errs.append(np.max(np.abs(out[mask] - exact[mask]) / np.abs(exact[mask])))
    order = np.log2(errs[0] / errs[1])
    assert 1.6 <= order <= 2.4


def test_touchdown_residual_and_order():
    # Discrete bilaplacian of 1 - r^(4/3) against lb * r^(-8/3), with the
    # Richardson order between two refinements near the nominal 2.
    dim = 9
    lb = float(singular_voltage(dim))
    errs = []
    for n in (256, 512):
        grid = build_grid(n, 1.5, dim)
        op = OperatorMatrix(grid)
        vals = sample_power_sum(touchdown_shape(), grid.nodes)
        out = op.apply(vals, bv=0.0, bs=-4.0 / 3.0)
        exact = lb * grid.nodes ** (-8.0 / 3.0)
        mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
        errs.append(np.max(np.abs(out[mask] - exact[mask]) / exact[mask]))
    assert errs[0] < 0.01
    order = np.log2(errs[0] / errs[1])
    assert 1.6 <= order <= 2.4


def test_m3_profile_residual_n17():
    # bilap(w3) = (9/5) lb r^(-8/3) + (12/5)(N^2-1)/r, N = 17.
    dim = 17
    lb = float(singular_voltage(dim))
    errs = []
    for n in (256, 512):
        grid = build_grid(n, 1.5, dim)
        op = OperatorMatrix(grid)
        vals = sample_power_sum(touchdown_profile(3), grid.nodes)
        out = op.apply(vals)
        exact = (9.0 / 5.0) * lb * grid.nodes ** (-8.0 / 3.0) + (
            12.0 / 5.0
        ) * (dim**2 - 1) / grid.nodes
        mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
        errs.append(np.max(np.abs(out[mask] - exact[mask]) / exact[mask]))
    assert errs[0] < 0.01
    assert errs[1] < errs[0]


@pytest.mark.parametrize("dim", [1, 3, 9, 17])
def test_green_matrix_positivity_and_symmetry(dim):
    for n in (64, 128):
        grid = build_grid(n, 1.5, dim)
        op = OperatorMatrix(grid)
        G = op.solve(np.eye(grid.n))  # discrete Green functions as columns
        assert np.min(G) >= -1e-10 * np.max(G)
        M = op.cells[:, None] * G
        assert np.max(np.abs(M - M.T)) <= 1e-10 * np.max(np.abs(M))


def test_green_reproduces_constant_load_solution():
    # bilap(g) = lb with clamped data has the closed form
    # g = lb (1 - r^2)^2 / (8 N (N + 2)), positive at the origin.
    dim = 9
    lb = float(singular_voltage(dim))
    grid = build_grid(128, 1.5, dim)
    op = OperatorMatrix(grid)
    G = op.solve(np.eye(grid.n))  # discrete Green functions as columns
    sol = G @ np.full(grid.n, lb)
    exact = lb * (1.0 - grid.nodes**2) ** 2 / (8.0 * dim * (dim + 2))
    assert sol[0] > 0
    assert np.max(np.abs(sol - exact)) < 1e-3 * np.max(exact)


def test_nu1_beam_oracle():
    grid = build_grid(256, 1.5, 1)
    op = OperatorMatrix(grid)
    val, phi = op.nu1()
    oracle = beam_nu1()
    assert oracle == pytest.approx(31.2852, abs=2e-4)
    assert abs(val - oracle) / oracle < 1e-3
    assert np.all(phi.values > 0)


def test_nu1_disk_oracle():
    grid = build_grid(256, 1.5, 2)
    op = OperatorMatrix(grid)
    val, phi = op.nu1()
    oracle = disk_nu1()
    assert oracle == pytest.approx(104.363, abs=2e-3)
    assert abs(val - oracle) / oracle < 1e-2
    assert np.all(phi.values > 0)


def test_nu1_monotone_in_dimension():
    vals = []
    for dim in (1, 2, 3, 9, 17):
        grid = build_grid(256, 1.5, dim)
        op = OperatorMatrix(grid)
        v, _ = op.nu1()
        vals.append(v)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_weighted_eigenvalue_zero_weight_is_nu1():
    grid = build_grid(128, 1.5, 3)
    op = OperatorMatrix(grid)
    nu, _ = op.nu1()
    mu = op.smallest_weighted_eigenvalue(np.zeros(grid.n))
    assert abs(mu - nu) < 1e-9 * abs(nu)


def test_weighted_eigenvalue_is_rayleigh_minimum():
    grid = build_grid(128, 1.5, 9)
    op = OperatorMatrix(grid)
    weight = 10.0 / (1.0 + grid.nodes**2)
    mu = op.smallest_weighted_eigenvalue(weight)
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.standard_normal(grid.n)
        assert rayleigh_quotient(op, v, weight) >= mu - 1e-8 * abs(mu)
    # the minimizing eigenfunction (from a dense eigensolve) attains it
    phi = dense_ground_state(op, weight)
    assert abs(rayleigh_quotient(op, phi, weight) - mu) < 1e-8 * abs(mu)


@pytest.mark.parametrize("dim", [1, 3, 17])
def test_nu1_eigenfunction_matches_dense_ground_state(dim):
    op = OperatorMatrix(build_grid(128, 1.5, dim))
    _, phi = op.nu1()
    assert np.all(phi.values > 0)
    x = phi.values / np.sqrt(np.sum(op.cells * phi.values**2))
    diff = x - dense_ground_state(op, np.zeros(op.grid.n))
    assert np.sqrt(np.sum(op.cells * diff * diff)) < 1e-8


def test_nu1_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(mems4.radial_operator, "NU1_MAX_ITER", 1)
    with pytest.raises(RuntimeError):
        OperatorMatrix(build_grid(128, 1.5, 3)).nu1()


def test_nu1_memory_stays_linear():
    # A dense eigenvector path would hold an n x n matrix: 128 MB at n = 4096.
    tracemalloc.start()
    try:
        OperatorMatrix(build_grid(4096, 1.5, 17)).nu1()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_weighted_eigenvalue_validation():
    grid = build_grid(128, 1.5, 9)
    op = OperatorMatrix(grid)
    with pytest.raises(ValueError):
        op.smallest_weighted_eigenvalue(np.full(grid.n, np.inf))


@pytest.mark.xfail(
    reason=(
        "nodewise sampling of the contact-plane weight H_N/r^4 defeats the "
        "continuum Hardy-Rellich constant: a spike at the first node makes "
        "the quotient diverge to -inf under refinement, so the discrete "
        "stability eigenvalue cannot stay near zero"
    ),
    strict=True,
)
def test_touchdown_weight_semistability_discrete():
    dim = 9
    grid = build_grid(256, 1.5, dim)
    op = OperatorMatrix(grid)
    weight = float(hardy_rellich(dim)) / grid.nodes**4
    mu = op.smallest_weighted_eigenvalue(weight)
    assert mu >= -1.0


def test_apply_matches_matrix_on_clamped_fields():
    grid = build_grid(128, 1.5, 5)
    op = OperatorMatrix(grid)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(grid.n)
    direct = op.apply(v)
    via_matrix = dense_a(op) @ v / op.cells
    assert np.allclose(direct, via_matrix, rtol=1e-12, atol=1e-9)


def _parent_band_product(ab, v):
    # Upper symmetric band storage times a vector, in this order of sums.
    out = ab[2, :] * v
    out[:-1] += ab[1, 1:] * v[1:]
    out[1:] += ab[1, 1:] * v[:-1]
    out[:-2] += ab[0, 2:] * v[2:]
    out[2:] += ab[0, 2:] * v[:-2]
    return out


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("dim", [1, 5, 9, 17])
def test_residual_matches_reference_formulas_bitwise(dim, n):
    # The Newton right-hand side A v / W - f and the componentwise
    # backward error max |A v - W f| / (|A| |v| + |W f|), written out as
    # the solver formed them, each from its own band product.
    op = OperatorMatrix(build_grid(n, 1.5, dim))
    rng = np.random.default_rng(dim + n)
    v = op.solve(2.0 + rng.random(n)) * (1.0 + 1e-9 * rng.standard_normal(n))
    f = 2.0 + rng.random(n)
    ab = op._banded
    res = _parent_band_product(ab, v) - op.cells * f
    scale = _parent_band_product(np.abs(ab), np.abs(v)) + np.abs(op.cells * f)
    rho = float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))
    r = _parent_band_product(ab, v) / op.cells - f
    got_r, got_rho = op.residual(v, f)
    assert np.array_equal(got_r, r)
    assert type(got_rho) is float and got_rho == rho
    assert 0 < rho < 1


def test_solve_shifted_matches_dense_solve():
    # (A - W diag(shift)) x = W rhs against a dense solve of the same
    # matrix, with a shift large enough to make it indefinite.
    grid = build_grid(64, 1.5, 3)
    op = OperatorMatrix(grid)
    nu, _ = op.nu1()
    rng = np.random.default_rng(3)
    shift = nu * (1.0 + rng.random(grid.n))
    rhs = rng.standard_normal(grid.n)
    expected = np.linalg.solve(dense_a(op) - np.diag(op.cells * shift), op.cells * rhs)
    x = op.solve_shifted(rhs, shift)
    assert np.max(np.abs(x - expected)) < 1e-11 * np.max(np.abs(expected))
    # repeated calls start from the unshifted bands
    assert np.array_equal(op.solve_shifted(rhs, shift), x)
    assert np.allclose(op.solve_shifted(rhs, np.zeros(grid.n)), op.solve(rhs), rtol=1e-9)


def test_solve_inverts_apply():
    # The roundtrip residual is judged in the componentwise backward-error
    # sense: matrix rows scale like 1/h^4 near the origin, so a forward
    # comparison would only measure cancellation noise.
    grid = build_grid(128, 1.5, 3)
    op = OperatorMatrix(grid)
    f = np.sin(3 * grid.nodes) + 2.0
    v = op.solve(f)
    res = np.abs(op.apply(v) - f)
    scale = np.abs(dense_a(op)) @ np.abs(v) / op.cells + np.abs(f)
    assert np.max(res / scale) < 1e-12


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("dim", [1, 5, 9, 17])
def test_solve_matches_cho_solve_banded_bitwise(dim, n):
    # The direct pbtrs back-solve does the same arithmetic as scipy's
    # wrapper, for one load and for the identity the Green tests pass.
    op = OperatorMatrix(build_grid(n, 1.5, dim))
    factor = (op.factor(), False)
    f = 2.0 + np.random.default_rng(dim).standard_normal(n)
    assert np.array_equal(op.solve(f), cho_solve_banded(factor, op.cells * f))
    eye = np.eye(n)
    assert np.array_equal(op.solve(eye), cho_solve_banded(factor, op.cells * eye))


@pytest.mark.parametrize("dim", [1, 5, 17])
def test_solve_2d_load_matches_column_solves_bitwise(dim):
    # A 2-D load holds one load per column, so its rows are scaled by the
    # cell volumes: each column comes out as the 1-D solve of that column.
    n = 64
    op = OperatorMatrix(build_grid(n, 1.5, dim))
    rng = np.random.default_rng(dim)
    for f in (rng.standard_normal((n, 3)), rng.standard_normal((n, n))):
        columns = np.column_stack([op.solve(f[:, j]) for j in range(f.shape[1])])
        assert np.array_equal(op.solve(f), columns)
    # Diagonal loads scale the same either way: the identity is unchanged.
    eye = np.eye(n)
    assert np.array_equal(op.solve(eye), cho_solve_banded((op.factor(), False), op.cells * eye))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_load(bad):
    op = OperatorMatrix(build_grid(64, 1.5, 5))
    f = np.ones(64)
    f[17] = bad
    with pytest.raises(ValueError):
        op.solve(f)
    with pytest.raises(ValueError):
        op.solve(np.where(np.eye(64) > 0, bad, 0.0))


@pytest.mark.parametrize("dim", [1, 8, 17])
def test_nu1_eigenfunction_matches_cho_solve_banded_iteration(dim):
    # The same inverse iteration as nu1, written with scipy's wrapper.
    op = OperatorMatrix(build_grid(256, 1.5, dim))
    factor = (op.factor(), False)

    def normalized(v):
        return v / np.sqrt(np.sum(op.cells * v * v))

    phi = normalized(np.ones(op.grid.n))
    for _ in range(NU1_MAX_ITER):
        nxt = normalized(cho_solve_banded(factor, op.cells * phi))
        step = nxt - phi
        phi = nxt
        if np.sum(op.cells * step * step) < NU1_STEP_TOL**2:
            break
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    assert np.array_equal(op.nu1()[1].values, phi)
