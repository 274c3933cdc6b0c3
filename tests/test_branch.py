"""Tests for minimal-branch continuation and pull-in estimation."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import mems4.branch
from mems4.branch import (
    GROWTH,
    MIN_REL_WIDTH,
    NU1_FLOOR_REL,
    BranchPoint,
    DivergenceReport,
    Workspace,
    analytic_pull_in_bounds,
    continue_branch,
    pull_in_ceiling,
    pull_in_voltage,
    regularity_verdict,
)
from mems4.certify import check_candidate
from mems4.closed_forms import (
    HOMOGENEOUS,
    BoundaryPair,
    singular_voltage,
    touchdown_profile,
    touchdown_shape,
)
from mems4.radial_operator import OperatorMatrix, build_grid, sample_power_sum

F = Fraction


@pytest.fixture(scope="module")
def grid3():
    return build_grid(256, 3)


@pytest.fixture(scope="module")
def branch3(grid3):
    # ten voltages strictly below the exact lower bound 32/3 for the fold
    return continue_branch(HOMOGENEOUS, grid3, np.linspace(1.0, 10.0, 10))


def test_zero_voltage_is_trivial(grid3):
    (pt,) = continue_branch(HOMOGENEOUS, grid3, [0.0]).points
    assert pt.max_value == 0.0
    assert pt.residual == 0.0
    op = OperatorMatrix(grid3)
    nu1, _ = op.nu1()
    assert pt.mu1 == pytest.approx(nu1, rel=1e-12)


def test_rejects_inadmissible_pair(grid3):
    with pytest.raises(ValueError, match=r"^alpha 1/1, beta 0/1 are not admissible: need beta <= 0"):
        continue_branch(BoundaryPair(1, 0), grid3, [1.0])


@pytest.mark.parametrize("lambdas, bad", [([-1.0], "-1.0"), ([1.0, math.nan, 2.0], "nan"),
                                          ([1.0, math.inf], "inf")],
                         ids=["negative", "nan", "inf"])
def test_rejects_unsolvable_voltage_before_any_solve(grid3, monkeypatch, lambdas, bad):
    # NaN passes every comparison of the increasing-grid check; each of
    # these is refused before the solver runs, naming the voltage.
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(mems4.branch, "_solve_at", no_solve)
    with pytest.raises(ValueError, match=f"^voltage {bad} is not finite and nonnegative$"):
        continue_branch(HOMOGENEOUS, grid3, lambdas)


@pytest.mark.parametrize("alpha", [-10**103, -10**200], ids=["-1e103", "-1e200"])
def test_boundary_data_of_large_magnitude_solve_without_warnings(alpha):
    # 1 - u is about -alpha: (1 - u)^3, and at -1e200 (1 - u)^2, overflow
    # to inf where the true forcing and energy terms underflow to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = continue_branch(BoundaryPair(alpha, 0), build_grid(16, 1), [1.0])
    (pt,) = run.points
    assert pt.energy_cubed == 0.0
    assert np.isfinite(pt.mu1)


def test_single_solve_below_lower_bound(grid3):
    # 0.9 * 32/3: existence is guaranteed, so the solver must converge.
    (pt,) = continue_branch(HOMOGENEOUS, grid3, [0.9 * 32.0 / 3.0]).points
    assert pt.max_value < 1.0
    assert pt.residual <= 1e-10
    assert np.all(np.diff(pt.field.values) <= 1e-12)  # radially decreasing


def test_monotone_iterates_nondecreasing(grid3, monkeypatch):
    # With homogeneous data Phi = 0, so each monotone iterate is exactly
    # what OperatorMatrix.solve returns.
    history = []
    solve = OperatorMatrix.solve

    def recording_solve(op, f):
        v = solve(op, f)
        history.append(v.copy())
        return v

    monkeypatch.setattr(OperatorMatrix, "solve", recording_solve)
    (pt,) = continue_branch(HOMOGENEOUS, grid3, [5.0]).points
    assert len(history) >= 2
    for a, b in zip(history, history[1:]):
        assert np.all(b >= a - 1e-13)


def _newton_solve_raising(monkeypatch, exc):
    # One monotone step leaves the residual above tolerance, so the
    # solver reaches the Newton phase and its linearized solve.
    def solve_shifted(op, rhs, shift_diag):
        raise exc
    monkeypatch.setattr(mems4.branch, "MAX_MONOTONE", 1)
    monkeypatch.setattr(OperatorMatrix, "solve_shifted", solve_shifted)


def test_newton_solve_bug_propagates(grid3, monkeypatch):
    # A fault in the linearized solve is a bug, not a divergence the
    # pull-in bisection would read as "no solution".
    _newton_solve_raising(monkeypatch, TypeError("bug"))
    with pytest.raises(TypeError, match="bug"):
        continue_branch(HOMOGENEOUS, grid3, [5.0])


def test_singular_newton_matrix_is_a_divergence(grid3, monkeypatch):
    _newton_solve_raising(monkeypatch, LinAlgError("singular matrix"))
    run = continue_branch(HOMOGENEOUS, grid3, [5.0])
    out = run.divergence
    assert run.points == []
    assert out.reason == "linearized solve failed"
    assert 0 < out.last_max < 1


def test_branch_pointwise_monotone_in_voltage(branch3):
    assert len(branch3.points) == 10
    assert branch3.divergence is None
    for p, q in zip(branch3.points, branch3.points[1:]):
        assert np.all(q.field.values >= p.field.values - 1e-12)


def test_branch_stability_eigenvalues(branch3):
    mus = [p.mu1 for p in branch3.points]
    assert all(m > 0 for m in mus)
    assert all(a > b for a, b in zip(mus, mus[1:]))  # decreasing toward fold


def test_branch_fields_radially_decreasing(branch3):
    for p in branch3.points:
        assert np.all(np.diff(p.field.values) <= 1e-12)


def test_branch_diagnostics(branch3):
    # Both energies stay finite, and grow with the voltage since u does.
    h2 = [p.energy_h2 for p in branch3.points]
    cubed = [p.energy_cubed for p in branch3.points]
    assert np.all(np.isfinite(h2)) and np.all(np.isfinite(cubed))
    assert all(a < b for a, b in zip(h2, h2[1:]))
    assert all(a < b for a, b in zip(cubed, cubed[1:]))


def test_empty_voltage_grid(grid3):
    run = continue_branch(HOMOGENEOUS, grid3, [])
    assert run.points == []
    assert run.divergence is None


def test_diagnostics_single_trivial_point(grid3):
    # At u = 0 the H^2 energy vanishes and int 1/(1-u)^3 is the ball's volume.
    (pt,) = continue_branch(HOMOGENEOUS, grid3, [0.0]).points
    assert pt.energy_h2 == 0.0
    assert pt.energy_cubed == float(np.sum(OperatorMatrix(grid3).cells))


def test_voltage_grid_must_increase(grid3):
    with pytest.raises(ValueError):
        continue_branch(HOMOGENEOUS, grid3, [2.0, 1.0])


def test_divergence_above_upper_bound(grid3):
    op = OperatorMatrix(grid3)
    _, upper, _ = analytic_pull_in_bounds(op)
    run = continue_branch(HOMOGENEOUS, grid3, [1.2 * upper])
    out = run.divergence
    assert run.points == []
    assert "ceiling" in out.reason or "Newton" in out.reason
    assert out.last_max >= 0


def test_nu1_floor_at_finest_mesh_is_a_gap_not_an_error():
    # At n = 16384 in dim 3, nu1's inverse iteration stalls at round-off
    # above its step tolerance and runs to its cap; the Rayleigh gap that
    # pull_in_voltage writes as the accuracy-floor note shows it.
    op = OperatorMatrix(build_grid(16384, 3))
    _, upper, gap = analytic_pull_in_bounds(op)
    assert np.isfinite(upper)
    assert gap > NU1_FLOOR_REL


def test_overflowing_warm_start_is_a_divergence(grid3):
    # Extrapolating from a step of 5e-324 to 1e308 multiplies the zero
    # entries of the step by inf, so the warm start holds NaN; it is
    # retried cold, and the cold back-solve overflows, which is a
    # divergence with a finite last maximum.
    run = continue_branch(HOMOGENEOUS, grid3, [0.0, 5e-324, 1e308])
    assert len(run.points) == 2
    assert run.divergence.reason == "iterates overflowed"
    assert np.isfinite(run.divergence.last_max)


def test_branch_truncates_at_divergence(grid3):
    op = OperatorMatrix(grid3)
    _, upper, _ = analytic_pull_in_bounds(op)
    run = continue_branch(HOMOGENEOUS, grid3, [1.0, 5.0, 2.0 * upper])
    assert len(run.points) == 2
    assert isinstance(run.divergence, DivergenceReport)
    assert run.divergence.lam == 2.0 * upper


def test_nonhomogeneous_branch_below_touchdown():
    # At data (0, -4/3) the exact touchdown shape solves the equation at
    # the singular voltage, so just below it the minimal solution exists
    # and stays below that shape at every node.
    grid = build_grid(256, 9)
    bp = BoundaryPair(F(0), F(-4, 3))
    lb = float(singular_voltage(9))
    (pt,) = continue_branch(bp, grid, [0.99 * lb]).points
    ub = sample_power_sum(touchdown_shape(), grid.nodes)
    assert np.max(pt.field.values - ub) <= 1e-9
    assert pt.mu1 > 0


def test_nonhomogeneous_at_exact_fold_is_edge_case():
    # (0, -4/3) at the singular voltage IS the fold for N = 9 (the shape
    # is a singular semi-stable solution there), so the discrete oracle
    # may fall either way; both outcomes must be sane.
    grid = build_grid(256, 9)
    bp = BoundaryPair(F(0), F(-4, 3))
    lb = float(singular_voltage(9))
    run = continue_branch(bp, grid, [lb])
    if run.points:
        ub = sample_power_sum(touchdown_shape(), grid.nodes)
        assert np.max(run.points[0].field.values - ub) <= 1e-6
    else:
        assert run.divergence.reason


def test_n17_profiles_below_touchdown_shape():
    grid = build_grid(256, 17)
    lb = float(singular_voltage(17))
    run = continue_branch(HOMOGENEOUS, grid, np.linspace(20.0, lb * 0.99, 8))
    assert len(run.points) == 8
    ub = sample_power_sum(touchdown_shape(), grid.nodes)
    for pt in run.points:
        assert np.max(pt.field.values - ub) <= 10 * 1e-10


def test_pull_in_bracket_n2():
    grid = build_grid(256, 2)
    est = pull_in_voltage(HOMOGENEOUS, grid, rel_width=1e-4)
    assert est.analytic_lower == F(128, 27)
    assert est.lambda_lo <= est.lambda_hi
    assert (est.lambda_hi - est.lambda_lo) <= 1e-4 * est.lambda_lo * 1.001
    assert float(est.analytic_lower) < est.lambda_lo
    assert est.lambda_hi < est.analytic_upper
    assert est.consistent is True
    assert est.near_fold is not None
    assert est.near_fold.mu1 > 0
    assert not est.flagged


def test_pull_in_ceiling_bounds_the_upward_search():
    # The ceiling is GROWTH max(1, (1 - alpha)^3) 4 R / 27, R >= nu1 the
    # Rayleigh quotient of (1 - r^2)^2.  At alpha = -1.5e102 it passes half
    # the largest float, where the bisection's lo + hi would overflow, and
    # pull_in_voltage refuses before any solve.
    grid = build_grid(16, 3)
    upper = analytic_pull_in_bounds(OperatorMatrix(grid))[1]
    assert upper < pull_in_ceiling(Workspace(HOMOGENEOUS, grid)) / GROWTH < 1.05 * upper
    far = pull_in_ceiling(Workspace(BoundaryPair(F(-10**102), F(0)), grid))
    assert far == pytest.approx(GROWTH * 4 * 241.59 / 27 * (1 + 1e102) ** 3, rel=1e-4)
    with pytest.raises(ValueError, match="half the largest float"):
        pull_in_ceiling(Workspace(BoundaryPair(F(-15 * 10**101), F(0)), grid))
    with pytest.raises(ValueError, match="half the largest float"):
        pull_in_voltage(BoundaryPair(F(-10**103), F(0)), grid)


@pytest.fixture(scope="module")
def grid12():
    return build_grid(512, 12)


@pytest.fixture(scope="module")
def homogeneous12(grid12):
    return pull_in_voltage(HOMOGENEOUS, grid12, rel_width=1e-8).lambda_lo


@pytest.mark.parametrize("alpha", [
    F(1, 10),
    F(-1, 2),
    F(-3),
    pytest.param(F(999, 1000), marks=pytest.mark.xfail(
        reason=(
            "the solver's absolute thresholds STALL_INCREMENT and CEILING do "
            "not scale with 1 - alpha: the bracket is 6.8e-4 low"
        ),
        strict=True,
    )),
], ids=["1/10", "-1/2", "-3", "999/1000"])
def test_constant_boundary_value_scales_the_pull_in_voltage(alpha, grid12, homogeneous12):
    # With beta = 0, Phi = alpha is constant and v = (1 - alpha) w maps the
    # discrete homogeneous problem at lam / (1 - alpha)^3 onto the problem
    # at alpha, so the brackets scale exactly by (1 - alpha)^3.
    # The upward search starts at 1.02 max(1, (1 - alpha)^3) 4 nu1 / 27,
    # above lam*, so nothing is flagged for alpha < 0 either.
    est = pull_in_voltage(BoundaryPair(alpha, F(0)), grid12, rel_width=1e-8)
    expected = float((1 - alpha) ** 3) * homogeneous12
    assert abs(est.lambda_lo / expected - 1) < 2e-6
    assert not est.flagged


@pytest.mark.xfail(
    reason=(
        "the bisection accepts unconverged iterates: a monotone solve that "
        "reaches MAX_MONOTONE passes the backward-error test of its last "
        "linear system (f frozen), which does not measure convergence; one "
        "more fixed-point step moves the near-fold point by 0.12, 3.5e-3 "
        "and 1.1e-3 in dims 1, 3 and 5"
    ),
    strict=True,
)
@pytest.mark.parametrize("dim", [1, 3, 5])
def test_near_fold_point_is_a_fixed_point(dim):
    grid = build_grid(256, dim)
    est = pull_in_voltage(HOMOGENEOUS, grid)
    u = est.near_fold.field.values
    step = OperatorMatrix(grid).solve(est.lambda_lo / (1.0 - u) ** 2)
    assert np.max(np.abs(step - u)) < 1e-6


def test_nu1_accuracy_floor_note(monkeypatch):
    # eig_banded's nu1 drifts from the Rayleigh estimate of its own
    # eigenfunction at fine meshes in low dimension (5.9e-4 at dim 1,
    # n = 1024); the gap costs one back-solve and is noted, never flagged.
    solves = []
    plain_solve = OperatorMatrix.solve
    monkeypatch.setattr(OperatorMatrix, "solve", lambda op, f: solves.append(1) or plain_solve(op, f))
    _, _, gap = analytic_pull_in_bounds(OperatorMatrix(build_grid(1024, 1)))
    assert len(solves) == 1
    assert 1e-4 < gap < 1e-3
    monkeypatch.undo()
    fine = pull_in_voltage(HOMOGENEOUS, build_grid(1024, 1), rel_width=1e-3)
    floor = [n for n in fine.notes if n.startswith("nu1 accuracy floor")]
    assert floor == ["nu1 accuracy floor: eigensolvers differ by 5.9e-04 relative"]
    assert not any("flagged" in n for n in fine.notes) and not fine.flagged
    coarse = pull_in_voltage(HOMOGENEOUS, build_grid(256, 17), rel_width=1e-3)
    assert not any(n.startswith("nu1 accuracy floor") for n in coarse.notes)


def test_pull_in_grows_the_bracket_past_a_low_analytic_bound(monkeypatch):
    # With 4 nu1 / 27 halved, the start solve converges: the search grows
    # the upper end until a solve diverges, flags the oracle, and still
    # brackets the same pull-in voltage.
    grid = build_grid(64, 3)
    plain = pull_in_voltage(HOMOGENEOUS, grid, rel_width=1e-6)
    bounds = mems4.branch.analytic_pull_in_bounds

    def halved(op):
        lower, upper, gap = bounds(op)
        return lower, upper / 2, gap

    monkeypatch.setattr(mems4.branch, "analytic_pull_in_bounds", halved)
    est = pull_in_voltage(HOMOGENEOUS, grid, rel_width=1e-6)
    assert not plain.flagged and plain.consistent is True
    assert est.flagged and est.consistent is False
    assert "upper end grew past the analytic bound; oracle flagged" in est.notes
    assert est.lambda_lo <= plain.lambda_hi and plain.lambda_lo <= est.lambda_hi


@pytest.mark.parametrize("dim", [1, 2, 6, 17])
def test_pull_in_at_the_smallest_rel_width_ends(dim):
    # Above the float spacing 2^-52 every midpoint moves an end, so the
    # bisection stops with a bracket no wider than MIN_REL_WIDTH.
    est = pull_in_voltage(HOMOGENEOUS, build_grid(16, dim), rel_width=MIN_REL_WIDTH)
    assert 0 < est.lambda_hi - est.lambda_lo <= MIN_REL_WIDTH * est.lambda_lo


@pytest.mark.parametrize("rel_width", [0.0, 1e-17, 2.0**-52, np.nextafter(MIN_REL_WIDTH, 0), 1.0,
                                       np.nan])
def test_pull_in_rejects_rel_width_outside_its_bounds(grid3, rel_width):
    with pytest.raises(ValueError, match="rel_width"):
        pull_in_voltage(HOMOGENEOUS, grid3, rel_width=rel_width)


def test_pull_in_nonhomogeneous_has_no_analytic_bounds():
    grid = build_grid(128, 3)
    est = pull_in_voltage(BoundaryPair(F(1, 10), F(-1, 2)), grid, rel_width=1e-3)
    assert est.analytic_lower is None
    assert est.analytic_upper is None
    assert est.consistent is None
    assert est.lambda_lo <= est.lambda_hi


def test_regularity_verdict_low_dimension(grid3):
    est = pull_in_voltage(HOMOGENEOUS, grid3, rel_width=1e-5)
    assert regularity_verdict(est) == "regular-consistent"


def test_regularity_verdict_synthetic_cases(grid3):
    est = pull_in_voltage(HOMOGENEOUS, grid3, rel_width=1e-3)
    pt = est.near_fold
    nearly_touching = BranchPoint(
        lam=pt.lam, field=pt.field, max_value=0.9995, mu1=0.1,
        residual=pt.residual, energy_h2=pt.energy_h2, energy_cubed=pt.energy_cubed,
    )
    # below dimension 9 no bracket condition applies
    assert regularity_verdict(replace(est, near_fold=nearly_touching)) == "singular-consistent"
    # for N >= 9 the bracket must sit below H_N/2: est has tiny lambda_hi,
    # so the condition holds for dimension 17
    singular17 = replace(est, near_fold=nearly_touching, dim=17)
    assert regularity_verdict(singular17) == "singular-consistent"
    middling = BranchPoint(
        lam=pt.lam, field=pt.field, max_value=0.985, mu1=0.1,
        residual=pt.residual, energy_h2=pt.energy_h2, energy_cubed=pt.energy_cubed,
    )
    assert regularity_verdict(replace(est, near_fold=middling)) == "inconclusive"


def test_a_subsolution_that_is_not_semistable_does_not_bound_the_pull_in_voltage():
    # The clamped singular profile (1 - r^(4/3))^2 (m = 8/3) is an exact
    # sub-solution at voltage 85 in dimension 5, yet 85 lies below the
    # pull-in voltage (about 89.1): a singular sub-solution at lam gives
    # lam* <= lam only with semi-stability, and this one's pointwise
    # semistable check is falsified.
    report = check_candidate(touchdown_profile(F(8, 3)), 5, F(85), {})
    assert report.boundary_exact
    assert {k: c.status for k, c in report.checks.items()} == {
        "range-lower": "verified", "range-upper": "verified",
        "subsolution": "verified", "semistable": "falsified",
    }
    assert 85 < pull_in_voltage(HOMOGENEOUS, build_grid(128, 5), rel_width=1e-4).lambda_lo
