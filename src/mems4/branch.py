"""Minimal-branch continuation, pull-in voltage estimation, and
extremal-solution diagnostics.

The solver works in the shifted variable v = u - Phi (Phi the boundary
extension), so the discrete problem is the clamped bilaplacian equation
bilap(v) = lam / (1 - Phi - v)^2.  A monotone fixed-point phase (iterates
increase from below thanks to discrete Green-matrix positivity) hands over
to damped Newton once increments stall; "no solution" is diagnosed when
iterates cross the contact ceiling or Newton fails from every start, which
is the bisection oracle for the pull-in voltage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import LinAlgError

from mems4.closed_forms import (
    HOMOGENEOUS,
    BoundaryPair,
    boundary_extension,
    hardy_rellich,
    is_admissible,
    singular_voltage,
    touchdown_shape,
)
from mems4.radial_operator import (
    OperatorMatrix,
    RadialField,
    RadialGrid,
    sample_power_sum,
)

CEILING = 1e-6  # iterates reaching 1 - CEILING count as touchdown
DEFAULT_TOL = 1e-10
MAX_MONOTONE = 500
MAX_NEWTON = 60
STALL_INCREMENT = 1e-7
# A pull-in notes nu1's accuracy floor when the eigensolver's nu1 and the
# Rayleigh estimate of its eigenfunction differ by more than this.
NU1_FLOOR_REL = 1e-4


@dataclass(frozen=True)
class BranchPoint:
    """One converged point of the minimal branch."""

    lam: float
    field: RadialField
    max_value: float
    mu1: float
    residual: float
    energy_h2: float
    energy_cubed: float


@dataclass(frozen=True)
class DivergenceReport:
    """Structured failure report; the pull-in oracle's 'no solution'."""

    lam: float
    reason: str
    last_max: float


@dataclass
class BranchRun:
    """Branch points in increasing voltage order; a divergence at some
    voltage truncates the run and is recorded as the marker."""

    points: list[BranchPoint]
    divergence: DivergenceReport | None = None


@dataclass
class PullInEstimate:
    """Bracket for the pull-in voltage with the analytic cross-checks.

    This is a discrete-scheme estimate, not a certified value.  The
    analytic bounds apply to homogeneous boundary data only; for other
    admissible pairs they are None and the consistency flag is None.
    """

    lambda_lo: float
    lambda_hi: float
    analytic_lower: Fraction | None
    analytic_upper: float | None
    dim: int
    near_fold: BranchPoint
    consistent: bool | None = None
    notes: list[str] = field(default_factory=list)


def quadratic_lower_bound(n: int) -> Fraction:
    """Exact lower bound 32(10N - N^2 - 12)/27 for the homogeneous
    pull-in voltage."""
    return Fraction(32 * (10 * n - n * n - 12), 27)


def analytic_pull_in_bounds(op: OperatorMatrix) -> tuple[Fraction, float, float]:
    """(max of the two exact lower bounds, 4 nu1 / 27) for homogeneous
    data, and the relative gap between nu1 and the Rayleigh estimate
    (x, W x) / (x, W A^-1 W x) of its eigenfunction x (one back-solve)."""
    n = op.dim
    lower = max(quadratic_lower_bound(n), singular_voltage(n))
    nu1, phi = op.nu1()
    x = phi.values
    rayleigh = float(np.sum(op.cells * x * x) / np.sum(op.cells * x * op.solve(x)))
    return lower, 4.0 * nu1 / 27.0, abs(nu1 - rayleigh) / rayleigh


class _Workspace:
    """Per-(grid, boundary) solver state shared across voltages."""

    def __init__(self, bp: BoundaryPair, grid: RadialGrid):
        if not is_admissible(bp):
            raise ValueError(f"boundary pair {bp} is not admissible")
        self.bp = bp
        self.grid = grid
        self.op = OperatorMatrix(grid)
        self.phi = sample_power_sum(boundary_extension(bp), grid.nodes)
        self.phi_lap = float(bp.beta) * grid.dim  # Laplacian of the extension
        if np.max(self.phi) >= 1 - CEILING:
            raise ValueError("boundary extension grazes the contact plane")


def _solve_at(
    ws: _Workspace,
    lam: float,
    tol: float,
    v0: np.ndarray | None = None,
):
    """Monotone-then-Newton solve; returns (v, residual) with the
    deflection u = v + Phi, or a DivergenceReport.  The residual is the
    operator's componentwise backward error."""
    op, phi = ws.op, ws.phi
    n = ws.grid.n
    v = np.zeros(n) if v0 is None else np.array(v0, dtype=float)
    u = v + phi
    if np.max(u) >= 1 - CEILING:
        return DivergenceReport(lam, "warm start above ceiling", float(np.max(u)))

    def forcing(u):
        return lam / (1.0 - u) ** 2

    # Monotone phase (increasing from below when started at v = 0).
    for _ in range(MAX_MONOTONE):
        v_new = op.solve(forcing(u))
        u_new = v_new + phi
        if u_new.max() >= 1 - CEILING:
            return DivergenceReport(lam, "iterates reached the contact ceiling", float(u_new.max()))
        inc = float(np.abs(u_new - u).max())
        v, u = v_new, u_new
        if inc < STALL_INCREMENT:
            break

    # Damped Newton on the shifted variable.
    for _ in range(MAX_NEWTON):
        res_vec, rho = op.residual(v, forcing(u))
        if rho < tol:
            return v, rho
        try:
            delta = op.solve_shifted(-res_vec, 2.0 * lam / (1.0 - u) ** 3)
        except (LinAlgError, ValueError):  # singular, or a non-finite entry
            return DivergenceReport(lam, "linearized solve failed", float(np.max(u)))
        step = 1.0
        accepted = False
        while step > 2.0**-30:
            u_try = u + step * delta
            if np.max(u_try) < 1 - 0.5 * CEILING:
                _, rho_try = op.residual(v + step * delta, forcing(u_try))
                if rho_try < rho or step < 1e-4:
                    accepted = True
                    break
            step /= 2
        if not accepted:
            return DivergenceReport(lam, "Newton stalled", float(np.max(u)))
        v = v + step * delta
        u = v + phi
    return DivergenceReport(lam, "Newton did not converge", float(np.max(u)))


def _make_point(ws: _Workspace, lam: float, v: np.ndarray, residual: float) -> BranchPoint:
    op = ws.op
    u = v + ws.phi
    one_minus = 1.0 - u
    lap_u = op.laplacian(v) + ws.phi_lap
    energy_h2 = float(np.sum(op.cells * lap_u**2))
    energy_cubed = float(np.sum(op.cells / one_minus**3))
    return BranchPoint(
        lam=lam,
        field=RadialField(ws.grid, u),
        max_value=float(np.max(u)),
        mu1=op.smallest_weighted_eigenvalue(2.0 * lam / one_minus**3),
        residual=residual,
        energy_h2=energy_h2,
        energy_cubed=energy_cubed,
    )


def minimal_solution(
    lam: float,
    bp: BoundaryPair,
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
) -> BranchPoint | DivergenceReport:
    """Compute the minimal solution at one voltage, or report divergence:
    the one-voltage branch, started cold.  The cold fixed-point iterates
    increase pointwise (tested as an invariant).
    """
    if lam < 0:
        raise ValueError("voltage must be nonnegative")
    run = continue_branch(bp, grid, [lam], tol)
    return run.points[0] if run.points else run.divergence


def check_increasing_grid(lambdas) -> None:
    """Reject a voltage grid that is not strictly increasing."""
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("voltage grid must be strictly increasing")


def continue_branch(
    bp: BoundaryPair,
    grid: RadialGrid,
    lambdas,
    tol: float = DEFAULT_TOL,
) -> BranchRun:
    """Walk the minimal branch over an increasing voltage grid with
    extrapolated warm starts; the first divergence truncates the run."""
    lambdas = [float(x) for x in lambdas]
    check_increasing_grid(lambdas)
    run = BranchRun(points=[])
    ws = _Workspace(bp, grid)
    prev: list[tuple[float, np.ndarray]] = []
    for lam in lambdas:
        warm = None
        if len(prev) >= 2:
            (l1, v1), (l2, v2) = prev[-2], prev[-1]
            warm = v2 + (v2 - v1) * ((lam - l2) / (l2 - l1))
        elif prev:
            warm = prev[-1][1]
        out = _solve_at(ws, lam, tol, warm)
        if isinstance(out, DivergenceReport) and warm is not None:
            out = _solve_at(ws, lam, tol, None)  # cold restart
        if isinstance(out, DivergenceReport):
            run.divergence = out
            break
        v, rho = out
        run.points.append(_make_point(ws, lam, v, rho))
        prev.append((lam, v))
    return run


def pull_in_voltage(
    bp: BoundaryPair,
    grid: RadialGrid,
    rel_width: float = 1e-6,
    tol: float = DEFAULT_TOL,
) -> PullInEstimate:
    """Bracket the pull-in voltage by bisection on solver convergence."""
    ws = _Workspace(bp, grid)
    homogeneous = bp.alpha == 0 and bp.beta == 0
    lower_exact, upper_nu, nu1_gap = analytic_pull_in_bounds(ws.op)
    notes: list[str] = []
    if nu1_gap > NU1_FLOOR_REL:
        notes.append(f"nu1 accuracy floor: eigensolvers differ by {nu1_gap:.1e} relative")

    hi = upper_nu * 1.02
    out = _solve_at(ws, hi, tol)
    grew = False
    while not isinstance(out, DivergenceReport):
        grew = True
        sol = out
        hi *= 1.3
        out = _solve_at(ws, hi, tol, sol[0])
    if grew:
        notes.append("upper end grew past the analytic bound; oracle flagged")

    lo = hi / 2
    sol = None
    while lo > 1e-12:
        out = _solve_at(ws, lo, tol)
        if not isinstance(out, DivergenceReport):
            sol = out
            break
        lo /= 2
    if sol is None:
        raise RuntimeError("no convergent voltage found above 1e-12")

    while (hi - lo) > rel_width * lo:
        mid = 0.5 * (lo + hi)
        out = _solve_at(ws, mid, tol, sol[0])
        if isinstance(out, DivergenceReport):
            out = _solve_at(ws, mid, tol)  # cold retry before declaring no-solution
        if isinstance(out, DivergenceReport):
            hi = mid
        else:
            lo, sol = mid, out

    v, rho = sol
    est = PullInEstimate(
        lambda_lo=lo,
        lambda_hi=hi,
        analytic_lower=lower_exact if homogeneous else None,
        analytic_upper=upper_nu if homogeneous else None,
        dim=grid.dim,
        near_fold=_make_point(ws, lo, v, rho),
        notes=notes,
    )
    if homogeneous:
        est.consistent = (lo >= float(lower_exact)) and (hi <= upper_nu)
    return est


@dataclass
class ExtremalDiagnostics:
    """Boundedness and pointwise-envelope checks along a branch."""

    max_energy_h2: float
    max_energy_cubed: float
    stability_inequality_margins: list[float]
    stability_inequality_ok: bool
    touchdown_bound_max_violation: float | None
    touchdown_bound_ok: bool | None
    envelope_coefficient: float | None
    envelope_min_margin: float | None
    envelope_ok: bool | None
    notes: list[str] = field(default_factory=list)


# Relative quadrature tolerance of the stability-route inequality, and how
# far the near-fold profile may dip below the lower touchdown envelope.
STABILITY_REL_TOL = 1e-6
ENVELOPE_SLACK = 0.02


def extremal_diagnostics(
    points: list[BranchPoint],
    bp: BoundaryPair = HOMOGENEOUS,
    lambda_star_hi: float | None = None,
) -> ExtremalDiagnostics:
    """Check the a-priori estimates along a computed branch.

    (a) both energies stay finite; (b) the stability-route inequality
    2 int (u-Phi)^2/(1-u)^3 <= int (u-Phi)/(1-u)^2 at every point up to
    quadrature tolerance; (c) for N >= 9, u <= 1 - r^(4/3) nodewise; (d)
    with a pull-in upper estimate, the near-fold profile dominates the
    lower envelope 1 - C r^(4/3) - slack, C = (lam_hi / lb)^(1/3).
    """
    if not points:
        raise ValueError("need at least one branch point")
    grid = points[0].field.grid
    dim = grid.dim
    ws = _Workspace(bp, grid)
    phi, cells = ws.phi, ws.op.cells

    margins = []
    ineq_ok = True
    for pt in points:
        u = pt.field.values
        shifted = u - phi
        lhs = 2.0 * float(np.sum(cells * shifted**2 / (1.0 - u) ** 3))
        rhs = float(np.sum(cells * shifted / (1.0 - u) ** 2))
        margins.append(rhs - lhs)
        if rhs - lhs < -STABILITY_REL_TOL * (abs(rhs) + abs(lhs)):
            ineq_ok = False

    touchdown_violation = None
    touchdown_ok = None
    if dim >= 9:
        ub = sample_power_sum(touchdown_shape(), grid.nodes)
        touchdown_violation = max(
            float(np.max(pt.field.values - ub)) for pt in points
        )
        touchdown_ok = touchdown_violation <= 10 * DEFAULT_TOL

    env_c = env_margin = env_ok = None
    if lambda_star_hi is not None and dim >= 9:
        if not lambda_star_hi > 0:
            raise ValueError("pull-in estimate must be positive")
        env_c = (lambda_star_hi / float(singular_voltage(dim))) ** (1.0 / 3.0)
        envelope = 1.0 - env_c * grid.nodes ** (4.0 / 3.0)
        last = points[-1].field.values
        env_margin = float(np.min(last - envelope))
        env_ok = env_margin >= -ENVELOPE_SLACK

    return ExtremalDiagnostics(
        max_energy_h2=max(pt.energy_h2 for pt in points),
        max_energy_cubed=max(pt.energy_cubed for pt in points),
        stability_inequality_margins=margins,
        stability_inequality_ok=ineq_ok,
        touchdown_bound_max_violation=touchdown_violation,
        touchdown_bound_ok=touchdown_ok,
        envelope_coefficient=env_c,
        envelope_min_margin=env_margin,
        envelope_ok=env_ok,
    )


REGULAR = "regular-consistent"
SINGULAR = "singular-consistent"
INCONCLUSIVE = "inconclusive"

# 0.02 was chosen from an N = 8 near-fold maximum of 0.96..0.97, but that
# point is on the upper branch: at n = 512 its mu1 is -64.  The last stable
# point seen there, the last bisection solve that converged before the
# monotone cap (mu1 = 75), has max 0.954; N = 9 exceeds 0.998.  The value
# stays until it is chosen again from stable near-fold maxima (ROADMAP
# item 4).
DELTA_REGULAR = 0.02
DELTA_SINGULAR = 0.01


def regularity_verdict(estimate: PullInEstimate) -> str:
    """Classify the extremal solution from near-fold evidence.

    "regular-consistent" when the deflection stays bounded away from the
    contact plane; "singular-consistent" when it approaches the plane and,
    for N >= 9, the computed upper bracket sits below H_N/2 (the regime
    where semi-stable comparison arguments force a singular extremal
    solution); else inconclusive.  The verdict is a numerical consistency
    statement, not a proof, and is only meaningful when it is stable
    under grid refinement.
    """
    m = estimate.near_fold.max_value
    if m <= 1.0 - DELTA_REGULAR:
        return REGULAR
    if m >= 1.0 - DELTA_SINGULAR:
        if estimate.dim < 9:
            return SINGULAR
        if estimate.lambda_hi <= float(hardy_rellich(estimate.dim)) / 2.0:
            return SINGULAR
    return INCONCLUSIVE
