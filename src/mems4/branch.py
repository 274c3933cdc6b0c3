"""Minimal-branch continuation, pull-in voltage estimation, and the
near-fold regularity verdict.

The solver works in the shifted variable v = u - Phi (Phi the boundary
extension), so the discrete problem is the clamped bilaplacian equation
bilap(v) = lam / (1 - Phi - v)^2.  A monotone fixed-point phase (iterates
increase from below thanks to discrete Green-matrix positivity) hands over
to damped Newton once increments stall; "no solution" is diagnosed when
iterates cross the contact ceiling or Newton fails from every start, which
is the bisection oracle for the pull-in voltage.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from mems4 import NoConvergentVoltage
from mems4.closed_forms import (
    BoundaryPair,
    boundary_extension,
    format_rational,
    hardy_rellich,
    is_admissible,
    quadratic_lower_bound,
    singular_voltage,
)
from mems4.radial_operator import (
    OperatorMatrix,
    RadialGrid,
    sample_power_sum,
)

CEILING = 1e-6  # iterates reaching 1 - CEILING count as touchdown
# Newton accepts a solve once the operator's componentwise backward error
# is below TOL.  It reaches 0.3..2.3e-16 at every branch voltage in dims
# 1..5 (n up to 16384).  Where A is badly scaled (coarse meshes from dim 6
# on) it stalls higher near the fold, which lowers the bracket.
TOL = 1e-10
MAX_MONOTONE = 500
MAX_NEWTON = 60
STALL_INCREMENT = 1e-7
# A pull-in notes nu1's accuracy floor when the eigensolver's nu1 and the
# Rayleigh estimate of its eigenfunction differ by more than this.
NU1_FLOOR_REL = 1e-4
# The upward search of a pull-in bracket multiplies its upper end by this.
GROWTH = 1.3
# Smallest relative bracket width: above the float spacing 2^-52, so each
# bisection midpoint moves an end until the bracket is narrow enough.
MIN_REL_WIDTH = 1e-15


@dataclass(frozen=True)
class BranchPoint:
    """One converged point of the minimal branch; u is the deflection at
    the grid's nodes."""

    lam: float
    u: np.ndarray
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
    flagged: bool = False  # the oracle converged above 1.02 * 4 nu1 / 27


def analytic_pull_in_bounds(op: OperatorMatrix) -> tuple[Fraction, float, float]:
    """(max of the two exact lower bounds, 4 nu1 / 27) for homogeneous
    data, and the relative gap between nu1 and the Rayleigh estimate
    (x, W x) / (x, W A^-1 W x) of its eigenfunction x (one back-solve)."""
    n = op.dim
    lower = max(quadratic_lower_bound(n), singular_voltage(n))
    nu1, x = op.nu1()
    rayleigh = float(np.sum(op.cells * x * x) / np.sum(op.cells * x * op.solve(x)))
    return lower, 4.0 * nu1 / 27.0, abs(nu1 - rayleigh) / rayleigh


class Workspace:
    """Per-(grid, boundary) solver state shared across voltages.  Building
    one checks the float engine's whole input, raising ValueError: an
    admissible pair, an operator that assembles and factors on the grid,
    and a boundary extension at least CEILING below the contact plane."""

    def __init__(self, bp: BoundaryPair, grid: RadialGrid):
        if not is_admissible(bp):
            raise ValueError(f"alpha {format_rational(bp.alpha)}, beta {format_rational(bp.beta)} "
                             "are not admissible: need beta <= 0 and alpha - beta/2 < 1")
        self.bp = bp
        self.grid = grid
        self.op = OperatorMatrix(grid)
        self.phi = sample_power_sum(boundary_extension(bp), grid.nodes)
        self.phi_lap = float(bp.beta) * grid.dim  # Laplacian of the extension
        if np.max(self.phi) >= 1 - CEILING:
            raise ValueError("boundary extension grazes the contact plane")


def pull_in_ceiling(ws: Workspace) -> float:
    """A bound on every voltage pull_in_voltage tries; ValueError when it
    passes half the largest float.

    Admissible data have Phi >= alpha, so v / (1 - alpha) is a
    supersolution of the homogeneous problem at lam / (1 - alpha)^3.  With
    the Green positivity the monotone phase assumes, lam* <= (1 - alpha)^3
    4 nu1 / 27 <= (1 - alpha)^3 4 R / 27, R >= nu1 the Rayleigh quotient of
    (1 - r^2)^2 on the mesh.  The search starts at 1.02 max(1, (1 - alpha)^3)
    4 nu1 / 27 and ends there or below GROWTH lam*, so it stays under
    GROWTH max(1, (1 - alpha)^3) 4 R / 27, computed exactly since
    (1 - alpha)^3 can overflow a float.
    Half the largest float keeps the bisection's lo + hi and Newton's
    2 lam finite."""
    op = ws.op
    bump = (1.0 - ws.grid.nodes**2) ** 2
    rayleigh = float(np.sum(op.cells * bump * op.apply(bump)) / np.sum(op.cells * bump**2))
    ceiling = Fraction(GROWTH) * max(1, (1 - ws.bp.alpha) ** 3) * 4 * Fraction(rayleigh) / 27
    if not ceiling <= sys.float_info.max / 2:
        raise ValueError("the pull-in voltage may pass half the largest float (9.0e307)")
    return float(ceiling)


def check_rel_width(rel_width: float) -> None:
    """ValueError unless rel_width is in [MIN_REL_WIDTH, 1)."""
    if not MIN_REL_WIDTH <= rel_width < 1:
        raise ValueError(f"rel_width must be in [{MIN_REL_WIDTH:g}, 1), not {rel_width!r}")


# Boundary data of large magnitude put 1 - u so far from 0 that Newton's
# (1 - u)^3 (past 5.6e102) and the forcing's (1 - u)^2 (past 1.3e154)
# overflow to inf, and the true terms, which underflow, come out as 0.
# Any other overflow ends in a non-finite iterate or residual, which the
# solve reads as a divergence.
@np.errstate(over="ignore")
def _solve_at(ws: Workspace, lam: float, v0: np.ndarray | None = None):
    """Monotone-then-Newton solve; returns (v, residual) with the
    deflection u = v + Phi, or a DivergenceReport.  The residual is the
    operator's componentwise backward error."""
    op, phi = ws.op, ws.phi
    n = ws.grid.n
    v = np.zeros(n) if v0 is None else np.array(v0, dtype=float)
    u = v + phi
    if not np.max(u) < 1 - CEILING:  # also a NaN warm start; the caller retries cold
        return DivergenceReport(lam, "warm start above ceiling", float(np.max(u)))

    def forcing(u):
        return lam / (1.0 - u) ** 2

    # Monotone phase (increasing from below when started at v = 0).
    for _ in range(MAX_MONOTONE):
        v_new = op.solve(forcing(u))
        u_new = v_new + phi
        top = u_new.max()
        if not np.isfinite(top):  # the back-solve overflowed (max propagates NaN)
            return DivergenceReport(lam, "iterates overflowed", float(u.max()))
        if top >= 1 - CEILING:
            return DivergenceReport(lam, "iterates reached the contact ceiling", float(top))
        inc = float(np.abs(u_new - u).max())
        v, u = v_new, u_new
        if inc < STALL_INCREMENT:
            break

    # Damped Newton on the shifted variable.
    for _ in range(MAX_NEWTON):
        res_vec, rho = op.residual(v, forcing(u))
        if rho < TOL:
            return v, rho
        try:
            delta = op.solve_shifted(-res_vec, 2.0 * lam / (1.0 - u) ** 3)
        except (np.linalg.LinAlgError, ValueError):  # singular, or a non-finite entry
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


def _make_point(ws: Workspace, lam: float, v: np.ndarray, residual: float) -> BranchPoint:
    op = ws.op
    u = v + ws.phi
    with np.errstate(over="ignore"):  # inf where 1/(1 - u)^3 underflows, as in _solve_at
        cubed = (1.0 - u) ** 3
    lap_u = op.laplacian(v) + ws.phi_lap
    energy_h2 = float(np.sum(op.cells * lap_u**2))
    energy_cubed = float(np.sum(op.cells / cubed))
    return BranchPoint(
        lam=lam,
        u=u,
        max_value=float(np.max(u)),
        mu1=op.smallest_weighted_eigenvalue(2.0 * lam / cubed),
        residual=residual,
        energy_h2=energy_h2,
        energy_cubed=energy_cubed,
    )


def check_voltage_grid(lambdas) -> None:
    """Reject a voltage grid with a voltage that is negative, NaN or
    infinite, or that is not strictly increasing."""
    for lam in lambdas:
        if not 0 <= lam < np.inf:
            raise ValueError(f"voltage {lam!r} is not finite and nonnegative")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("voltage grid must be strictly increasing")


def continue_branch(bp: BoundaryPair, grid: RadialGrid, lambdas) -> BranchRun:
    """Walk the minimal branch over an increasing voltage grid with
    extrapolated warm starts; the first divergence truncates the run.
    One voltage gives the minimal solution there, started cold; its
    fixed-point iterates increase pointwise (tested as an invariant)."""
    lambdas = [float(x) for x in lambdas]
    check_voltage_grid(lambdas)
    run = BranchRun(points=[])
    ws = Workspace(bp, grid)
    prev: list[tuple[float, np.ndarray]] = []
    for lam in lambdas:
        warm = None
        if len(prev) >= 2:
            (l1, v1), (l2, v2) = prev[-2], prev[-1]
            with np.errstate(invalid="ignore"):  # a NaN warm start is checked in _solve_at
                warm = v2 + (v2 - v1) * ((lam - l2) / (l2 - l1))
        elif prev:
            warm = prev[-1][1]
        out = _solve_at(ws, lam, warm)
        if isinstance(out, DivergenceReport) and warm is not None:
            out = _solve_at(ws, lam)  # cold restart
        if isinstance(out, DivergenceReport):
            run.divergence = out
            break
        v, rho = out
        run.points.append(_make_point(ws, lam, v, rho))
        prev.append((lam, v))
    return run


def pull_in_voltage(bp: BoundaryPair, grid: RadialGrid, rel_width: float = 1e-6) -> PullInEstimate:
    """Bracket the pull-in voltage by bisection on solver convergence."""
    check_rel_width(rel_width)
    ws = Workspace(bp, grid)
    pull_in_ceiling(ws)
    homogeneous = bp.alpha == 0 and bp.beta == 0
    lower_exact, upper_nu, nu1_gap = analytic_pull_in_bounds(ws.op)
    notes: list[str] = []
    if nu1_gap > NU1_FLOOR_REL:
        notes.append(f"nu1 accuracy floor: eigensolvers differ by {nu1_gap:.1e} relative")

    # lam* <= max(1, (1 - alpha)^3) 4 nu1 / 27 (pull_in_ceiling); the factor
    # is a finite float once the ceiling is.
    hi = upper_nu * 1.02 * float(max(1, (1 - bp.alpha) ** 3))
    out = _solve_at(ws, hi)
    flagged = not isinstance(out, DivergenceReport)
    while not isinstance(out, DivergenceReport):
        sol = out
        hi *= GROWTH
        out = _solve_at(ws, hi, sol[0])
    if flagged:
        notes.append("upper end grew past the analytic bound; oracle flagged")

    lo = hi / 2
    sol = None
    while lo > 1e-12:
        out = _solve_at(ws, lo)
        if not isinstance(out, DivergenceReport):
            sol = out
            break
        lo /= 2
    if sol is None:
        raise NoConvergentVoltage("no convergent voltage found above 1e-12")

    while (hi - lo) > rel_width * lo:
        mid = 0.5 * (lo + hi)
        out = _solve_at(ws, mid, sol[0])
        if isinstance(out, DivergenceReport):
            out = _solve_at(ws, mid)  # cold retry before declaring no-solution
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
        flagged=flagged,
    )
    if homogeneous:
        est.consistent = (lo >= float(lower_exact)) and (hi <= upper_nu)
    return est


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
