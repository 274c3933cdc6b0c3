"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or on
failure).  The heavyweight pull-in runs are shared through session
fixtures; the full module is a few minutes of wall time.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import iv, jv

from mems4.branch import (
    TOL,
    continue_branch,
    pull_in_voltage,
    regularity_verdict,
)
from mems4.certify import (
    certify_thresholds,
    search_candidates,
    search_setup,
    threshold_table,
)
from mems4.cli import main as cli_main
from mems4.closed_forms import (
    HOMOGENEOUS,
    BoundaryPair,
    boundary_extension,
    hardy_rellich,
    quadratic_lower_bound,
    singular_voltage,
    touchdown_shape,
)
from mems4.radial_operator import OperatorMatrix, build_grid, sample_power_sum

F = Fraction

ACCEPT_MESH = 1024


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{state}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def pullin_estimates():
    """Pull-in brackets for N in {2, 3, 9, 17} at 1024 nodes, 1e-6 width."""
    out = {}
    for dim in (2, 3, 9, 17):
        grid = build_grid(ACCEPT_MESH, dim)
        out[dim] = pull_in_voltage(HOMOGENEOUS, grid, rel_width=1e-6)
    return out


@pytest.fixture(scope="session")
def verdict_sweep():
    """(dim, mesh) -> (estimate, verdict) for the regularity table."""
    out = {}
    for dim in list(range(1, 9)) + [12, 17]:
        for mesh in (512, 1024):
            grid = build_grid(mesh, dim)
            est = pull_in_voltage(HOMOGENEOUS, grid, rel_width=1e-5)
            out[(dim, mesh)] = (est, regularity_verdict(est))
    return out


def test_criterion_1_thresholds(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["certify", "thresholds", "--n", "1..40", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    rows = threshold_table(1, 40)
    first_a = min(
        r.dimension for r in rows if r.voltage_positive and r.double_voltage_le_hardy
    )
    first_b = min(
        r.dimension for r in rows if r.voltage_positive and r.voltage27_le_half_hardy
    )
    cert = certify_thresholds(1, 40)
    ok = (
        code == 0
        and first_a == 9
        and first_b == 31
        and cert.status == "verified"
        and elapsed < 1.0
    )
    report(
        1,
        "exact threshold reproduction (onsets 9 and 31)",
        ok,
        f"onsets=({first_a},{first_b}) exit={code} {elapsed:.2f}s",
    )


def test_criterion_2_gap_certificates(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["certify", "m3-gap", "--n", "17..30", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    certs = sorted(tmp_path.rglob("m3-gap-*.json"))
    statuses = [json.loads(p.read_text())["status"] for p in certs]
    ok = (
        code == 0
        and len(certs) == 14
        and all(s == "verified" for s in statuses)
        and elapsed < 5.0
    )
    report(
        2,
        "exact nonnegativity certificates for dimensions 17..30",
        ok,
        f"{len(certs)} certificates, exit={code}, {elapsed:.2f}s",
    )


def test_criterion_3_touchdown_residual():
    # The order is observed on the refinement ending at 1024 nodes: beyond
    # that the h^-4 amplification of double-precision rounding (~4e13 eps)
    # contaminates pointwise residuals of the applied operator.
    t0 = time.perf_counter()
    dim = 9
    lb = float(singular_voltage(dim))
    errs = []
    for n in (512, 1024):
        grid = build_grid(n, dim)
        op = OperatorMatrix(grid)
        # 1 - r^(4/3) minus its boundary extension, which has zero
        # bilaplacian, is clamped at r = 1.
        clamped = touchdown_shape() - boundary_extension(BoundaryPair(0, F(-4, 3)))
        out = op.apply(sample_power_sum(clamped, grid.nodes))
        exact = lb * grid.nodes ** (-8.0 / 3.0)
        mask = (grid.nodes >= 0.1) & (grid.nodes <= 0.9)
        errs.append(float(np.max(np.abs(out[mask] - exact[mask]) / exact[mask])))
    order = float(np.log2(errs[0] / errs[1]))
    elapsed = time.perf_counter() - t0
    ok = errs[1] < 0.01 and 1.6 <= order <= 2.4 and elapsed < 5.0
    report(
        3,
        "closed-form touchdown residual at 1024 nodes",
        ok,
        f"rel err={errs[1]:.2e}, order={order:.2f}, {elapsed:.2f}s",
    )


def test_criterion_4_nu1_oracles():
    t0 = time.perf_counter()
    beta = brentq(lambda b: np.cos(2 * b) * np.cosh(2 * b) - 1.0, 2.0, 3.0)
    beam = beta**4
    k = brentq(lambda x: jv(0, x) * iv(1, x) + iv(0, x) * jv(1, x), 2.5, 3.5)
    disk = k**4
    rels = {}
    for dim, oracle in ((1, beam), (2, disk)):
        grid = build_grid(512, dim)
        op = OperatorMatrix(grid)
        val, _ = op.nu1()
        rels[dim] = abs(val - oracle) / oracle
    elapsed = time.perf_counter() - t0
    ok = rels[1] < 1e-3 and rels[2] < 1e-2 and elapsed < 10.0
    report(
        4,
        "fundamental eigenvalue vs rod/plate oracles",
        ok,
        f"rel N=1: {rels[1]:.2e} (oracle {beam:.4f}), N=2: {rels[2]:.2e} "
        f"(oracle {disk:.3f}), {elapsed:.1f}s",
    )


def test_criterion_5_bracket_vs_analytic_bounds(pullin_estimates):
    details = []
    ok = True
    for dim, est in pullin_estimates.items():
        lower = float(max(quadratic_lower_bound(dim), singular_voltage(dim)))
        upper = est.analytic_upper
        inside = est.lambda_lo >= lower * 0.99 and est.lambda_hi <= upper * 1.01
        ok = ok and inside and est.consistent is True
        if dim == 9:
            ok = ok and est.lambda_lo > float(singular_voltage(9))
        if dim == 17:
            cap = 1.01 * float(hardy_rellich(17)) / 2.0
            ok = ok and est.lambda_hi <= cap
        details.append(f"N={dim}: [{est.lambda_lo:.3f},{est.lambda_hi:.3f}]")
    report(5, "pull-in brackets inside analytic bounds", ok, "; ".join(details))


def test_criterion_6_branch_properties_n3():
    t0 = time.perf_counter()
    grid = build_grid(512, 3)
    lambdas = np.linspace(1.0, 10.0, 10)
    assert lambdas[-1] < 32.0 / 3.0
    run = continue_branch(HOMOGENEOUS, grid, lambdas)
    ok = len(run.points) == 10
    for p, q in zip(run.points, run.points[1:]):
        ok = ok and bool(np.all(q.field.values >= p.field.values - 10 * TOL))
    for p in run.points:
        ok = ok and bool(np.all(np.diff(p.field.values) <= 10 * TOL))
        ok = ok and p.mu1 > 0
    # Stability-route inequality 2 int u^2/(1-u)^3 <= int u/(1-u)^2 (Phi = 0
    # for homogeneous data), up to a relative quadrature tolerance of 1e-6.
    cells = OperatorMatrix(grid).cells
    margins = []
    for p in run.points:
        u = p.field.values
        lhs = 2.0 * float(np.sum(cells * u**2 / (1.0 - u) ** 3))
        rhs = float(np.sum(cells * u / (1.0 - u) ** 2))
        margins.append(rhs - lhs)
        ok = ok and rhs - lhs >= -1e-6 * (abs(rhs) + abs(lhs))
    elapsed = time.perf_counter() - t0
    report(
        6,
        "branch property suite at N=3",
        ok,
        f"10 points, min margin={min(margins):.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_singular_regime_bounds(pullin_estimates):
    est = pullin_estimates[17]
    grid = est.near_fold.field.grid
    lb = float(singular_voltage(17))
    lambdas = list(np.linspace(20.0, 0.98 * lb, 6)) + [est.lambda_lo * 0.9]
    run = continue_branch(HOMOGENEOUS, grid, sorted(lambdas))
    points = run.points + [est.near_fold]
    ub = sample_power_sum(touchdown_shape(), grid.nodes)
    worst = max(float(np.max(p.field.values - ub)) for p in points)
    ok = len(run.points) == 7 and worst <= 10 * TOL
    c0 = (est.lambda_hi / lb) ** (1.0 / 3.0)
    envelope = 1.0 - c0 * grid.nodes ** (4.0 / 3.0)
    margin = float(np.min(est.near_fold.field.values - envelope))
    ok = ok and margin >= -0.02
    report(
        7,
        "singular-regime envelope bounds at N=17",
        ok,
        f"max(u - shape)={worst:.2e} (cap 1e-9), envelope margin={margin:.2e} "
        f"(cap -0.02), C0={c0:.3f}",
    )


def test_criterion_8_regularity_verdicts(verdict_sweep):
    ok = True
    details = []
    for dim in range(1, 9):
        v512 = verdict_sweep[(dim, 512)][1]
        v1024 = verdict_sweep[(dim, 1024)][1]
        ok = ok and v512 == v1024 == "regular-consistent"
        details.append(f"N={dim}:{v1024[:3]}")
    for mesh in (512, 1024):
        ok = ok and verdict_sweep[(17, mesh)][1] == "singular-consistent"
    details.append(f"N=17:{verdict_sweep[(17, 1024)][1][:4]}")
    # the open 9..16 band must never be presented as regular
    for mesh in (512, 1024):
        ok = ok and verdict_sweep[(12, mesh)][1] != "regular-consistent"
    details.append(f"N=12:{verdict_sweep[(12, 1024)][1]}")
    report(8, "regularity verdicts under two grid refinements", ok, " ".join(details))


def test_criterion_9_green_positivity():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for dim in (1, 3, 9, 17):
        for n in (64, 128):
            grid = build_grid(n, dim)
            op = OperatorMatrix(grid)
            G = op.solve(np.eye(grid.n))  # discrete Green functions as columns
            ratio = float(np.min(G) / np.max(G))
            worst = min(worst, ratio)
            ok = ok and np.min(G) >= -1e-10 * np.max(G)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        9,
        "discrete Green-matrix positivity",
        ok,
        f"worst entry ratio={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_subsolution_search():
    t0 = time.perf_counter()
    grid9 = [
        (F(a), F(b))
        for a in (F(1), F(4, 3), F(5, 3), F(2))
        for b in (F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2))
    ]
    lam9, _ = search_setup(9, "perturbed-touchdown")
    lam17, _ = search_setup(17, "touchdown-m")
    rep9 = list(search_candidates(9, "perturbed-touchdown", grid9, lam9))
    rep17 = list(search_candidates(17, "touchdown-m", [F(3)], lam17))
    elapsed = time.perf_counter() - t0
    ok = (
        len(rep9) == len(grid9)
        and not any(c.passed for c in rep9)
        and [c.passed for c in rep17] == [True]
        and elapsed < 60.0
    )
    report(
        10,
        "perturbation family fails at N=9; cubic profile passes at N=17",
        ok,
        f"{len(rep9)} candidates, 0 passing at N=9; "
        f"N=17 passes, {elapsed:.1f}s",
    )
