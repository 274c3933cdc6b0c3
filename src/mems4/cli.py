"""Command-line driver: bounds tables, certificates, branch sweeps,
pull-in estimation, profiles, and the sub-solution search.

Every command runs one chain: load the configuration (a --config file,
then flags), key the run directory on the canonical inputs, write
config.json, print the run directory, then compute and write the
artifacts.  Rational values and specs may be negative: "--beta -1/5" and
"--alpha-grid -1/3:0:4" parse as values.

Exit codes: 0 success/verified, 1 falsified or diverged, 2 inconclusive
or flagged, 3+ usage and I/O errors.  Usage errors include --mesh outside
16..16384, --tol <= 0, --rel-width outside (0, 1), --jobs < 1 and a
voltage that is NaN, infinite or negative; the certify fanout never
starts more workers than dimensions or CPUs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from mems4 import certify
from mems4.branch import (
    minimal_solution,
    BranchPoint,
    check_increasing_grid,
    continue_branch,
    pull_in_voltage,
    quadratic_lower_bound,
    regularity_verdict,
)
from mems4.closed_forms import (
    BoundaryPair,
    format_rational,
    is_admissible,
    rational_to_decimal,
)
from mems4.radial_operator import RadialField, build_grid
from mems4.store import (
    default_out_root,
    rational_json,
    run_directory,
    write_csv,
    write_json,
    write_jsonl,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# Finest mesh accepted: on the gamma = 1.5 grid, whose rows scale like
# h_min^-4, the eigenvalue nu1 stops converging under refinement at
# n = 16384, and a larger mesh only costs memory and time.
MAX_MESH = 16384

CLAIM_SELECTORS = ("m3-gap", "m2-subsolution", "m3-stability", "thresholds")
FAMILIES = ("perturbed-touchdown", "touchdown-m")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values such as -1/5 or -1/3:0:4 are arguments, not flags.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """Validated run configuration; JSON round-trip is lossless."""

    dimensions: list[int] = field(default_factory=lambda: [3])
    alpha: Fraction = Fraction(0)
    beta: Fraction = Fraction(0)
    mesh: int = 512
    gamma: float = 1.5
    tol: float = 1e-10
    rel_width: float = 1e-6
    out_format: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        self.beta = Fraction(self.beta)
        if not 16 <= self.mesh <= MAX_MESH:
            raise ValueError(f"mesh must have 16..{MAX_MESH} nodes")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0 < self.rel_width < 1:
            raise ValueError("rel-width must lie strictly between 0 and 1")
        if not is_admissible(self.boundary):
            raise ValueError("boundary pair is not admissible")
        if self.out_format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for n in self.dimensions:
            if n < 1:
                raise ValueError("dimensions must be positive")

    @property
    def boundary(self) -> BoundaryPair:
        return BoundaryPair(self.alpha, self.beta)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["format"] = d.pop("out_format")
        d["alpha"], d["beta"] = format_rational(self.alpha), format_rational(self.beta)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "RunConfig":
        return RunConfig(
            dimensions=[int(x) for x in d.get("dimensions", [3])],
            alpha=Fraction(d.get("alpha", "0")),
            beta=Fraction(d.get("beta", "0")),
            mesh=int(d.get("mesh", 512)),
            gamma=float(d.get("gamma", 1.5)),
            tol=float(d.get("tol", 1e-10)),
            rel_width=float(d.get("rel_width", 1e-6)),
            out_format=str(d.get("format", "csv")),
            jobs=int(d.get("jobs", 1)),
        )


def parse_range(text: str) -> tuple[int, int]:
    """Dimension ranges like "17..30" or a single "9"."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def parse_lambda_spec(text: str) -> list[float] | None:
    """Voltage grids "start:stop:count"; "auto" returns None."""
    if text == "auto":
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("voltage spec must be start:stop:count or auto")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return [start]
    return list(np.linspace(start, stop, count))


def parse_fraction_grid(text: str) -> list[Fraction]:
    """Exact rational grids "1:3:9" (start:stop:count, equal steps)."""
    parts = text.split(":")
    if len(parts) == 1:
        return [Fraction(parts[0])]
    if len(parts) != 3:
        raise ValueError("grid spec must be start:stop:count")
    start, stop, count = Fraction(parts[0]), Fraction(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _check_voltages(values) -> None:
    """Reject voltages that are NaN, infinite or negative; commands call
    this while building their run key, before any directory exists."""
    if not all(0 <= v < math.inf for v in values):
        raise ValueError("voltages must be finite and nonnegative")


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for a fanout of ``tasks``: at most ``jobs``, and
    never more than the tasks or the CPUs."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_COMMON_ARGUMENTS = (
    _arg("--config", type=Path, help="JSON config file; flags override"),
    _arg("--out", type=Path, help="output root (default $MEMS4_OUT or ./mems4-out)"),
    _arg("--format", choices=("csv", "json"), help="table format"),
    _arg("--jobs", type=int, help="worker pool size for per-dimension fanout"),
    _arg("--mesh", type=int, help=f"interior node count, 16..{MAX_MESH}"),
    _arg("--gamma", type=float, help="mesh grading exponent"),
    _arg("--tol", type=float, help="solver residual tolerance, > 0"),
    _arg("--rel-width", type=float, help="pull-in bracket relative width, in (0, 1)"),
    _arg("--alpha", help="boundary value at r=1 (exact rational)"),
    _arg("--beta", help="boundary slope at r=1 (exact rational)"),
)
_DIM = _arg("--dim", type=int, required=True)

# (flag attribute, config key): a flag given on the command line
# overrides the --config file.
_OVERRIDES = (
    ("dim", "dimensions"), ("mesh", "mesh"), ("gamma", "gamma"), ("tol", "tol"),
    ("rel_width", "rel_width"), ("format", "format"), ("jobs", "jobs"),
    ("alpha", "alpha"), ("beta", "beta"),
)


def _load_config(args) -> RunConfig:
    d = json.loads(Path(args.config).read_text()) if args.config else {}
    for flag, key in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            d[key] = [value] if key == "dimensions" else value
    return RunConfig.from_json_dict(d)


# (column, exact value from the dimension's certify.ThresholdRow);
# Fractions render as num/den plus a decimal column in CSV and as
# rational_json in JSON.
_BOUNDS_COLUMNS = (
    ("lower_quadratic", lambda row: quadratic_lower_bound(row.dimension)),
    ("singular_voltage", lambda row: row.singular_voltage),
    ("hardy", lambda row: row.hardy),
    ("half_hardy", lambda row: row.hardy / 2),
    ("voltage_27", lambda row: 27 * row.singular_voltage),
    ("double_voltage_le_hardy", lambda row: row.double_voltage_le_hardy),
    ("voltage27_le_half_hardy", lambda row: row.voltage27_le_half_hardy),
)


def _bounds_inputs(args, cfg) -> dict:
    n_min, n_max = parse_range(args.n)
    if not 1 <= n_min <= n_max <= 64:
        raise ValueError("need 1 <= nmin <= nmax <= 64")
    return {"n": [n_min, n_max]}


def _csv_fields(row: dict) -> list[tuple[str, object]]:
    fields = []
    for name, value in row.items():
        if isinstance(value, Fraction):
            fields += [(name, format_rational(value)),
                       (f"{name}_decimal", rational_to_decimal(value))]
        else:
            fields.append((name, value))
    return fields


def _run_bounds(args, cfg, inputs, run) -> list[str]:
    n_min, n_max = inputs["n"]
    rows = [
        {"n": row.dimension, **{name: value(row) for name, value in _BOUNDS_COLUMNS}}
        for row in certify.threshold_table(n_min, n_max)
    ]
    if cfg.out_format == "json":
        payload = [
            {k: rational_json(v) if isinstance(v, Fraction) else v for k, v in row.items()}
            for row in rows
        ]
        write_json(run / "tables" / "bounds.json", {"rows": payload})
    else:
        header = [name for name, _ in _csv_fields(rows[0])]
        cells = [[value for _, value in _csv_fields(row)] for row in rows]
        write_csv(run / "tables" / "bounds.csv", header, cells)
    return []


def _one_certificate(claim: str, n: int) -> dict:
    certifier = {
        "m3-gap": certify.certify_m3_gap,
        "m2-subsolution": certify.certify_m2_subsolution,
        "m3-stability": certify.certify_m3_stability,
    }[claim]
    return certifier(n).to_json_dict()


def _certify_inputs(args, cfg) -> dict:
    n_min, n_max = parse_range(args.n)
    if not 1 <= n_min <= n_max:
        raise ValueError("invalid dimension range")
    return {"claim": args.claim, "n": [n_min, n_max]}


def _run_certify(args, cfg, inputs, run) -> list[str]:
    n_min, n_max = inputs["n"]
    if args.claim == "thresholds":
        cert = certify.certify_thresholds(n_min, n_max)
        write_json(run / "certificates" / f"thresholds-{n_min}-{n_max}.json", cert.to_json_dict())
        header = ["n", "singular_voltage", "hardy", "double_voltage_le_hardy",
                  "voltage27_le_half_hardy", "voltage_positive"]
        rows = [
            [format_rational(v) if isinstance(v, Fraction) else v for v in astuple(r)]
            for r in certify.threshold_table(n_min, n_max)
        ]
        write_csv(run / "tables" / "thresholds.csv", header, rows)
        return [cert.status]
    dims = list(range(n_min, n_max + 1))
    workers = worker_count(cfg.jobs, len(dims))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_certificate, [args.claim] * len(dims), dims))
    else:
        results = [_one_certificate(args.claim, n) for n in dims]
    for n, payload in zip(dims, results):
        write_json(run / "certificates" / f"{args.claim}-{n}.json", payload)
    return [payload["status"] for payload in results]


def _branch_record(pt: BranchPoint) -> dict:
    return {
        "schema_version": 1,
        "lambda": pt.lam,
        "max_value": pt.max_value,
        "mu1": pt.mu1,
        "residual": pt.residual,
        "energy_h2": pt.energy_h2,
        "energy_cubed": pt.energy_cubed,
    }


def _write_profile(path: Path, profile: RadialField) -> None:
    rows = [[f"{r:.17g}", f"{u:.17g}"] for r, u in zip(profile.grid.nodes, profile.values)]
    write_csv(path, ["r", "u"], rows)


def _auto_lambda_grid(cfg: RunConfig, dim: int, count: int = 12) -> list[float]:
    grid = build_grid(cfg.mesh, cfg.gamma, dim)
    est = pull_in_voltage(cfg.boundary, grid, rel_width=1e-3, tol=cfg.tol)
    return list(np.linspace(est.lambda_lo / count, 0.98 * est.lambda_lo, count))


def _branch_inputs(args, cfg) -> dict:
    dim = cfg.dimensions[0]
    lambdas = parse_lambda_spec(args.lam)
    if lambdas is None:
        lambdas = _auto_lambda_grid(cfg, dim)
    _check_voltages(lambdas)
    check_increasing_grid(lambdas)
    return {"dim": dim, "lambdas": lambdas}


def _run_branch(args, cfg, inputs, run) -> list[str]:
    grid = build_grid(cfg.mesh, cfg.gamma, inputs["dim"])
    result = continue_branch(cfg.boundary, grid, inputs["lambdas"], tol=cfg.tol)
    records = [_branch_record(pt) for pt in result.points]
    if result.divergence is not None:
        records.append({"schema_version": 1, "diverged_at": result.divergence.lam,
                        "reason": result.divergence.reason})
    write_jsonl(run / "branch.jsonl", records)
    if args.profiles and result.points:
        for i in np.unique(np.linspace(0, len(result.points) - 1, args.profiles).astype(int)):
            pt = result.points[i]
            _write_profile(run / "profiles" / f"lambda-{pt.lam:.6g}.csv", pt.field)
    return [] if result.points else ["diverged"]


def _run_pullin(args, cfg, inputs, run) -> list[str]:
    dim = inputs["dim"]
    grid = build_grid(cfg.mesh, cfg.gamma, dim)
    est = pull_in_voltage(cfg.boundary, grid, rel_width=cfg.rel_width, tol=cfg.tol)
    payload = {
        "dim": dim,
        "lambda_lo": est.lambda_lo,
        "lambda_hi": est.lambda_hi,
        "method": "bisection-on-convergence",
        "analytic_lower": None if est.analytic_lower is None else rational_json(est.analytic_lower),
        "analytic_upper": est.analytic_upper,
        "consistent": est.consistent,
        "near_fold_max": est.near_fold.max_value,
        "near_fold_mu1": est.near_fold.mu1,
        "regularity_verdict": regularity_verdict(est),
        "notes": est.notes,
    }
    write_json(run / "pullin.json", payload)
    _write_profile(run / "profiles" / "near-fold.csv", est.near_fold.field)
    if est.consistent is False or any("flagged" in n for n in est.notes):
        return ["inconclusive"]
    return []


def _run_profile(args, cfg, inputs, run) -> list[str]:
    grid = build_grid(cfg.mesh, cfg.gamma, inputs["dim"])
    pt = minimal_solution(inputs["lambda"], cfg.boundary, grid, tol=cfg.tol)
    if isinstance(pt, BranchPoint):
        _write_profile(run / "profiles" / f"lambda-{pt.lam:.6g}.csv", pt.field)
        write_json(run / "point.json", _branch_record(pt))
        return []
    write_json(run / "divergence.json",
               {"lambda": pt.lam, "reason": pt.reason, "last_max": pt.last_max})
    return ["diverged"]


def _search_params(args) -> list:
    if args.family == "perturbed-touchdown":
        alphas = parse_fraction_grid(args.alpha_grid) if args.alpha_grid else []
        betas = parse_fraction_grid(args.beta_grid) if args.beta_grid else []
        return [(a, b) for a in alphas for b in betas]
    return parse_fraction_grid(args.m) if args.m else []


def _search_inputs(args, cfg) -> dict:
    dim = cfg.dimensions[0]
    if not 9 <= dim <= 16:
        print(f"search-subsolution: dimension {dim} outside the open range 9..16 "
              "(treating as a sanity run)", file=sys.stderr)
    params = [str(p) for p in _search_params(args)]
    inputs = {"dim": dim, "family": args.family, "params": params}
    # Keyed only when given, so default-voltage runs keep their directories.
    if args.lam is not None:
        lam = Fraction(args.lam)
        _check_voltages([lam])
        inputs["lambda"] = format_rational(lam)
    return inputs


def _profile_inputs(args, cfg) -> dict:
    _check_voltages([args.lam])
    return {"dim": cfg.dimensions[0], "lambda": args.lam}


def _run_search(args, cfg, inputs, run) -> list[str]:
    lam = Fraction(inputs["lambda"]) if "lambda" in inputs else None
    report = certify.subsolution_search(inputs["dim"], args.family, _search_params(args), lam=lam)
    write_json(run / "search.json", report.to_json_dict())
    print(f"candidates: {len(report.candidates)}, passing: {len(report.passing)}")
    return [c.status for cand in report.candidates for c in cand.checks.values()]


@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``inputs`` validates the command's own arguments and returns the
    fields that, with the configuration, key the run directory; all of
    them except ``unrecorded`` are also written to config.json.  ``run``
    computes and writes the artifacts and returns their statuses;
    the first status of ``exit_codes`` among them picks the exit code.
    """

    name: str
    help: str
    arguments: tuple
    inputs: Callable[[argparse.Namespace, RunConfig], dict]
    run: Callable[[argparse.Namespace, RunConfig, dict, Path], list[str]]
    exit_codes: tuple[tuple[str, int], ...] = ()
    unrecorded: tuple[str, ...] = ()


def _dim_inputs(args, cfg) -> dict:
    return {"dim": cfg.dimensions[0]}


COMMANDS = (
    Command(
        "bounds", "exact bound and threshold table",
        (_arg("--n", default="1..40", help="dimension range, e.g. 1..40"),),
        _bounds_inputs, _run_bounds, unrecorded=("n",),
    ),
    Command(
        "certify", "exact-arithmetic certificates",
        (
            _arg("claim", choices=CLAIM_SELECTORS),
            _arg("--n", default="17..30", help="dimension range"),
        ),
        _certify_inputs, _run_certify,
        exit_codes=(("falsified", EXIT_FALSIFIED), ("inconclusive", EXIT_INCONCLUSIVE)),
    ),
    Command(
        "branch", "minimal-branch sweep",
        (
            _DIM,
            _arg("--lambda", dest="lam", default="auto", help="start:stop:count or auto"),
            _arg("--profiles", type=int, default=0, help="dump k profiles"),
        ),
        _branch_inputs, _run_branch, exit_codes=(("diverged", EXIT_FALSIFIED),),
    ),
    Command(
        "pullin", "pull-in voltage bracket", (_DIM,),
        _dim_inputs, _run_pullin, exit_codes=(("inconclusive", EXIT_INCONCLUSIVE),),
    ),
    Command(
        "profile", "single deflection profile",
        (_DIM, _arg("--lambda", dest="lam", required=True, type=float)),
        _profile_inputs, _run_profile, exit_codes=(("diverged", EXIT_FALSIFIED),),
    ),
    Command(
        "search-subsolution", "parametrized sub-solution search",
        (
            _DIM,
            _arg("--family", choices=FAMILIES, required=True),
            _arg("--alpha-grid", dest="alpha_grid", help="rational grid start:stop:count"),
            _arg("--beta-grid", dest="beta_grid", help="rational grid start:stop:count"),
            _arg("--m", help="profile parameters, single value or start:stop:count"),
            _arg("--lambda", dest="lam", help="voltage (exact rational); default H_N/2"),
        ),
        _search_inputs, _run_search,
        exit_codes=(("inconclusive", EXIT_INCONCLUSIVE),), unrecorded=("params",),
    ),
)


def _execute(command: Command, args) -> int:
    cfg = _load_config(args)
    inputs = command.inputs(args, cfg)
    config = cfg.to_json_dict()
    out_root = Path(args.out) if args.out else default_out_root()
    run = run_directory(out_root, command.name, {**inputs, "config": config})
    recorded = {k: v for k, v in inputs.items() if k not in command.unrecorded}
    write_json(run / "config.json", {"command": command.name, **recorded, "config": config})
    print(run)
    statuses = command.run(args, cfg, inputs, run)
    return next((code for status, code in command.exit_codes if status in statuses), EXIT_OK)


def build_parser() -> _Parser:
    parser = _Parser(prog="mems4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, options in command.arguments + _COMMON_ARGUMENTS:
            p.add_argument(*flags, **options)
        p.set_defaults(spec=command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _execute(args.spec, args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"mems4 {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"mems4: I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
