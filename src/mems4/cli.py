"""Command-line driver: bounds tables, certificates, branch sweeps,
pull-in estimation, profiles, and the sub-solution search.

Every command runs one chain: resolve the settings it reads (defaults,
then a --config file, then flags), validate its own inputs, key the run
directory on the command, those inputs and those settings, write exactly
that key to config.json, print the run directory, then compute and write
the artifacts.  A command takes flags and --config keys only for the
settings it reads (``Command.settings``).  Rational values and specs may
be negative: "--beta -1/5" and "--alpha-grid -1/3:0:4" parse as values.

Exit codes: 0 success/verified, 1 falsified or diverged, 2 inconclusive
or flagged, 3+ usage and I/O errors.  Usage errors include a flag the
command does not take, a --config key that is not one of its settings,
--mesh outside 16..16384, a --gamma too large for the mesh and
dimension, --tol <= 0, --rel-width outside (0, 1), a dimension range
outside 1..64 or below its claim's floor, a search --dim outside 1..64,
a voltage that is NaN, negative or above the largest float (1.8e308),
a grid count, --profiles or search candidate count above 4096, and a
search grid flag missing for --family or given for the other family.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import astuple, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from mems4 import certify
from mems4.certify import MAX_DIMENSION
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
from mems4.radial_operator import OperatorMatrix, RadialField, RadialGrid, build_grid
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

# Finest mesh accepted.  This is an input bound on memory and time, not
# where refinement stops paying: eig_banded's nu1 stops converging at
# n = 2048..4096 in every dimension tried, which pullin reports as its
# "nu1 accuracy floor" note.
MAX_MESH = 16384
# Most points of a voltage or rational grid, profiles of a branch sweep,
# and candidates of a search: 16 voltages and 144 candidates are the
# largest in use, and a count is checked before any list is built.
MAX_GRID = 4096

CLAIM_SELECTORS = (*certify.CLAIMS, "thresholds")
# The grid flags (argparse dests) each search family reads.
FAMILY_GRIDS = {"perturbed-touchdown": ("alpha_grid", "beta_grid"), "touchdown-m": ("m",)}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # No prefix matching: "--alpha" must not pass for "--alpha-grid".
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # Values such as -1/5 or -1/3:0:4 are arguments, not flags.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class Setting:
    """One run setting: flag --<name>, its default, the parser of flag
    text and --config values, and the check every value must pass."""

    name: str
    default: object
    parse: Callable[[str], object]
    valid: Callable[[object], bool]
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


SETTINGS = {s.name: s for s in (
    Setting("mesh", 512, int, lambda v: 16 <= v <= MAX_MESH, f"interior node count, 16..{MAX_MESH}"),
    Setting("gamma", 1.5, float, lambda v: v >= 1, "mesh grading exponent, >= 1"),
    Setting("tol", 1e-10, float, lambda v: v > 0, "solver residual tolerance, > 0"),
    Setting("rel_width", 1e-6, float, lambda v: 0 < v < 1,
            "pull-in bracket relative width, in (0, 1)"),
    Setting("alpha", Fraction(0), Fraction, lambda v: True, "boundary value at r=1 (exact rational)"),
    Setting("beta", Fraction(0), Fraction, lambda v: True, "boundary slope at r=1 (exact rational)"),
    Setting("format", "csv", str, lambda v: v in ("csv", "json"), "table format, csv or json"),
)}
_SOLVER_SETTINGS = ("mesh", "gamma", "tol", "alpha", "beta")


def resolve_settings(names: tuple[str, ...], given: dict) -> dict:
    """Checked values of the settings ``names``: ``given`` (flag text or
    --config values, by setting name) over the defaults.  A key outside
    ``names`` is an error, so no misspelt or foreign key is dropped."""
    unknown = sorted(set(given) - set(names))
    if unknown:
        raise ValueError(f"unknown setting {', '.join(unknown)}; "
                         f"this command reads {', '.join(names) or 'none'}")
    values = {}
    for name in names:
        s = SETTINGS[name]
        try:
            value = s.parse(str(given[name])) if name in given else s.default
            ok = s.valid(value)
        except (ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            raise ValueError(f"{s.flag}: {s.help}, not {given[name]!r}")
        values[name] = value
    if "alpha" in values and not is_admissible(_boundary(values)):
        raise ValueError("boundary pair is not admissible")
    return values


def _settings_json(values: dict) -> dict:
    """The JSON form of settings that config.json's config block holds
    and --config reads back."""
    return {k: format_rational(v) if isinstance(v, Fraction) else v for k, v in values.items()}


def _load_settings(command: Command, args) -> dict:
    given = json.loads(args.config.read_text()) if getattr(args, "config", None) else {}
    if not isinstance(given, dict):
        raise ValueError("--config must hold a JSON object")
    for name in command.settings:
        if getattr(args, name) is not None:
            given[name] = getattr(args, name)
    return resolve_settings(command.settings, given)


def _boundary(cfg: dict) -> BoundaryPair:
    return BoundaryPair(cfg["alpha"], cfg["beta"])


def _grid(cfg: dict, dim: int) -> RadialGrid:
    return build_grid(cfg["mesh"], cfg["gamma"], dim)


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
    if not 1 <= count <= MAX_GRID:
        raise ValueError(f"count must be in 1..{MAX_GRID}")
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
    if not 1 <= count <= MAX_GRID:
        raise ValueError(f"count must be in 1..{MAX_GRID}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _check_voltages(values) -> None:
    """Reject voltages that are NaN, negative or above the largest float
    (every artifact writes a float decimal of its voltage); commands call
    this while building their run key, before any directory exists."""
    if not all(0 <= v <= sys.float_info.max for v in values):
        raise ValueError("voltages must be nonnegative and at most the largest float (1.8e308)")


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_DIM = _arg("--dim", type=int, required=True)


def _solver_dim(args, cfg) -> int:
    """--dim, once the operator on its mesh assembles and factors:
    OperatorMatrix rejects a grading too strong or a mesh too fine for
    the dimension."""
    if args.dim < 1:
        raise ValueError("--dim must be positive")
    OperatorMatrix(_grid(cfg, args.dim)).factor()
    return args.dim


def _dimension_range(text: str, claim: str) -> list[int]:
    n_min, n_max = parse_range(text)
    certify.check_dimensions(claim, n_min, n_max)
    return [n_min, n_max]


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
    return {"n": _dimension_range(args.n, "thresholds")}


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
    if cfg["format"] == "json":
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


def _certify_inputs(args, cfg) -> dict:
    return {"claim": args.claim, "n": _dimension_range(args.n, args.claim)}


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
    statuses = []
    for n in range(n_min, n_max + 1):
        cert = certify.CLAIMS[args.claim](n)
        write_json(run / "certificates" / f"{args.claim}-{n}.json", cert.to_json_dict())
        statuses.append(cert.status)
    return statuses


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


def _auto_lambda_grid(cfg: dict, dim: int, count: int = 12) -> list[float]:
    est = pull_in_voltage(_boundary(cfg), _grid(cfg, dim), rel_width=1e-3, tol=cfg["tol"])
    return list(np.linspace(est.lambda_lo / count, 0.98 * est.lambda_lo, count))


def _branch_inputs(args, cfg) -> dict:
    if not 0 <= args.profiles <= MAX_GRID:
        raise ValueError(f"--profiles must be in 0..{MAX_GRID}")
    dim = _solver_dim(args, cfg)
    lambdas = parse_lambda_spec(args.lam)
    if lambdas is None:
        lambdas = _auto_lambda_grid(cfg, dim)
    _check_voltages(lambdas)
    check_increasing_grid(lambdas)
    return {"dim": dim, "lambdas": lambdas}


def _run_branch(args, cfg, inputs, run) -> list[str]:
    grid = _grid(cfg, inputs["dim"])
    result = continue_branch(_boundary(cfg), grid, inputs["lambdas"], tol=cfg["tol"])
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
    est = pull_in_voltage(_boundary(cfg), _grid(cfg, dim),
                          rel_width=cfg["rel_width"], tol=cfg["tol"])
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


def _profile_inputs(args, cfg) -> dict:
    _check_voltages([args.lam])
    return {"dim": _solver_dim(args, cfg), "lambda": args.lam}


def _run_profile(args, cfg, inputs, run) -> list[str]:
    grid = _grid(cfg, inputs["dim"])
    pt = minimal_solution(inputs["lambda"], _boundary(cfg), grid, tol=cfg["tol"])
    if isinstance(pt, BranchPoint):
        _write_profile(run / "profiles" / f"lambda-{pt.lam:.6g}.csv", pt.field)
        write_json(run / "point.json", _branch_record(pt))
        return []
    write_json(run / "divergence.json",
               {"lambda": pt.lam, "reason": pt.reason, "last_max": pt.last_max})
    return ["diverged"]


def _search_params(args) -> list:
    """The candidate parameters of --family: each grid flag the family
    reads is required, and a grid flag of the other family is an error."""
    for family, dests in FAMILY_GRIDS.items():
        for dest in dests:
            if (family == args.family) != (getattr(args, dest) is not None):
                verb = "needs" if family == args.family else "does not read"
                raise ValueError(f"--family {args.family} {verb} --{dest.replace('_', '-')}")
    if args.family == "perturbed-touchdown":
        alphas = parse_fraction_grid(args.alpha_grid)
        betas = parse_fraction_grid(args.beta_grid)
        if len(alphas) * len(betas) > MAX_GRID:
            raise ValueError(f"{len(alphas)} x {len(betas)} candidates exceed {MAX_GRID}")
        return [(a, b) for a in alphas for b in betas]
    return parse_fraction_grid(args.m)


def _search_inputs(args, cfg) -> dict:
    dim = args.dim
    certify.check_dimensions("search-subsolution", dim, dim)
    if not 9 <= dim <= 16:
        print(f"search-subsolution: dimension {dim} outside the open range 9..16 "
              "(treating as a sanity run)", file=sys.stderr)
    params = [[format_rational(x) for x in p] if isinstance(p, tuple) else format_rational(p)
              for p in _search_params(args)]
    inputs = {"dim": dim, "family": args.family, "params": params}
    # Given only with --lambda; the search's own default is H_N/2.
    if args.lam is not None:
        lam = Fraction(args.lam)
        _check_voltages([lam])
        inputs["lambda"] = format_rational(lam)
    return inputs


def _run_search(args, cfg, inputs, run) -> list[str]:
    lam = Fraction(inputs["lambda"]) if "lambda" in inputs else None
    report = certify.subsolution_search(inputs["dim"], args.family, _search_params(args), lam=lam)
    write_json(run / "search.json", report.to_json_dict())
    print(f"candidates: {len(report.candidates)}, passing: {len(report.passing)}")
    return [c.status for cand in report.candidates for c in cand.checks.values()]


@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``settings`` names the entries of SETTINGS the command reads: only
    they get a flag, a --config key and a place in the run key.
    ``inputs`` validates the command's own arguments and returns the
    fields that, with the settings, key the run directory; config.json
    records exactly that key.  ``run`` computes and writes the artifacts
    and returns their statuses; the first status of ``exit_codes`` among
    them picks the exit code.
    """

    name: str
    help: str
    arguments: tuple
    settings: tuple[str, ...]
    inputs: Callable[[argparse.Namespace, dict], dict]
    run: Callable[[argparse.Namespace, dict, dict, Path], list[str]]
    exit_codes: tuple[tuple[str, int], ...] = ()


COMMANDS = (
    Command(
        "bounds", "exact bound and threshold table",
        (_arg("--n", default="1..40", help=f"dimension range within 1..{MAX_DIMENSION}"),),
        ("format",), _bounds_inputs, _run_bounds,
    ),
    Command(
        "certify", "exact-arithmetic certificates",
        (
            _arg("claim", choices=CLAIM_SELECTORS),
            _arg("--n", default="17..30", help=f"dimension range within 1..{MAX_DIMENSION}"),
        ),
        (), _certify_inputs, _run_certify,
        exit_codes=(("falsified", EXIT_FALSIFIED), ("inconclusive", EXIT_INCONCLUSIVE)),
    ),
    Command(
        "branch", "minimal-branch sweep",
        (
            _DIM,
            _arg("--lambda", dest="lam", default="auto", help="start:stop:count or auto"),
            _arg("--profiles", type=int, default=0, help=f"dump k profiles, 0..{MAX_GRID}"),
        ),
        _SOLVER_SETTINGS, _branch_inputs, _run_branch, exit_codes=(("diverged", EXIT_FALSIFIED),),
    ),
    Command(
        "pullin", "pull-in voltage bracket", (_DIM,),
        (*_SOLVER_SETTINGS, "rel_width"),
        lambda args, cfg: {"dim": _solver_dim(args, cfg)}, _run_pullin,
        exit_codes=(("inconclusive", EXIT_INCONCLUSIVE),),
    ),
    Command(
        "profile", "single deflection profile",
        (_DIM, _arg("--lambda", dest="lam", required=True, type=float)),
        _SOLVER_SETTINGS, _profile_inputs, _run_profile, exit_codes=(("diverged", EXIT_FALSIFIED),),
    ),
    Command(
        "search-subsolution", "parametrized sub-solution search",
        (
            _DIM,
            _arg("--family", choices=tuple(FAMILY_GRIDS), required=True),
            _arg("--alpha-grid", dest="alpha_grid", help="rational grid start:stop:count"),
            _arg("--beta-grid", dest="beta_grid", help="rational grid start:stop:count"),
            _arg("--m", help="profile parameters, single value or start:stop:count"),
            _arg("--lambda", dest="lam", help="voltage (exact rational); default H_N/2"),
        ),
        (), _search_inputs, _run_search, exit_codes=(("inconclusive", EXIT_INCONCLUSIVE),),
    ),
)


def _execute(command: Command, args) -> int:
    cfg = _load_settings(command, args)
    inputs = command.inputs(args, cfg)
    record = {"command": command.name, **inputs, "config": _settings_json(cfg)}
    out_root = Path(args.out) if args.out else default_out_root()
    run = run_directory(out_root, command.name, record)
    write_json(run / "config.json", record)
    print(run)
    statuses = command.run(args, cfg, inputs, run)
    return next((code for status, code in command.exit_codes if status in statuses), EXIT_OK)


def build_parser() -> _Parser:
    parser = _Parser(prog="mems4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--out", type=Path, help="output root (default $MEMS4_OUT or ./mems4-out)")
        if command.settings:
            p.add_argument("--config", type=Path,
                           help="JSON object of settings, as in config.json's config block; "
                                "flags override")
        for name in command.settings:
            p.add_argument(SETTINGS[name].flag, help=SETTINGS[name].help)
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
