"""Command-line driver: the bounds table, certificates, branch sweeps
(a profile is a one-voltage branch), pull-in estimation, and the
sub-solution search.

Every command runs one chain: resolve the settings it reads (defaults,
then a --config file, then flags), validate its own inputs, key the run
directory on the command, those inputs and those settings, write exactly
that key to config.json, print the run directory, then compute and write
the artifacts from the checked settings and that key alone: config.json
is the run's complete input.  A command takes flags and --config keys
only for the settings it reads (``Command.settings``).  Rational values
and specs may be negative: "--beta -1/5" and "--alpha-grid -1/3:0:4"
parse as values.

Exit codes, which each runner returns from its engine's decisions: 0
success/verified, 1 falsified or diverged, 2 inconclusive or flagged
(only ``pullin``: exit 2 comes from the float engine, since the exact
engine verifies or falsifies every claim), 3+ usage and I/O errors.
Usage errors include a flag the command does not take, a --config key
that is not one of its settings, --mesh outside 16..16384, a mesh and
dimension on which the operator cannot be built (a cell volume near the
origin underflows, or the operator is not numerically positive
definite), boundary data whose extension comes within 1e-6 of the
contact plane (branch.CEILING), ``pullin`` data whose
pull-in voltage may pass half the largest float
(branch.pull_in_ceiling), --rel-width outside [1e-15, 1)
(branch.MIN_REL_WIDTH: above the float spacing, so the bisection ends),
a dimension range outside 1..64 or below its claim's floor, a search
--dim outside 1..64, a float command's --dim below 1 or above the
largest float (1.8e308), a voltage that is NaN, negative or above the
largest float (1.8e308), an --alpha or --beta of magnitude above it, a
rational with a decimal exponent past 4300 (closed_forms.MAX_EXPONENT), a
search --lambda whose numerator and denominator have more than 600
digits together (MAX_VOLTAGE_DIGITS), a grid count, --profiles or search
candidate count above 4096, a search grid flag missing for --family or
given for the other family, a candidate outside its family (m > 0, m !=
4/3; alpha, beta > 0), and a candidate whose checks pass
certify.MAX_CHECK_DEGREE.

This module never loads numpy (``_linspace`` builds its grids) and its
import loads no float engine (mems4.branch, mems4.radial_operator).
``bounds``, ``certify`` and ``search-subsolution`` run on the exact
engine, which loads neither; ``branch`` and ``pullin`` load the float
engine, and numpy with it, inside the functions that check
their inputs and run them, and call mems4.branch's functions through it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from mems4 import NoConvergentVoltage, certify
from mems4.certify import MAX_CHECK_DEGREE, MAX_DIMENSION
from mems4.closed_forms import (
    BoundaryPair,
    format_rational,
    is_admissible,
    parse_rational,
    quadratic_lower_bound,
    rational_to_decimal,
)
from mems4.store import (
    default_out_root,
    rational_json,
    run_directory,
    write_csv,
    write_json,
    write_json_list,
    write_jsonl,
)

if TYPE_CHECKING:
    from mems4.branch import BranchPoint
    from mems4.radial_operator import RadialField, RadialGrid

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
# Most decimal digits in a search --lambda's numerator and denominator
# together.  Python turns no integer of more than 4300 digits into text.
# A trail writes exact values past certify.MAX_VALUE_BITS as signs, so
# the voltage's digits reach a certificate through its claim's
# coefficients and endpoint values, and a witness near r = 0 has digits
# that grow with the voltage's magnitude, not its digits.  600 admits
# every float written to 17 significant digits (1.7976931348623157e308
# has 309 + 1) and bounds what Sturm isolation's exact arithmetic, which
# slows with the voltage's digits, has to carry.
MAX_VOLTAGE_DIGITS = 600

CLAIM_SELECTORS = (*certify.CLAIMS, "thresholds")
# The grid flags (argparse dests) each search family reads.
FAMILY_GRIDS = {"perturbed-touchdown": ("alpha_grid", "beta_grid"), "touchdown-m": ("m",)}


def __getattr__(name: str):
    """mems4.branch's ``pull_in_voltage`` and ``continue_branch`` as
    attributes of this module, bound in its namespace on first access:
    perfbench's tracer wraps them here and restores them from that
    namespace.  The commands call mems4.branch's own, never these."""
    if name in ("pull_in_voltage", "continue_branch"):
        from mems4 import branch

        value = globals()[name] = getattr(branch, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _branch_check(name: str) -> Callable[[object], bool]:
    """The Setting check mems4.branch's ``name`` makes (it raises
    ValueError), imported when a float command resolves the setting."""
    def valid(value) -> bool:
        from mems4 import branch

        getattr(branch, name)(value)
        return True

    return valid


SETTINGS = {s.name: s for s in (
    Setting("mesh", 512, int, lambda v: 16 <= v <= MAX_MESH, f"interior node count, 16..{MAX_MESH}"),
    Setting("rel_width", 1e-6, float, _branch_check("check_rel_width"),
            "pull-in bracket relative width, in [1e-15, 1)"),
    # The float engine samples alpha and beta in doubles.
    Setting("alpha", Fraction(0), parse_rational, lambda v: abs(v) <= sys.float_info.max,
            "boundary value at r=1, exact rational of magnitude at most 1.8e308"),
    Setting("beta", Fraction(0), parse_rational, lambda v: abs(v) <= sys.float_info.max,
            "boundary slope at r=1, exact rational of magnitude at most 1.8e308"),
)}
_SOLVER_SETTINGS = ("mesh", "alpha", "beta")


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
    from mems4.radial_operator import build_grid

    return build_grid(cfg["mesh"], dim)


def parse_range(text: str) -> tuple[int, int]:
    """Dimension ranges like "17..30" or a single "9"."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _linspace(start, stop, count: int) -> list:
    """``count`` evenly spaced points from start to stop: exact for
    Fractions, and numpy's linspace bit for bit for floats (k step + start,
    then stop; (k/div) delta + start when the step underflows to zero)."""
    if count < 2 or start == stop:
        return [start] * count
    div, delta = count - 1, stop - start
    step = delta / div
    if step == 0:
        return [k / div * delta + start for k in range(div)] + [stop]
    return [k * step + start for k in range(div)] + [stop]


def _parse_grid(text: str, value: Callable[[str], object], usage: str) -> list:
    """One value "v", or "start:stop:count" evenly spaced points."""
    parts = text.split(":")
    if len(parts) == 1:
        return [value(text)]
    if len(parts) != 3:
        raise ValueError(usage)
    start, stop, count = value(parts[0]), value(parts[1]), int(parts[2])
    if not 1 <= count <= MAX_GRID:
        raise ValueError(f"count must be in 1..{MAX_GRID}")
    return _linspace(start, stop, count)


def parse_lambda_spec(text: str) -> list[float] | None:
    """Voltage grids "5" or "start:stop:count"; "auto" returns None."""
    usage = "voltage spec must be a voltage, start:stop:count or auto"
    return None if text == "auto" else _parse_grid(text, float, usage)


def parse_fraction_grid(text: str) -> list[Fraction]:
    """Exact rational grids "1:3:9" (start:stop:count) or one value "2/3"."""
    return _parse_grid(text, parse_rational, "grid spec must be a value or start:stop:count")


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_DIM = _arg("--dim", type=int, required=True)


def _solver_dim(args, cfg) -> int:
    """--dim, once the solver workspace of the run builds: branch.Workspace
    rejects a dimension below 1, a grading too strong or a mesh too fine
    for the dimension, and boundary data that grazes the contact plane."""
    from mems4.branch import Workspace

    Workspace(_boundary(cfg), _grid(cfg, args.dim))
    return args.dim


def _dimension_range(text: str, claim: str) -> list[int]:
    n_min, n_max = parse_range(text)
    certify.check_dimensions(claim, n_min, n_max)
    return [n_min, n_max]


# (column, exact value from the dimension's certify.ThresholdRow);
# Fractions render as num/den plus a decimal column.
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


def _run_bounds(cfg, inputs, run) -> int:
    n_min, n_max = inputs["n"]
    rows = [
        {"n": row.dimension, **{name: value(row) for name, value in _BOUNDS_COLUMNS}}
        for row in certify.threshold_table(n_min, n_max)
    ]
    header = [name for name, _ in _csv_fields(rows[0])]
    cells = [[value for _, value in _csv_fields(row)] for row in rows]
    write_csv(run / "tables" / "bounds.csv", header, cells)
    return EXIT_OK


def _certify_inputs(args, cfg) -> dict:
    return {"claim": args.claim, "n": _dimension_range(args.n, args.claim)}


def _run_certify(cfg, inputs, run) -> int:
    claim, (n_min, n_max) = inputs["claim"], inputs["n"]
    if claim == "thresholds":
        certs = [(f"thresholds-{n_min}-{n_max}", certify.certify_thresholds(n_min, n_max))]
    else:  # each certificate is written before the next one is made
        certs = ((f"{claim}-{n}", certify.CLAIMS[claim](n)) for n in range(n_min, n_max + 1))
    falsified = False
    for name, cert in certs:
        write_json(run / "certificates" / f"{name}.json", cert.to_json_dict())
        falsified |= cert.status == certify.FALSIFIED
    return EXIT_FALSIFIED if falsified else EXIT_OK


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


def _pull_in_voltage(cfg: dict, dim: int, rel_width: float):
    """branch.pull_in_voltage on the run's boundary data and mesh; it raises
    NoConvergentVoltage, which main reports, when no voltage converges."""
    from mems4 import branch

    return branch.pull_in_voltage(_boundary(cfg), _grid(cfg, dim), rel_width=rel_width)


def _auto_lambda_grid(cfg: dict, dim: int, count: int = 12) -> list[float]:
    est = _pull_in_voltage(cfg, dim, 1e-3)
    return _linspace(est.lambda_lo / count, 0.98 * est.lambda_lo, count)


def _branch_inputs(args, cfg) -> dict:
    if not 0 <= args.profiles <= MAX_GRID:
        raise ValueError(f"--profiles must be in 0..{MAX_GRID}")
    dim = _solver_dim(args, cfg)
    lambdas = parse_lambda_spec(args.lam)
    if lambdas is None:
        lambdas = _auto_lambda_grid(cfg, dim)
    from mems4.branch import check_voltage_grid  # finite, nonnegative, increasing

    check_voltage_grid(lambdas)
    inputs = {"dim": dim, "lambdas": lambdas}
    # Keyed only when asked for, so runs without profiles keep their names.
    if args.profiles:
        inputs["profiles"] = args.profiles
    return inputs


def _run_branch(cfg, inputs, run) -> int:
    from mems4 import branch

    grid = _grid(cfg, inputs["dim"])
    result = branch.continue_branch(_boundary(cfg), grid, inputs["lambdas"])
    records = [_branch_record(pt) for pt in result.points]
    div = result.divergence
    if div is not None:
        records.append({"schema_version": 1, "diverged_at": div.lam, "reason": div.reason,
                        "last_max": div.last_max})
    write_jsonl(run / "branch.jsonl", records)
    if not result.points:
        return EXIT_FALSIFIED
    picks = _linspace(0, len(result.points) - 1, inputs.get("profiles", 0))
    for pt in [result.points[i] for i in sorted({int(x) for x in picks})]:
        # Named by the voltage's shortest round-trip repr, so distinct
        # voltages never share a file.
        _write_profile(run / "profiles" / f"lambda-{pt.lam!r}.csv", pt.field)
    return EXIT_OK


def _pullin_inputs(args, cfg) -> dict:
    """--dim, as _solver_dim checks it, with branch.pull_in_ceiling too."""
    from mems4 import branch

    branch.pull_in_ceiling(branch.Workspace(_boundary(cfg), _grid(cfg, args.dim)))
    return {"dim": args.dim}


def _run_pullin(cfg, inputs, run) -> int:
    from mems4 import branch

    dim = inputs["dim"]
    est = _pull_in_voltage(cfg, dim, cfg["rel_width"])
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
        "regularity_verdict": branch.regularity_verdict(est),
        "notes": est.notes,
    }
    write_json(run / "pullin.json", payload)
    _write_profile(run / "profiles" / "near-fold.csv", est.near_fold.field)
    return EXIT_INCONCLUSIVE if est.consistent is False or est.flagged else EXIT_OK


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
    params = []
    for k, p in enumerate(_search_params(args), 1):
        _, w = certify.candidate_profile(args.family, p)  # alpha, beta > 0; m > 0, m != 4/3
        if certify.check_degree(w) > MAX_CHECK_DEGREE:
            raise ValueError(f"candidate {k}: its checks exceed degree {MAX_CHECK_DEGREE}")
        params.append(list(map(format_rational, p)) if isinstance(p, tuple) else format_rational(p))
    inputs = {"dim": dim, "family": args.family, "params": params}
    # Given only with --lambda; the search's own default is H_N/2.
    if args.lam is not None:
        lam = parse_rational(args.lam)
        # Every artifact writes a float decimal of its voltage.
        if not 0 <= lam <= sys.float_info.max:
            raise ValueError("--lambda must be nonnegative and at most the largest float (1.8e308)")
        if len(str(lam.numerator)) + len(str(lam.denominator)) > MAX_VOLTAGE_DIGITS:
            raise ValueError(f"--lambda: its numerator and denominator exceed "
                             f"{MAX_VOLTAGE_DIGITS} digits together")
        inputs["lambda"] = format_rational(lam)
    return inputs


def _run_search(cfg, inputs, run) -> int:
    """Stream the search into search.json: each candidate's report is
    written, then released, before the next one is checked."""
    n, family, params = inputs["dim"], inputs["family"], inputs["params"]
    lam = Fraction(inputs["lambda"]) if "lambda" in inputs else None
    lam, notes = certify.search_setup(n, family, lam)
    passing = 0

    def candidates():
        nonlocal passing
        for report in certify.search_candidates(n, family, params, lam):
            passing += report.passed
            yield report.to_json_dict()

    write_json_list(run / "search.json", "candidates", candidates(), lambda: {
        "dimension": n,
        "voltage": format_rational(lam),
        "voltage_decimal": rational_to_decimal(lam),
        "family": family,
        "passing_count": passing,
        "notes": notes,
    })
    print(f"candidates: {len(params)}, passing: {passing}")
    return EXIT_OK


@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``settings`` names the entries of SETTINGS the command reads: only
    they get a flag, a --config key and a place in the run key.
    ``inputs`` validates the command's own arguments and returns the
    fields that, with the settings, key the run directory; config.json
    records exactly that key, the run's whole input.  ``run`` writes the
    artifacts from the settings and those fields alone and returns the
    exit code, read from the decisions the engines made.
    """

    name: str
    help: str
    arguments: tuple
    settings: tuple[str, ...]
    inputs: Callable[[argparse.Namespace, dict], dict]
    run: Callable[[dict, dict, Path], int]


COMMANDS = (
    Command(
        "bounds", "exact bound and threshold table",
        (_arg("--n", default="1..40", help=f"dimension range within 1..{MAX_DIMENSION}"),),
        (), _bounds_inputs, _run_bounds,
    ),
    Command(
        "certify", "exact-arithmetic certificates",
        (
            _arg("claim", choices=CLAIM_SELECTORS),
            _arg("--n", default="17..30", help=f"dimension range within 1..{MAX_DIMENSION}"),
        ),
        (), _certify_inputs, _run_certify,
    ),
    Command(
        "branch", "minimal-branch sweep",
        (
            _DIM,
            _arg("--lambda", dest="lam", default="auto",
                 help="a voltage, start:stop:count or auto"),
            _arg("--profiles", type=int, default=0, help=f"dump k profiles, 0..{MAX_GRID}"),
        ),
        _SOLVER_SETTINGS, _branch_inputs, _run_branch,
    ),
    Command(
        "pullin", "pull-in voltage bracket", (_DIM,),
        (*_SOLVER_SETTINGS, "rel_width"),
        _pullin_inputs, _run_pullin,
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
        (), _search_inputs, _run_search,
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
    return command.run(cfg, inputs, run)


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
    except NoConvergentVoltage as exc:
        print(f"mems4 {args.command}: diverged: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except OSError as exc:
        print(f"mems4: I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
