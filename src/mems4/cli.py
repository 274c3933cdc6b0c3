"""Command-line driver: the bounds table, certificates, branch sweeps
(a profile is a one-voltage branch), pull-in estimation, and the
sub-solution search.

Every command runs one chain: validate its own flags, key the run
directory on the command and those checked inputs, write exactly that
key to config.json ({"command", **inputs}), print the run directory,
then compute and write the artifacts from that key alone: config.json is
the run's complete input.  Rational values and specs may be negative:
"--beta -1/5" and "--alpha-grid -1/3:0:4" parse as values.

Exit codes, which each runner returns from its engine's decisions: 0
success/verified, 1 falsified or diverged, 2 inconclusive or flagged
(only ``pullin``: exit 2 comes from the float engine, since the exact
engine verifies or falsifies every claim), 3+ usage and I/O errors.
Usage errors include a flag the command does not take, --mesh outside
16..16384, a mesh and dimension on which the operator cannot be built (a
cell volume near the origin underflows, or the operator is not
numerically positive definite), boundary data whose extension comes
within 1e-6 of the contact plane (branch.CEILING), ``pullin`` data whose
pull-in voltage may pass half the largest float
(branch.pull_in_ceiling), --rel-width outside [1e-15, 1)
(branch.MIN_REL_WIDTH: above the float spacing, so the bisection ends),
a dimension range outside 1..64 or below its claim's floor, a search
--dim outside 1..64, a float command's --dim below 1 or above the
largest float (1.8e308), a voltage that is NaN, negative or above the
largest float (1.8e308), an --alpha or --beta of magnitude above it, a
rational with a decimal exponent past 4300 (closed_forms.MAX_EXPONENT),
a zero denominator, or a numerator or denominator of more than 4300
digits (closed_forms.MAX_DIGITS), a search --lambda whose numerator and
denominator have more than 600 digits together (MAX_VOLTAGE_DIGITS), a
grid count, --profiles or search candidate count above 4096, a search
grid flag missing for --family or given for the other family, a
candidate outside its family (m > 0, m != 4/3; alpha, beta > 0), and a
candidate whose checks pass certify.MAX_CHECK_DEGREE.  A refusal of a
rational, grid, voltage, dimension or candidate reads "--flag: reason";
a candidate's flag is its family's grid flags, "--m" or
"--alpha-grid/--beta-grid".

This module never loads numpy (``_linspace`` builds its grids) and its
import loads no float engine (mems4.branch, mems4.radial_operator).
``bounds``, ``certify`` and ``search-subsolution`` run on the exact
engine, which loads neither; ``branch`` and ``pullin`` load the float
engine, and numpy with it, inside the functions that check
their inputs and run them, and call mems4.branch's functions through it.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from mems4 import NoConvergentVoltage, certify
from mems4.certify import MAX_CHECK_DEGREE, MAX_DIMENSION
from mems4.closed_forms import (
    MAX_DIGITS,
    BoundaryPair,
    format_rational,
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
    from mems4.branch import BranchPoint, Workspace
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
# coefficients and its sign-evaluation values, and a witness near r = 0
# has digits that grow with the voltage's magnitude, not its digits.  600
# admits every float written to 17 significant digits
# (1.7976931348623157e308 has 309 + 1) and bounds what Sturm isolation's
# exact arithmetic, which slows with the voltage's digits, has to carry.
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


def _boundary(inputs: dict) -> BoundaryPair:
    return BoundaryPair(Fraction(inputs["alpha"]), Fraction(inputs["beta"]))


def _grid(inputs: dict) -> RadialGrid:
    from mems4.radial_operator import build_grid

    return build_grid(inputs["mesh"], inputs["dim"])


def _int(text: str) -> int:
    """int(text), refusing a text longer than Python reads as an integer."""
    if len(text) > MAX_DIGITS:
        raise ValueError(f"integer of more than {MAX_DIGITS} digits")
    return int(text)


def parse_range(text: str) -> tuple[int, int]:
    """Dimension ranges like "17..30" or a single "9"."""
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if match is None:
        raise ValueError(f"range must be N or N..M, not {text!r}")
    lo, hi = match.groups()
    return _int(lo), _int(hi or lo)


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
    start, stop, count = value(parts[0]), value(parts[1]), _int(parts[2])
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
# The float commands' mesh and boundary data at r = 1.
_SOLVER_ARGS = (
    _arg("--mesh", type=int, default=512, help=f"interior node count, 16..{MAX_MESH}"),
    _arg("--alpha", default="0",
         help="boundary value at r=1, exact rational of magnitude at most 1.8e308"),
    _arg("--beta", default="0",
         help="boundary slope at r=1, exact rational of magnitude at most 1.8e308"),
)


def _flag(flag: str, check: Callable, *values):
    """check(*values), its ValueError prefixed by the flag that gave the
    values."""
    try:
        return check(*values)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _boundary_value(args, name: str) -> str:
    """--alpha or --beta as format_rational text: an exact rational of
    magnitude at most the largest float, since the float engine samples
    it in doubles."""
    text = getattr(args, name)
    value = _flag(f"--{name}", parse_rational, text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"--{name}: magnitude above the largest float (1.8e308), not {text!r}")
    return format_rational(value)


def _solver_inputs(args) -> tuple[dict, Workspace]:
    """--dim, --mesh, --alpha and --beta, once the solver workspace of the
    run builds: branch.Workspace rejects an inadmissible boundary pair, a
    dimension below 1, a grading too strong or a mesh too fine for the
    dimension, and boundary data that grazes the contact plane."""
    from mems4.branch import Workspace

    if not 16 <= args.mesh <= MAX_MESH:
        raise ValueError(f"--mesh: interior node count in 16..{MAX_MESH}, not {args.mesh}")
    inputs = {"dim": args.dim, "mesh": args.mesh,
              "alpha": _boundary_value(args, "alpha"), "beta": _boundary_value(args, "beta")}
    return inputs, Workspace(_boundary(inputs), _flag("--dim", _grid, inputs))


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


def _bounds_inputs(args) -> dict:
    return {"n": _flag("--n", _dimension_range, args.n, "bounds")}


def _csv_fields(row: dict) -> list[tuple[str, object]]:
    fields = []
    for name, value in row.items():
        if isinstance(value, Fraction):
            fields += [(name, format_rational(value)),
                       (f"{name}_decimal", rational_to_decimal(value))]
        else:
            fields.append((name, value))
    return fields


def _run_bounds(inputs, run) -> int:
    n_min, n_max = inputs["n"]
    rows = [
        {"n": row.dimension, **{name: value(row) for name, value in _BOUNDS_COLUMNS}}
        for row in certify.threshold_table(n_min, n_max)
    ]
    header = [name for name, _ in _csv_fields(rows[0])]
    cells = [[value for _, value in _csv_fields(row)] for row in rows]
    write_csv(run / "tables" / "bounds.csv", header, cells)
    return EXIT_OK


def _certify_inputs(args) -> dict:
    return {"claim": args.claim, "n": _flag("--n", _dimension_range, args.n, args.claim)}


def _run_certify(inputs, run) -> int:
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


def _pull_in_voltage(inputs: dict, rel_width: float):
    """branch.pull_in_voltage on the run's boundary data and mesh; it raises
    NoConvergentVoltage, which main reports, when no voltage converges."""
    from mems4 import branch

    return branch.pull_in_voltage(_boundary(inputs), _grid(inputs), rel_width=rel_width)


def _auto_lambda_grid(inputs: dict, count: int = 12) -> list[float]:
    est = _pull_in_voltage(inputs, 1e-3)
    return _linspace(est.lambda_lo / count, 0.98 * est.lambda_lo, count)


def _branch_inputs(args) -> dict:
    if not 0 <= args.profiles <= MAX_GRID:
        raise ValueError(f"--profiles: must be in 0..{MAX_GRID}")
    inputs, _ = _solver_inputs(args)
    lambdas = _flag("--lambda", parse_lambda_spec, args.lam)
    if lambdas is None:
        lambdas = _auto_lambda_grid(inputs)
    from mems4.branch import check_voltage_grid  # finite, nonnegative, increasing

    _flag("--lambda", check_voltage_grid, lambdas)
    inputs["lambdas"] = lambdas
    # Keyed only when asked for, so runs without profiles keep their names.
    if args.profiles:
        inputs["profiles"] = args.profiles
    return inputs


def _run_branch(inputs, run) -> int:
    from mems4 import branch

    result = branch.continue_branch(_boundary(inputs), _grid(inputs), inputs["lambdas"])
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


def _pullin_inputs(args) -> dict:
    """The solver inputs, as _solver_inputs checks them, with
    branch.pull_in_ceiling too, and --rel-width."""
    from mems4 import branch

    _flag("--rel-width", branch.check_rel_width, args.rel_width)
    inputs, ws = _solver_inputs(args)
    branch.pull_in_ceiling(ws)
    return {**inputs, "rel_width": args.rel_width}


def _run_pullin(inputs, run) -> int:
    from mems4 import branch

    est = _pull_in_voltage(inputs, inputs["rel_width"])
    payload = {
        "dim": inputs["dim"],
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
        alphas = _flag("--alpha-grid", parse_fraction_grid, args.alpha_grid)
        betas = _flag("--beta-grid", parse_fraction_grid, args.beta_grid)
        if len(alphas) * len(betas) > MAX_GRID:
            raise ValueError(f"--alpha-grid/--beta-grid: {len(alphas)} x {len(betas)} "
                             f"candidates exceed {MAX_GRID}")
        return [(a, b) for a in alphas for b in betas]
    return _flag("--m", parse_fraction_grid, args.m)


def _search_inputs(args) -> dict:
    dim = args.dim
    _flag("--dim", certify.check_dimensions, "search-subsolution", dim, dim)
    grids = "/".join(f"--{dest.replace('_', '-')}" for dest in FAMILY_GRIDS[args.family])
    params = []
    for k, p in enumerate(_search_params(args), 1):
        # alpha, beta > 0; m > 0, m != 4/3
        _, w = _flag(grids, certify.candidate_profile, args.family, p)
        if certify.check_degree(w) > MAX_CHECK_DEGREE:
            raise ValueError(f"{grids}: candidate {k}: its checks exceed degree {MAX_CHECK_DEGREE}")
        params.append(list(map(format_rational, p)) if isinstance(p, tuple) else format_rational(p))
    inputs = {"dim": dim, "family": args.family, "params": params}
    # Given only with --lambda; the search's own default is H_N/2.
    if args.lam is not None:
        lam = _flag("--lambda", parse_rational, args.lam)
        # Every artifact writes a float decimal of its voltage.
        if not 0 <= lam <= sys.float_info.max:
            raise ValueError("--lambda: must be nonnegative and at most the largest float (1.8e308)")
        if len(str(lam.numerator)) + len(str(lam.denominator)) > MAX_VOLTAGE_DIGITS:
            raise ValueError(f"--lambda: its numerator and denominator exceed "
                             f"{MAX_VOLTAGE_DIGITS} digits together")
        inputs["lambda"] = format_rational(lam)
    return inputs


def _run_search(inputs, run) -> int:
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

    ``inputs`` validates the command's flags and returns the fields that
    key the run directory; config.json records exactly that key with the
    command's name, the run's whole input.  ``run`` writes the artifacts
    from those fields alone and returns the exit code, read from the
    decisions the engines made.
    """

    name: str
    help: str
    arguments: tuple
    inputs: Callable[[argparse.Namespace], dict]
    run: Callable[[dict, Path], int]


COMMANDS = (
    Command(
        "bounds", "exact bound and threshold table",
        (_arg("--n", default="1..40", help=f"dimension range within 1..{MAX_DIMENSION}"),),
        _bounds_inputs, _run_bounds,
    ),
    Command(
        "certify", "exact-arithmetic certificates",
        (
            _arg("claim", choices=CLAIM_SELECTORS),
            _arg("--n", default="17..30", help=f"dimension range within 1..{MAX_DIMENSION}"),
        ),
        _certify_inputs, _run_certify,
    ),
    Command(
        "branch", "minimal-branch sweep",
        (
            _DIM,
            _arg("--lambda", dest="lam", default="auto",
                 help="a voltage, start:stop:count or auto"),
            _arg("--profiles", type=int, default=0, help=f"dump k profiles, 0..{MAX_GRID}"),
            *_SOLVER_ARGS,
        ),
        _branch_inputs, _run_branch,
    ),
    Command(
        "pullin", "pull-in voltage bracket",
        (
            _DIM,
            *_SOLVER_ARGS,
            _arg("--rel-width", type=float, default=1e-6,
                 help="pull-in bracket relative width, in [1e-15, 1)"),
        ),
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
        _search_inputs, _run_search,
    ),
)


def _execute(command: Command, args) -> int:
    inputs = command.inputs(args)
    record = {"command": command.name, **inputs}
    out_root = Path(args.out) if args.out else default_out_root()
    run = run_directory(out_root, command.name, record)
    write_json(run / "config.json", record)
    print(run)
    return command.run(inputs, run)


def build_parser() -> _Parser:
    parser = _Parser(prog="mems4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--out", type=Path, help="output root (default $MEMS4_OUT or ./mems4-out)")
        p.set_defaults(spec=command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _execute(args.spec, args)
    except ValueError as exc:
        print(f"mems4 {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoConvergentVoltage as exc:
        print(f"mems4 {args.command}: diverged: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except OSError as exc:
        print(f"mems4 {args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
