"""CLI contract tests: exit codes, file schemas, determinism."""

import csv
import gc
import json
import math
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mems4.branch import CEILING, MIN_REL_WIDTH, pull_in_voltage
from mems4.cli import (
    MAX_GRID,
    MAX_MESH,
    MAX_VOLTAGE_DIGITS,
    build_parser,
    main,
    parse_fraction_grid,
    parse_lambda_spec,
    parse_range,
)
from mems4 import certify
from mems4.certify import search_candidates, search_setup
from mems4.closed_forms import HOMOGENEOUS, format_rational, rational_to_decimal
from mems4.radial_operator import build_grid
from fractions import Fraction

F = Fraction


def run_cli(*argv) -> int:
    return main(list(argv))


def find_one(root: Path, pattern: str) -> Path:
    matches = sorted(root.rglob(pattern))
    assert matches, f"no {pattern} under {root}"
    return matches[0]


def test_parse_helpers():
    assert parse_range("17..30") == (17, 30)
    assert parse_range("9") == (9, 9)
    for text in ("17..", "..3", "1..2..3", "x"):
        with pytest.raises(ValueError, match="^range must be N or N..M, not "):
            parse_range(text)
    assert parse_lambda_spec("1:10:10") == pytest.approx(
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    )
    assert parse_lambda_spec("0:0:1") == [0.0]
    assert parse_lambda_spec("5") == parse_lambda_spec("5:5:1") == [5.0]
    assert parse_lambda_spec("auto") is None
    assert parse_fraction_grid("1:3:9") == [
        F(1), F(5, 4), F(3, 2), F(7, 4), F(2), F(9, 4), F(5, 2), F(11, 4), F(3)
    ]
    assert parse_fraction_grid("2/3") == [F(2, 3)]
    # The largest count accepted.
    assert len(parse_lambda_spec(f"0:1:{MAX_GRID}")) == MAX_GRID
    assert len(parse_fraction_grid(f"0:1:{MAX_GRID}")) == MAX_GRID
    # Voltage grids keep numpy's linspace bit for bit, as config.json keyed
    # them, the zero-step (denormal) span included.
    rng = np.random.default_rng(20081)
    specs = [(50.0, 1330.0, 16), (0.0, 1e-320, 3), (1.0, 10.0, 10), (5.0, 100.0, 3)]
    for _ in range(500):
        a, b = sorted(rng.uniform(0, 1, 2) * 10.0 ** rng.integers(-320, 308))
        specs.append((float(a), float(b), int(rng.integers(2, 80))))
    for start, stop, count in specs:
        got = parse_lambda_spec(f"{start!r}:{stop!r}:{count}")
        want = np.linspace(start, stop, count)
        assert [x.hex() for x in got] == [float(x).hex() for x in want], (start, stop, count)


def test_config_round_trip(tmp_path):
    # A run's config.json is {"command", **inputs}: its inputs, passed
    # back as flags, reproduce the run in the same directory, and the
    # two spellings of one rational key one run.
    flags = ["pullin", "--dim", "3", "--mesh", "64", "--rel-width", "1e-3",
             "--alpha=0.1", "--beta=-1/2"]
    assert run_cli(*flags, "--out", str(tmp_path)) == 0
    first = find_one(tmp_path, "config.json")
    config = json.loads(first.read_text())
    assert set(config) == {"command", "dim", "mesh", "alpha", "beta", "rel_width",
                           "schema_version"}
    assert (config["alpha"], config["beta"]) == ("1/10", "-1/2")
    argv = [config["command"]]
    for key in ("dim", "mesh", "alpha", "beta", "rel_width"):
        argv.append(f"--{key.replace('_', '-')}={config[key]}")
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert sorted(tmp_path.rglob("config.json")) == [first]


def test_config_validation():
    # The edges of --mesh and --rel-width are accepted; the values past
    # them are test_bad_run_config_exits_before_solving cases.
    args = build_parser().parse_args(["pullin", "--dim", "3", "--mesh", str(MAX_MESH),
                                      "--rel-width", repr(MIN_REL_WIDTH)])
    inputs = args.spec.inputs(args)
    assert (inputs["mesh"], inputs["rel_width"]) == (MAX_MESH, MIN_REL_WIDTH)


SEARCH_W3 = ["search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "3"]
SEARCH_PT = ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
             "--alpha-grid", "1:2:2", "--beta-grid", "1:2:2"]


@pytest.mark.parametrize(
    "flags",
    [
        ["pullin", "--dim", "3", "--rel-width", "0"],
        ["pullin", "--dim", "3", "--rel-width=-1e-3"],
        # The float engine's own bound: branch.check_rel_width.
        ["pullin", "--dim", "3", "--mesh", "16", "--rel-width", "1.0"],
        ["pullin", "--dim", "3", "--mesh", "16", "--rel-width", repr(2.0**-52)],
        ["pullin", "--dim", "3", "--mesh", "16", "--rel-width",
         repr(math.nextafter(MIN_REL_WIDTH, 0))],
        ["pullin", "--dim", "3", "--mesh", "16", "--rel-width", "nan"],
        ["pullin", "--dim", "3", "--mesh", "4"],
        ["pullin", "--dim", "3", "--tol", "-1"],  # --tol is no flag (see below)
        ["pullin", "--dim", "3", "--mesh", str(MAX_MESH + 1)],
        ["branch", "--dim", "3", "--lambda", "nan"],
        ["branch", "--dim", "3", "--lambda", "inf"],
        ["branch", "--dim", "3", "--lambda", "-1"],
        ["branch", "--dim", "3", "--lambda", "nan:1:3"],
        ["branch", "--dim", "3", "--lambda", "-5:1:3"],
        SEARCH_W3 + ["--lambda", "1/0"],
        SEARCH_W3 + ["--lambda", "-1/2"],
        # Every artifact writes a float decimal of the voltage.
        SEARCH_W3 + ["--lambda", "1e400"],
        # More voltage digits than MAX_VOLTAGE_DIGITS, by one and by 3401.
        SEARCH_W3 + ["--lambda", "1/1" + "0" * (MAX_VOLTAGE_DIGITS - 1)],
        SEARCH_W3[:-1] + ["11/2", "--lambda", "1/" + "9" * 4000],
        ["search-subsolution", "--dim", "65", "--family", "touchdown-m", "--m", "3"],
        ["search-subsolution", "--dim", str(10**80), "--family", "touchdown-m", "--m", "3"],
        ["branch", "--dim", "3", "--lambda", "5:1:3"],
        ["pullin", "--dim", "3", "--alpha", "2"],
        ["pullin", "--dim", "0"],
        ["bounds", "--n", "1..65"],
        ["certify", "thresholds", "--n", "1..65"],
        ["certify", "m3-gap", "--n", "0..3"],
        ["certify", "m2-subsolution", "--n", "2..4"],
        ["certify", "m3-stability", "--n", "4..6"],
        # Assembles, but its banded Cholesky fails.
        ["pullin", "--dim", "45", "--mesh", "512"],
        ["branch", "--dim", "3", "--mesh", "16", "--profiles", "-1"],
        ["branch", "--dim", "3", "--lambda", "1:2:2", "--profiles", str(MAX_GRID + 1)],
        # A family's own grid missing, or the other family's grid given.
        ["search-subsolution", "--dim", "17", "--family", "touchdown-m"],
        ["search-subsolution", "--dim", "17", "--family", "touchdown-m", "--alpha-grid", "1:2:2"],
        SEARCH_W3 + ["--beta-grid", "1:2:2"],
        SEARCH_PT + ["--m", "3"],
        ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
         "--alpha-grid", "1:2:2"],
        # Counts past MAX_GRID, rejected before any grid is built.
        ["branch", "--dim", "3", "--lambda", "0:1:1000000000"],
        ["branch", "--dim", "3", "--lambda", f"1:2:{MAX_GRID + 1}"],
        ["search-subsolution", "--dim", "17", "--family", "touchdown-m",
         "--m", f"1:2:{MAX_GRID + 1}"],
        ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
         "--alpha-grid", "1:2:64", "--beta-grid", "1:2:65"],
        # Candidates outside their family, each checked before the run key.
        ["search-subsolution", "--dim", "9", "--family", "touchdown-m", "--m", "4/3"],
        ["search-subsolution", "--dim", "9", "--family", "touchdown-m", "--m", "0:1:2"],
        ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
         "--alpha-grid", "0:1:2", "--beta-grid", "1"],
        ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
         "--alpha-grid", "1", "--beta-grid", "-1"],
        # Candidates past the check degree cap.
        SEARCH_W3[:-1] + ["121"],
        SEARCH_W3[:-1] + ["100000"],
        SEARCH_W3[:-1] + ["1e400"],
        # Boundary values beyond the largest float.
        ["pullin", "--dim", "3", "--mesh", "16", "--alpha=-1e400"],
        # Admissible, with alpha inside the float range.
        ["branch", "--dim", "3", "--lambda", "1", "--mesh", "16",
         "--alpha=-1.7e308", "--beta=-3e308"],
        # Admissible (alpha - beta/2 < 1), but the boundary extension comes
        # within CEILING of the contact plane on the mesh.
        ["pullin", "--dim", "3", "--mesh", "16", "--alpha=0.9999995"],
        ["branch", "--dim", "3", "--lambda", "1", "--mesh", "16", "--alpha=0.9999995"],
        ["branch", "--dim", "3", "--lambda", "1:2:2", "--mesh", "16", "--alpha=0.9999995"],
        # A dimension past the largest float.
        ["pullin", "--dim", "1" + "0" * 400],
        # A pull-in voltage near 1e308, where the bisection's lo + hi
        # would overflow: the ceiling passes half the largest float.
        ["pullin", "--dim", "3", "--mesh", "16", "--alpha=-1.5e102"],
        # A bracket width at or below the float spacing, where the
        # bisection's midpoint stops moving.
        ["pullin", "--dim", "1", "--mesh", "16", "--rel-width", "1e-17"],
        # The Newton threshold is the constant branch.TOL, so --tol is no
        # flag.
        ["pullin", "--dim", "2", "--mesh", "16", "--tol", "1e-300"],
        ["branch", "--dim", "2", "--lambda", "1", "--mesh", "16", "--tol", "1e-300"],
        # The mesh grading is the constant radial_operator.GRADING, so
        # --gamma exits 3 the same way.
        ["pullin", "--dim", "2", "--mesh", "16", "--gamma", "2"],
        ["branch", "--dim", "2", "--lambda", "1", "--mesh", "16", "--gamma", "2"],
    ],
)
def test_bad_run_config_exits_before_solving(tmp_path, flags):
    assert exit_code(*flags, "--out", str(tmp_path)) == 3  # argparse's usage errors too
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [
        ["pullin", "--dim", "3", "--mesh", "16", "--alpha=1e10000000"],
        ["pullin", "--dim", "3", "--mesh", "16", "--beta=-1e-30000000"],
        ["search-subsolution", "--dim", "9", "--family", "touchdown-m", "--m", "1e10000000"],
        ["search-subsolution", "--dim", "9", "--family", "touchdown-m", "--m", "1:1e10000000:2"],
        ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
         "--alpha-grid", "1", "--beta-grid", "1e-10000000:1:2"],
        SEARCH_W3 + ["--lambda", "1e10000000"],
    ],
    ids=["alpha", "beta", "m", "m-grid", "beta-grid", "lambda"],
)
def test_huge_decimal_exponent_exits_at_once(tmp_path, flags):
    # Fraction("1e10000000") builds a number of ten million digits, which
    # takes seconds; the exponent is refused before that.
    start = time.perf_counter()
    assert exit_code(*flags, "--out", str(tmp_path)) == 3
    assert time.perf_counter() - start < 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value",
    [("--alpha", "1/0"), ("--beta", "abc"), ("--alpha", "-1e400"), ("--mesh", "4"),
     ("--rel-width", "0")],
)
def test_float_input_refusal_names_its_flag(tmp_path, capsys, flag, value):
    assert run_cli("pullin", "--dim", "3", "--mesh", "16", f"{flag}={value}",
                   "--out", str(tmp_path)) == 3
    assert capsys.readouterr().err.startswith(f"mems4 pullin: {flag}: ")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (SEARCH_W3, "--lambda", "1/0"),
        (SEARCH_W3[:-2], "--m", "1/0"),
        (SEARCH_W3[:-2], "--m", "1:2:x"),
        (SEARCH_PT[:-2], "--beta-grid", "1/0"),
        (SEARCH_PT[:-4] + SEARCH_PT[-2:], "--alpha-grid", "1:1/0:2"),
        (SEARCH_PT[:-2], "--beta-grid", "1:2:0"),
        (["branch", "--dim", "3", "--mesh", "16"], "--lambda", "1:2:0"),
        (["branch", "--dim", "3", "--mesh", "16"], "--lambda", "2:1:2"),
        (["branch", "--dim", "3", "--mesh", "16"], "--lambda", "1:2"),
        (SEARCH_W3[:-2], "--m", "1:2:3:4"),
        (SEARCH_PT[:-4] + SEARCH_PT[-2:], "--alpha-grid", "1:2"),
    ],
    ids=["lambda", "m", "m-count", "beta-grid", "alpha-grid", "beta-count", "branch-count",
         "branch-decreasing", "branch-two-parts", "m-four-parts", "alpha-grid-two-parts"],
)
def test_search_and_voltage_refusal_names_its_flag(tmp_path, capsys, command, flag, value):
    # A zero denominator is a ValueError of parse_rational, reported in
    # the "--flag: reason" form, not as a bare Fraction(1, 0).  A spec of
    # two or four parts is refused by its usage line.
    assert run_cli(*command, flag, value, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert f"mems4 {command[0]}: {flag}: " in err and "Fraction(" not in err
    if value.count(":") in (1, 3):
        assert "spec must be" in err


@pytest.mark.parametrize(
    "flags, flag, reason",
    [
        (["bounds", "--n", "1..0"], "--n", "need integers 1 <= nmin <= nmax <= 64 for bounds"),
        (["certify", "m3-gap", "--n", "0..3"], "--n",
         "need integers 1 <= nmin <= nmax <= 64 for m3-gap"),
        (["bounds", "--n", "1.." + "1" * 4301], "--n", "integer of more than 4300 digits"),
        (["bounds", "--n", "0"], "--n", "need integers 1 <= nmin <= nmax <= 64 for bounds"),
        (["certify", "m3-gap", "--n", "17.."], "--n", "range must be N or N..M, not '17..'"),
        (["search-subsolution", "--dim", "70", "--family", "touchdown-m", "--m", "3"], "--dim",
         "need integers 1 <= nmin <= nmax <= 64 for search-subsolution"),
        (SEARCH_W3[:-1] + ["4/3"], "--m", "m = 4/3 is a coefficient pole"),
        (SEARCH_W3[:-1] + ["301/3"], "--m", "candidate 1: its checks exceed degree 900"),
        (SEARCH_PT[:-3] + ["0:1:2", "--beta-grid", "1"], "--alpha-grid/--beta-grid",
         "need alpha > 0 and beta > 0"),
        (SEARCH_PT[:-3] + ["1", "--beta-grid", "298/3"], "--alpha-grid/--beta-grid",
         "candidate 1: its checks exceed degree 900"),
        (SEARCH_PT[:-3] + ["1:2:64", "--beta-grid", "1:2:65"], "--alpha-grid/--beta-grid",
         "64 x 65 candidates exceed 4096"),
        (["pullin", "--dim", "0", "--mesh", "16"], "--dim", "dimension must be >= 1"),
    ],
    ids=["bounds-n", "certify-n", "n-literal", "bounds-n-floor", "n-open-range", "search-dim",
         "m-pole", "m-degree", "alpha-grid", "beta-grid-degree", "grid-count", "pullin-dim"],
)
def test_dimension_and_candidate_refusal_names_its_flag(tmp_path, capsys, flags, flag, reason):
    # A candidate's flag is its family's grid flags; a --n range is
    # checked for the command that reads it.
    assert run_cli(*flags, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert err.startswith(f"mems4 {flags[0]}: {flag}: {reason}") and err.count("\n") == 1


def test_io_error_names_its_command(tmp_path, capsys):
    # An --out that is a regular file cannot hold a run directory.
    out = tmp_path / "file"
    out.write_text("")
    assert run_cli("certify", "m3-gap", "--n", "17", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("mems4 certify: I/O error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == ""


def test_refused_search_prints_no_note(tmp_path, capsys):
    # Dimension 17 lies outside 9..16, which search.json's notes record;
    # a refused run prints its refusal alone.
    assert run_cli(*SEARCH_W3, "--lambda", "1/0", "--out", str(tmp_path)) == 3
    assert capsys.readouterr().err == (
        "mems4 search-subsolution: --lambda: zero denominator, not '1/0'\n")


@pytest.mark.parametrize(
    "flag, reason",
    [("--alpha=2", "alpha 2/1, beta 0/1 are not admissible"),
     ("--beta=1/2", "alpha 0/1, beta 1/2 are not admissible")],
)
def test_inadmissible_boundary_pair_names_its_values(tmp_path, capsys, flag, reason):
    assert run_cli("pullin", "--dim", "3", "--mesh", "16", flag, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert f"mems4 pullin: {reason}: need beta <= 0 and alpha - beta/2 < 1" in err
    assert "BoundaryPair(" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["pullin", "--dim", "3", "--mesh", "16", "--alpha=1e-4300"],
        ["pullin", "--dim", "3", "--mesh", "16", "--beta=1234567e4299"],
        SEARCH_W3 + ["--lambda=1e-4300"],
        SEARCH_W3[:-1] + ["1e4300"],
        # Literals whose own digits pass the limit, which Python's integer
        # parser refuses with its own advice.
        ["pullin", "--dim", "3", "--mesh", "16", "--alpha=" + "1" * 4301],
        SEARCH_W3[:-1] + ["1" * 4301],
        SEARCH_W3[:-1] + ["1:2:" + "1" * 4301],
        ["bounds", "--n", "1.." + "1" * 4301],
    ],
    ids=["alpha", "beta", "lambda", "m", "alpha-literal", "m-literal", "m-count", "n-range"],
)
def test_rational_past_the_digit_limit_exits_three(tmp_path, capsys, flags):
    # 10^4300 has 4301 digits, which Python writes as no text, so a run
    # could not key or write it; it is refused, with the limit named,
    # before any run directory.
    assert run_cli(*flags, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert "more than 4300 digits" in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "lam",
    [[], ["--lambda", repr(sys.float_info.max)],
     ["--lambda", "1/1" + "0" * (MAX_VOLTAGE_DIGITS - 2)]],
    ids=["H_N/2", "max", "most-digits"],
)
@pytest.mark.parametrize(
    "family, admitted, rejected",
    [
        # check_degree 900 (m = 100) and 903 (m = 301/3).
        (["touchdown-m", "--m"], "100", "301/3"),
        # Exponents 4/3, 1 and 100, then 301/3.
        (["perturbed-touchdown", "--alpha-grid", "1", "--beta-grid"], "99", "298/3"),
    ],
    ids=["touchdown-m", "perturbed-touchdown"],
)
def test_check_degree_cap_edges(tmp_path, lam, family, admitted, rejected):
    # The largest admitted candidate completes, even at the largest
    # voltage and at one of MAX_VOLTAGE_DIGITS digits; the first one past
    # MAX_CHECK_DEGREE exits 3 before any directory exists.
    search = ["search-subsolution", "--dim", "17", "--family", *family]
    assert run_cli(*search, admitted, *lam, "--out", str(tmp_path / "ok")) in (0, 1, 2)
    find_one(tmp_path / "ok", "search.json")
    assert run_cli(*search, rejected, *lam, "--out", str(tmp_path / "no")) == 3
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize(
    "flags",
    [
        # The first dimension whose smallest cell volume underflows.
        ["branch", "--dim", "206", "--lambda", "1", "--mesh", "16"],
        ["pullin", "--dim", "63", "--mesh", "4096"],
        # The first dimension whose banded Cholesky fails.
        ["pullin", "--dim", "69", "--mesh", "64"],
        ["branch", "--dim", "45", "--lambda", "1:2:2", "--mesh", "512"],
    ],
)
def test_overgraded_mesh_exits_before_any_directory(tmp_path, capsys, flags):
    # Which dimensions a graded mesh takes depends on the mesh, so the
    # operator's assembly is the check, run before the run key.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warnings on the way
        assert run_cli(*flags, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    dim, mesh = flags[flags.index("--dim") + 1], flags[flags.index("--mesh") + 1]
    assert f"mesh {mesh} in dimension {dim}: " in capsys.readouterr().err


def test_mesh_too_fine_for_dimension_fails_fast(tmp_path, capsys):
    # The dim 1 matrix at n = 16384 is not numerically positive definite.
    # The banded Cholesky in the pre-check finds that before the run key,
    # so no run directory is written.
    assert run_cli("pullin", "--dim", "1", "--mesh", str(MAX_MESH), "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    assert "not numerically positive definite" in capsys.readouterr().err


def test_huge_boundary_value_leaves_no_bare_run_directory(tmp_path, capsys):
    # With beta = 0 the pull-in voltage grows like (1 - alpha)^3; at
    # alpha = -1e103 its ceiling passes half the largest float, so the run
    # exits 3 before the run key instead of overflowing after config.json.
    assert run_cli("pullin", "--dim", "3", "--mesh", "16", "--alpha=-1e103",
                   "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    assert "may pass half the largest float" in capsys.readouterr().err


def test_pullin_without_a_convergent_voltage_exits_one(tmp_path, capsys):
    # At alpha = 99999/100000 the pull-in voltage falls below the search's
    # 1e-12 floor: the run keeps its config.json, writes nothing else and
    # reports the divergence on one line.
    assert run_cli("pullin", "--dim", "1", "--mesh", "16", "--alpha", "99999/100000",
                   "--out", str(tmp_path)) == 1
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["config.json"]
    assert capsys.readouterr().err == (
        "mems4 pullin: diverged: no convergent voltage found above 1e-12\n")


def test_branch_auto_grid_without_a_convergent_voltage_exits_one(tmp_path, capsys):
    # The auto voltage grid needs a pull-in bracket, which is found before
    # the run key, so no run directory is written.
    assert run_cli("branch", "--dim", "1", "--mesh", "16", "--alpha", "99999/100000",
                   "--out", str(tmp_path)) == 1
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == (
        "mems4 branch: diverged: no convergent voltage found above 1e-12\n")


def exit_code(*argv) -> int:
    """Exit code of a run, argparse's usage errors included."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "flags",
    [
        ["bounds", "--mesh", "64"],
        ["pullin", "--dim", "3", "--format", "json"],
        ["certify", "m2-subsolution", "--n", "3..4", "--jobs", "2"],
        SEARCH_W3 + ["--tol", "1e-3"],
        SEARCH_W3 + ["--alpha", "1/2"],  # not a prefix of --alpha-grid
        # A run's inputs are its flags: no command takes --config.
        ["certify", "m3-gap", "--n", "17", "--config", "cfg.json"],
        # No command reads a solver tolerance: Newton's is branch.TOL.
        ["pullin", "--dim", "2", "--mesh", "16", "--tol", "1e-10"],
        ["branch", "--dim", "2", "--lambda", "1:2:2", "--mesh", "16", "--tol", "1e-10"],
        # A profile is a one-voltage branch, and bounds writes one CSV
        # table.
        ["profile", "--dim", "3", "--lambda", "1"],
        ["bounds", "--n", "1..3", "--format", "json"],
        ["bounds", "--n", "1..3", "--config", "cfg.json"],
    ],
    ids=["bounds-mesh", "pullin-format", "certify-jobs", "search-tol", "search-alpha",
         "certify-config", "pullin-tol", "branch-tol", "profile", "bounds-format",
         "bounds-config"],
)
def test_command_rejects_flags_it_does_not_read(tmp_path, flags):
    (tmp_path / "cfg.json").write_text("{}")
    argv = [str(tmp_path / flag) if flag == "cfg.json" else flag for flag in flags]
    out = tmp_path / "out"
    assert exit_code(*argv, "--out", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"msh": 64, "rel_widht": 0.001},  # misspelt
        {"mesh": 64, "format": "json"},  # a setting pullin does not read
        {"command": "pullin", "dim": 2, "config": {"mesh": 64}},  # a whole config.json
        {"mesh": "sixty-four"},
        [64],
    ],
    ids=["misspelt", "foreign", "whole-file", "bad-value", "not-an-object"],
)
def test_config_file_rejects_unknown_keys(tmp_path, config):
    # There is no --config: a float command's inputs are its flags.  A
    # file of settings, or a whole config.json of the time runs had a
    # config block, exits 3 as an unknown argument before any run
    # directory, whatever it holds.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    for command in (["pullin", "--dim", "2"], ["branch", "--dim", "2", "--lambda", "1"]):
        assert exit_code(*command, "--config", str(cfg_path), "--out", str(out)) == 3
    assert not out.exists()


def test_negative_rationals_parse_as_values(tmp_path):
    code = run_cli(
        "pullin", "--dim", "3", "--beta", "-1/5", "--mesh", "64", "--rel-width", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 0
    config = json.loads(find_one(tmp_path, "config.json").read_text())
    assert config["beta"] == "-1/5"
    args = build_parser().parse_args([
        "search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
        "--alpha-grid", "-1/3:0:4", "--beta-grid", "-1", "--lambda", "-1/2",
    ])
    assert (args.alpha_grid, args.beta_grid, args.lam) == ("-1/3:0:4", "-1", "-1/2")


def test_bounds_table(tmp_path):
    assert run_cli("bounds", "--n", "1..10", "--out", str(tmp_path)) == 0
    table = find_one(tmp_path, "bounds.csv")
    lines = table.read_text().splitlines()
    assert lines[0].startswith("n,")
    # N=5 row: the quadratic lower bound peaks at 416/27
    row5 = next(l for l in lines if l.startswith("5,"))
    assert "416/27" in row5
    row2 = next(l for l in lines if l.startswith("2,"))
    assert "128/27" in row2 and "-64/81" in row2
    row4 = next(l for l in lines if l.startswith("4,"))
    assert ",0/1," in row4  # Hardy constant vanishes at N=4


def test_bounds_bad_range(tmp_path):
    assert run_cli("bounds", "--n", "10..5", "--out", str(tmp_path)) == 3


def test_certify_gap_range(tmp_path):
    code = run_cli("certify", "m3-gap", "--n", "17..30", "--out", str(tmp_path))
    assert code == 0
    certs = sorted(tmp_path.rglob("m3-gap-*.json"))
    assert len(certs) == 14
    payload = json.loads(certs[0].read_text())
    assert payload["status"] == "verified"
    assert payload["schema_version"] == 1


def test_certify_gap_falsified_outside_range(tmp_path):
    code = run_cli("certify", "m3-gap", "--n", "4", "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(find_one(tmp_path, "m3-gap-4.json").read_text())
    assert payload["status"] == "falsified"
    assert payload["witness"] is not None


def test_certify_thresholds(tmp_path):
    assert run_cli("certify", "thresholds", "--n", "1..40", "--out", str(tmp_path)) == 0
    cert = json.loads(find_one(tmp_path, "thresholds-1-40.json").read_text())
    assert cert["status"] == "verified"
    # Its compare steps hold the threshold table, as does bounds.csv.
    assert not any(tmp_path.rglob("tables"))


def test_bounds_csv_and_thresholds_certificate_read_one_table(tmp_path):
    assert run_cli("bounds", "--n", "1..64", "--out", str(tmp_path)) == 0
    assert run_cli("certify", "thresholds", "--n", "1..64", "--out", str(tmp_path)) == 0
    with find_one(tmp_path, "bounds.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    cert = json.loads(find_one(tmp_path, "thresholds-1-64.json").read_text())
    assert [row["n"] for row in rows] == [str(n) for n in range(1, 65)]
    assert [t["dimension"] for t in cert["trail"]] == list(range(1, 65))
    for row, step in zip(rows, cert["trail"]):
        n = int(row["n"])
        assert (row["singular_voltage"], row["hardy"]) == (step["singular_voltage"], step["hardy"])
        # Vacuously true in N <= 2, where the singular voltage is negative.
        assert row["double_voltage_le_hardy"] == str(n <= 2 or n >= 9)
        assert row["voltage27_le_half_hardy"] == str(n <= 2 or n >= 31)
    assert sum(row["double_voltage_le_hardy"] == "True" for row in rows) == 58
    assert sum(row["voltage27_le_half_hardy"] == "True" for row in rows) == 36


def test_certify_unknown_claim(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("certify", "bogus", "--out", str(tmp_path))
    assert exc.value.code == 3


def test_certify_stability_below_valid_dimension(tmp_path):
    # the stability reduction needs N >= 5; below that it is a usage error
    assert run_cli("certify", "m3-stability", "--n", "4", "--out", str(tmp_path)) == 3


def test_branch_writes_jsonl_and_profiles(tmp_path):
    code = run_cli(
        "branch", "--dim", "3", "--lambda", "1:9:5", "--profiles", "2",
        "--mesh", "128", "--out", str(tmp_path),
    )
    assert code == 0
    lines = find_one(tmp_path, "branch.jsonl").read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert first["schema_version"] == 1
    assert set(first) >= {"lambda", "max_value", "mu1", "residual", "energy_h2", "energy_cubed"}
    assert all(json.loads(l)["mu1"] > 0 for l in lines)
    profiles = sorted(tmp_path.rglob("profiles/*.csv"))
    assert len(profiles) == 2
    assert profiles[0].read_text().splitlines()[0] == "r,u"



def test_profile_count_keys_the_branch_run(tmp_path):
    # Runs that differ only in --profiles must not share a directory,
    # and a run without profiles keeps the key it had before.
    runs = []
    for k in ("3", "1", "0"):
        assert run_cli("branch", "--dim", "3", "--mesh", "32", "--lambda", "1:10:4",
                       "--profiles", k, "--out", str(tmp_path / k)) == 0
        (run,) = (tmp_path / k).iterdir()
        runs.append(run)
    assert len({run.name for run in runs}) == 3
    configs = [json.loads((run / "config.json").read_text()) for run in runs]
    assert [c.get("profiles") for c in configs] == [3, 1, None]
    assert sorted(p.name for p in (runs[1] / "profiles").iterdir()) == ["lambda-1.0.csv"]
    assert not (runs[2] / "profiles").exists()


def test_close_voltages_get_their_own_profiles(tmp_path):
    # Voltages equal to six digits used to share one file.
    code = run_cli(
        "branch", "--dim", "3", "--mesh", "32", "--lambda", "1:1.000001:3", "--profiles", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    records = [json.loads(l) for l in find_one(tmp_path, "branch.jsonl").read_text().splitlines()]
    files = sorted(tmp_path.rglob("profiles/*.csv"))
    assert len(records) == len(files) == 3
    for rec in records:
        prof = find_one(tmp_path, f"lambda-{rec['lambda']!r}.csv")
        u = [float(row.split(",")[1]) for row in prof.read_text().splitlines()[1:]]
        assert max(u) == rec["max_value"]

def test_branch_divergence_marker(tmp_path):
    code = run_cli(
        "branch", "--dim", "3", "--lambda", "5:100:3",
        "--mesh", "128", "--out", str(tmp_path),
    )
    assert code == 0  # some points converged
    lines = find_one(tmp_path, "branch.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    assert "diverged_at" in last


def test_branch_all_divergent_exits_one(tmp_path):
    code = run_cli(
        "branch", "--dim", "3", "--lambda", "200:300:2",
        "--mesh", "128", "--out", str(tmp_path),
    )
    assert code == 1


def test_branch_trivial_single_point(tmp_path):
    code = run_cli(
        "branch", "--dim", "3", "--lambda", "0:0:1",
        "--mesh", "128", "--out", str(tmp_path),
    )
    assert code == 0
    lines = find_one(tmp_path, "branch.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["lambda"] == 0.0


def test_branch_auto_grid_singular_dimension(tmp_path):
    # "auto" derives the voltage grid from a coarse fold bracket; in the
    # singular regime every profile stays below the touchdown shape.
    code = run_cli(
        "branch", "--dim", "17", "--lambda", "auto", "--profiles", "3",
        "--mesh", "256", "--out", str(tmp_path),
    )
    assert code == 0
    lines = find_one(tmp_path, "branch.jsonl").read_text().splitlines()
    assert all("diverged_at" not in json.loads(l) for l in lines)
    for prof in tmp_path.rglob("profiles/*.csv"):
        rows = prof.read_text().splitlines()[1:]
        for row in rows:
            r, u = (float(x) for x in row.split(","))
            assert u <= 1.0 - r ** (4.0 / 3.0) + 1e-9


def test_branch_auto_grid_spans_below_a_coarse_bracket(tmp_path):
    # "auto" spaces 12 voltages from lo/12 to 0.98 lo, lo the lower end of
    # a 1e-3 pull-in bracket; --profiles above the point count writes one
    # profile per point.
    code = run_cli("branch", "--dim", "3", "--mesh", "32", "--lambda", "auto",
                   "--profiles", "20", "--out", str(tmp_path))
    assert code == 0
    lo = pull_in_voltage(HOMOGENEOUS, build_grid(32, 3), rel_width=1e-3).lambda_lo
    config = json.loads(find_one(tmp_path, "config.json").read_text())
    assert config["lambdas"] == list(np.linspace(lo / 12, 0.98 * lo, 12))
    assert len(list(tmp_path.rglob("profiles/*.csv"))) == 12


def test_pullin_json(tmp_path):
    code = run_cli(
        "pullin", "--dim", "2", "--mesh", "128", "--rel-width", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(find_one(tmp_path, "pullin.json").read_text())
    assert payload["consistent"] is True
    assert payload["analytic_lower"]["fraction"] == "128/27"
    assert payload["lambda_lo"] <= payload["lambda_hi"]
    assert payload["regularity_verdict"] == "regular-consistent"
    assert (
        float(payload["analytic_lower"]["decimal"]) < payload["lambda_lo"]
    )


def test_pullin_far_negative_alpha_exits_zero(tmp_path):
    # At alpha = -1e102 the upward search starts at (1 - alpha)^3 times the
    # analytic bound, past the pull-in voltage, so nothing is flagged; the
    # ceiling, 4.65e307, is still a float.
    code = run_cli("pullin", "--dim", "3", "--mesh", "16", "--alpha=-1e102",
                   "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(find_one(tmp_path, "pullin.json").read_text())
    assert not any("flagged" in note for note in payload["notes"])
    assert payload["consistent"] is None
    assert payload["lambda_hi"] < 4.65e307


def test_pullin_flags_the_low_nu1_of_a_fine_dim_1_mesh(tmp_path):
    # At dim 1, n = 4096, eig_banded's nu1 is 28% low (analytic_upper
    # 2.977 against lambda_lo 3.879), so the start solve converges and the
    # upward search flags the oracle: exit 2, with both notes.  The
    # continuum pull-in voltage is 4.381 (ROADMAP item 13), so the value is
    # not asserted, only the detector.  ROADMAP item 1's factored operator
    # will unflag this case.
    code = run_cli("pullin", "--dim", "1", "--mesh", "4096", "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(find_one(tmp_path, "pullin.json").read_text())
    assert payload["consistent"] is False
    assert any(n.startswith("nu1 accuracy floor") and n.endswith("2.8e-01 relative")
               for n in payload["notes"])
    assert "upper end grew past the analytic bound; oracle flagged" in payload["notes"]


def test_one_voltage_branch_writes_its_profile(tmp_path):
    # One voltage is the one-point grid: both spellings key one run.
    for spec in ("5.0", "5:5:1"):
        code = run_cli(
            "branch", "--dim", "3", "--lambda", spec, "--profiles", "1", "--mesh", "128",
            "--out", str(tmp_path),
        )
        assert code == 0
    (run,) = tmp_path.iterdir()
    rows = (run / "profiles" / "lambda-5.0.csv").read_text().splitlines()
    assert rows[0] == "r,u"
    assert len(rows) == 129
    (record,) = (json.loads(l) for l in (run / "branch.jsonl").read_text().splitlines())
    assert record["lambda"] == 5.0


def test_profile_divergent_exits_one(tmp_path):
    code = run_cli(
        "branch", "--dim", "3", "--lambda", "500.0", "--mesh", "128",
        "--out", str(tmp_path),
    )
    assert code == 1
    (record,) = (json.loads(l) for l in find_one(tmp_path, "branch.jsonl").read_text().splitlines())
    assert record["diverged_at"] == 500.0
    assert record["reason"] == "iterates reached the contact ceiling"
    assert record["last_max"] >= 1 - CEILING  # the iterate that reached it


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("lam", ["1e307", "1.7e308"])
def test_profile_overflowing_voltage_is_a_divergence(tmp_path, lam):
    # At 1.7e308 the first back-solve overflows to NaN; that iterate is a
    # divergence reported with the last finite maximum, not a crash.
    code = run_cli("branch", "--dim", "3", "--mesh", "64", "--lambda", lam,
                   "--out", str(tmp_path))
    assert code == 1
    text = find_one(tmp_path, "branch.jsonl").read_text()
    payload = json.loads(text, parse_constant=_reject_constant)
    assert payload["diverged_at"] == float(lam)
    assert math.isfinite(payload["last_max"])


def test_search_family_w3_passes(tmp_path):
    code = run_cli(
        "search-subsolution", "--dim", "17", "--family", "touchdown-m",
        "--m", "3", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(find_one(tmp_path, "search.json").read_text())
    assert payload["passing_count"] == 1


def test_search_at_largest_float_voltages_is_graded(tmp_path):
    # At this voltage the m = 11/2 checks' coefficients exceed the float
    # range; the Bernstein test decides the two past the Sturm degree in
    # integers, and every check is verified or falsified.
    code = run_cli("search-subsolution", "--dim", "17", "--family", "touchdown-m",
                   "--m", "11/2", "--lambda", "1.5e308", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(find_one(tmp_path, "search.json").read_text())
    assert payload["voltage"] == "15" + "0" * 307 + "/1"
    checks = payload["candidates"][0]["checks"]
    assert {k: c["status"] for k, c in checks.items()} == {
        "range-lower": "verified", "range-upper": "verified",
        "subsolution": "verified", "semistable": "falsified",
    }
    assert any(t["step"] == "bernstein" for t in checks["subsolution"]["trail"])


def test_search_voltage_keys_the_run(tmp_path):
    for lam in ("10", "20"):
        assert run_cli(*SEARCH_W3, "--lambda", lam, "--out", str(tmp_path)) in (0, 2)
    configs = sorted(tmp_path.rglob("config.json"))
    assert len(configs) == 2
    assert sorted(json.loads(p.read_text())["lambda"] for p in configs) == ["10/1", "20/1"]
    for p in configs:
        search = json.loads((p.parent / "search.json").read_text())
        assert search["voltage"] == json.loads(p.read_text())["lambda"]


def test_search_phi0_grid_no_pass(tmp_path):
    code = run_cli(
        "search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
        "--alpha-grid", "1:2:3", "--beta-grid", "1/3:2:3",
        "--out", str(tmp_path),
    )
    assert code in (0, 2)
    payload = json.loads(find_one(tmp_path, "search.json").read_text())
    assert payload["passing_count"] == 0
    assert payload["candidates"]


def test_search_empty_grid(tmp_path, capsys):
    # A search without its family's grid is a usage error, not an empty
    # search.
    code = run_cli(
        "search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert not any(tmp_path.iterdir())
    assert "--family perturbed-touchdown needs --alpha-grid" in capsys.readouterr().err


def _search_document(config: dict) -> dict:
    # search.json as one document of the materialized candidate reports
    # for the inputs config.json records.
    n, family = config["dim"], config["family"]
    lam, notes = search_setup(n, family, F(config["lambda"]) if "lambda" in config else None)
    candidates = list(search_candidates(n, family, config["params"], lam))
    return {
        "schema_version": 1,
        "dimension": n,
        "voltage": format_rational(lam),
        "voltage_decimal": rational_to_decimal(lam),
        "family": family,
        "candidates": [c.to_json_dict() for c in candidates],
        "passing_count": sum(c.passed for c in candidates),
        "notes": notes,
    }


@pytest.mark.parametrize("argv", [
    ["--dim", "17", "--family", "touchdown-m", "--m", "2:3:2"],
    ["--dim", "9", "--family", "perturbed-touchdown", "--alpha-grid", "1:2:2",
     "--beta-grid", "1/3:2:2"],
    ["--dim", "17", "--family", "touchdown-m", "--m", "11/2"],
    ["--dim", "9", "--family", "perturbed-touchdown", "--alpha-grid", "5/6",
     "--beta-grid", "1/2", "--lambda", "7/3"],
], ids=["touchdown-m", "perturbed-touchdown", "fallback", "one-candidate"])
def test_streamed_search_equals_the_materialized_report(tmp_path, capsys, argv):
    # The CLI writes each candidate as it is checked; the file is the
    # standard library's sort_keys, indent=2 encoding of the whole
    # document built from a list of every candidate's report.
    assert run_cli("search-subsolution", *argv, "--out", str(tmp_path)) == 0
    config = json.loads(find_one(tmp_path, "config.json").read_text())
    document = _search_document(config)
    expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
    assert find_one(tmp_path, "search.json").read_bytes() == expected.encode()
    assert (f"candidates: {len(document['candidates'])}, passing: {document['passing_count']}"
            in capsys.readouterr().out)


def test_search_memory_does_not_grow_with_the_candidates(tmp_path, capsys):
    # A search holds one candidate's report at a time: 480 copies of one
    # candidate peak far below the file they write, and no higher than
    # 240 copies but for a fixed slack.  A first search of the measured
    # size pays what any search allocates once and keeps (first-call
    # state, CPython's free lists), after a full collection, so that none
    # empties the free lists during a measured search.  tracemalloc
    # still counts the blocks that the free lists trade during a search,
    # about 0.7 kB a candidate (170 kB more at 480 than at 240); holding
    # 240 more reports would take over 2 MB.
    grid = ["--dim", "9", "--family", "perturbed-touchdown", "--beta-grid", "1/2"]

    def peak(copies: int, name: str) -> int:
        tracemalloc.start()
        try:
            code = run_cli("search-subsolution", *grid, "--alpha-grid", f"5/6:5/6:{copies}",
                           "--out", str(tmp_path / name))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert f"candidates: {copies}, passing: 0" in capsys.readouterr().out
        return peak

    gc.collect()
    assert run_cli("search-subsolution", *grid, "--alpha-grid", "5/6:5/6:480",
                   "--out", str(tmp_path / "warm")) == 0
    capsys.readouterr()
    big = peak(480, "big")
    size = find_one(tmp_path / "big", "search.json").stat().st_size
    assert size > 1_800_000
    assert big < size / 2
    half = peak(240, "half")
    assert big <= half + 384 * 1024


def test_failed_search_keeps_config_and_writes_no_search_json(tmp_path, monkeypatch):
    # A candidate that raises ends the streamed write: the run directory
    # keeps config.json, with no search.json and no temporary file.
    calls = []
    check_candidate = certify.check_candidate

    def third_raises(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("third candidate")
        return check_candidate(*args)

    monkeypatch.setattr(certify, "check_candidate", third_raises)
    code = run_cli("search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
                   "--alpha-grid", "1:2:4", "--beta-grid", "1/3", "--out", str(tmp_path))
    assert code == 3
    assert len(calls) == 3
    (run,) = tmp_path.iterdir()
    assert [p.name for p in run.iterdir()] == ["config.json"]


def test_search_bad_spec(tmp_path):
    code = run_cli(
        "search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
        "--alpha-grid", "1:2:nope", "--out", str(tmp_path),
    )
    assert code == 3


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("bounds", "--n", "1..12", "--out", str(out)) == 0
        assert (
            run_cli(
                "branch", "--dim", "3", "--lambda", "1:5:3", "--mesh", "64",
                "--out", str(out),
            )
            == 0
        )
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_env_var_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MEMS4_OUT", str(tmp_path / "envroot"))
    assert run_cli("bounds", "--n", "1..3") == 0
    assert (tmp_path / "envroot").exists()


def test_reemit_idempotent(tmp_path):
    # parse -> re-emit of a JSON artifact is byte-stable
    assert run_cli("certify", "thresholds", "--n", "1..5", "--out", str(tmp_path)) == 0
    cert = find_one(tmp_path, "thresholds-1-5.json")
    data = json.loads(cert.read_text())
    again = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert again == cert.read_text()


def test_jsonl_reemit_idempotent(tmp_path):
    assert (
        run_cli(
            "branch", "--dim", "3", "--lambda", "1:5:3", "--mesh", "64",
            "--out", str(tmp_path),
        )
        == 0
    )
    path = find_one(tmp_path, "branch.jsonl")
    text = path.read_text()
    again = "".join(
        json.dumps(json.loads(line), sort_keys=True) + "\n"
        for line in text.splitlines()
    )
    assert again == text
