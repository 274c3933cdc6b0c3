"""CLI contract tests: exit codes, file schemas, determinism."""

import json
import warnings
from pathlib import Path

import pytest

from mems4.cli import (
    COMMANDS,
    MAX_GRID,
    MAX_MESH,
    build_parser,
    main,
    parse_fraction_grid,
    parse_lambda_spec,
    parse_range,
    resolve_settings,
)
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
    assert parse_lambda_spec("1:10:10") == pytest.approx(
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    )
    assert parse_lambda_spec("0:0:1") == [0.0]
    assert parse_lambda_spec("auto") is None
    assert parse_fraction_grid("1:3:9") == [
        F(1), F(5, 4), F(3, 2), F(7, 4), F(2), F(9, 4), F(5, 2), F(11, 4), F(3)
    ]
    assert parse_fraction_grid("2/3") == [F(2, 3)]
    # The largest count accepted.
    assert len(parse_lambda_spec(f"0:1:{MAX_GRID}")) == MAX_GRID
    assert len(parse_fraction_grid(f"0:1:{MAX_GRID}")) == MAX_GRID


SETTINGS_OF = {command.name: command.settings for command in COMMANDS}


def test_config_round_trip(tmp_path):
    # The config block of a run's config.json, passed back through
    # --config, reproduces the run in the same directory.
    flags = ["pullin", "--dim", "3", "--mesh", "64", "--rel-width", "1e-3",
             "--alpha=1/10", "--beta=-1/2", "--gamma", "2", "--tol", "1e-9"]
    assert run_cli(*flags, "--out", str(tmp_path)) == 0
    first = find_one(tmp_path, "config.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert run_cli("pullin", "--dim", "3", "--config", str(cfg_path), "--out", str(tmp_path)) == 0
    assert sorted(tmp_path.rglob("config.json")) == [first]


def test_config_validation():
    pullin, bounds = SETTINGS_OF["pullin"], SETTINGS_OF["bounds"]
    with pytest.raises(ValueError):
        resolve_settings(pullin, {"mesh": 4})
    with pytest.raises(ValueError):
        resolve_settings(pullin, {"alpha": "2", "beta": "0"})  # inadmissible
    with pytest.raises(ValueError):
        resolve_settings(bounds, {"format": "xml"})
    with pytest.raises(ValueError):
        resolve_settings(pullin, {"mesh": MAX_MESH + 1})
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError):
            resolve_settings(pullin, {"tol": tol})
    for rel_width in (0.0, -1e-3, 1.0):
        with pytest.raises(ValueError):
            resolve_settings(pullin, {"rel_width": rel_width})
    assert resolve_settings(pullin, {"mesh": MAX_MESH})["mesh"] == MAX_MESH


SEARCH_W3 = ["search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "3"]
SEARCH_PT = ["search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
             "--alpha-grid", "1:2:2", "--beta-grid", "1:2:2"]


@pytest.mark.parametrize(
    "flags",
    [
        ["pullin", "--dim", "3", "--rel-width", "0"],
        ["pullin", "--dim", "3", "--rel-width=-1e-3"],
        ["pullin", "--dim", "3", "--tol", "-1"],
        ["pullin", "--dim", "3", "--mesh", str(MAX_MESH + 1)],
        ["profile", "--dim", "3", "--lambda", "nan"],
        ["profile", "--dim", "3", "--lambda", "inf"],
        ["profile", "--dim", "3", "--lambda", "-1"],
        ["branch", "--dim", "3", "--lambda", "nan:1:3"],
        ["branch", "--dim", "3", "--lambda", "-5:1:3"],
        SEARCH_W3 + ["--lambda", "1/0"],
        SEARCH_W3 + ["--lambda", "-1/2"],
        # Every artifact writes a float decimal of the voltage.
        SEARCH_W3 + ["--lambda", "1e400"],
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
        ["pullin", "--dim", "3", "--mesh", "512", "--gamma", "42"],
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
    ],
)
def test_bad_run_config_exits_before_solving(tmp_path, flags):
    assert run_cli(*flags, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [
        ["profile", "--dim", "3", "--lambda", "1", "--mesh", "16", "--gamma", "400"],
        ["profile", "--dim", "3", "--lambda", "1", "--mesh", "16", "--gamma", "inf"],
        ["pullin", "--dim", "17", "--mesh", "512", "--gamma", "8"],
        ["branch", "--dim", "1", "--lambda", "1:2:2", "--gamma", "45"],
    ],
)
def test_overgraded_mesh_exits_before_any_directory(tmp_path, capsys, flags):
    # How much grading a mesh takes depends on the mesh and the dimension,
    # so the operator's assembly is the check, run before the run key.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warnings on the way
        assert run_cli(*flags, "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    assert "is too large for mesh" in capsys.readouterr().err


def test_mesh_too_fine_for_dimension_fails_fast(tmp_path, capsys):
    # The dim 1 matrix at n = 16384 is not numerically positive definite.
    # The banded Cholesky in the pre-check finds that before the run key,
    # so no run directory is written.
    assert run_cli("pullin", "--dim", "1", "--mesh", str(MAX_MESH), "--out", str(tmp_path)) == 3
    assert not any(tmp_path.iterdir())
    assert "not numerically positive definite" in capsys.readouterr().err


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
        ["certify", "m3-gap", "--n", "17", "--config", "cfg.json"],
    ],
    ids=["bounds-mesh", "pullin-format", "certify-jobs", "search-tol", "search-alpha",
         "certify-config"],
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
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("pullin", "--dim", "2", "--config", str(cfg_path), "--out", str(out)) == 3
    assert not out.exists()


def test_negative_rationals_parse_as_values(tmp_path):
    code = run_cli(
        "pullin", "--dim", "3", "--beta", "-1/5", "--mesh", "64", "--rel-width", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 0
    config = json.loads(find_one(tmp_path, "config.json").read_text())
    assert config["config"]["beta"] == "-1/5"
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


def test_bounds_json_format(tmp_path):
    assert run_cli("bounds", "--n", "1..5", "--format", "json", "--out", str(tmp_path)) == 0
    table = find_one(tmp_path, "bounds.json")
    data = json.loads(table.read_text())
    assert data["schema_version"] == 1
    assert data["rows"][0]["n"] == 1


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
    table = find_one(tmp_path, "thresholds.csv")
    assert table.read_text().splitlines()[0].startswith("n,")


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


def test_profile_command(tmp_path):
    code = run_cli(
        "profile", "--dim", "3", "--lambda", "5.0", "--mesh", "128",
        "--out", str(tmp_path),
    )
    assert code == 0
    prof = find_one(tmp_path, "lambda-5.csv")
    rows = prof.read_text().splitlines()
    assert rows[0] == "r,u"
    assert len(rows) == 129


def test_profile_divergent_exits_one(tmp_path):
    code = run_cli(
        "profile", "--dim", "3", "--lambda", "500.0", "--mesh", "128",
        "--out", str(tmp_path),
    )
    assert code == 1
    payload = json.loads(find_one(tmp_path, "divergence.json").read_text())
    assert payload["reason"]


def test_search_family_w3_passes(tmp_path):
    code = run_cli(
        "search-subsolution", "--dim", "17", "--family", "touchdown-m",
        "--m", "3", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(find_one(tmp_path, "search.json").read_text())
    assert payload["passing_count"] == 1


def test_search_at_largest_float_voltages_is_graded(tmp_path):
    # The m = 11/2 semistable check exceeds the degree cap, and at this
    # voltage its coefficients exceed the float range: the sampling
    # fallback grades it instead of overflowing.
    code = run_cli("search-subsolution", "--dim", "17", "--family", "touchdown-m",
                   "--m", "11/2", "--lambda", "1.5e308", "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(find_one(tmp_path, "search.json").read_text())
    assert payload["voltage"] == "15" + "0" * 307 + "/1"


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


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mesh": 64, "gamma": 1.5}))
    code = run_cli(
        "profile", "--dim", "3", "--lambda", "1.0",
        "--config", str(cfg_path), "--mesh", "128",
        "--out", str(tmp_path),
    )
    assert code == 0
    # flag override wins: 128 interior rows + header
    prof = find_one(tmp_path, "lambda-1.csv")
    assert len(prof.read_text().splitlines()) == 129


def test_env_var_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MEMS4_OUT", str(tmp_path / "envroot"))
    assert run_cli("bounds", "--n", "1..3") == 0
    assert (tmp_path / "envroot").exists()


def test_reemit_idempotent(tmp_path):
    # parse -> re-emit of a JSON artifact is byte-stable
    assert run_cli("bounds", "--n", "1..5", "--format", "json", "--out", str(tmp_path)) == 0
    table = find_one(tmp_path, "bounds.json")
    data = json.loads(table.read_text())
    again = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert again == table.read_text()


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
