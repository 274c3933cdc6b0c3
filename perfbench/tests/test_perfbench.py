"""Tests of the benchmark itself: the output checker rejects corrupted
artifacts, the tracer restores the program, and a tiny configuration of
each workload runs clean end to end."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import check, run, trace, workloads

ROOT = Path(__file__).resolve().parents[2]

TINY_EXACT = dict(
    alpha_grid="4/6:15/6:2",
    beta_grid="1/6:2:2",
    m_grid="3:7/2:2",
    certify_ranges=(("m3-gap", "16..18"), ("m2-subsolution", "3..4"),
                    ("m3-stability", "5..6"), ("thresholds", "1..12")),
)


@pytest.fixture(scope="module")
def mems4():
    return run.load_program()


@pytest.fixture(scope="module")
def oracle():
    return check.SympyOracle()


def cli_artifacts(mems4, tmp_path, cmd):
    out = run.run_cli(mems4, cmd, tmp_path, None)
    assert not out.problems
    return out


# -- the checker rejects corrupted artifacts ---------------------------------


def test_shifted_bracket_is_rejected(mems4, tmp_path):
    cmd = workloads.pullin(3, 64)
    out = cli_artifacts(mems4, tmp_path, cmd)
    payload = json.loads((out.run_dir / "pullin.json").read_text())
    ref = {k: payload[k] for k in ("lambda_lo", "lambda_hi", "analytic_upper")}
    assert check.check_pullin(payload, cmd.params, ref) == []
    width = payload["lambda_hi"] - payload["lambda_lo"]
    shifted = dict(payload, lambda_lo=payload["lambda_lo"] + 2 * width,
                   lambda_hi=payload["lambda_hi"] + 2 * width)
    assert any("moved from reference" in p for p in check.check_pullin(shifted, cmd.params, ref))
    widened = dict(payload, lambda_hi=payload["lambda_hi"] + 10 * width)
    assert any("width" in p for p in check.check_pullin(widened, cmd.params, None))
    above = dict(payload, lambda_lo=payload["analytic_upper"], lambda_hi=payload["analytic_upper"] * 1.0000001)
    assert any("analytic upper" in p for p in check.check_pullin(above, cmd.params, None))


def test_corrupted_branch_is_rejected(mems4, tmp_path):
    cmd = workloads.branch(3, 64, "1:20:4", 4)
    out = cli_artifacts(mems4, tmp_path, cmd)
    records = [json.loads(s) for s in (out.run_dir / "branch.jsonl").read_text().splitlines()]
    assert check.check_branch(records, cmd.params, None) == []
    flat = [dict(r, mu1=records[0]["mu1"]) for r in records]
    assert any("decreasing" in p for p in check.check_branch(flat, cmd.params, None))
    assert check.check_branch(records[:-1], cmd.params, None)


def test_flipped_status_is_rejected(mems4, oracle):
    good = mems4.certify.certify_m3_gap(20).to_json_dict()
    bad = mems4.certify.certify_m3_gap(10).to_json_dict()
    assert good["status"] == "verified" and bad["status"] == "falsified"
    assert check.check_certificate(good, oracle) == []
    assert check.check_certificate(bad, oracle) == []
    flipped = dict(bad, status="verified", witness=None)
    assert any("sympy finds the claim fails" in p for p in check.check_certificate(flipped, oracle))
    flipped = dict(good, status="falsified", witness="1/2")
    assert check.check_certificate(flipped, oracle)
    # A decisive reference status that turns inconclusive is a failure.
    assert check.check_certificate(dict(good, status="inconclusive"), oracle, "verified")


def test_moved_witness_is_rejected(mems4, oracle):
    bad = mems4.certify.certify_m3_gap(16).to_json_dict()  # fails on part of (0, 1) only
    coeffs = [Fraction(c) for c in bad["claim"]["polynomial"]]
    holds = next(Fraction(k, 100) for k in range(1, 100)
                 if check._horner(coeffs, Fraction(k, 100)) >= 0)
    moved = dict(bad, witness=str(holds))
    assert any("does not violate" in p for p in check.check_certificate(moved, oracle))

    ps = mems4.certify.perturbed_touchdown(Fraction(2), Fraction(1, 6))
    lam = mems4.closed_forms.hardy_rellich(9) / 2
    report = mems4.certify.check_candidate(ps, 9, lam, {})
    cert = next(c for c in report.checks.values() if c.status == "falsified").to_json_dict()
    assert check.check_certificate(cert, oracle) == []
    moved = dict(cert, witness="1/1000000")
    terms = mems4.closed_forms.PowerSum.of(*[(Fraction(c), Fraction(e)) for c, e in cert["claim"]["terms"]])
    assert terms.evaluate_exact(Fraction(1, 1000000)) >= 0
    assert any("does not violate" in p for p in check.check_certificate(moved, oracle))


def test_threshold_pattern_is_recomputed(mems4, oracle):
    cert = mems4.certify.certify_thresholds(1, 40).to_json_dict()
    assert check.check_certificate(cert, oracle) == []
    assert check.check_certificate(dict(cert, status="falsified", witness="9"), oracle)


def test_oracle_matches_dense_sampling(oracle):
    rng = random.Random(7)
    for _ in range(60):
        # Products of linear factors with repeated roots and roots at 0 and 1.
        roots = [Fraction(rng.choice([0, 1, rng.randint(-3, 12)]), rng.choice([1, 2, 3, 10])) for _ in range(rng.randint(1, 5))]
        coeffs = [Fraction(rng.choice([-2, -1, 1, 3]))]
        for r in roots + roots[: rng.randint(0, 2)]:
            coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
        for closed in (False, True):
            points = [Fraction(k, 240) for k in range(0 if closed else 1, 241 if closed else 240)]
            points += [r for r in roots if 0 < r < 1 or (closed and 0 <= r <= 1)]
            points += [r + s for r in roots for s in (Fraction(1, 10**6), -Fraction(1, 10**6)) if 0 < r + s < 1]
            sampled = all(check._horner(coeffs, t) >= 0 for t in points)
            assert oracle.nonneg(coeffs, Fraction(0), Fraction(1), closed) == sampled, (coeffs, closed)


# -- workloads, tracing and the smoke run ------------------------------------


def test_default_seed_reproduces_listed_inputs():
    ladder = workloads.commands("singular-ladder", workloads.DEFAULT_SEED)
    assert [c.argv[0] for c in ladder] == ["pullin", "branch"] * 4
    assert [c.params["mesh"] for c in ladder[::2]] == [512, 1024, 2048, 4096]
    regular = workloads.commands("regular-dims", workloads.DEFAULT_SEED)
    assert [c.argv for c in regular[-2:]] == [
        ("pullin", "--dim", "3", "--mesh", "512", "--alpha=1/10", "--beta=0"),
        ("pullin", "--dim", "5", "--mesh", "512", "--alpha=1/5", "--beta=-1/5"),
    ]
    exact = workloads.commands("exact-search", workloads.DEFAULT_SEED)
    assert exact[0].params["voltage"] == str(Fraction(81 * 25, 32))  # H_9 / 2
    assert [c.key for c in workloads.commands("singular-ladder", 5)] != [c.key for c in ladder]
    assert sorted(c.key for c in workloads.commands("singular-ladder", 5)) == sorted(c.key for c in ladder)


def test_every_seed_input_has_a_reference():
    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for seed in range(40):
        for name in workloads.WORKLOADS:
            assert all(c.key in refs for c in workloads.commands(name, seed))


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_the_program(mems4):
    before = mems4.cli.pull_in_voltage, mems4.radial_operator.OperatorMatrix.solve
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert mems4.cli.pull_in_voltage is not before[0]
    finally:
        tracer.uninstall()
    assert (mems4.cli.pull_in_voltage, mems4.radial_operator.OperatorMatrix.solve) == before


@pytest.mark.parametrize("name,cmds", [
    ("regular-dims", workloads.regular_dims(3, mesh=64, dims=(2, 3))),
    ("exact-search", workloads.exact_search(3, **TINY_EXACT)),
])
def test_tiny_traced_pass_is_clean(mems4, tmp_path, name, cmds):
    tracer = trace.Tracer()
    tracer.install()
    try:
        p = run.run_pass(mems4, cmds, 3, tmp_path, tracer)
    finally:
        tracer.uninstall()
    run.check_passes([p], None)
    assert [o.problems for o in p.outcomes if o.problems] == []
    metrics = trace.pass_metrics(tracer.spans, tracer.counts)
    assert set(metrics) | {"trace.overhead_s"} == set(run.per_layer_units())
    if name == "regular-dims":
        assert metrics["branch.solves_per_pullin"] > 1000
    else:
        assert metrics["certify.replay.count"] > 0 and metrics["polys.squarefree_per_cert"] > 1
