"""Regenerate perfbench/reference.json from the current checkout.

    python3 perfbench/make_reference.py

Runs every command any seed can produce once and stores the values the
checker compares against: pull-in brackets and 4 nu1 / 27, branch mu1 and
max_value, and every certificate status.  The committed file was made at
the commit that introduced the benchmark; regenerate it only when a change
is meant to alter these outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import run, workloads  # noqa: E402
from perfbench.check import (  # noqa: E402
    CANDIDATE_CHECKS,
    STATUS_CODE,
    SympyOracle,
    check_command,
)


def all_commands() -> list:
    cmds = workloads.singular_ladder(workloads.DEFAULT_SEED)
    cmds += [workloads.pullin(d, workloads.REGULAR_MESH) for d in workloads.REGULAR_DIMS]
    cmds += [workloads.pullin(d, workloads.REGULAR_MESH, a, b) for d, a, b in workloads.INHOMOGENEOUS]
    cmds += [c for c in workloads.exact_search(workloads.DEFAULT_SEED) if c.kind == "certify"]
    for j in range(workloads.VOLTAGE_STEPS):
        cmds.append(workloads.search(
            workloads.SEARCH_DIM, "perturbed-touchdown",
            {"alpha-grid": workloads.SEARCH_ALPHA_GRID, "beta-grid": workloads.SEARCH_BETA_GRID},
            workloads.search_voltage(workloads.SEARCH_DIM, j)))
        cmds.append(workloads.search(
            workloads.TOUCHDOWN_DIM, "touchdown-m", {"m": workloads.TOUCHDOWN_M_GRID},
            workloads.search_voltage(workloads.TOUCHDOWN_DIM, j)))
    return cmds


def record(cmd, run_dir: Path) -> dict:
    if cmd.kind == "pullin":
        p = json.loads((run_dir / "pullin.json").read_text())
        return {k: p[k] for k in ("lambda_lo", "lambda_hi", "analytic_upper")}
    if cmd.kind == "branch":
        pts = [json.loads(s) for s in (run_dir / "branch.jsonl").read_text().splitlines()]
        return {"mu1": [p["mu1"] for p in pts], "max_value": [p["max_value"] for p in pts]}
    if cmd.kind == "certify":
        return {"statuses": {path.name: json.loads(path.read_text())["status"]
                             for path in sorted((run_dir / "certificates").glob("*.json"))}}
    report = json.loads((run_dir / "search.json").read_text())
    rows = ["".join(STATUS_CODE[c["checks"][k]["status"]] for k in CANDIDATE_CHECKS)
            for c in report["candidates"]]
    return {"statuses": rows, "passing_count": report["passing_count"]}


def main() -> int:
    run.pin_blas_threads()
    mems4 = run.load_program()
    oracle = SympyOracle()
    refs = {}
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
    try:
        for cmd in all_commands():
            out = run.run_cli(mems4, cmd, tmp, None)
            problems = out.problems or check_command(cmd, out.rc, out.run_dir, None, oracle)
            if problems:
                print(f"{cmd.key}: {problems}", file=sys.stderr)
                return 1
            refs[cmd.key] = record(cmd, out.run_dir)
            print(cmd.key, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
