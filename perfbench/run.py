"""mems4 benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload singular-ladder --seed 0 --seconds 20 --trace 0

Each workload is a closed loop of CLI commands run in-process through
``mems4.cli.main``, one at a time, with BLAS pinned to one thread.  Passes
repeat until ``--seconds`` have elapsed (at least one).  Artifacts are
checked after the timed passes, then the fresh output root is removed.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench-out"
# The program under test and this package, both from this checkout.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

# Setup probes run this many times before and again after the timed
# passes, so that their median samples the machine over the whole run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for layer in ("assemble", "solve", "solve_shifted", "nu1", "mu1"):
        units[f"radial_operator.{layer}.count"] = "count"
        units[f"radial_operator.{layer}.s"] = "s"
    units["radial_operator.solve.work_nodes"] = "count"
    units.update({f"radial_operator.nu1.s.n{n}": "s" for n in workloads.LADDER_MESHES})
    for fn in ("pull_in_voltage", "continue_branch"):
        units[f"branch.{fn}.count"] = "count"
        units[f"branch.{fn}.self_s"] = "s"
    units["branch.solves_per_pullin"] = "solves/pullin"
    units["branch.newton_per_pullin"] = "steps/pullin"
    units["branch.solves_per_point"] = "solves/point"
    for fn in ("isolate_roots", "sturm_sequence", "squarefree_part"):
        units[f"polys.{fn}.count"] = "count"
        units[f"polys.{fn}.s"] = "s"
    units["polys.squarefree_per_cert"] = "calls/cert"
    units["polys.eval.count"] = "count"
    units.update({
        "certify.check_candidate.count": "count", "certify.check_candidate.s": "s",
        "certify.certify_nonneg.count": "count", "certify.certify_nonneg.self_s": "s",
        "certify.fallback.count": "count", "certify.fallback.s": "s",
        "certify.replay.count": "count", "certify.replay.s": "s",
        "certify.decisive_frac": "fraction",
    })
    for fn in ("apply_bilaplacian", "powersum_mul"):
        units[f"closed_forms.{fn}.count"] = "count"
        units[f"closed_forms.{fn}.s"] = "s"
    units.update({f"cli.{k}.s": "s" for k in ("pullin", "branch", "search", "certify")})
    units.update({f"cli.pullin.s.n{n}": "s" for n in workloads.LADDER_MESHES})
    units.update({"store.write.count": "count", "store.write.s": "s",
                  "store.write.bytes": "bytes", "trace.overhead_s": "s"})
    return units


def pin_blas_threads() -> None:
    """One BLAS thread here and in child processes; call before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_program():
    """Import mems4 from this checkout's src/, never from elsewhere."""
    try:
        import mems4.certify
        import mems4.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mems4 from {ROOT / 'src'}: {exc}")
    if Path(mems4.cli.__file__).resolve().parent != ROOT / "src" / "mems4":
        raise SystemExit(f"perfbench: mems4 was imported from {mems4.cli.__file__}, not this checkout")
    return mems4


@dataclass
class Outcome:
    label: str
    command: object = None  # workloads.Command for CLI commands
    rc: int | None = None
    run_dir: Path | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list[Outcome]
    counts: dict = field(default_factory=dict)  # counted calls, traced passes only


def run_cli(mems4, cmd, out_root: Path, tracer) -> Outcome:
    out = Outcome(" ".join(cmd.argv), cmd)
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{cmd.kind}", {"mesh": cmd.params.get("mesh")}) if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
            out.rc = mems4.cli.main(list(cmd.argv) + ["--out", str(out_root)])
        out.run_dir = Path(stdout.getvalue().splitlines()[0])
    except Exception:
        out.problems.append("raised: " + traceback.format_exc(limit=3).replace("\n", " | "))
        out.problems.append("stderr: " + stderr.getvalue().strip())
    return out


def replay_items(outcomes: list[Outcome]) -> list[tuple[str, dict]]:
    """Every certificate written by the certify commands and by the
    touchdown-m search, as (label, certificate JSON)."""
    items = []
    for o in outcomes:
        if not o.command.replays or o.run_dir is None:
            continue
        if o.command.kind == "certify":
            for path in sorted((o.run_dir / "certificates").glob("*.json")):
                items.append((f"replay {path.name}", json.loads(path.read_text())))
        else:
            report = json.loads((o.run_dir / "search.json").read_text())
            for i, cand in enumerate(report["candidates"]):
                for name, cert in cand["checks"].items():
                    items.append((f"replay touchdown-m candidate {i} {name}", cert))
    return items


def run_pass(mems4, cmds, seed: int, out_root: Path, tracer=None) -> Pass:
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    outcomes = [run_cli(mems4, cmd, out_root, tracer) for cmd in cmds]
    for label, cert in workloads.permute(replay_items(outcomes), seed):
        o = Outcome(label)
        try:
            ok = mems4.certify.replay_certificate(mems4.certify.Certificate.from_json_dict(cert))
            if ok is not True:
                o.problems.append(f"replay returned {ok!r}")
        except Exception:
            o.problems.append("raised: " + traceback.format_exc(limit=3).replace("\n", " | "))
        outcomes.append(o)
    return Pass(time.perf_counter() - t0, time.process_time() - c0, outcomes)


def run_passes(mems4, cmds, seed, seconds, tmp: Path, tracer=None) -> list[Pass]:
    """Passes until ``seconds`` have elapsed; at least one."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer:
            tracer.pass_index = len(passes)
            tracer.counts.clear()
        p = run_pass(mems4, cmds, seed, tmp / f"pass-{len(passes)}", tracer)
        if tracer:
            p.counts = dict(tracer.counts)
        passes.append(p)
    return passes


def check_passes(passes: list[Pass], references: dict) -> None:
    from perfbench.check import SympyOracle, check_command

    oracle = SympyOracle()
    for p in passes:
        for o in p.outcomes:
            if o.command is not None and not o.problems:
                o.problems = check_command(o.command, o.rc, o.run_dir, references, oracle)


def setup_probe(args) -> None:
    """Process start to first command ready: imports, input generation and
    a fresh output root.  Prints the elapsed seconds."""
    load_program()
    workloads.commands(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    ready = time.time() - args.setup_probe
    shutil.rmtree(tmp)
    print(repr(ready))


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", repr(t0),
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def summarize(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (f"  {name:<36} {med:>14.6g} {unit:<14} n={len(values)}"
            f" min={min(values):.6g} max={max(values):.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_blas_threads()
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    mems4 = load_program()
    from perfbench import trace  # wraps mems4, so imported after it

    try:
        cmds = workloads.commands(args.workload, args.seed)
    except ValueError as exc:
        raise SystemExit(f"perfbench: {exc}")
    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    lines = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
             f" commands/pass={len(cmds)}",
             "env " + json.dumps(environment(), sort_keys=True)]
    try:
        if args.trace:
            base = run_pass(mems4, cmds, args.seed, tmp / "untraced")
            tracer = trace.Tracer()
            tracer.install()
            try:
                passes = run_passes(mems4, cmds, args.seed, args.seconds, tmp, tracer)
            finally:
                tracer.uninstall()
            per_pass = [trace.pass_metrics(tracer.pass_spans(i), p.counts) for i, p in enumerate(passes)]
            for m, p in zip(per_pass, passes):
                m["trace.overhead_s"] = p.wall - base.wall
            values = trace.median_metrics(per_pass)
            tracer.write(OUT / f"spans-{args.workload}.jsonl", 0)
            shares = trace.layer_shares(tracer.pass_spans(0), passes[0].wall)
            lines.append("layer self-time share of traced pass 0: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
            units = per_layer_units()
            metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
            lines += [summarize(k, [m[k] for m in per_pass], u) for k, u in units.items()]
            check = passes + [base]
        else:
            setup = measure_setup(args)
            passes = run_passes(mems4, cmds, args.seed, args.seconds, tmp)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += measure_setup(args)
            samples = {
                "setup_s": setup,
                "wall_s": [p.wall for p in passes],
                "cpu_s": [p.cpu for p in passes],
                "peak_rss_mb": [rss_mb],
            }
            metrics = {k: {"value": statistics.median(samples[k]), "unit": u} for k, u in END_TO_END.items()}
            lines += [summarize(k, samples[k], END_TO_END[k]) for k in END_TO_END]
            check = passes
        check_passes(check, references)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = [o for p in check for o in p.outcomes]
    failed = [o for o in outcomes if o.problems]
    lines.append(f"  {'fail_frac':<36} {len(failed) / len(outcomes):>14.6g} {'fraction':<14}"
                 f" failed={len(failed)} attempted={len(outcomes)}")
    for o in failed[:20]:
        lines.append(f"FAILED {o.label}: {'; '.join(o.problems)[:600]}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
