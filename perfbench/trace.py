"""Span tracer that wraps mems4's public functions from outside the program.

Each wrapped call records a span (id, parent id, name, start, end, attrs)
in memory; ``Tracer.write`` dumps them when the run ends.  A function is
wrapped at every name its callers look it up by (``mems4.cli`` imports
``pull_in_voltage`` into its own namespace, so both that name and
``mems4.branch.pull_in_voltage`` are patched), and methods are patched on
their classes.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

import mems4.branch
import mems4.certify
import mems4.cli
import mems4.closed_forms
import mems4.store
from mems4.closed_forms import PowerSum
from mems4.polys import RationalPolynomial
from mems4.radial_operator import OperatorMatrix
from perfbench.workloads import LADDER_MESHES as MESHES

_clock = time.perf_counter


def _fallback(cert) -> bool:
    return any("degree cap exceeded" in str(e.get("note", "")) for e in cert.trail)


def _grid_n(args, kwargs) -> dict:
    return {"n": args[1].n}


def _op_n(args, kwargs) -> dict:
    return {"n": args[0].grid.n}


def _text_bytes(args, kwargs) -> dict:
    return {"bytes": len(args[1].encode())}


# (owner, attribute, span name, attrs from the call, attrs from the result)
_TARGETS = (
    (OperatorMatrix, "__init__", "radial_operator.assemble", _grid_n, None),
    (OperatorMatrix, "solve", "radial_operator.solve", _op_n, None),
    (OperatorMatrix, "solve_shifted", "radial_operator.solve_shifted", _op_n, None),
    (OperatorMatrix, "nu1", "radial_operator.nu1", _op_n, None),
    (OperatorMatrix, "smallest_weighted_eigenvalue", "radial_operator.mu1", _op_n, None),
    (mems4.branch, "pull_in_voltage", "branch.pull_in_voltage", _grid_n, None),
    (mems4.cli, "pull_in_voltage", "branch.pull_in_voltage", _grid_n, None),
    (mems4.branch, "continue_branch", "branch.continue_branch", _grid_n,
     lambda run: {"points": len(run.points)}),
    (mems4.cli, "continue_branch", "branch.continue_branch", _grid_n,
     lambda run: {"points": len(run.points)}),
    (RationalPolynomial, "isolate_roots", "polys.isolate_roots", None, None),
    (RationalPolynomial, "sturm_sequence", "polys.sturm_sequence", None, None),
    (RationalPolynomial, "squarefree_part", "polys.squarefree_part", None, None),
    (mems4.certify, "check_candidate", "certify.check_candidate", None, None),
    (mems4.certify, "certify_nonneg", "certify.certify_nonneg", None,
     lambda cert: {"status": cert.status}),
    (mems4.certify, "power_sum_nonneg", "certify.power_sum_nonneg", None,
     lambda cert: {"status": cert.status, "fallback": _fallback(cert)}),
    (mems4.certify, "replay_certificate", "certify.replay", None, None),
    (mems4.certify, "apply_bilaplacian", "closed_forms.apply_bilaplacian", None, None),
    (mems4.closed_forms, "apply_bilaplacian", "closed_forms.apply_bilaplacian", None, None),
    (PowerSum, "__mul__", "closed_forms.powersum_mul", None, None),
    (mems4.store, "atomic_write_text", "store.write", _text_bytes, None),
)
# Called far too often for a span each; counted only.
_COUNTED = ((RationalPolynomial, "__call__", "polys.eval"),)

CLI_KINDS = ("pullin", "branch", "search", "certify")


class Tracer:
    """Spans of one benchmark process; ``spans`` rows are
    [id, parent, name, start, end, attrs, pass index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.pass_index = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span around the body of a ``with`` statement."""
        row = self._open(name, attrs or {})
        try:
            yield row
        finally:
            self._close(row)

    def _open(self, name: str, attrs: dict) -> list:
        row = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               _clock(), 0.0, attrs, self.pass_index]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def _close(self, row: list) -> None:
        row[4] = _clock()
        self._stack.pop()

    def _wrap(self, fn, name, call_attrs, result_attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = tracer._open(name, call_attrs(args, kwargs) if call_attrs else {})
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                row[5]["raised"] = True
                raise
            finally:
                tracer._close(row)
            if result_attrs:
                row[5].update(result_attrs(out))
            return out

        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, call_attrs, result_attrs in _TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, call_attrs, result_attrs))
        for owner, attr, name in _COUNTED:
            self._patch(owner, attr, self._wrap_count(getattr(owner, attr), name))

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def pass_spans(self, index: int) -> list[list]:
        return [row for row in self.spans if row[6] == index]

    def write(self, path: Path, index: int) -> None:
        """Write the spans of traced pass ``index``, one JSON row a line
        (one pass only, so the file stays a few MB)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for row in self.pass_spans(index):
                fh.write(json.dumps(row) + "\n")


# -- metrics ---------------------------------------------------------------


def pass_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``.s`` is inclusive time of spans with no same-name ancestor (so
    recursion is counted once); ``.self_s`` is span time minus the time of
    its direct child spans; ratios with an empty base read 0.
    """
    by_id = {row[0]: row for row in spans}
    names = {}  # span id -> set of ancestor names, built in id order
    for sid, parent, *_ in spans:
        names[sid] = (names[parent] | {by_id[parent][2]}) if parent in by_id else frozenset()
    child_time = _child_time(spans)

    groups: dict[str, list] = {}
    for r in spans:
        groups.setdefault(r[2], []).append(r)

    def rows(name, pred=None):
        return [r for r in groups.get(name, ()) if pred is None or pred(r)]

    def total(name, pred=None):
        return sum(r[4] - r[3] for r in rows(name, pred) if name not in names[r[0]])

    def self_total(name):
        return sum(r[4] - r[3] - child_time.get(r[0], 0.0) for r in rows(name))

    def under(name, ancestor):
        return len(rows(name, lambda r: ancestor in names[r[0]]))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in ("assemble", "solve", "solve_shifted", "nu1", "mu1"):
        name = f"radial_operator.{layer}"
        m[f"{name}.count"] = len(rows(name))
        m[f"{name}.s"] = total(name)
    m["radial_operator.solve.work_nodes"] = sum(r[5]["n"] for r in rows("radial_operator.solve"))
    for n in MESHES:
        m[f"radial_operator.nu1.s.n{n}"] = total("radial_operator.nu1", lambda r: r[5]["n"] == n)

    pullins = len(rows("branch.pull_in_voltage"))
    for fn in ("pull_in_voltage", "continue_branch"):
        m[f"branch.{fn}.count"] = len(rows(f"branch.{fn}"))
        m[f"branch.{fn}.self_s"] = self_total(f"branch.{fn}")
    m["branch.solves_per_pullin"] = ratio(
        under("radial_operator.solve", "branch.pull_in_voltage"), pullins)
    m["branch.newton_per_pullin"] = ratio(
        under("radial_operator.solve_shifted", "branch.pull_in_voltage"), pullins)
    points = sum(r[5].get("points", 0) for r in rows("branch.continue_branch"))
    m["branch.solves_per_point"] = ratio(
        under("radial_operator.solve", "branch.continue_branch"), points)

    for fn in ("isolate_roots", "sturm_sequence", "squarefree_part"):
        m[f"polys.{fn}.count"] = len(rows(f"polys.{fn}"))
        m[f"polys.{fn}.s"] = total(f"polys.{fn}")
    m["polys.squarefree_per_cert"] = ratio(
        len(rows("polys.squarefree_part")), len(rows("certify.certify_nonneg")))
    m["polys.eval.count"] = counts.get("polys.eval", 0)

    m["certify.check_candidate.count"] = len(rows("certify.check_candidate"))
    m["certify.check_candidate.s"] = total("certify.check_candidate")
    m["certify.certify_nonneg.count"] = len(rows("certify.certify_nonneg"))
    m["certify.certify_nonneg.self_s"] = self_total("certify.certify_nonneg")
    fell_back = rows("certify.power_sum_nonneg", lambda r: r[5].get("fallback"))
    m["certify.fallback.count"] = len(fell_back)
    m["certify.fallback.s"] = sum(r[4] - r[3] for r in fell_back)
    m["certify.replay.count"] = len(rows("certify.replay"))
    m["certify.replay.s"] = total("certify.replay")
    producers = {"certify.power_sum_nonneg", "certify.certify_nonneg", "certify.replay"}
    outcomes = [
        r[5].get("status") for r in spans
        if r[2] in ("certify.power_sum_nonneg", "certify.certify_nonneg")
        and not (names[r[0]] & producers)
    ]
    m["certify.decisive_frac"] = ratio(
        sum(s in ("verified", "falsified") for s in outcomes), len(outcomes))

    for fn in ("apply_bilaplacian", "powersum_mul"):
        m[f"closed_forms.{fn}.count"] = len(rows(f"closed_forms.{fn}"))
        m[f"closed_forms.{fn}.s"] = total(f"closed_forms.{fn}")

    for kind in CLI_KINDS:
        m[f"cli.{kind}.s"] = total(f"cli.{kind}")
    for n in MESHES:
        m[f"cli.pullin.s.n{n}"] = total("cli.pullin", lambda r: r[5].get("mesh") == n)
    m["store.write.count"] = len(rows("store.write"))
    m["store.write.s"] = total("store.write")
    m["store.write.bytes"] = sum(r[5].get("bytes", 0) for r in rows("store.write"))
    return m


def _child_time(spans: list[list]) -> dict[int, float]:
    """Span id -> total time of its direct child spans."""
    child_time: dict[int, float] = {}
    for sid, parent, name, start, end, *_ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return child_time


def layer_shares(spans: list[list], wall: float) -> dict[str, float]:
    """Share of one pass's wall time spent in each layer's own code: the
    self time of its spans (a layer is the span name's first component)."""
    child_time = _child_time(spans)
    share: dict[str, float] = {}
    for sid, parent, name, start, end, *_ in spans:
        layer = name.split(".")[0]
        share[layer] = share.get(layer, 0.0) + (end - start - child_time.get(sid, 0.0)) / wall
    return share


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
