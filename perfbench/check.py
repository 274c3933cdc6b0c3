"""Output checker for benchmark artifacts, independent of mems4's engines.

Float artifacts are checked against invariants of the problem and, where
reference.json has the same inputs, against values stored from the seed
commit.  Certificates are cross-checked with sympy root counting on the
claimed polynomial; falsified witnesses are re-evaluated exactly.  Each
check returns a list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

VERIFIED, FALSIFIED, INCONCLUSIVE = "verified", "falsified", "inconclusive"
DECISIVE = (VERIFIED, FALSIFIED)
# reference.json stores each candidate's check statuses as one letter each.
STATUS_CODE = {VERIFIED: "V", FALSIFIED: "F", INCONCLUSIVE: "I"}
CANDIDATE_CHECKS = ("range-lower", "range-upper", "subsolution", "semistable")

REGULAR = "regular-consistent"
SINGULAR = "singular-consistent"

# Agreement with seed-commit references.  Two brackets of width
# <= rel_width * lo that both contain the fold have midpoints within
# rel_width * lo of each other.  mu1 and nu1 differ between eigen solvers
# by round-off growing like n^6 on the graded mesh (~3e-7 at n = 4096).
MU1_REL = 1e-5
NU1_REL = 1e-5
MAX_VALUE_REL = 1e-7


# -- pull-in and branch ------------------------------------------------------


def quadratic_lower_bound(n: int) -> Fraction:
    return Fraction(32 * (10 * n - n * n - 12), 27)


def singular_voltage(n: int) -> Fraction:
    return Fraction(8 * (3 * n - 2) * (3 * n - 8), 81)


def hardy_rellich(n: int) -> Fraction:
    return Fraction(n * n * (n - 4) ** 2, 16)


def check_pullin(payload: dict, params: dict, ref: dict | None) -> list[str]:
    bad = []
    dim, rel_width = params["dim"], params["rel_width"]
    lo, hi = payload["lambda_lo"], payload["lambda_hi"]
    homogeneous = (params["alpha"], params["beta"]) == ("0", "0")
    if payload["dim"] != dim:
        bad.append(f"dim {payload['dim']} != {dim}")
    if not 0 < lo < hi:
        bad.append(f"bracket [{lo}, {hi}] is not increasing and positive")
    if hi - lo > rel_width * lo:
        bad.append(f"bracket width {hi - lo} exceeds rel_width * lambda_lo")
    if homogeneous:
        lower = max(quadratic_lower_bound(dim), singular_voltage(dim))
        if payload["analytic_lower"] is None or Fraction(payload["analytic_lower"]["fraction"]) != lower:
            bad.append(f"analytic_lower is not max(quadratic, singular voltage) = {lower}")
        elif not lower <= Fraction(lo):
            bad.append("lambda_lo is below the analytic lower bound")
        upper = payload["analytic_upper"]
        if upper is None or not hi <= upper:
            bad.append("lambda_hi is above the analytic upper bound")
        if payload["consistent"] is not True:
            bad.append("pull-in estimate is not consistent")
    elif payload["analytic_lower"] is not None or payload["consistent"] is not None:
        bad.append("inhomogeneous data carries analytic bounds")
    expected = REGULAR if dim <= 8 else SINGULAR
    if payload["regularity_verdict"] != expected:
        bad.append(f"verdict {payload['regularity_verdict']} != {expected} for dim {dim}")
    if any("flagged" in n for n in payload["notes"]):
        bad.append("notes flag the bisection oracle")
    if ref is not None:
        ref_lo, ref_hi = ref["lambda_lo"], ref["lambda_hi"]
        if abs((lo + hi) - (ref_lo + ref_hi)) / 2 > rel_width * ref_lo:
            bad.append(f"bracket [{lo}, {hi}] moved from reference [{ref_lo}, {ref_hi}]")
        if homogeneous and abs(payload["analytic_upper"] - ref["analytic_upper"]) > NU1_REL * ref["analytic_upper"]:
            bad.append("analytic_upper (4 nu1 / 27) moved from reference")
    return bad


def check_branch(records: list[dict], params: dict, ref: dict | None) -> list[str]:
    bad = []
    if any("diverged_at" in r for r in records):
        bad.append("branch diverged")
    points = [r for r in records if "lambda" in r]
    if len(points) != params["points"]:
        return bad + [f"{len(points)} branch points, expected {params['points']}"]
    mu1 = [p["mu1"] for p in points]
    top = [p["max_value"] for p in points]
    if not all(m is not None and m > 0 for m in mu1):
        bad.append("mu1 is not positive at every point")
    elif any(b >= a for a, b in zip(mu1, mu1[1:])):
        bad.append("mu1 is not strictly decreasing")
    if any(b <= a for a, b in zip(top, top[1:])) or not top[-1] < 1:
        bad.append("max_value is not increasing below 1")
    if any(not p["residual"] < params["tol"] for p in points):
        bad.append("residual not below tol")
    if ref is not None:
        for got, want in zip(mu1, ref["mu1"]):
            if got is None or abs(got - want) > MU1_REL * abs(want):
                bad.append(f"mu1 {got} moved from reference {want}")
                break
        for got, want in zip(top, ref["max_value"]):
            if abs(got - want) > MAX_VALUE_REL * want:
                bad.append(f"max_value {got} moved from reference {want}")
                break
    return bad


# -- certificates ------------------------------------------------------------


class SympyOracle:
    """Sign of a rational polynomial on an interval, by sympy root
    counting; verdicts are cached by polynomial, since every pass writes
    the same claims."""

    def __init__(self):
        import sympy  # imported here: only certificate checks need it

        self.sympy = sympy
        self.x = sympy.Symbol("x")
        self._cache: dict[tuple, bool] = {}

    def nonneg(self, coeffs: list[Fraction], a: Fraction, b: Fraction, closed: bool) -> bool:
        """True iff sum coeffs[k] x^k >= 0 on (a, b), or on [a, b] if closed."""
        key = (tuple(coeffs), a, b, closed)
        if key not in self._cache:
            self._cache[key] = self._nonneg(coeffs, a, b, closed)
        return self._cache[key]

    def _nonneg(self, coeffs, a, b, closed) -> bool:
        sp = self.sympy
        p = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                    self.x, domain="QQ")
        if p.is_zero:
            return True
        ra, rb = sp.Rational(a.numerator, a.denominator), sp.Rational(b.numerator, b.denominator)
        if closed and (p.eval(ra) < 0 or p.eval(rb) < 0):
            return False
        # p changes sign exactly at its roots of odd multiplicity.  A
        # square-free factor vanishes at most once at each endpoint; with
        # those roots divided out, every root in [a, b] is interior.
        for factor, mult in p.sqf_list()[1]:
            for end in (ra, rb):
                if factor.eval(end) == 0:
                    factor = factor.quo(sp.Poly(self.x - end, self.x, domain="QQ"))
            if mult % 2 and factor.degree() > 0 and factor.intervals(inf=ra, sup=rb, sqf=True):
                return False
        k = 2
        while True:  # p has finitely many roots; some (a + b (k-1)) / k misses them
            t = ra + (rb - ra) / k
            v = p.eval(t)
            if v != 0:
                return v > 0
            k += 1


def _fractions(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def power_sum_polynomial(terms: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Coefficients in t = r^(1/q) of r^(-e_min) * sum c r^e: the factor is
    positive on (0, 1), so the sign on (0, 1) is unchanged."""
    e_min = min(e for _, e in terms)
    q = 1
    for _, e in terms:
        q = lcm(q, (e - e_min).denominator)
    coeffs = [Fraction(0)] * (int(max(e - e_min for _, e in terms) * q) + 1)
    for c, e in terms:
        coeffs[int((e - e_min) * q)] += c
    return coeffs


def check_certificate(cert: dict, oracle: SympyOracle, ref_status: str | None = None) -> list[str]:
    """Check one certificate's status against an independent verdict."""
    status, claim = cert["status"], cert["claim"]
    bad = []
    if status not in (VERIFIED, FALSIFIED, INCONCLUSIVE):
        return [f"unknown status {status!r}"]
    if ref_status in DECISIVE and status != ref_status:
        bad.append(f"status {status} differs from reference {ref_status}")
    kind = claim.get("kind")
    witness = None if cert["witness"] is None else Fraction(cert["witness"])
    if status == FALSIFIED and witness is None:
        return bad + ["falsified without a witness"]
    if kind == "polynomial-nonneg":
        coeffs = _fractions(claim["polynomial"])
        a, b = _fractions(claim["interval"])
        if claim.get("name") == "m3-gap" and coeffs != m3_gap_polynomial(claim["dimension"]):
            bad.append("m3-gap claim is not the gap polynomial of its dimension")
        if status in DECISIVE:
            truth = oracle.nonneg(coeffs, a, b, claim["closed"])
            if truth != (status == VERIFIED):
                bad.append(f"status {status} but sympy finds the claim {'holds' if truth else 'fails'}")
        if status == FALSIFIED:
            inside = a <= witness <= b if claim["closed"] else a < witness < b
            if not inside or not _horner(coeffs, witness) < 0:
                bad.append(f"witness {witness} does not violate the claim")
    elif kind == "power-sum-nonneg":
        terms = [(Fraction(c), Fraction(e)) for c, e in claim["terms"]]
        if status in DECISIVE and terms:
            truth = oracle.nonneg(power_sum_polynomial(terms), Fraction(0), Fraction(1), False)
            if truth != (status == VERIFIED):
                bad.append(f"status {status} but sympy finds the claim {'holds' if truth else 'fails'}")
        if status == FALSIFIED:
            from mems4.closed_forms import PowerSum

            if not (0 < witness < 1 and PowerSum.of(*terms).evaluate_exact(witness) < 0):
                bad.append(f"witness {witness} does not violate the claim")
    elif kind == "composite":
        parts = [c["status"] for c in claim["components"]]
        for comp in claim["components"]:
            bad += check_certificate(comp, oracle)
        expected = (FALSIFIED if FALSIFIED in parts else
                    VERIFIED if all(s == VERIFIED for s in parts) else INCONCLUSIVE)
        if status != expected:
            bad.append(f"composite status {status} but components give {expected}")
    elif kind == "threshold-pattern":
        expected, first_bad = threshold_pattern(*claim["range"])
        if status != expected or witness != first_bad:
            bad.append(f"threshold status {status}/{witness}, expected {expected}/{first_bad}")
    else:
        bad.append(f"unknown claim kind {kind!r}")
    return bad


def m3_gap_polynomial(n: int) -> list[Fraction]:
    """A - B (9-4s)^2 - C s (9-4s)^2, ascending in s."""
    a = Fraction(25 * n * n * (n - 4) ** 2, 32)
    b = Fraction(8 * (3 * n - 2) * (3 * n - 8), 45)
    c = Fraction(12 * (n * n - 1), 5)
    sq = [81, -72, 16]
    out = [a - b * sq[0], -b * sq[1] - c * sq[0], -b * sq[2] - c * sq[1], -c * sq[2]]
    while out and out[-1] == 0:
        out.pop()
    return out


def threshold_pattern(n_min: int, n_max: int) -> tuple[str, Fraction | None]:
    """Among N with positive singular voltage, 2 lb <= H_N iff N >= 9 and
    27 lb <= H_N / 2 iff N >= 31."""
    for n in range(n_min, n_max + 1):
        lb, h = singular_voltage(n), hardy_rellich(n)
        if lb > 0 and ((2 * lb <= h) != (n >= 9) or (27 * lb <= h / 2) != (n >= 31)):
            return FALSIFIED, Fraction(n)
    return VERIFIED, None


def certify_exit_code(statuses: list[str]) -> int:
    if FALSIFIED in statuses:
        return 1
    return 2 if INCONCLUSIVE in statuses else 0


def check_certify_run(run_dir: Path, params: dict, rc: int, ref: dict | None,
                      oracle: SympyOracle) -> list[str]:
    n_min, n_max = (int(x) for x in params["n"].split(".."))
    if params["claim"] == "thresholds":
        names = [f"thresholds-{n_min}-{n_max}.json"]
    else:
        names = [f"{params['claim']}-{n}.json" for n in range(n_min, n_max + 1)]
    bad, statuses = [], []
    for name in names:
        path = run_dir / "certificates" / name
        if not path.is_file():
            bad.append(f"missing certificate {name}")
            continue
        cert = json.loads(path.read_text())
        statuses.append(cert["status"])
        ref_status = None if ref is None else ref["statuses"].get(name)
        bad += [f"{name}: {p}" for p in check_certificate(cert, oracle, ref_status)]
    if rc != certify_exit_code(statuses):
        bad.append(f"exit code {rc}, statuses give {certify_exit_code(statuses)}")
    return bad


def grid_values(spec: str) -> list[Fraction]:
    start, stop, count = spec.split(":")
    start, stop, count = Fraction(start), Fraction(stop), int(count)
    if count == 1:
        return [start]
    return [start + k * (stop - start) / (count - 1) for k in range(count)]


def search_candidates(params: dict) -> list[dict]:
    if params["family"] == "touchdown-m":
        return [{"m": m} for m in grid_values(params["m"])]
    return [{"alpha": a, "beta": b}
            for a in grid_values(params["alpha-grid"])
            for b in grid_values(params["beta-grid"])]


def check_search(report: dict, params: dict, rc: int, ref: dict | None,
                 oracle: SympyOracle) -> list[str]:
    bad = []
    want = search_candidates(params)
    cands = report["candidates"]
    if report["dimension"] != params["dim"] or Fraction(report["voltage"]) != Fraction(params["voltage"]):
        bad.append("search ran at another dimension or voltage")
    got = [{k: Fraction(v) for k, v in c["params"].items()} for c in cands]
    if got != want:
        return bad + [f"candidates {len(got)} do not match the requested grid of {len(want)}"]
    statuses = []
    for i, cand in enumerate(cands):
        checks = cand["checks"]
        ref_row = None if ref is None else ref["statuses"][i]
        for j, name in enumerate(CANDIDATE_CHECKS):
            cert = checks[name]
            statuses.append(cert["status"])
            ref_status = None if ref_row is None else next(
                s for s, code in STATUS_CODE.items() if code == ref_row[j])
            bad += [f"candidate {i} {name}: {p}" for p in check_certificate(cert, oracle, ref_status)]
        all_verified = all(c["status"] == VERIFIED for c in checks.values())
        if cand["passed"] and not all_verified:
            bad.append(f"candidate {i} passed with a check not verified")
        if all_verified and cand["boundary_exact"] and not cand["notes"] and not cand["passed"]:
            bad.append(f"candidate {i} verified everywhere but did not pass")
    if report["passing_count"] != sum(c["passed"] for c in cands):
        bad.append("passing_count does not match the candidates")
    if ref is not None and report["passing_count"] < ref["passing_count"]:
        bad.append(f"{report['passing_count']} candidates pass, reference {ref['passing_count']}")
    expected_rc = 2 if INCONCLUSIVE in statuses else 0
    if rc != expected_rc:
        bad.append(f"exit code {rc}, statuses give {expected_rc}")
    return bad


def check_command(command, rc: int, run_dir: Path, references: dict | None,
                  oracle: SympyOracle | None) -> list[str]:
    """Problems with one command's exit code and artifacts."""
    ref = None if references is None else references.get(command.key)
    if references is not None and ref is None and command.kind in ("pullin", "branch"):
        return [f"no reference for {command.key}"]
    try:
        if command.kind == "pullin":
            bad = check_pullin(json.loads((run_dir / "pullin.json").read_text()), command.params, ref)
            return bad + ([] if rc == 0 else [f"exit code {rc}"])
        if command.kind == "branch":
            lines = (run_dir / "branch.jsonl").read_text().splitlines()
            bad = check_branch([json.loads(s) for s in lines], command.params, ref)
            return bad + ([] if rc == 0 else [f"exit code {rc}"])
        if command.kind == "certify":
            return check_certify_run(run_dir, command.params, rc, ref, oracle)
        if command.kind == "search":
            report = json.loads((run_dir / "search.json").read_text())
            return check_search(report, command.params, rc, ref, oracle)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    return [f"unknown command kind {command.kind!r}"]
