"""Exact-arithmetic certificates for the closed-form inequality claims.

Every claim is reduced to sign questions about polynomials with rational
coefficients on (0, 1) (substituting t = r^(1/q) to clear fractional
exponents), then settled by exact sign evaluation: a negative value at
one of a few fixed probe points falsifies at once; otherwise, up to
degree 64, Sturm-sequence root isolation finds every sign change, and
above it a Bernstein sign test (Vincent-Collins-Akritas bisection)
decides, handing a repeated root to Sturm isolation.  Every claim comes
out verified or falsified.  A Certificate carries its claim and a trail
of the exact values its verdict read that the claim does not fix;
"falsified" always comes with an exact rational witness.  A Certificate
is exactly its file: from_json_dict reads no other.  Replay rebuilds it
from its claim with this same engine and makes one comparison, of
sorted-key JSON texts, with the certificate or the JSON value read from
its file, every key included.  It answers False, never an exception,
for a value that is not a certificate, and it catches an edited file,
not an engine bug.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from mems4.closed_forms import (
    PowerSum,
    apply_bilaplacian,
    format_rational,
    hardy_rellich,
    parse_rational,
    rational_to_decimal,
    singular_voltage,
    touchdown_profile,
    touchdown_shape,
)
from mems4.polys import RationalPolynomial, bernstein_sign, homogeneous_horner

VERIFIED = "verified"
FALSIFIED = "falsified"

# Points of (0, 1) where certify_nonneg tests the sign of p, in this
# order, before it isolates any root; the first is the midpoint whose
# value a polynomial without interior roots records.
PROBES = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
# Largest degree that certify_nonneg hands straight to Sturm isolation;
# above it the Bernstein sign test runs first.
STURM_DEGREE = 64
# Largest degree certify_nonneg accepts, so also the largest
# check_degree of a search candidate, which the CLI checks before the run
# key.  It bounds time: the sweeps described at polys.BERNSTEIN_DEPTH
# decided each check above degree 64 within 0.06 s, each of its levels
# taking one or two O(d^2) Taylor shifts.
MAX_CHECK_DEGREE = 900
# Most bits in the numerator or the denominator of an exact value that a
# trail writes: 14000 bits is 4215 digits, within Python's limit of 4300
# on integer text.  A longer value is written as its sign.
MAX_VALUE_BITS = 14_000
# Largest dimension of a claim or a threshold range: a range is certified
# one dimension at a time, so the cap bounds the work a claim can ask for.
MAX_DIMENSION = 64
# Smallest dimension of each claim that has one: m2-subsolution's voltage
# 27*lb is positive only for N >= 3, and the m = 3 stability step uses the
# Hardy-Rellich bound, N >= 5.
DIMENSION_FLOORS = {"m2-subsolution": 3, "m3-stability": 5}


@dataclass(frozen=True)
class Certificate:
    """Outcome of one rigorous sign verification.

    status is "verified" or "falsified".  A falsified certificate carries
    an exact rational witness at which the claim fails; re-evaluating the
    claim there reproduces the violation exactly.
    """

    claim: dict
    status: str
    witness: Fraction | None = None
    trail: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "claim": self.claim,
            "status": self.status,
            "witness": None if self.witness is None else format_rational(self.witness),
            "witness_decimal": None if self.witness is None else rational_to_decimal(self.witness),
            "trail": self.trail,
        }

    @staticmethod
    def from_json_dict(d) -> "Certificate":
        """The certificate whose to_json_dict has the sorted-key JSON text
        of d.  Raises ValueError, and only ValueError, for any other value:
        not an object, a missing or extra key, a witness that does not
        parse or is beyond float range, an edited witness_decimal or
        schema_version."""
        try:
            w = d["witness"]
            cert = Certificate(d["claim"], d["status"], None if w is None else parse_rational(w),
                               d["trail"])
            if _text(cert.to_json_dict()) == _text(d):
                return cert
        except Exception as e:
            raise ValueError("not a certificate") from e
        raise ValueError("not a certificate")


def _text(obj) -> str:
    """Sorted-key JSON text, compared rather than ==, so that true, 1 and
    1.0 differ; json's C encoder takes a third of canonical_json's time."""
    return json.dumps(obj, sort_keys=True)


def _value_entry(v: Fraction) -> dict:
    """A trail step's record of the exact value v: {"value": v}, or
    {"sign": -1, 0 or 1} past MAX_VALUE_BITS."""
    if max(v.numerator.bit_length(), v.denominator.bit_length()) > MAX_VALUE_BITS:
        return {"sign": (v > 0) - (v < 0)}
    return {"value": format_rational(v)}


def check_dimensions(name: str, n_min: int, n_max: int) -> None:
    """Raise ValueError unless n_min and n_max are integers (not bools)
    with floor <= n_min <= n_max <= MAX_DIMENSION, where floor is claim
    ``name``'s entry in DIMENSION_FLOORS (else 1)."""
    floor = DIMENSION_FLOORS.get(name, 1)
    ints = all(isinstance(n, int) and not isinstance(n, bool) for n in (n_min, n_max))
    if not (ints and floor <= n_min <= n_max <= MAX_DIMENSION):
        raise ValueError(f"need integers {floor} <= nmin <= nmax <= {MAX_DIMENSION} for {name}")


def _check_degree_cap(degree: int) -> None:
    if degree > MAX_CHECK_DEGREE:
        raise ValueError(f"degree {degree} exceeds {MAX_CHECK_DEGREE}")


def certify_nonneg(p: RationalPolynomial) -> Certificate:
    """Certify p >= 0 on the open interval (0, 1): _decide's verdict on p,
    under a claim built from p alone, of four keys: its kind, p's
    coefficients, the interval and closed.  Raises ValueError above
    MAX_CHECK_DEGREE.
    """
    status, witness, trail = _decide(p)
    den, cs = p.integer_form
    claim = {
        "kind": "polynomial-nonneg",
        "polynomial": [_ratio(c, den) for c in cs],
        "interval": ["0/1", "1/1"],
        "closed": False,
    }
    return Certificate(claim, status, witness, trail)


def _ratio(a: int, b: int) -> str:
    """format_rational(Fraction(a, b)) for b > 0, without the Fraction."""
    g = gcd(a, b)
    return f"{a // g}/{b // g}"


def _decide(p: RationalPolynomial) -> tuple[str, Fraction | None, list[dict]]:
    """Whether p >= 0 on (0, 1), decided on p's integer form: its status,
    its witness and its trail.

    Exact procedure: probes falsify first.  The exact sign of p at each
    of PROBES, in order, needs no Sturm chain; the first negative probe
    is the witness, and a non-negative one writes no trail entry.  Above
    STURM_DEGREE, polys.bernstein_sign then decides: its pieces, on each
    of which p > 0, make the "bernstein" step that verifies, or its
    negative point is the witness.  Up to STURM_DEGREE, or when a piece
    keeps two sign variations past polys.BERNSTEIN_DEPTH halvings (a repeated
    root), isolate every distinct interior root by Sturm bisection, then
    determine the sign of p at each isolating-interval edge, or at the
    midpoint 1/2 when there is no interior root, by exact evaluation;
    this covers the whole open interval; an edge shared by two intervals
    is evaluated once.  The trail records these evaluations, nothing the
    claim fixes (the degree is its polynomial's length less one), so a
    zero polynomial's trail is empty.
    Raises ValueError above MAX_CHECK_DEGREE.
    """
    _check_degree_cap(p.degree)
    den, cs = p.integer_form
    trail: list[dict] = []

    if p.is_zero():
        return VERIFIED, None, trail

    def sign_point(x: Fraction, where: str, v: Fraction):
        trail.append(
            {
                "step": "sign-evaluation",
                "where": where,
                "point": format_rational(x),
                **_value_entry(v),
            }
        )
        return (FALSIFIED, x, trail) if v < 0 else None

    def from_sum(x: Fraction, acc: int) -> Fraction:
        # p(x) from acc, homogeneous_horner's sum at x (den x.den^d p(x)).
        return Fraction(acc, den * x.denominator ** p.degree)

    # A negative probe falsifies p without its Sturm chain.  The sum at
    # the first probe, 1/2, gives the gap-midpoint value below.
    sums = []
    for x in PROBES:
        sums.append(homogeneous_horner(cs, x))
        if sums[-1] < 0:
            return sign_point(x, "probe", from_sum(x, sums[-1]))

    # None (Sturm isolation below) up to STURM_DEGREE or for a repeated root.
    decided = bernstein_sign(cs) if p.degree > STURM_DEGREE else None
    if decided is not None:
        pieces, witness = decided
        if witness is not None:
            return sign_point(witness, "bernstein", p(witness))
        trail.append({"step": "bernstein",
                      "pieces": [[format_rational(lo), format_rational(hi)] for lo, hi in pieces]})
        return VERIFIED, None, trail

    # Every distinct interior root lands in exactly one isolating interval
    # whose edges are interior non-roots: p has one sign on each gap the
    # roots leave in (0, 1), and each gap holds an edge or is (0, 1) itself.
    ivs = p.isolate_roots(Fraction(0), Fraction(1))
    trail.append({"step": "interior-root-count", "count": len(ivs)})
    if not ivs:
        # One sign on (0, 1), that of p(1/2) > 0 (1/2 is no root).
        sign_point(PROBES[0], "gap-midpoint", from_sum(PROBES[0], sums[0]))
        return VERIFIED, None, trail
    for x in dict.fromkeys(x for iv in ivs for x in iv):
        bad = sign_point(x, "isolating-interval-edge", p(x))
        if bad:
            return bad
    return VERIFIED, None, trail


def replay_certificate(cert: Certificate | dict) -> bool:
    """Rebuild the certificate that the claim of ``cert`` (a Certificate,
    or the JSON value read from its file) describes, and accept ``cert``
    only if the rebuilt JSON object has its sorted-key JSON text.

    Every other value gives False, and nothing raises: one that is not an
    object or lacks a key, a claim of an unknown kind or one whose rebuild
    raises (a malformed field, a dimension outside its claim's range, a
    degree above MAX_CHECK_DEGREE), a field that differs from the rebuild.
    """
    try:
        d = cert.to_json_dict() if isinstance(cert, Certificate) else cert
        return _text(_recompute(d["claim"]).to_json_dict()) == _text(d)
    except Exception:
        return False


def _recompute(claim: dict) -> Certificate:
    if claim.get("kind") == "threshold-pattern":
        return certify_thresholds(*claim["range"])
    if claim.get("name") in CLAIMS:
        return CLAIMS[claim["name"]](claim["dimension"])
    if claim.get("kind") == "power-sum-nonneg":
        terms = [(parse_rational(c), parse_rational(e)) for c, e in claim["terms"]]
        return power_sum_nonneg(PowerSum.of(*terms), claim["label"])
    if claim.get("kind") == "polynomial-nonneg":
        # A claim's list has no trailing zero, so its length gives the degree.
        _check_degree_cap(len(claim["polynomial"]) - 1)
        coeffs = map(parse_rational, claim["polynomial"])
        return certify_nonneg(RationalPolynomial.of(*coeffs))
    raise ValueError("unknown claim")


# ---------------------------------------------------------------------------
# Power-sum reduction: clear fractional exponents with t = r^(1/q).
# ---------------------------------------------------------------------------


def reduce_power_sum(ps: PowerSum) -> tuple[RationalPolynomial, Fraction, int]:
    """Rewrite a rational power sum as t-polynomial with t = r^(1/q).

    Multiplies by the positive factor r^(-e_min) first, so the sign of the
    power sum on (0,1) equals the sign of the returned polynomial on (0,1).
    Returns (polynomial, shift exponent e_min, substitution order q).
    Raises certify_nonneg's ValueError above MAX_CHECK_DEGREE before
    building the polynomial.
    """
    if ps.is_zero():
        return RationalPolynomial.of(), Fraction(0), 1
    # q is the lcm of the exponent denominators, and the term (a/den) r^(k/q)
    # becomes (a/den) t^(k - k_min).
    den, q, pairs = ps.integer_form
    k_min = pairs[0][1]
    degree = pairs[-1][1] - k_min
    _check_degree_cap(degree)
    coeffs = [0] * (degree + 1)
    for a, k in pairs:
        coeffs[k - k_min] = a
    return RationalPolynomial((den, coeffs)), Fraction(k_min, q), q


def _power_sum_claim(ps: PowerSum, label: str) -> dict:
    den, qden, pairs = ps.integer_form
    terms = [[_ratio(a, den), _ratio(k, qden)] for a, k in pairs]
    return {"kind": "power-sum-nonneg", "label": label, "terms": terms, "domain": "(0,1)"}


def power_sum_nonneg(ps: PowerSum, label: str = "") -> Certificate:
    """Certify that a rational power sum is >= 0 on (0, 1): _decide on
    the cleared polynomial (ValueError above MAX_CHECK_DEGREE), whose
    witness t0 becomes the radius t0^q.  The claim's terms fix e_min and
    q, so the trail is the cleared polynomial's."""
    poly, _, q = reduce_power_sum(ps)
    status, witness, trail = _decide(poly)
    if status == FALSIFIED:
        witness, step = _witness_confirmation(ps, witness, q)
        trail.append(step)
    return Certificate(_power_sum_claim(ps, label), status, witness, trail)


def _witness_confirmation(ps: PowerSum, t0: Fraction, q: int) -> tuple[Fraction, dict]:
    """The radius r = t0^q of a witness t0 of the cleared polynomial, and
    the trail step that confirms the violation by the power sum's exact
    value there.  Raises ArithmeticError when that value is not negative
    (the engine contradicts itself; an assert would vanish under -O)."""
    radius = t0**q
    value = ps.evaluate_exact(radius)
    if not value < 0:
        raise ArithmeticError("witness does not confirm the violation")
    step = {"step": "witness-confirmation", "radius": format_rational(radius),
            **_value_entry(value)}
    return radius, step


# ---------------------------------------------------------------------------
# Named claims.
# ---------------------------------------------------------------------------


def stability_gap_polynomial(n: int) -> RationalPolynomial:
    """Cubic P(s) = A - B(9-4s)^2 - C s (9-4s)^2 in s = r^(5/3), with
    A = 25 N^2(N-4)^2/32, B = 8(3N-2)(3N-8)/45, C = 12(N^2-1)/5.

    Its nonnegativity on (0,1) is equivalent to the m = 3 touchdown
    profile being a sub-solution of the deflection equation at voltage
    H_N/2 (after multiplying the pointwise gap by the positive factor
    r^(8/3) (9-4s)^2).
    """
    A = Fraction(25 * n * n * (n - 4) ** 2, 32)
    B = Fraction(8 * (3 * n - 2) * (3 * n - 8), 45)
    C = Fraction(12 * (n * n - 1), 5)
    # (9-4s)^2 = 81 - 72s + 16s^2
    return RationalPolynomial.of(A - 81 * B, 72 * B - 81 * C, 72 * C - 16 * B, -16 * C)


def certify_m3_gap(n: int) -> Certificate:
    """Certify the sub-solution gap of the m = 3 profile at voltage H_N/2:
    P_N(s) >= 0 on (0,1) in exact arithmetic."""
    check_dimensions("m3-gap", n, n)
    cert = certify_nonneg(stability_gap_polynomial(n))
    description = (
        "sub-solution gap polynomial of the m=3 touchdown profile at "
        "voltage H_N/2, in s = r^(5/3); nonnegativity on (0,1) makes "
        "the profile a singular semi-stable sub-solution"
    )
    return replace(cert, claim={**cert.claim, "name": "m3-gap", "dimension": n,
                                "description": description})


@dataclass(frozen=True)
class ThresholdRow:
    """One exact dimension-threshold comparison."""

    dimension: int
    singular_voltage: Fraction
    hardy: Fraction
    double_voltage_le_hardy: bool  # 2*lb <= H_N
    voltage27_le_half_hardy: bool  # 27*lb <= H_N/2
    voltage_positive: bool  # lb > 0, i.e. N >= 3; comparisons are vacuous below


def threshold_table(n_min: int, n_max: int) -> list[ThresholdRow]:
    """Exact rational threshold comparisons for each dimension in range."""
    check_dimensions("thresholds", n_min, n_max)
    rows = []
    for n in range(n_min, n_max + 1):
        lb = singular_voltage(n)
        h = hardy_rellich(n)
        rows.append(
            ThresholdRow(n, lb, h, 2 * lb <= h, 27 * lb <= h / 2, lb > 0)
        )
    return rows


def certify_thresholds(n_min: int = 1, n_max: int = 40) -> Certificate:
    """Certify the threshold pattern: among dimensions with positive
    singular voltage (N >= 3), 2*lb <= H_N holds exactly for N >= 9 and
    27*lb <= H_N/2 holds exactly for N >= 31, within the given range.

    In N <= 2 the voltage is negative and both comparisons are vacuously
    true; those rows are recorded but excluded from the pattern.  A row
    records lb and H_N, the values its comparisons read.
    """
    rows = threshold_table(n_min, n_max)
    pattern = {
        "double_voltage_le_hardy_from": 9,
        "voltage27_le_half_hardy_from": 31,
        "gated_to_positive_voltage": True,
    }
    claim = {
        "kind": "threshold-pattern",
        "name": "thresholds",
        "range": [n_min, n_max],
        "pattern": pattern,
    }
    trail = [
        {"step": "compare", "dimension": row.dimension,
         "singular_voltage": format_rational(row.singular_voltage),
         "hardy": format_rational(row.hardy)}
        for row in rows
    ]
    # The witness is the first dimension of positive voltage off the pattern.
    witness = next((Fraction(row.dimension) for row in rows if row.voltage_positive and (
        row.double_voltage_le_hardy != (row.dimension >= pattern["double_voltage_le_hardy_from"])
        or row.voltage27_le_half_hardy != (row.dimension >= pattern["voltage27_le_half_hardy_from"])
    )), None)
    return Certificate(claim, VERIFIED if witness is None else FALSIFIED, witness, trail)


def _composite(name: str, n: int, m: int, lam: Fraction, checks: tuple[str, ...],
               description: str) -> Certificate:
    """The composite claim that touchdown_profile(m) passes the named
    checks of check_candidate in dimension n at voltage lam: its
    components are those checks' certificates as JSON objects.  It is
    falsified if any component is, with the first falsified component's
    witness, else verified; its components are its evidence, so its trail
    is empty.  Raises ArithmeticError if the profile is not exactly
    clamped (the engine contradicts itself)."""
    w = touchdown_profile(m)
    if not _clamped(w):
        raise ArithmeticError(f"the m = {m} profile is not clamped at r = 1")
    components = [c.to_json_dict() for c in _profile_checks(w, n, lam, checks).values()]
    witness = next((Fraction(c["witness"]) for c in components if c["status"] == FALSIFIED), None)
    claim = {
        "kind": "composite",
        "name": name,
        "dimension": n,
        "description": description,
        "components": components,
    }
    return Certificate(claim, VERIFIED if witness is None else FALSIFIED, witness, [])


def certify_m2_subsolution(n: int) -> Certificate:
    """Certify that the m = 2 touchdown profile is a singular sub-solution
    at voltage 27*lb: check_candidate's range-lower, range-upper and
    subsolution checks of touchdown_profile(2) there.  It is semi-stable
    where 27*lb <= H_N/2 also holds (see the thresholds certificate).
    Raises ValueError below N = 3, where lb < 0."""
    check_dimensions("m2-subsolution", n, n)
    description = (
        "m=2 touchdown profile is a singular sub-solution at 27x the "
        "singular voltage lb: 0 <= w <= 1 and lam - bilap(w)(1-w)^2 >= 0 "
        "on (0,1), lam = 27*lb, positive for N >= 3"
    )
    return _composite("m2-subsolution", n, 2, 27 * singular_voltage(n),
                      ("range-lower", "range-upper", "subsolution"), description)


def certify_m3_stability(n: int) -> Certificate:
    """Certify that the m = 3 touchdown profile is semi-stable at voltage
    H_N/2: check_candidate's semistable check of touchdown_profile(3)
    there, which uses the optimal Hardy-Rellich constant H_N and so needs
    N >= 5 (ValueError below)."""
    check_dimensions("m3-stability", n, n)
    description = (
        "m=3 touchdown profile is semi-stable at voltage H_N/2: "
        "H_N (1-w)^3 - 2 lam r^4 >= 0 on (0,1), lam = H_N/2, with the "
        "optimal Hardy-Rellich constant H_N"
    )
    return _composite("m3-stability", n, 3, hardy_rellich(n) / 2, ("semistable",), description)


# Per-dimension certifiers by claim name ("thresholds" certifies a range).
CLAIMS = {
    "m3-gap": certify_m3_gap,
    "m2-subsolution": certify_m2_subsolution,
    "m3-stability": certify_m3_stability,
}


# ---------------------------------------------------------------------------
# Parametrized search for singular semi-stable sub-solutions.
# ---------------------------------------------------------------------------


def perturbed_touchdown(alpha: Fraction, beta: Fraction) -> PowerSum:
    """Touchdown shape perturbed by (4/(3 beta)) r^alpha (1 - r^beta).

    The coefficient 4/(3 beta) makes the profile exactly clamped (zero
    value and slope at r = 1) for every alpha, beta > 0; at alpha = 4/3
    the family reproduces touchdown_profile(alpha + beta ... ) members.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("need alpha > 0 and beta > 0")
    c = Fraction(4, 3) / beta
    return touchdown_shape() - PowerSum.of((c, alpha), (-c, alpha + beta))


def candidate_profile(family: str, params) -> tuple[dict, PowerSum]:
    """The parameters by name and the profile of one search candidate:
    an (alpha, beta) pair for "perturbed-touchdown", a profile parameter
    m for "touchdown-m".  Raises ValueError for an unknown family or
    parameters outside it (alpha, beta > 0; m > 0, m != 4/3)."""
    if family == "perturbed-touchdown":
        alpha, beta = (Fraction(x) for x in params)
        return {"alpha": alpha, "beta": beta}, perturbed_touchdown(alpha, beta)
    if family == "touchdown-m":
        m = Fraction(params)
        return {"m": m}, touchdown_profile(m)
    raise ValueError(f"unknown family {family!r}")


def check_degree(w: PowerSum) -> int:
    """3 hi q for a profile w = 1 + sum c_i r^(e_i) with 0 < e_i <= hi,
    hi >= 4/3 (both search families), and q the lcm of the e_i's
    denominators: three times w's own cleared degree, read from its
    integer form (hi q is its largest exponent numerator) without
    building a polynomial.

    Every power sum that check_candidate certifies has exponents in
    (1/q)Z, within [0, 3 hi] or, for the sub-solution check, within
    [min(0, 3 lo - 4), 3 hi - 4], lo = min e_i.  So in units of 1/q its
    span (its cleared degree) and its largest exponent are at most 3 hi q.
    """
    return 3 * w.integer_form[2][-1][1]


@dataclass
class CandidateReport:
    """Per-candidate outcome of the sub-solution search."""

    params: dict
    boundary_exact: bool
    checks: dict[str, Certificate]
    passed: bool
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "params": {k: format_rational(Fraction(v)) for k, v in self.params.items()},
            "boundary_exact": self.boundary_exact,
            "checks": {k: c.to_json_dict() for k, c in self.checks.items()},
            "passed": self.passed,
            "notes": self.notes,
        }


def _clamped(w: PowerSum) -> bool:
    """Whether w(1) = w'(1) = 0 exactly."""
    return w.evaluate_exact(1) == 0 and w.derivative().evaluate_exact(1) == 0


def _profile_checks(w: PowerSum, n: int, lam: Fraction,
                    names: tuple[str, ...]) -> dict[str, Certificate]:
    """The certificates of the named power-sum checks of profile w in
    dimension n at voltage lam, in the order of names; (1-w)^2 is built
    only for subsolution or semistable.

    range-lower: w >= 0; range-upper: 1 - w >= 0; subsolution:
    bilap(w) <= lam/(1-w)^2, cleared to lam - bilap(w)(1-w)^2 >= 0;
    semistable: the semi-stability sufficient condition
    2 lam/(1-w)^3 <= H_N/r^4, cleared to H_N (1-w)^3 - 2 lam r^4 >= 0.
    """
    one_minus_w = PowerSum.constant(1) - w
    square = one_minus_w * one_minus_w if {"subsolution", "semistable"} & set(names) else None
    claims = {
        "range-lower": lambda: (w, "w >= 0"),
        "range-upper": lambda: (one_minus_w, "1 - w >= 0"),
        "subsolution": lambda: (
            PowerSum.constant(lam) - apply_bilaplacian(w, n) * square,
            "lam - bilap(w)(1-w)^2 >= 0",
        ),
        "semistable": lambda: (
            PowerSum.constant(hardy_rellich(n)) * square * one_minus_w
            - PowerSum.of((2 * lam, 4)),
            "H_N (1-w)^3 - 2 lam r^4 >= 0",
        ),
    }
    return {name: power_sum_nonneg(*claims[name]()) for name in names}


def check_candidate(
    w: PowerSum, n: int, lam: Fraction, params: dict
) -> CandidateReport:
    """Run the feasibility checks on one candidate profile: (i) exact
    clamped boundary values; (ii) w(0) = 1; and _profile_checks' four
    power-sum checks, 0 <= w <= 1, the sub-solution inequality and the
    semi-stability sufficient condition.
    """
    notes: list[str] = []
    boundary_exact = _clamped(w)
    if not boundary_exact:
        notes.append("boundary values are not exactly clamped")
    singular_at_origin = w.evaluate_exact(0) == 1
    if not singular_at_origin:
        notes.append("profile does not touch the contact plane at the origin")
    names = ("range-lower", "range-upper", "subsolution", "semistable")
    checks = _profile_checks(w, n, lam, names)
    passed = (
        boundary_exact
        and singular_at_origin
        and all(c.status == VERIFIED for c in checks.values())
    )
    return CandidateReport(params, boundary_exact, checks, passed, notes)


def search_setup(n: int, family: str, lam: Fraction | None = None) -> tuple[Fraction, list[str]]:
    """The voltage of a search in dimension n (lam, default H_N/2) and
    the notes its report carries."""
    notes = []
    if not 9 <= n <= 16:
        notes.append(
            "dimension outside the open range 9..16; results are a sanity check"
        )
    if family == "perturbed-touchdown":
        notes.append(
            "perturbation coefficient is 4/(3 beta), the unique scaling that "
            "clamps the profile exactly for every (alpha, beta)"
        )
    return hardy_rellich(n) / 2 if lam is None else Fraction(lam), notes


def search_candidates(
    n: int, family: str, param_grid: Iterable, lam: Fraction
) -> Iterator[CandidateReport]:
    """Check each candidate of param_grid at voltage lam and yield its
    report, in grid order, so a caller can write and release one report
    before the next is built.  A check above MAX_CHECK_DEGREE raises
    ValueError."""
    for params in param_grid:
        pd, w = candidate_profile(family, params)
        report = check_candidate(w, n, lam, pd)
        if family == "touchdown-m" and pd["m"] not in (2, 3):
            report.notes.append("parameter outside the certified range m in {2, 3}")
        yield report

