"""Exact-arithmetic certificates for the closed-form inequality claims.

Every claim is reduced to sign questions about polynomials with rational
coefficients on (0, 1) (substituting t = r^(1/q) to clear fractional
exponents), then settled by Sturm-sequence root isolation and exact sign
evaluation.  A Certificate carries its claim and the full evaluation
trail; "falsified" always comes with an exact rational witness.  Replay
rebuilds the certificate from its claim with this same engine and
accepts it only if the whole certificate comes out identical, so it
catches an edited file, not an engine bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from mems4.closed_forms import (
    PowerSum,
    apply_bilaplacian,
    format_rational,
    hardy_rellich,
    rational_to_decimal,
    singular_voltage,
    touchdown_profile,
    touchdown_shape,
)
from mems4.polys import RationalPolynomial, from_power_shifts, integer_coeffs

VERIFIED = "verified"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

DEGREE_CAP = 64
FALLBACK_SAMPLES = 10**4
# Largest dimension of a claim or a threshold range: a range is certified
# one dimension at a time, so the cap bounds the work a claim can ask for.
MAX_DIMENSION = 64
# Smallest dimension of each claim that has one: the m = 2 reduction
# divides by 3*lb, positive only for N >= 3, and the m = 3 stability step
# uses the Hardy-Rellich bound, N >= 5.
DIMENSION_FLOORS = {"m2-subsolution": 3, "m3-stability": 5}


class DegreeCapExceeded(ValueError):
    """Raised when a reduction produces a polynomial beyond the engine cap."""


@dataclass
class Certificate:
    """Outcome of one rigorous sign verification.

    status is one of "verified", "falsified", "inconclusive".  A falsified
    certificate carries an exact rational witness at which the claim fails;
    re-evaluating the claim there reproduces the violation exactly.
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
            "witness_decimal": None
            if self.witness is None
            else rational_to_decimal(self.witness),
            "trail": self.trail,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Certificate":
        w = d.get("witness")
        return Certificate(
            claim=d["claim"],
            status=d["status"],
            witness=None if w is None else Fraction(w),
            trail=list(d["trail"]),
        )


def _poly_strings(p: RationalPolynomial) -> list[str]:
    return [format_rational(c) for c in p.coeffs]


def _poly_from_strings(ss: Sequence[str]) -> RationalPolynomial:
    return RationalPolynomial(tuple(Fraction(s) for s in ss))


def check_dimensions(name: str, n_min: int, n_max: int) -> None:
    """Raise ValueError unless floor <= n_min <= n_max <= MAX_DIMENSION,
    where floor is claim ``name``'s entry in DIMENSION_FLOORS (else 1)."""
    floor = DIMENSION_FLOORS.get(name, 1)
    if not floor <= n_min <= n_max <= MAX_DIMENSION:
        raise ValueError(f"need {floor} <= nmin <= nmax <= {MAX_DIMENSION} for {name}")


def certify_nonneg(p: RationalPolynomial, claim: dict | None = None) -> Certificate:
    """Certify p >= 0 on the open interval (0, 1).

    Exact procedure: isolate every distinct interior root by Sturm
    bisection, then determine the sign of p at each isolating-interval
    edge and each gap midpoint by exact evaluation; this covers the whole
    open interval.  Polynomials beyond degree 64 are rejected
    (DegreeCapExceeded).  ``claim`` adds keys to the claim record; it
    cannot change the kind, the polynomial or the interval.
    """
    a, b = Fraction(0), Fraction(1)
    if p.degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {p.degree} exceeds cap {DEGREE_CAP}")
    base_claim = {
        **(claim or {}),
        "kind": "polynomial-nonneg",
        "polynomial": _poly_strings(p),
        "interval": [format_rational(a), format_rational(b)],
        "closed": False,
    }
    trail: list[dict] = [
        {"step": "input", "degree": p.degree, "closed": False}
    ]

    if p.is_zero():
        trail.append({"step": "conclusion", "note": "zero polynomial"})
        return Certificate(base_claim, VERIFIED, None, trail)

    # Recorded in the trail; an open interval puts no condition on them.
    for pt in (a, b):
        trail.append(
            {"step": "endpoint-value", "point": format_rational(pt), "value": format_rational(p(pt))}
        )

    # Every distinct interior root lands in exactly one isolating interval
    # whose edges are interior non-roots; the sign of p is constant on the
    # complementary gaps and on either side of each isolated root.
    ivs = p.isolate_roots(a, b)
    trail.append({"step": "interior-root-count", "count": len(ivs)})

    def sign_point(x: Fraction, where: str) -> Certificate | None:
        v = p(x)
        trail.append(
            {
                "step": "sign-evaluation",
                "where": where,
                "point": format_rational(x),
                "value": format_rational(v),
            }
        )
        if v < 0:
            trail.append({"step": "conclusion", "status": FALSIFIED})
            return Certificate(base_claim, FALSIFIED, x, trail)
        return None

    for lo, hi in ivs:
        for x in (lo, hi):
            bad = sign_point(x, "isolating-interval-edge")
            if bad:
                return bad
    gap_edges = [a] + [x for iv in ivs for x in iv] + [b]
    for u, v in zip(gap_edges[::2], gap_edges[1::2]):
        if u >= v:
            continue
        bad = sign_point((u + v) / 2, "gap-midpoint")
        if bad:
            return bad
    trail.append({"step": "conclusion", "status": VERIFIED})
    return Certificate(base_claim, VERIFIED, None, trail)


def replay_certificate(cert: Certificate) -> bool:
    """Rebuild the certificate that ``cert.claim`` describes and accept
    ``cert`` only if status, witness, claim and trail all match it.

    A claim of an unknown kind, or one whose rebuild raises (a malformed
    field, a dimension outside its claim's range, a degree beyond the
    cap), does not replay.
    """
    try:
        fresh = _recompute(cert.claim)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return False
    return fresh is not None and fresh.to_json_dict() == cert.to_json_dict()


def _recompute(claim: dict) -> Certificate | None:
    if claim.get("kind") == "threshold-pattern":
        return certify_thresholds(*claim["range"])
    if claim.get("name") in CLAIMS:
        return CLAIMS[claim["name"]](claim["dimension"])
    if claim.get("kind") == "power-sum-nonneg":
        terms = [(Fraction(c), Fraction(e)) for c, e in claim["terms"]]
        return power_sum_nonneg(PowerSum.of(*terms), claim["label"])
    if claim.get("kind") == "polynomial-nonneg":
        return certify_nonneg(_poly_from_strings(claim["polynomial"]), claim)
    return None


# ---------------------------------------------------------------------------
# Power-sum reduction: clear fractional exponents with t = r^(1/q).
# ---------------------------------------------------------------------------


def reduce_power_sum(ps: PowerSum) -> tuple[RationalPolynomial, Fraction, int]:
    """Rewrite a rational power sum as t-polynomial with t = r^(1/q).

    Multiplies by the positive factor r^(-e_min) first, so the sign of the
    power sum on (0,1) equals the sign of the returned polynomial on (0,1).
    Returns (polynomial, shift exponent e_min, substitution order q).
    """
    if ps.is_zero():
        return RationalPolynomial(()), Fraction(0), 1
    e_min = ps.min_exponent()
    q = 1
    for t in ps.terms:
        q = lcm(q, (t.exponent - e_min).denominator)
        q = lcm(q, t.exponent.denominator)
    pairs = [(t.coeff, int((t.exponent - e_min) * q)) for t in ps.terms]
    return from_power_shifts(pairs), e_min, q


def _power_sum_claim(ps: PowerSum, label: str) -> dict:
    return {
        "kind": "power-sum-nonneg",
        "label": label,
        "terms": [
            [format_rational(t.coeff), format_rational(t.exponent)] for t in ps.terms
        ],
        "domain": "(0,1)",
    }


def power_sum_nonneg(ps: PowerSum, label: str = "") -> Certificate:
    """Certify that a rational power sum is >= 0 on (0, 1).

    Falls back to dense exact sampling (graded inconclusive, never
    verified) when the cleared polynomial exceeds the degree cap.
    """
    claim = _power_sum_claim(ps, label)
    if ps.is_zero():
        return Certificate(claim, VERIFIED, None, [{"step": "conclusion", "note": "zero power sum"}])
    poly, e_min, q = reduce_power_sum(ps)
    reduction_step = {
        "step": "power-substitution",
        "multiplier_exponent": format_rational(-e_min),
        "substitution_order": q,
        "polynomial": _poly_strings(poly),
    }
    try:
        inner = certify_nonneg(poly)
    except DegreeCapExceeded:
        return _sampling_fallback(ps, poly, q, claim, reduction_step)
    trail = [reduction_step] + inner.trail
    witness = None
    if inner.status == FALSIFIED:
        t0 = inner.witness
        witness = t0**q
        check = ps.evaluate_exact(witness)
        trail.append(
            {
                "step": "witness-confirmation",
                "radius": format_rational(witness),
                "value": format_rational(check),
            }
        )
        if not check < 0:
            raise ArithmeticError("witness does not confirm the violation")
    return Certificate(claim, inner.status, witness, trail)


def _horner_samples(coeffs: Sequence[float]) -> np.ndarray:
    """Float Horner values of the ascending coefficients at the samples
    k/(FALLBACK_SAMPLES + 1), k = 1..FALLBACK_SAMPLES.  numpy takes the
    IEEE steps of a scalar Horner loop: y * x rounded, then y * x + c."""
    den = FALLBACK_SAMPLES + 1
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return np.polyval(np.asarray(coeffs, dtype=float)[::-1], np.arange(1, den) / den)


def _screen_pick(coeffs: Sequence[float]) -> int | None:
    """Cheap float screen that steers witness confirmation: the k of the
    first sample where the Horner value is least, if it is negative, else
    None.  A NaN sample never compares below the running minimum, so it
    is never picked."""
    vals = _horner_samples(coeffs)
    vals[np.isnan(vals)] = 0.0
    return int(vals.argmin()) + 1 if vals.min() < 0 else None


def _certified_positive(coeffs: Sequence[float]) -> list[bool]:
    """For each sample x = k/(FALLBACK_SAMPLES + 1), whether a float
    filter proves p(x) > 0, where p = sum c_i x^i has degree d and
    ``coeffs`` are its coefficients rounded to nearest: relative error at
    most u for |c_i| >= 2^-1022, absolute error at most eta for a c_i that
    rounds into or below the subnormal range (to 0 included); the proof
    covers both.  Let P and Q be the float Horner values of p and of
    S(x) = sum |c_i| x^i at fl(x), and u = 2^-53.  The sample is certified when P is finite, Q >= 2^-1022
    and P > T = fl((8d + 16) u Q).  A NaN or infinite P never is.

    Proof (round to nearest; gamma_n = n u / (1 - n u); eta = 2^-1075,
    the largest absolute error of a rounding into the subnormal range):
    * Inputs.  fl(x) is correctly rounded and normal, and
      fl(c_i) = c_i (1 + s_i) + e'_i with |s_i| <= u, |e'_i| <= eta, so
      fl(c_i) fl(x)^i = c_i x^i (1 + t_i) + e_i with |t_i| <= gamma_(i+1)
      and |e_i| <= |e'_i| <= eta (fl(x) < 1).
    * Horner.  Its d products and d sums give each term a factor
      (1 + t'_i), |t'_i| <= gamma_2d, and add at most d eta from
      underflowed products (every later step multiplies by fl(x) < 1, and
      a sum that underflows is exact).  With A = (2d + 2) eta,
      |P - p(x)| <= gamma_(3d+1) S + A  and  Q >= (1 - gamma_(3d+1)) S - A.
    * Bound.  (8d + 16) u is exact, so T >= (8d + 16) u Q (1 - u) - eta.
      Eliminating S, p(x) >= P - g (Q + A) - A with
      g = gamma_(3d+1) / (1 - gamma_(3d+1)) < 1.01 (3d + 1) u for
      d < 2^40.  So P > T gives p(x) > (4.9d + 14) u Q - (2d + 4) eta,
      which is positive because u Q >= eta when Q >= 2^-1022.
    """
    d = len(coeffs) - 1
    vals = _horner_samples(coeffs)
    mags = _horner_samples(np.abs(coeffs))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        bound = (8 * d + 16) * 2.0**-53 * mags
        positive = np.isfinite(vals) & (mags >= np.finfo(float).tiny) & (vals > bound)
    return positive.tolist()


def _sampling_fallback(
    ps: PowerSum,
    poly: RationalPolynomial,
    q: int,
    claim: dict,
    reduction_step: dict,
) -> Certificate:
    trail = [dict(reduction_step, note="degree cap exceeded; exact sampling fallback")]
    try:
        fcoeffs = [float(c) for c in poly.coeffs]
    except OverflowError:
        # The float screens read p / 2^k instead, which has p's signs:
        # every |c_i| / 2^k < 2^1001.
        top = max(abs(c) for c in poly.coeffs)
        k = top.numerator.bit_length() - top.denominator.bit_length() - 1000
        fcoeffs = [float(c / 2**k) for c in poly.coeffs]
    best_t = _screen_pick(fcoeffs)
    positive = _certified_positive(fcoeffs)
    # The float screen's pick first, then every sample in order that the
    # screen does not certify positive, each tested by the sign of
    # sum c_i k^i den^(d-i), the denominator-cleared polynomial at k/den
    # times den^d.  A certified sample cannot be a witness, so skipping it
    # changes neither the witness nor the status.
    den = FALLBACK_SAMPLES + 1
    cs = integer_coeffs(poly)
    d = len(cs) - 1
    scaled = [c * den ** (d - i) for i, c in enumerate(cs)][::-1]
    for k in sorted(range(1, den), key=lambda k: k != best_t):
        if positive[k - 1]:
            continue
        acc = 0
        for c in scaled:
            acc = acc * k + c
        if acc < 0:
            t0 = Fraction(k, den)
            witness = t0**q
            trail.append(
                {
                    "step": "witness-confirmation",
                    "radius": format_rational(witness),
                    "value": format_rational(ps.evaluate_exact(witness)),
                }
            )
            trail.append({"step": "conclusion", "status": FALSIFIED})
            return Certificate(claim, FALSIFIED, witness, trail)
    trail.append(
        {
            "step": "exact-sampling",
            "points": FALLBACK_SAMPLES,
            "note": "no violation found; sampling cannot verify",
        }
    )
    trail.append({"step": "conclusion", "status": INCONCLUSIVE})
    return Certificate(claim, INCONCLUSIVE, None, trail)


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
    return RationalPolynomial((A - 81 * B, 72 * B - 81 * C, 72 * C - 16 * B, -16 * C))


def certify_m3_gap(n: int) -> Certificate:
    """Certify the sub-solution gap of the m = 3 profile at voltage H_N/2:
    P_N(s) >= 0 on (0,1) in exact arithmetic."""
    check_dimensions("m3-gap", n, n)
    p = stability_gap_polynomial(n)
    cert = certify_nonneg(
        p,
        claim={
            "name": "m3-gap",
            "dimension": n,
            "description": (
                "sub-solution gap polynomial of the m=3 touchdown profile at "
                "voltage H_N/2, in s = r^(5/3); nonnegativity on (0,1) makes "
                "the profile a singular semi-stable sub-solution"
            ),
        },
    )
    return cert


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
    true; those rows are recorded but excluded from the pattern.
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
    trail = []
    witness = None
    status = VERIFIED
    for row in rows:
        trail.append(
            {
                "step": "compare",
                "dimension": row.dimension,
                "double_voltage": format_rational(2 * row.singular_voltage),
                "hardy": format_rational(row.hardy),
                "voltage27": format_rational(27 * row.singular_voltage),
                "half_hardy": format_rational(row.hardy / 2),
                "double_voltage_le_hardy": row.double_voltage_le_hardy,
                "voltage27_le_half_hardy": row.voltage27_le_half_hardy,
                "voltage_positive": row.voltage_positive,
            }
        )
        if not row.voltage_positive:
            continue
        ok = row.double_voltage_le_hardy == (
            row.dimension >= pattern["double_voltage_le_hardy_from"]
        ) and row.voltage27_le_half_hardy == (
            row.dimension >= pattern["voltage27_le_half_hardy_from"]
        )
        if not ok and status == VERIFIED:
            status = FALSIFIED
            witness = Fraction(row.dimension)
    trail.append({"step": "conclusion", "status": status})
    return Certificate(claim, status, witness, trail)


def _composite(
    name: str, n: int, description: str, parts: list[Certificate], trail: list[dict],
    side_ok: bool = True,
) -> Certificate:
    """A composite claim is falsified if any part (or the side condition)
    fails, verified if every part verifies, else inconclusive; its
    witness is the first falsified part's."""
    statuses = [c.status for c in parts]
    if FALSIFIED in statuses or not side_ok:
        status = FALSIFIED
    elif all(s == VERIFIED for s in statuses):
        status = VERIFIED
    else:
        status = INCONCLUSIVE
    witness = next((c.witness for c in parts if c.status == FALSIFIED), None)
    claim = {
        "kind": "composite",
        "name": name,
        "dimension": n,
        "description": description,
        "components": [c.to_json_dict() for c in parts],
    }
    return Certificate(claim, status, witness, trail)


def certify_m2_subsolution(n: int) -> Certificate:
    """Certify the reduced claims that make the m = 2 profile a singular
    semi-stable sub-solution at voltage 27*lb (for dimensions where
    27*lb <= H_N/2 also holds, see the thresholds certificate):

    * sub-solution inequality, reduced with t = r^(2/3) after dividing by
      the positive factor 3*lb (lb > 0 needs N >= 3): 9 - (3-2t)^2 >= 0;
    * the perturbation 2(r^(4/3) - r^2) is nonnegative, i.e. the profile
      stays below the pure touchdown shape;
    * exact clamped boundary values.

    Raises ValueError below N = 3, where lb < 0 flips the reduction.
    """
    check_dimensions("m2-subsolution", n, n)
    w2 = touchdown_profile(2)
    bilap = apply_bilaplacian(w2, n)
    # Structural identities recorded exactly.
    if bilap != PowerSum.of((3 * singular_voltage(n), Fraction(-8, 3))):
        raise ArithmeticError("bilaplacian of the m = 2 profile is not 3*lb r^(-8/3)")
    sub_poly = RationalPolynomial((0, 12, -4))  # 9 - (3-2t)^2 = 12t - 4t^2
    c_sub = certify_nonneg(
        sub_poly,
        claim={
            "name": "m2-subsolution-reduced",
            "dimension": n,
            "description": "9 - (3-2t)^2 >= 0 with t = r^(2/3)",
        },
    )
    pert_poly = RationalPolynomial((0, 0, 2, -2))  # 2 t^2 (1 - t)
    c_pert = certify_nonneg(
        pert_poly,
        claim={
            "name": "m2-perturbation-nonneg",
            "description": "2(r^(4/3) - r^2) >= 0 with t = r^(2/3)",
        },
    )
    boundary_ok = w2.evaluate_exact(1) == 0 and w2.derivative().evaluate_exact(1) == 0
    trail = [
        {"step": "bilaplacian-identity", "value": "3*lb * r^(-8/3)"},
        {"step": "boundary-values", "value": boundary_ok},
    ]
    description = (
        "m=2 touchdown profile is a singular semi-stable sub-solution at "
        "27x the singular voltage; reduction divides by 3*lb, positive "
        "for N >= 3"
    )
    return _composite("m2-subsolution", n, description, [c_sub, c_pert], trail, boundary_ok)


def certify_m3_stability(n: int) -> Certificate:
    """Certify that sup over (0,1) of 125/(9-4s)^3, s = r^(5/3), equals 1
    (attained only in the limit s -> 1), which is the semi-stability
    reduction for the m = 3 profile; requires N >= 5 for the
    Hardy-Rellich step it feeds (ValueError below)."""
    check_dimensions("m3-stability", n, n)
    # (9-4s)^3 - 125 >= 0 on (0,1); root exactly at s = 1.
    bound_poly = RationalPolynomial((604, -972, 432, -64))
    c_bound = certify_nonneg(
        bound_poly,
        claim={
            "name": "m3-stability-bound",
            "description": "(9-4s)^3 - 125 >= 0 on (0,1)",
        },
    )
    # Monotonicity: d/ds (9-4s)^3 = -12(9-4s)^2 <= 0, so 125/(9-4s)^3 is
    # increasing; certify 12(9-4s)^2 = 972 - 864s + 192s^2 >= 0.
    mono_poly = RationalPolynomial((972, -864, 192))
    c_mono = certify_nonneg(
        mono_poly,
        claim={
            "name": "m3-stability-monotone",
            "description": "12(9-4s)^2 >= 0 on (0,1)",
        },
    )
    trail = [
        {"step": "value-at-0", "value": format_rational(Fraction(125, 729))},
        {"step": "value-at-1", "value": format_rational(Fraction(125, 125))},
    ]
    description = (
        "sup over (0,1) of 125/(9-4s)^3 equals 1; with the optimal "
        "Hardy-Rellich constant this makes the m=3 profile semi-stable "
        "at voltage H_N/2"
    )
    return _composite("m3-stability", n, description, [c_bound, c_mono], trail)


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


@dataclass
class SearchReport:
    """Outcome of a parametrized sub-solution search at fixed voltage."""

    dimension: int
    voltage: Fraction
    family: str
    candidates: list[CandidateReport]
    notes: list[str] = field(default_factory=list)

    @property
    def passing(self) -> list[CandidateReport]:
        return [c for c in self.candidates if c.passed]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "dimension": self.dimension,
            "voltage": format_rational(self.voltage),
            "voltage_decimal": rational_to_decimal(self.voltage),
            "family": self.family,
            "candidates": [c.to_json_dict() for c in self.candidates],
            "passing_count": len(self.passing),
            "notes": self.notes,
        }


def check_candidate(
    w: PowerSum, n: int, lam: Fraction, params: dict
) -> CandidateReport:
    """Run the four feasibility checks on one candidate profile.

    (i) exact clamped boundary values; (ii) 0 <= w <= 1 with w(0) = 1;
    (iii) sub-solution inequality bilap(w) <= lam/(1-w)^2, cleared to
    lam - bilap(w)(1-w)^2 >= 0; (iv) semi-stability sufficient condition
    2 lam/(1-w)^3 <= H_N/r^4, cleared to H_N (1-w)^3 - 2 lam r^4 >= 0.
    """
    notes: list[str] = []
    boundary_exact = (
        w.evaluate_exact(1) == 0 and w.derivative().evaluate_exact(1) == 0
    )
    if not boundary_exact:
        notes.append("boundary values are not exactly clamped")
    one_minus_w = PowerSum.constant(1) - w
    singular_at_origin = w.evaluate_exact(0) == 1
    if not singular_at_origin:
        notes.append("profile does not touch the contact plane at the origin")
    hn = hardy_rellich(n)
    checks = {
        "range-lower": power_sum_nonneg(w, "w >= 0"),
        "range-upper": power_sum_nonneg(one_minus_w, "1 - w >= 0"),
        "subsolution": power_sum_nonneg(
            PowerSum.constant(lam) - apply_bilaplacian(w, n) * one_minus_w * one_minus_w,
            "lam - bilap(w)(1-w)^2 >= 0",
        ),
        "semistable": power_sum_nonneg(
            (one_minus_w * one_minus_w * one_minus_w).scale(hn)
            - PowerSum.of((2 * lam, 4)),
            "H_N (1-w)^3 - 2 lam r^4 >= 0",
        ),
    }
    passed = (
        boundary_exact
        and singular_at_origin
        and all(c.status == VERIFIED for c in checks.values())
    )
    return CandidateReport(params, boundary_exact, checks, passed, notes)


def subsolution_search(
    n: int,
    family: str,
    param_grid: Iterable,
    lam: Fraction | None = None,
) -> SearchReport:
    """Search a parametrized profile family for a singular semi-stable
    sub-solution at voltage lam (default H_N/2).

    family "perturbed-touchdown" expects (alpha, beta) pairs; family
    "touchdown-m" expects profile parameters m.  Candidates whose cleared
    polynomials exceed the engine degree cap are graded inconclusive,
    never skipped.
    """
    if lam is None:
        lam = hardy_rellich(n) / 2
    lam = Fraction(lam)
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
    candidates = []
    for params in param_grid:
        if family == "perturbed-touchdown":
            alpha, beta = (Fraction(x) for x in params)
            w = perturbed_touchdown(alpha, beta)
            pd = {"alpha": alpha, "beta": beta}
        elif family == "touchdown-m":
            m = Fraction(params)
            w = touchdown_profile(m)
            pd = {"m": m}
        else:
            raise ValueError(f"unknown family {family!r}")
        report = check_candidate(w, n, lam, pd)
        if family == "touchdown-m" and m not in (2, 3):
            report.notes.append("parameter outside the certified range m in {2, 3}")
        candidates.append(report)
    return SearchReport(n, lam, family, candidates, notes)
