"""Tests for the exact certification engine and the named claims."""

import json
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mems4.certify as certify_mod
from mems4.certify import (
    MAX_DIMENSION,
    Certificate,
    MAX_CHECK_DEGREE,
    certify_m2_subsolution,
    certify_m3_gap,
    certify_m3_stability,
    certify_nonneg,
    certify_thresholds,
    candidate_profile,
    check_candidate,
    check_degree,
    perturbed_touchdown,
    power_sum_nonneg,
    reduce_power_sum,
    replay_certificate,
    search_candidates,
    search_setup,
    stability_gap_polynomial,
    threshold_table,
)
from mems4.closed_forms import PowerSum, hardy_rellich, singular_voltage, touchdown_profile
from mems4.polys import RationalPolynomial

F = Fraction
S = sympy.Symbol("s")


def P(*coeffs):
    return RationalPolynomial.of(*coeffs)


def _expand(expr):
    """The polynomial expr in S, multiplied out by sympy."""
    cs = sympy.Poly(expr, S).all_coeffs()
    return P(*(F(int(c.p), int(c.q)) for c in reversed(cs)))


# --- gap polynomial -----------------------------------------------------


def test_gap_polynomial_endpoint_values():
    p17 = stability_gap_polynomial(17)
    # Exact rational evaluation of A - 81B and A - 25B - 25C.
    A = F(25 * 17**2 * 13**2, 32)
    B = F(8 * 49 * 43, 45)
    C = F(12 * (17**2 - 1), 5)
    assert p17(F(0)) == A - 81 * B == F(1250597, 160)
    assert p17(F(1)) == A - 25 * B - 25 * C == F(3315625, 288)
    assert float(p17(F(0))) == pytest.approx(7816.23, abs=0.01)
    assert float(p17(F(1))) == pytest.approx(11512.58, abs=0.01)


def test_gap_polynomial_matches_sympy_expansion():
    # The hand-expanded coefficients equal sympy's expansion of
    # A - B(9-4s)^2 - C s (9-4s)^2 in every dimension a claim accepts.
    for n in range(1, MAX_DIMENSION + 1):
        A = sympy.Rational(25 * n**2 * (n - 4) ** 2, 32)
        B = sympy.Rational(8 * (3 * n - 2) * (3 * n - 8), 45)
        C = sympy.Rational(12 * (n**2 - 1), 5)
        expected = _expand(A - B * (9 - 4 * S) ** 2 - C * S * (9 - 4 * S) ** 2)
        assert stability_gap_polynomial(n) == expected


def test_gap_polynomial_negative_in_low_dimension():
    # N=4: A = 0, so P(0) = -81B < 0; the claim correctly fails there.
    p4 = stability_gap_polynomial(4)
    assert p4(F(0)) < 0


def test_gap_polynomial_matches_pointwise_expression():
    # Independent oracle: float evaluation of the original radial gap
    # 25 N^2(N-4)^2/(32 (9 r^(4/3) - 4 r^3)^2) - 8(N-2/3)(N-8/3)/(5 r^(8/3))
    # - (12/5)(N^2-1)/r, multiplied by the clearing factor
    # r^(8/3) (9 - 4 r^(5/3))^2.
    n = 23
    p = stability_gap_polynomial(n)
    for k in range(1, 10):
        r = k / 10.0
        s = r ** (5.0 / 3.0)
        gap = (
            25 * n**2 * (n - 4) ** 2 / (32 * (9 * r ** (4 / 3) - 4 * r**3) ** 2)
            - 8 * (n - 2 / 3) * (n - 8 / 3) / (5 * r ** (8 / 3))
            - (12 / 5) * (n**2 - 1) / r
        )
        cleared = gap * r ** (8 / 3) * (9 - 4 * s) ** 2
        assert float(p(F(s).limit_denominator(10**12))) == pytest.approx(
            cleared, rel=1e-6
        )


@pytest.mark.parametrize("n", range(17, 31))
def test_gap_verified_in_certified_range(n):
    cert = certify_m3_gap(n)
    assert cert.status == "verified"


def test_gap_falsified_at_n4():
    cert = certify_m3_gap(4)
    assert cert.status == "falsified"
    assert cert.witness is not None
    assert stability_gap_polynomial(4)(cert.witness) < 0


# --- generic nonnegativity engine ----------------------------------------


def test_nonneg_square():
    cert = certify_nonneg(P(0, 0, 1))  # s^2
    assert cert.status == "verified"


def test_nonneg_falsified_with_witness():
    cert = certify_nonneg(P(F(-1, 2), 1))  # s - 1/2
    assert cert.status == "falsified"
    assert 0 < cert.witness < F(1, 2)
    assert cert.witness.denominator <= 16


def test_nonneg_zero_polynomial():
    cert = certify_nonneg(P())
    assert cert.status == "verified"
    assert cert.trail == []


def test_zero_power_sum_is_verified_with_an_empty_trail():
    cert = power_sum_nonneg(PowerSum.of())
    assert cert.status == "verified" and cert.witness is None
    assert cert.trail == []
    assert replay_certificate(_round_trip(cert))


def test_nonneg_touching_zero_inside():
    # (2s-1)^2 touches zero at s=1/2 but never goes negative.
    cert = certify_nonneg(P(1, -4, 4))
    assert cert.status == "verified"


def test_nonneg_root_at_endpoint():
    # s(1-s) vanishes at both endpoints, positive inside.
    cert = certify_nonneg(P(0, 1, -1))
    assert cert.status == "verified"


def test_nonneg_sign_change_multiple_roots():
    # (s-1/4)(s-1/2)(s-3/4) is negative on (0,1/4) and (1/2,3/4).
    p = P(F(-3, 32), F(11, 16), F(-3, 2), 1)
    cert = certify_nonneg(p)
    assert cert.status == "falsified"
    assert p(cert.witness) < 0


def _sympy_nonneg(p: RationalPolynomial) -> bool:
    """sympy's verdict on p >= 0 over the open (0, 1): its sign at the
    midpoint of each gap between sympy's distinct real roots there."""
    den, cs = p.integer_form
    sp = sympy.Poly([sympy.Rational(c, den) for c in reversed(cs)] or [0], S)
    if sp.is_zero:
        return True
    cuts = sorted({0, 1, *(r for r in sp.real_roots() if 0 < r < 1)})
    return all(sp.eval((u + v) / 2) >= 0 for u, v in zip(cuts, cuts[1:]))


_LINEAR_ROOTS = st.one_of(
    st.sampled_from([F(0), F(1), *certify_mod.PROBES]),
    st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=12),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_LINEAR_ROOTS, st.integers(1, 3)), max_size=5),
    st.sampled_from([F(1), F(-2, 3)]),
    st.sampled_from([0, 64]),
)
@example(roots=[(F(0), 1), (F(1), 2), (F(7, 8), 1), (F(11, 12), 1)], lead=F(1), lift=0)
@example(roots=[(F(1, 2), 2), (F(1, 4), 1)], lead=F(-2, 3), lift=0)
@example(roots=[(F(1, 3), 2), (F(7, 8), 1), (F(11, 12), 1)], lead=F(1), lift=64)
@example(roots=[(F(1, 3), 2), (F(1, 2), 3), (F(5, 6), 2)], lead=F(1), lift=64)
def test_nonneg_status_matches_sympy(roots, lead, lift):
    # Products of (s - r)^k, repeated roots and roots at 0, 1 and the
    # probes included, times (1 + s)^lift, positive on (0, 1): lift 64
    # takes every nonconstant product past STURM_DEGREE, to the Bernstein
    # test and, for a repeated root off the dyadics, on to Sturm
    # isolation.  The status is sympy's verdict, and every witness is a
    # point where p is negative.
    p = _expand(lead * (1 + S) ** lift
                * sympy.Mul(*((S - sympy.Rational(r.numerator, r.denominator)) ** k
                              for r, k in roots)))
    cert = certify_nonneg(p)
    assert cert.status == ("verified" if _sympy_nonneg(p) else "falsified")
    if cert.witness is not None:
        assert 0 < cert.witness < 1 and p(cert.witness) < 0


def test_negative_probe_falsifies_without_isolation():
    # s - 1/2 is zero at the first probe and negative at the second: the
    # trail holds one probe evaluation and no root count, and the Sturm
    # chain is never built.
    p = P(F(-1, 2), 1)
    cert = certify_nonneg(p)
    assert cert.status == "falsified" and cert.witness == F(1, 4)
    assert [t["step"] for t in cert.trail] == ["sign-evaluation"]
    assert cert.trail[0] == {"step": "sign-evaluation", "where": "probe",
                             "point": "1/4", "value": "-1/4"}
    assert "_remainders" not in p.__dict__


def test_negative_set_between_probes_falsifies_through_isolation():
    # (s - 7/8)(s - 15/16) is negative only on (7/8, 15/16), near 0.9,
    # where no probe lies: isolation finds the witness.
    p = _expand((S - sympy.Rational(7, 8)) * (S - sympy.Rational(15, 16)))
    cert = certify_nonneg(p)
    assert cert.status == "falsified"
    assert F(7, 8) < cert.witness < F(15, 16) and p(cert.witness) < 0
    steps = [t["step"] for t in cert.trail]
    assert {"step": "interior-root-count", "count": 2} in cert.trail
    assert all(t.get("where") != "probe" for t in cert.trail)
    assert steps[0] == "interior-root-count"


def test_probe_witness_replays_and_an_edited_one_does_not():
    for cert in (certify_nonneg(P(F(-1, 2), 1)), certify_m3_gap(4)):
        assert any(t.get("where") == "probe" for t in cert.trail)
        d = json.loads(json.dumps(cert.to_json_dict()))
        assert replay_certificate(d) and replay_certificate(Certificate.from_json_dict(d))
        d["witness"] = "1/8"
        assert not replay_certificate(d)


def test_probe_witness_stays_within_the_digit_limit():
    # At a voltage with 309 digits, the semi-stability check of this
    # candidate (check degree 345) once took its witness from a deep
    # bisection, and its confirmation value passed Python's 4300-digit
    # limit for integer text.  A probe witness keeps r = (1/2)^q small.
    pd, w = candidate_profile("perturbed-touchdown", (F(17, 13), F(1, 6)))
    report = check_candidate(w, 17, F("1.7976931348623157e308"), pd)
    semistable = report.checks["semistable"]
    assert semistable.status == "falsified"
    assert any(t.get("where") == "probe" for t in semistable.trail)
    json.dumps(report.to_json_dict())


def test_degree_cap():
    # certify_nonneg accepts degree MAX_CHECK_DEGREE and raises above it,
    # so a crafted claim one degree higher fails replay instead of running.
    top = P(*[0] * MAX_CHECK_DEGREE, 1)
    cert = certify_nonneg(top)
    assert cert.status == "verified"
    with pytest.raises(ValueError, match="exceeds"):
        certify_nonneg(P(*[0] * (MAX_CHECK_DEGREE + 1), 1))
    crafted = json.loads(json.dumps(cert.to_json_dict()))
    crafted["claim"]["polynomial"] = ["0/1"] * (MAX_CHECK_DEGREE + 1) + ["1/1"]
    assert not replay_certificate(crafted)


def test_nonneg_at_degree_cap_with_many_touching_roots():
    # product of 32 squared linear factors: degree 64, touches zero at 32
    # interior points, never negative.
    factors = [(S - sympy.Rational(k, 33)) ** 2 for k in range(1, 33)]
    p = _expand(sympy.Mul(*factors))
    assert p.degree == 64
    cert = certify_nonneg(p)
    assert cert.status == "verified"
    # The 32 double roots' intervals have 33 distinct edges, each evaluated
    # once, which decide every gap: no gap midpoint is evaluated.
    wheres = [t.get("where") for t in cert.trail]
    assert wheres.count("isolating-interval-edge") == 33 and "gap-midpoint" not in wheres
    assert len({t["point"] for t in cert.trail if "point" in t}) == 33
    assert replay_certificate(_round_trip(cert))
    # flipping one factor to odd multiplicity produces a witness
    q = _expand(sympy.Mul(*factors[:-1], S - sympy.Rational(32, 33)))
    cert2 = certify_nonneg(q)
    assert cert2.status == "falsified"
    assert q(cert2.witness) < 0
    assert replay_certificate(cert2)


def test_nonneg_past_sturm_degree_with_many_touching_roots():
    # 33 squared linear factors: degree 66, past STURM_DEGREE.  Each double
    # root k/34 but 1/2 lies off the dyadics and keeps two sign variations
    # in every piece that holds it, so the Bernstein test hands the
    # polynomial to Sturm isolation, which verifies it; one factor of odd
    # multiplicity falsifies it there.
    factors = [(S - sympy.Rational(k, 34)) ** 2 for k in range(1, 34)]
    p = _expand(sympy.Mul(*factors))
    assert p.degree == 66 > certify_mod.STURM_DEGREE
    cert = certify_nonneg(p)
    assert cert.status == "verified"
    assert {"step": "interior-root-count", "count": 33} in cert.trail
    q = _expand(sympy.Mul(*factors[:-1], S - sympy.Rational(33, 34)))
    cert2 = certify_nonneg(q)
    assert cert2.status == "falsified" and q(cert2.witness) < 0
    assert replay_certificate(cert2)


def test_repeated_root_hands_off_to_sturm():
    # (s - 1/3)^2 (1 + s)^90 never gets below two variations on the piece
    # around 1/3; past polys.BERNSTEIN_DEPTH halvings Sturm isolation decides.
    p = _expand((S - sympy.Rational(1, 3)) ** 2 * (1 + S) ** 90)
    cert = certify_nonneg(p)
    assert cert.status == "verified"
    steps = [t["step"] for t in cert.trail]
    assert "bernstein" not in steps and "interior-root-count" in steps


def test_bernstein_trail_verifies_and_falsifies():
    # (1 + s)^70 has no root in (0, 1): one piece.  Times
    # (s - 5/8)(s - 11/16) it is negative on (5/8, 11/16) only, which no
    # probe reaches; 21/32 is the fewest-bit dyadic there.
    lift = (1 + S) ** 70
    cert = certify_nonneg(_expand(lift))
    assert cert.status == "verified"
    assert {"step": "bernstein", "pieces": [["0/1", "1/1"]]} in cert.trail
    p = _expand(lift * (S - sympy.Rational(5, 8)) * (S - sympy.Rational(11, 16)))
    cert = certify_nonneg(p)
    assert cert.status == "falsified" and cert.witness == F(21, 32) and p(cert.witness) < 0
    assert cert.trail[-1]["where"] == "bernstein"
    assert replay_certificate(_round_trip(cert))


@settings(max_examples=30)
@given(st.fractions(min_value=F(1, 100), max_value=F(100), max_denominator=100))
def test_rescaling_invariance(c):
    p = stability_gap_polynomial(12)
    den, cs = p.integer_form
    scaled = RationalPolynomial((den * c.denominator, [c.numerator * a for a in cs]))
    assert certify_nonneg(p).status == certify_nonneg(scaled).status


def test_replay_verified_and_falsified():
    for cert in (certify_m3_gap(20), certify_m3_gap(4), certify_nonneg(P(0, 1, -1))):
        assert replay_certificate(cert)
    # Round trip through JSON preserves replayability.
    d = json.loads(json.dumps(certify_m3_gap(4).to_json_dict()))
    assert replay_certificate(d) and replay_certificate(Certificate.from_json_dict(d))
    # Tampered status must fail replay.
    d["status"] = "verified"
    assert not replay_certificate(d)
    # A composite's status must follow from its replayed components.
    for composite in (certify_m2_subsolution(31), certify_m3_stability(6)):
        d = json.loads(json.dumps(composite.to_json_dict()))
        assert replay_certificate(d) and replay_certificate(Certificate.from_json_dict(d))
        for status in ("falsified", "inconclusive"):
            assert not replay_certificate({**d, "status": status})
    # The engine certifies only the open (0, 1); other domains do not replay.
    for edit in ({"interval": ["0/1", "2/1"]}, {"closed": True}):
        d = json.loads(json.dumps(certify_nonneg(P(0, 1, -1)).to_json_dict()))
        d["claim"].update(edit)
        assert not replay_certificate(d)


def _search(n, family, grid, lam=None):
    """The voltage of a search (default H_N/2), its candidate reports and
    its notes."""
    lam, notes = search_setup(n, family, lam)
    return lam, list(search_candidates(n, family, grid, lam)), notes


def _round_trip(cert: Certificate) -> Certificate:
    return Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))


def test_replay_accepts_every_kind_after_json_round_trip():
    # m = 11/2's checks pass STURM_DEGREE: the Bernstein test decides them.
    _, candidates, _ = _search(17, "touchdown-m", [F(3), F(11, 2)])
    power_sums = [c for cand in candidates for c in cand.checks.values()]
    assert any(t["step"] == "bernstein" for c in power_sums for t in c.trail)
    certs = power_sums + [
        certify_thresholds(1, 64),
        certify_m3_gap(20),
        certify_m3_gap(4),
        certify_m2_subsolution(3),
        certify_m3_stability(5),
        certify_nonneg(P(F(-1, 2), 1)),
        certify_nonneg(P()),
    ]
    for cert in certs:
        d = json.loads(json.dumps(cert.to_json_dict()))
        assert replay_certificate(d), cert.claim
        assert replay_certificate(Certificate.from_json_dict(d)), cert.claim
        # A trail is evidence: the status alone is the verdict, also in
        # the components of a composite claim.
        trails = [d["trail"]] + [c["trail"] for c in d["claim"].get("components", [])]
        assert all(t["step"] != "conclusion" for trail in trails for t in trail), cert.claim
        # Nor does it hold what its claim fixes, and it evaluates a point once.
        assert not {t["step"] for trail in trails for t in trail} & REMOVED_STEPS, cert.claim
        for trail in trails:
            points = [t["point"] for t in trail if "point" in t]
            assert len(points) == len(set(points)), cert.claim


# Steps that restated a claim, a verdict or a literal no engine computed.
REMOVED_STEPS = {"input", "power-substitution", "value-at-0", "value-at-1",
                 "bilaplacian-identity", "boundary-values"}


def _range_upper() -> Certificate:
    """The power-sum certificate of 1 - w >= 0 for the m = 3 profile."""
    return _search(17, "touchdown-m", [F(3)])[1][0].checks["range-upper"]


def _set_step(step: str, key: str, value, which: int = 0):
    def edit(d):
        entries = [e for e in d["trail"] if e["step"] == step]
        entries[which][key] = value
    return edit


def _set_claim(key: str, value):
    def edit(d):
        d["claim"][key] = value
    return edit


def _unname_as(dimension: int):
    def edit(d):
        del d["claim"]["name"]
        d["claim"]["dimension"] = dimension
    return edit


def _set_pattern_onset(d):
    d["claim"]["pattern"]["double_voltage_le_hardy_from"] = 3


def _set_component_status(d, which: int = 0):
    d["claim"]["components"][which]["status"] = "falsified"


def _set_component_step(step: str, key: str, value, which: int = 0):
    # An edit of a step in the trail of a composite's component.
    def edit(d):
        _set_step(step, key, value)(d["claim"]["components"][which])
    return edit


def _set_field(key: str, value):
    def edit(d):
        d[key] = value
    return edit


# The certificates under edit, and each edit: it keeps the certificate
# well formed, and a rebuild from the claim differs from it somewhere.
ORIGINALS = {
    "m3-gap": lambda: certify_m3_gap(17),
    "m3-gap-4": lambda: certify_m3_gap(4),
    "power-sum": _range_upper,
    "thresholds": lambda: certify_thresholds(1, 40),
    "m2": lambda: certify_m2_subsolution(31),
    "m3": lambda: certify_m3_stability(17),
    "polynomial": lambda: certify_nonneg(P(0, 1, -1)),
}
EDITS = {
    "m3-gap-root-count": ("m3-gap", _set_step("interior-root-count", "count", 7)),
    "m3-gap-sign-value": ("m3-gap", _set_step("sign-evaluation", "value", "-1/1")),
    "m3-gap-dimension": ("m3-gap", _set_claim("dimension", 4)),
    "power-sum-sign-value": ("power-sum", _set_step("sign-evaluation", "value", "-1/1")),
    "thresholds-hardy": ("thresholds", _set_step("compare", "hardy", "0/1", which=20)),
    "thresholds-onset": ("thresholds", _set_pattern_onset),
    "m2-description": ("m2", _set_claim("description", "anything")),
    "m2-dimension": ("m2", _set_claim("dimension", 2)),
    "m2-component-status": ("m2", _set_component_status),
    # Replay compares every component, also range-upper, which no
    # dimension changes.
    "m2-component-sign-value": ("m2", _set_component_step("sign-evaluation", "value", "6/1")),
    "m2-fixed-component-sign-value": ("m2", _set_component_step(
        "sign-evaluation", "value", "1/1", which=1)),
    "m3-component-status": ("m3", _set_component_status),
    "m3-component-sign-value": ("m3", _set_component_step("sign-evaluation", "value", "-1/1")),
    # Fields that from_json_dict does not keep and to_json_dict rebuilds.
    "m3-gap-4-witness-decimal": ("m3-gap-4", _set_field("witness_decimal", "0.999")),
    "m3-gap-4-schema-version": ("m3-gap-4", _set_field("schema_version", 7)),
    "m3-gap-4-witness-number": ("m3-gap-4", _set_field("witness", 0.5)),
    "m3-gap-4-extra-key": ("m3-gap-4", _set_field("extra", None)),
    # Values that == takes for the rebuilt ones: 0 == False, 3.0 == 3.
    "m3-gap-closed-as-zero": ("m3-gap", _set_claim("closed", 0)),
    "m3-gap-count-as-float": ("m3-gap", _set_step("interior-root-count", "count", 0.0)),
    # Replay copies no claim field from the file: without its name the
    # N = 17 file is a bare polynomial claim, and a bare polynomial claim
    # has no dimension.
    "m3-gap-unnamed": ("m3-gap", _unname_as(16)),
    "polynomial-extra-key": ("polynomial", _set_claim("dimension", 5)),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
def test_replay_rejects_edited_certificate(edit):
    original, change = edit
    d = json.loads(json.dumps(ORIGINALS[original]().to_json_dict()))
    assert replay_certificate(d)
    change(d)
    assert not replay_certificate(d)


@pytest.mark.parametrize("call", [
    lambda: certify_m3_gap(True),
    lambda: certify_m3_gap(17.0),
    lambda: certify_m3_stability(17.0),
    lambda: certify_m2_subsolution(5.0),
    lambda: certify_thresholds(True, 3),
    lambda: certify_thresholds(1, 3.0),
    lambda: threshold_table(1, True),
], ids=["m3-gap-true", "m3-gap-float", "m3-stability-float", "m2-float", "thresholds-true",
        "thresholds-float", "table-true"])
def test_dimensions_must_be_integers(call):
    # bool is an int and 17.0 compares equal to 17; neither is a dimension.
    with pytest.raises(ValueError, match="need"):
        call()


@pytest.mark.parametrize("original, key, value", [
    (lambda: certify_m3_gap(1), "dimension", True),
    (lambda: certify_m3_stability(17), "dimension", 17.0),
    (lambda: certify_thresholds(1, 3), "range", [True, 3]),
    (lambda: certify_thresholds(1, 1), "range", [1, True]),
], ids=["m3-gap-true", "m3-stability-float", "thresholds-true-min", "thresholds-true-max"])
def test_replay_rejects_non_integer_dimensions(original, key, value):
    # Each edited claim rebuilds to the same values, since True == 1 and
    # 17.0 == 17, so only the dimension check can refuse it.
    d = json.loads(json.dumps(original().to_json_dict()))
    assert replay_certificate(d)
    d["claim"][key] = value
    assert not replay_certificate(d)


def test_replay_ignores_power_sum_label():
    # The label is free text; the terms alone define the claim.
    d = _range_upper().to_json_dict()
    d["claim"]["label"] = "any other label"
    assert replay_certificate(Certificate.from_json_dict(d))


def test_replay_rejects_oversized_and_unknown_claims():
    # A range claim is rebuilt one dimension at a time, so an oversized
    # range is refused before any work.
    d = certify_thresholds(1, 40).to_json_dict()
    d["claim"]["range"] = [1, 10**9]
    assert not replay_certificate(d)
    d = certify_m3_gap(17).to_json_dict()
    d["claim"]["dimension"] = MAX_DIMENSION + 1
    assert not replay_certificate(d)
    for bad_claim in ({"kind": "composite", "name": "other", "dimension": 3}, {"kind": "unknown"},
                      [], "x", None):
        assert not replay_certificate(Certificate(bad_claim, "verified"))
    # A power-sum claim whose exponents span 2 * 10^6 units of 1/q, and a
    # polynomial claim of 10^6 + 1 coefficients, are refused at the degree
    # cap before a polynomial is built.
    d = power_sum_nonneg(PowerSum.of((1, F(1, 3)), (F(-1, 2), 0))).to_json_dict()
    d["claim"]["terms"] = [["1", "1/1000000"], ["-1/2", "0"], ["1", "2"]]
    p = certify_nonneg(P(0, 1, -1)).to_json_dict()
    p["claim"]["polynomial"] = ["0/1"] * 10**6 + ["1/1"]
    for d in (d, p):
        tracemalloc.start()
        try:
            assert not replay_certificate(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    with pytest.raises(ValueError, match=f"degree 1999999 exceeds {MAX_CHECK_DEGREE}"):
        reduce_power_sum(PowerSum.of((1, F(1, 10**6)), (1, 2)))


def test_replay_refuses_a_huge_decimal_exponent_at_once():
    # Fraction("1e3000000") builds a number of three million digits, which
    # takes seconds; the exponent is refused before that.
    p = json.loads(json.dumps(certify_nonneg(P(0, 1, -1)).to_json_dict()))
    p["claim"]["polynomial"][1] = "1e3000000"
    d = json.loads(json.dumps(_range_upper().to_json_dict()))
    d["claim"]["terms"][0][0] = "1e3000000"
    for edited in (p, d):
        start = time.perf_counter()
        assert not replay_certificate(edited)
        assert not replay_certificate(Certificate.from_json_dict(edited))
        assert time.perf_counter() - start < 0.1
    # A witness is read with the certificate, which it does not let read.
    w = json.loads(json.dumps(certify_m3_gap(4).to_json_dict()))
    w["witness"] = "1e3000000"
    start = time.perf_counter()
    with pytest.raises(ValueError):
        Certificate.from_json_dict(w)
    assert not replay_certificate(w)
    assert time.perf_counter() - start < 0.1


def _without(key: str) -> dict:
    d = json.loads(json.dumps(certify_m3_gap(4).to_json_dict()))
    del d[key]
    return d


def _with_witness(witness) -> dict:
    d = json.loads(json.dumps(certify_m3_gap(4).to_json_dict()))
    d["witness"] = witness
    return d


NOT_CERTIFICATES = {
    "none": lambda: None,
    "list": lambda: [],
    "text": lambda: "x",
    "number": lambda: 3,
    **{f"no-{key}": (lambda key=key: _without(key))
       for key in ("claim", "status", "trail", "witness")},
    **{f"witness-{w}": (lambda w=w: _with_witness(w))
       for w in ("abc", "1e3000000", "1e400", [1])},
}


@pytest.mark.parametrize("make", NOT_CERTIFICATES.values(), ids=NOT_CERTIFICATES.keys())
def test_a_value_that_is_not_a_certificate_replays_false(make):
    # The witness "1e400" parses, but its decimal overflows float().
    assert replay_certificate(make()) is False
    with pytest.raises(ValueError):
        Certificate.from_json_dict(make())


def test_certificate_is_frozen_and_read_exactly():
    cert = certify_m3_gap(4)
    with pytest.raises(AttributeError):
        cert.status = "verified"
    d = json.loads(json.dumps(cert.to_json_dict()))
    assert Certificate.from_json_dict(d) == cert


# --- power sum reduction --------------------------------------------------


def test_reduce_power_sum_substitution():
    ps = PowerSum.of((1, F(4, 3)), (-2, F(1, 2)))
    poly, e_min, q = reduce_power_sum(ps)
    assert e_min == F(1, 2)
    assert q == 6
    # r^(4/3) - 2 r^(1/2) = r^(1/2)(r^(5/6) - 2) -> t^5 - 2 with t = r^(1/6).
    assert poly == P(-2, 0, 0, 0, 0, 1)


def test_power_sum_nonneg_negative_exponents():
    # r^(-8/3) - 1 >= 0 on (0,1): multiply by r^(8/3) gives 1 - r^(8/3).
    ps = PowerSum.of((1, F(-8, 3)), (-1, 0))
    cert = power_sum_nonneg(ps)
    assert cert.status == "verified"


def test_power_sum_falsified_witness_is_exact():
    ps = PowerSum.of((1, F(1, 3)), (F(-1, 2), 0))  # r^(1/3) - 1/2
    cert = power_sum_nonneg(ps)
    assert cert.status == "falsified"
    # witness is t^3, so its cube root is rational and the value is exact
    w = cert.witness
    assert 0 < w < 1
    total = w ** F(1, 3).denominator  # sanity: w is a perfect cube of a rational
    assert ps.evaluate_exact(w) < 0
    assert replay_certificate(cert)


# --- thresholds -----------------------------------------------------------


def test_threshold_rows_exact():
    rows = {r["n"]: r for r in threshold_table(1, 40)}
    assert 2 * rows[8]["singular_voltage"] == F(5632, 81)
    assert rows[8]["hardy"] == 64
    assert not rows[8]["double_voltage_le_hardy"]
    assert 2 * rows[9]["singular_voltage"] == F(7600, 81)
    assert rows[9]["hardy"] == F(2025, 16)
    assert rows[9]["double_voltage_le_hardy"]
    assert 27 * rows[30]["singular_voltage"] == F(57728, 3)
    assert rows[30]["hardy"] / 2 == F(608400, 32)
    assert not rows[30]["voltage27_le_half_hardy"]
    assert 27 * rows[31]["singular_voltage"] == F(61880, 3)
    assert rows[31]["hardy"] / 2 == F(700569, 32)
    assert rows[31]["voltage27_le_half_hardy"]


def test_threshold_first_true_dimensions():
    rows = threshold_table(1, 40)
    # Comparisons are vacuously true where the singular voltage is
    # negative (N <= 2); the meaningful onset is over N >= 3.
    assert min(
        r["n"] for r in rows if r["singular_voltage"] > 0 and r["double_voltage_le_hardy"]
    ) == 9
    assert min(
        r["n"] for r in rows if r["singular_voltage"] > 0 and r["voltage27_le_half_hardy"]
    ) == 31
    assert all(
        r["double_voltage_le_hardy"] == (r["n"] >= 9)
        for r in rows
        if r["singular_voltage"] > 0
    )
    assert all(
        r["voltage27_le_half_hardy"] == (r["n"] >= 31)
        for r in rows
        if r["singular_voltage"] > 0
    )
    cert = certify_thresholds(1, 40)
    assert cert.status == "verified"
    assert replay_certificate(cert)


def test_threshold_off_the_pattern_falsifies_at_its_first_dimension(monkeypatch):
    # H_8 doubled puts 2*lb_8 = 5632/81 below it, and H_12 = 0 puts 2*lb_12
    # above it: both rows break the pattern, the first is the witness, and
    # every row is still recorded with the values its comparisons read.
    hardy = certify_mod.hardy_rellich
    monkeypatch.setattr(certify_mod, "hardy_rellich",
                        lambda n: {8: 2 * hardy(8), 12: F(0)}.get(n, hardy(n)))
    cert = certify_thresholds(1, 40)
    assert cert.status == "falsified" and cert.witness == 8
    assert [t["dimension"] for t in cert.trail] == list(range(1, 41))
    assert cert.trail[7] == {"step": "compare", "dimension": 8,
                             "singular_voltage": "2816/81", "hardy": "128/1"}
    assert replay_certificate(_round_trip(cert))


# --- named profile claims -------------------------------------------------


@pytest.mark.parametrize("n", [3, 9, 31, 40])
def test_m2_subsolution_verified(n):
    cert = certify_m2_subsolution(n)
    assert cert.status == "verified"
    assert replay_certificate(cert)


@pytest.mark.parametrize("n", [5, 17, 30])
def test_m3_stability_verified(n):
    cert = certify_m3_stability(n)
    assert cert.status == "verified"
    assert replay_certificate(cert)
    # A composite's evidence is its one component, the semistable check,
    # and its own trail is empty.
    assert cert.trail == []
    assert [(c["claim"]["label"], c["status"]) for c in cert.claim["components"]] == [
        ("H_N (1-w)^3 - 2 lam r^4 >= 0", "verified")]


def _mutables(cert: Certificate) -> set[int]:
    """The ids of every dict and list that cert's claim and trail reach."""
    ids, stack = set(), [cert.claim, cert.trail]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (dict, list)):
            ids.add(id(obj))
            stack.extend(obj.values() if isinstance(obj, dict) else obj)
    return ids


@pytest.mark.parametrize("certifier, dims", [
    (certify_m2_subsolution, (3, 40)),
    (certify_m3_stability, (5, 40)),
], ids=["m2", "m3"])
def test_certificates_of_two_dimensions_share_no_mutable_object(certifier, dims):
    # Each certificate holds claim and trail objects of its own: an edit
    # of one certificate changes no other, nor the next one built.
    first, second = (certifier(n) for n in dims)
    assert not _mutables(first) & _mutables(second)
    expected = json.dumps(second.to_json_dict(), sort_keys=True)
    for c in first.claim["components"]:
        c["claim"]["terms"].append(["1/1", "1/1"])
        c["trail"].clear()
        c["status"] = "falsified"
    assert json.dumps(second.to_json_dict(), sort_keys=True) == expected
    rebuilt = certifier(dims[1])
    assert json.dumps(rebuilt.to_json_dict(), sort_keys=True) == expected
    assert not _mutables(rebuilt) & (_mutables(first) | _mutables(second))
    assert replay_certificate(second)


def test_composite_with_a_falsified_part_carries_its_witness(monkeypatch):
    # One above H_N/2, the semistable check of the m = 3 profile fails near
    # r = 1, where H_N (1-w)^3 - 2 lam r^4 tends to -2: the component is
    # falsified, and so is the composite, with its witness and no trail.
    def raised_voltage(n):
        return certify_mod._composite("m3-stability", n, 3, hardy_rellich(n) / 2 + 1,
                                      ("semistable",), "m3 one above H_N/2")

    monkeypatch.setitem(certify_mod.CLAIMS, "m3-stability", raised_voltage)
    cert = raised_voltage(5)
    (semistable,) = (Certificate.from_json_dict(c) for c in cert.claim["components"])
    assert semistable.status == "falsified" and F(1, 2) < semistable.witness < 1
    assert cert.status == "falsified" and cert.witness == semistable.witness
    assert cert.trail == []
    assert replay_certificate(_round_trip(cert))


def test_m3_stability_requires_dimension_five():
    with pytest.raises(ValueError):
        certify_m3_stability(4)


@pytest.mark.parametrize(
    "certifier, n",
    [(certify_m2_subsolution, 1), (certify_m2_subsolution, 2), (certify_m3_gap, 0),
     (certify_m3_gap, MAX_DIMENSION + 1), (certify_m3_stability, MAX_DIMENSION + 1)],
)
def test_named_claims_reject_dimensions_outside_their_range(certifier, n):
    # Below N = 3 the singular voltage is negative (-40/81 at N = 1), so
    # 27*lb is no voltage for the m = 2 profile.
    with pytest.raises(ValueError):
        certifier(n)


# --- sub-solution search --------------------------------------------------


def test_perturbed_touchdown_is_clamped():
    for alpha, beta in [(1, 1), (F(4, 3), F(5, 3)), (F(5, 2), F(1, 2))]:
        w = perturbed_touchdown(F(alpha), F(beta))
        assert w.evaluate_exact(1) == 0
        assert w.derivative().evaluate_exact(1) == 0
        assert w.evaluate_exact(0) == 1


def test_perturbed_touchdown_recovers_profile_family():
    # alpha = 4/3, beta = m - 4/3 reproduces the m-profile exactly.
    for m in (F(2), F(3), F(5, 2)):
        assert perturbed_touchdown(F(4, 3), m - F(4, 3)) == touchdown_profile(m)


def test_search_w3_passes_at_17():
    lam, candidates, _ = _search(17, "touchdown-m", [F(3)])
    assert lam == hardy_rellich(17) / 2
    assert [c.passed for c in candidates] == [True]
    cand = candidates[0]
    assert cand.to_json_dict()["boundary_exact"]
    assert all(c.status == "verified" for c in cand.checks.values())


def test_search_w3_gap_check_matches_named_certificate():
    # The generic engine (t = r^(1/3) substitution) and the dedicated cubic
    # reduction (s = r^(5/3)) must deliver the same verdicts across and
    # beyond the certified range.
    for n in (9, 12, 16, 17, 23, 30, 31):
        _, candidates, _ = _search(n, "touchdown-m", [F(3)])
        assert (
            candidates[0].checks["subsolution"].status
            == certify_m3_gap(n).status
        )


def test_search_phi0_family_fails_at_9():
    grid = [
        (F(a), F(b))
        for a in (F(1), F(4, 3), F(5, 3), F(2))
        for b in (F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2))
    ]
    _, candidates, _ = _search(9, "perturbed-touchdown", grid)
    assert len(candidates) == len(grid)
    assert not any(c.passed for c in candidates)
    # every failure is explained: at least one check not verified
    for cand in candidates:
        assert any(c.status != "verified" for c in cand.checks.values())


@pytest.mark.parametrize(
    "family, params",
    [
        ("touchdown-m", F(11, 2)),
        ("touchdown-m", F(1, 7)),
        ("touchdown-m", F(2)),
        ("perturbed-touchdown", (F(15, 6), F(2))),
        ("perturbed-touchdown", (F(1, 7), F(1, 11))),
        ("perturbed-touchdown", (F(4, 3), F(1, 5))),
        ("perturbed-touchdown", (F(100, 99), F(1))),
    ],
)
def test_check_degree_bounds_every_check(family, params):
    # check_degree is three times the profile's cleared degree, and each
    # check's cleared degree and largest exponent, in units of its
    # substitution order, stay within it.
    pd, w = candidate_profile(family, params)
    bound = check_degree(w)
    assert bound == 3 * reduce_power_sum(w)[0].degree
    reached = 0
    for cert in check_candidate(w, 9, hardy_rellich(9) / 2, pd).checks.values():
        terms = [(F(c), F(e)) for c, e in cert.claim["terms"]]
        cleared, _, q = reduce_power_sum(PowerSum.of(*terms))
        reached = max(reached, cleared.degree, max(e for _, e in terms) * q)
    assert reached <= bound


def test_candidate_profile_checks_its_family():
    assert candidate_profile("touchdown-m", "3") == ({"m": F(3)}, touchdown_profile(3))
    pd, w = candidate_profile("perturbed-touchdown", ["1", "1/3"])
    assert (pd, w) == ({"alpha": F(1), "beta": F(1, 3)}, perturbed_touchdown(F(1), F(1, 3)))
    for family, params in [("touchdown-m", "4/3"), ("touchdown-m", "0"),
                           ("perturbed-touchdown", ("0", "1")), ("perturbed-touchdown", ("1", "-1")),
                           ("other", "3")]:
        with pytest.raises(ValueError):
            candidate_profile(family, params)


def test_search_empty_grid():
    _, candidates, _ = _search(9, "perturbed-touchdown", [])
    assert candidates == []


def test_search_notes_outside_range():
    _, _, notes = _search(17, "touchdown-m", [F(3)])
    assert any("9..16" in note for note in notes)


def test_candidate_vs_w2_at_31():
    # m=2 profile at voltage 27*lb in dimension 31 passes all four checks,
    # matching the dedicated m2 certificate.
    lam = 27 * singular_voltage(31)
    _, candidates, _ = _search(31, "touchdown-m", [F(2)], lam=lam)
    assert [c.passed for c in candidates] == [True]


def test_witness_that_does_not_confirm_raises(monkeypatch):
    # A falsified inner certificate whose witness is not a violation of
    # the power sum must stop the engine, also under python -O.
    monkeypatch.setattr(certify_mod, "_decide", lambda p: ("falsified", F(1, 2), []))
    with pytest.raises(ArithmeticError, match="witness does not confirm"):
        power_sum_nonneg(PowerSum.of((1, 0), (1, 1)))


def _m_eleven_halves(check):
    # A check of touchdown-m at m = 11/2, N = 17, voltage H_N/2, of cleared
    # degree 75, read back from the power sum its claim holds.
    report = check_candidate(touchdown_profile(F(11, 2)), 17, hardy_rellich(17) / 2, {})
    terms = report.checks[check].claim["terms"]
    return PowerSum.of(*((F(c), F(e)) for c, e in terms))


def test_high_degree_witness_that_does_not_confirm_raises(monkeypatch):
    # A Bernstein witness is confirmed as a Sturm one is: the subsolution
    # check of touchdown-m at m = 11/2 is falsified past STURM_DEGREE, and a
    # power sum that is not negative there must stop the engine.
    ps = _m_eleven_halves("subsolution")
    assert reduce_power_sum(ps)[0].degree == 75
    assert power_sum_nonneg(ps).trail[-2]["where"] == "bernstein"
    monkeypatch.setattr(PowerSum, "evaluate_exact", lambda self, r: F(0))
    with pytest.raises(ArithmeticError, match="witness does not confirm"):
        power_sum_nonneg(ps)


def test_high_degree_candidate_decides_without_sturm(monkeypatch):
    # alpha 37/18, beta 8/15 at N = 16 (check degree 699): Sturm isolation
    # of its subsolution check ran past 15 s; the Bernstein test decides
    # every check without building a remainder sequence.
    def no_remainders(self):
        raise AssertionError("a remainder sequence was built")

    monkeypatch.setattr(RationalPolynomial, "_remainders", property(no_remainders))
    pd, w = candidate_profile("perturbed-touchdown", (F(37, 18), F(8, 15)))
    assert check_degree(w) == 699
    report = check_candidate(w, 16, hardy_rellich(16) / 2, pd)
    assert {k: c.status for k, c in report.checks.items()} == {
        "range-lower": "verified", "range-upper": "verified",
        "subsolution": "falsified", "semistable": "verified",
    }


def test_witness_values_past_the_bit_limit_are_written_as_signs():
    # At the largest float voltage this candidate's subsolution check is
    # negative only within about 2^-4096 of r = 0 (alpha = 5/4: g grows
    # like r^(-1/4)).  Its exact values there pass MAX_VALUE_BITS, so the
    # trail writes their signs; the witness itself is written exactly,
    # and the certificate replays from JSON.
    pd, w = candidate_profile("perturbed-touchdown", (F(5, 4), F(5)))
    cert = check_candidate(w, 17, F(1.7976931348623157e308), pd).checks["subsolution"]
    assert cert.status == "falsified"
    evaluation, confirmation = cert.trail[-2:]
    assert evaluation["where"] == "bernstein"
    for step in (evaluation, confirmation):
        assert step["sign"] == -1 and "value" not in step
    assert cert.witness.denominator.bit_length() < certify_mod.MAX_VALUE_BITS
    assert replay_certificate(_round_trip(cert))


@pytest.mark.parametrize("certifier", [
    certify_m2_subsolution,
    certify_m3_stability,
    # w = 1 - r: w'(1) = -1.
    lambda n: check_candidate(PowerSum.of((1, 0), (-1, 1)), n, F(1), {}),
    # w = (1 - r^2)^2 / 2: clamped, but w(0) = 1/2.
    lambda n: check_candidate(PowerSum.of((F(1, 2), 0), (-1, 2), (F(1, 2), 4)), n, F(1), {}),
], ids=["m2", "m3", "slope", "origin"])
def test_unclamped_profile_raises(certifier, monkeypatch):
    # w - 1/2 has w's bilaplacian but the value -1/2 at r = 1.
    profile = certify_mod.touchdown_profile
    monkeypatch.setattr(certify_mod, "touchdown_profile",
                        lambda m: profile(m) - PowerSum.constant(F(1, 2)))
    with pytest.raises(ArithmeticError, match="not clamped"):
        certifier(5)


_SMALL_POSITIVE = st.builds(F, st.integers(1, 12), st.integers(1, 12))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.just("perturbed-touchdown"), st.tuples(_SMALL_POSITIVE, _SMALL_POSITIVE)),
    st.tuples(st.just("touchdown-m"), _SMALL_POSITIVE.filter(lambda m: m != F(4, 3))),
))
def test_every_admitted_candidate_is_clamped(case):
    # Every profile that candidate_profile admits is exactly clamped with
    # w(0) = 1, so check_candidate's precondition (an ArithmeticError)
    # never refuses CLI input.
    pd, w = candidate_profile(*case)
    assert check_candidate(w, 9, F(1), pd, ()).checks == {}


@pytest.mark.parametrize("certifier, m, lam, names, dims", [
    (certify_m2_subsolution, 2, lambda n: 27 * singular_voltage(n),
     ("range-lower", "range-upper", "subsolution"), range(3, MAX_DIMENSION + 1)),
    (certify_m3_stability, 3, lambda n: hardy_rellich(n) / 2,
     ("semistable",), range(5, MAX_DIMENSION + 1)),
], ids=["m2", "m3"])
def test_composite_components_are_the_search_checks(certifier, m, lam, names, dims):
    # A composite states its profile at its voltage as a search candidate
    # does: its components are check_candidate's named checks, in every
    # dimension of its range.
    for n in dims:
        checks = check_candidate(touchdown_profile(m), n, lam(n), {}).checks
        expected = json.dumps([checks[k].to_json_dict() for k in names], sort_keys=True)
        assert json.dumps(certifier(n).claim["components"], sort_keys=True) == expected, n
