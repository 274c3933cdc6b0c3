"""Tests for the exact certification engine and the named claims."""

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import mems4.certify as certify_mod
from mems4.certify import (
    MAX_DIMENSION,
    Certificate,
    DegreeCapExceeded,
    certify_m2_subsolution,
    certify_m3_gap,
    certify_m3_stability,
    certify_nonneg,
    certify_thresholds,
    check_candidate,
    perturbed_touchdown,
    power_sum_nonneg,
    reduce_power_sum,
    replay_certificate,
    stability_gap_polynomial,
    subsolution_search,
    threshold_table,
)
from mems4.closed_forms import PowerSum, hardy_rellich, singular_voltage, touchdown_profile
from mems4.polys import RationalPolynomial, integer_coeffs, sign_at

F = Fraction
S = sympy.Symbol("s")


def P(*coeffs):
    return RationalPolynomial(coeffs)


def _expand(expr):
    """The polynomial expr in S, multiplied out by sympy."""
    cs = sympy.Poly(expr, S).all_coeffs()
    return RationalPolynomial(tuple(F(int(c.p), int(c.q)) for c in reversed(cs)))


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
        assert stability_gap_polynomial(n).coeffs == expected.coeffs


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
    assert any("zero" in str(t.get("note", "")) for t in cert.trail)


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


def test_degree_cap():
    coeffs = [F(0)] * 66
    coeffs.append(F(1))
    with pytest.raises(DegreeCapExceeded):
        certify_nonneg(RationalPolynomial(tuple(coeffs)))


def test_nonneg_at_degree_cap_with_many_touching_roots():
    # product of 32 squared linear factors: degree 64, touches zero at 32
    # interior points, never negative.
    factors = [(S - sympy.Rational(k, 33)) ** 2 for k in range(1, 33)]
    p = _expand(sympy.Mul(*factors))
    assert p.degree == 64
    cert = certify_nonneg(p)
    assert cert.status == "verified"
    # flipping one factor to odd multiplicity produces a witness
    q = _expand(sympy.Mul(*factors[:-1], S - sympy.Rational(32, 33)))
    cert2 = certify_nonneg(q)
    assert cert2.status == "falsified"
    assert q(cert2.witness) < 0
    assert replay_certificate(cert2)


@settings(max_examples=30)
@given(st.fractions(min_value=F(1, 100), max_value=F(100), max_denominator=100))
def test_rescaling_invariance(c):
    p = stability_gap_polynomial(12)
    scaled = RationalPolynomial(tuple(c * a for a in p.coeffs))
    assert certify_nonneg(p).status == certify_nonneg(scaled).status


def test_replay_verified_and_falsified():
    for cert in (certify_m3_gap(20), certify_m3_gap(4), certify_nonneg(P(0, 1, -1))):
        assert replay_certificate(cert)
    # Round trip through JSON preserves replayability.
    cert = certify_m3_gap(4)
    again = Certificate.from_json_dict(cert.to_json_dict())
    assert replay_certificate(again)
    # Tampered status must fail replay.
    bad = Certificate.from_json_dict(cert.to_json_dict())
    bad.status = "verified"
    assert not replay_certificate(bad)
    # A composite's status must follow from its replayed components.
    for composite in (certify_m2_subsolution(31), certify_m3_stability(6)):
        assert replay_certificate(Certificate.from_json_dict(composite.to_json_dict()))
        for status in ("falsified", "inconclusive"):
            bad = Certificate.from_json_dict(composite.to_json_dict())
            bad.status = status
            assert not replay_certificate(bad)
    # The engine certifies only the open (0, 1); other domains do not replay.
    for edit in ({"interval": ["0/1", "2/1"]}, {"closed": True}):
        bad = Certificate.from_json_dict(certify_nonneg(P(0, 1, -1)).to_json_dict())
        bad.claim.update(edit)
        assert not replay_certificate(bad)


def _round_trip(cert: Certificate) -> Certificate:
    return Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))


def test_replay_accepts_every_kind_after_json_round_trip():
    # m = 11/2 goes through the full degree-cap sampling fallback.
    search = subsolution_search(17, "touchdown-m", [F(3), F(11, 2)])
    power_sums = [c for cand in search.candidates for c in cand.checks.values()]
    assert any("fallback" in str(c.trail[0].get("note")) for c in power_sums)
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
        assert replay_certificate(_round_trip(cert)), cert.claim


def _range_upper() -> Certificate:
    """The power-sum certificate of 1 - w >= 0 for the m = 3 profile."""
    return subsolution_search(17, "touchdown-m", [F(3)]).candidates[0].checks["range-upper"]


def _set_step(step: str, key: str, value, which: int = 0):
    def edit(d):
        entries = [e for e in d["trail"] if e["step"] == step]
        entries[which][key] = value
    return edit


def _set_claim(key: str, value):
    def edit(d):
        d["claim"][key] = value
    return edit


def _set_pattern_onset(d):
    d["claim"]["pattern"]["double_voltage_le_hardy_from"] = 3


# The certificates under edit, and each edit: it keeps the certificate
# well formed, and a rebuild from the claim differs from it somewhere.
ORIGINALS = {
    "m3-gap": lambda: certify_m3_gap(17),
    "power-sum": _range_upper,
    "thresholds": lambda: certify_thresholds(1, 40),
    "m2": lambda: certify_m2_subsolution(31),
}
EDITS = {
    "m3-gap-root-count": ("m3-gap", _set_step("interior-root-count", "count", 7)),
    "m3-gap-sign-value": ("m3-gap", _set_step("sign-evaluation", "value", "-1/1")),
    "m3-gap-dimension": ("m3-gap", _set_claim("dimension", 4)),
    "power-sum-substitution": ("power-sum", _set_step("power-substitution", "polynomial", ["1/1"])),
    "thresholds-hardy": ("thresholds", _set_step("compare", "hardy", "0/1", which=20)),
    "thresholds-onset": ("thresholds", _set_pattern_onset),
    "m2-description": ("m2", _set_claim("description", "anything")),
    "m2-dimension": ("m2", _set_claim("dimension", 2)),
    "m2-boundary-values": ("m2", _set_step("boundary-values", "value", False)),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
def test_replay_rejects_edited_certificate(edit):
    original, change = edit
    d = json.loads(json.dumps(ORIGINALS[original]().to_json_dict()))
    assert replay_certificate(Certificate.from_json_dict(d))
    change(d)
    assert not replay_certificate(Certificate.from_json_dict(d))


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
    assert not replay_certificate(Certificate.from_json_dict(d))
    d = certify_m3_gap(17).to_json_dict()
    d["claim"]["dimension"] = MAX_DIMENSION + 1
    assert not replay_certificate(Certificate.from_json_dict(d))
    for bad_claim in ({"kind": "composite", "name": "other", "dimension": 3}, {"kind": "unknown"}):
        assert not replay_certificate(Certificate(bad_claim, "verified"))


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
    rows = {r.dimension: r for r in threshold_table(1, 40)}
    assert 2 * rows[8].singular_voltage == F(5632, 81)
    assert rows[8].hardy == 64
    assert not rows[8].double_voltage_le_hardy
    assert 2 * rows[9].singular_voltage == F(7600, 81)
    assert rows[9].hardy == F(2025, 16)
    assert rows[9].double_voltage_le_hardy
    assert 27 * rows[30].singular_voltage == F(57728, 3)
    assert rows[30].hardy / 2 == F(608400, 32)
    assert not rows[30].voltage27_le_half_hardy
    assert 27 * rows[31].singular_voltage == F(61880, 3)
    assert rows[31].hardy / 2 == F(700569, 32)
    assert rows[31].voltage27_le_half_hardy


def test_threshold_first_true_dimensions():
    rows = threshold_table(1, 40)
    # Comparisons are vacuously true where the singular voltage is
    # negative (N <= 2); the meaningful onset is over N >= 3.
    assert min(
        r.dimension for r in rows if r.voltage_positive and r.double_voltage_le_hardy
    ) == 9
    assert min(
        r.dimension for r in rows if r.voltage_positive and r.voltage27_le_half_hardy
    ) == 31
    assert all(
        r.double_voltage_le_hardy == (r.dimension >= 9)
        for r in rows
        if r.voltage_positive
    )
    assert all(
        r.voltage27_le_half_hardy == (r.dimension >= 31)
        for r in rows
        if r.voltage_positive
    )
    cert = certify_thresholds(1, 40)
    assert cert.status == "verified"
    assert replay_certificate(cert)


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
    # trail records the exact endpoint values 125/729 and 1
    values = {t.get("step"): t.get("value") for t in cert.trail}
    assert values["value-at-0"] == "125/729"
    assert values["value-at-1"] == "1/1"


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
    # dividing the m = 2 reduction by 3*lb would flip the inequality.
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
    report = subsolution_search(17, "touchdown-m", [F(3)])
    assert report.voltage == hardy_rellich(17) / 2
    assert len(report.passing) == 1
    cand = report.candidates[0]
    assert cand.boundary_exact
    assert all(c.status == "verified" for c in cand.checks.values())


def test_search_w3_gap_check_matches_named_certificate():
    # The generic engine (t = r^(1/3) substitution) and the dedicated cubic
    # reduction (s = r^(5/3)) must deliver the same verdicts across and
    # beyond the certified range.
    for n in (9, 12, 16, 17, 23, 30, 31):
        report = subsolution_search(n, "touchdown-m", [F(3)])
        assert (
            report.candidates[0].checks["subsolution"].status
            == certify_m3_gap(n).status
        )


def test_search_phi0_family_fails_at_9():
    grid = [
        (F(a), F(b))
        for a in (F(1), F(4, 3), F(5, 3), F(2))
        for b in (F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2))
    ]
    report = subsolution_search(9, "perturbed-touchdown", grid)
    assert len(report.candidates) == len(grid)
    assert report.passing == []
    # every failure is explained: at least one check not verified
    for cand in report.candidates:
        assert any(c.status != "verified" for c in cand.checks.values())


def test_search_empty_grid():
    report = subsolution_search(9, "perturbed-touchdown", [])
    assert report.candidates == []
    assert report.passing == []


def test_search_notes_outside_range():
    report = subsolution_search(17, "touchdown-m", [F(3)])
    assert any("9..16" in note for note in report.notes)


def test_candidate_vs_w2_at_31():
    # m=2 profile at voltage 27*lb in dimension 31 passes all four checks,
    # matching the dedicated m2 certificate.
    lam = 27 * singular_voltage(31)
    report = subsolution_search(31, "touchdown-m", [F(2)], lam=lam)
    assert len(report.passing) == 1


def test_degree_cap_goes_inconclusive_not_skipped(monkeypatch):
    # alpha with a large denominator forces a substitution order beyond
    # the cap; the candidate must be graded, not dropped.  The sampling
    # fallback is thinned here to keep the test quick.
    monkeypatch.setattr(certify_mod, "FALLBACK_SAMPLES", 200)
    report = subsolution_search(9, "perturbed-touchdown", [(F(100, 99), F(1))])
    assert len(report.candidates) == 1
    cand = report.candidates[0]
    assert not cand.passed
    assert any(c.status == "inconclusive" for c in cand.checks.values())


def _scalar_screen(coeffs):
    # The scalar Horner loop the vectorised screen replaced, kept as its
    # reference: the first sample whose value is below every earlier one
    # and below zero.
    best_t, best_v = None, 0.0
    for k in range(1, certify_mod.FALLBACK_SAMPLES + 1):
        t = k / (certify_mod.FALLBACK_SAMPLES + 1)
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        if acc < best_v:
            best_t, best_v = k, acc
    return best_t


def _random_screen_coeffs(seed):
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(65, 81))
    return [
        float(F(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 1000))))
        for _ in range(degree + 1)
    ]


BIG = 1.5e308


@pytest.mark.parametrize(
    "coeffs",
    [_random_screen_coeffs(seed) for seed in range(6)]
    + [
        [1.0 + i for i in range(70)],  # positive everywhere: no pick
        [BIG] * 40 + [-BIG] * 30,  # Horner sums overflow to -inf
        [-BIG] * 40 + [BIG] * 30,  # ... and to +inf
        [float("nan")] + [-1.0] * 69,  # NaN at every sample
        [1.0] * 30 + [float("inf")] + [-BIG] * 39,  # -inf + inf = NaN, else +inf
        [1.0] * 30 + [-float("inf")] + [BIG] * 39,  # inf - inf = NaN, else -inf
        [-1.0] * 30 + [-float("inf")] + [1.0] * 39,  # -inf from a coefficient
    ],
)
def test_fallback_screen_matches_scalar_loop(coeffs):
    assert certify_mod._screen_pick(coeffs) == _scalar_screen(coeffs)


def _fallback_random(seed):
    # Random coefficients, the constant term shifted by the float minimum
    # over the samples, so the least samples sit within rounding error of 0.
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(65, 81))
    cs = [
        F(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 1000)))
        for _ in range(degree + 1)
    ]
    cs[0] -= F(float(certify_mod._horner_samples([float(c) for c in cs]).min()))
    return PowerSum.of(*((c, i) for i, c in enumerate(cs)))


def _fallback_below_rounding():
    # (den t - k0)^2 (1 + t^65) - 10^-20: negative only at t = k0/den, by
    # far less than the float error there, where the float value is > 0.
    den, k0 = certify_mod.FALLBACK_SAMPLES + 1, 5025
    square = [(k0 * k0, 0), (-2 * den * k0, 1), (den * den, 2)]
    return PowerSum.of(
        *square, *((c, e + 65) for c, e in square), (F(-1, 10**20), 0)
    )


def _fallback_overflow():
    # 10^308 (1 + t^68 + t^69 - t^60 - ... - t^64): the float Horner sum
    # is +inf near t = 1, exactly where the polynomial turns negative.
    big = 10**308
    return PowerSum.of(
        (big, 0), (big, 68), (big, 69), *((-big, e) for e in range(60, 65))
    )


def _fallback_m_eleven_halves(check):
    # A check of touchdown-m at m = 11/2, N = 17, voltage H_N/2 that
    # exceeds the degree cap, read back from the power sum its claim holds.
    report = check_candidate(touchdown_profile(F(11, 2)), 17, hardy_rellich(17) / 2, {})
    terms = report.checks[check].claim["terms"]
    return PowerSum.of(*((F(c), F(e)) for c, e in terms))


_FALLBACK_CASES = {
    **{f"random-{seed}": (lambda seed=seed: _fallback_random(seed)) for seed in range(6)},
    "below-rounding": _fallback_below_rounding,
    "overflow": _fallback_overflow,
    "m=11/2-subsolution": lambda: _fallback_m_eleven_halves("subsolution"),
    "m=11/2-semistable": lambda: _fallback_m_eleven_halves("semistable"),
}


@pytest.mark.parametrize("case", sorted(_FALLBACK_CASES))
def test_filtered_fallback_matches_exact_loop(case):
    # The unfiltered fallback, kept here as the reference: the float
    # screen's pick first, then every sample in order, each decided
    # exactly.  The filtered fallback must agree on status and witness,
    # and no sample the float filter certifies may be <= 0 exactly.
    ps = _FALLBACK_CASES[case]()
    poly, _, q = reduce_power_sum(ps)
    assert poly.degree > certify_mod.DEGREE_CAP
    den = certify_mod.FALLBACK_SAMPLES + 1
    cs = integer_coeffs(poly)
    signs = [sign_at(cs, F(k, den)) for k in range(1, den)]
    fcoeffs = [float(c) for c in poly.coeffs]
    pick = certify_mod._screen_pick(fcoeffs)
    expected = ("inconclusive", None)
    for k in sorted(range(1, den), key=lambda k: k != pick):
        if signs[k - 1] < 0:
            expected = ("falsified", F(k, den) ** q)
            break
    certified = certify_mod._certified_positive(fcoeffs)
    assert all(s > 0 for s, ok in zip(signs, certified) if ok)
    if case == "below-rounding":
        vals = certify_mod._horner_samples(fcoeffs)
        assert signs[5024] < 0 < vals[5024] and expected[1] == F(5025, den)
    if case == "overflow":
        vals = certify_mod._horner_samples(fcoeffs)
        assert expected[0] == "falsified"
        assert all(np.isinf(vals[k - 1]) for k in range(1, den) if signs[k - 1] < 0)
    cert = power_sum_nonneg(ps)
    assert "fallback" in cert.trail[0]["note"]
    assert (cert.status, cert.witness) == expected


def _times(ps, scale):
    return PowerSum.of(*((t.coeff * scale, t.exponent) for t in ps.terms))


def test_fallback_beyond_float_range(monkeypatch):
    # Coefficients past the largest float are screened as p / 2^k.  A
    # power-of-two multiple of a fallback case keeps its grade and witness;
    # small terms next to huge ones round into or below the subnormal
    # range, and every sample the float filter then certifies is > 0.
    screened = []
    certified_positive = certify_mod._certified_positive
    monkeypatch.setattr(certify_mod, "_certified_positive",
                        lambda cs: screened.append(cs) or certified_positive(cs))
    for seed in (0, 1):
        base = _fallback_random(seed)
        big = _times(base, F(2**2070))
        assert max(abs(t.coeff) for t in big.terms) > 2**1024
        expected = power_sum_nonneg(base)
        cert = power_sum_nonneg(big)
        assert "fallback" in cert.trail[0]["note"]
        assert (cert.status, cert.witness) == (expected.status, expected.witness)
    d = max(t.exponent for t in big.terms)
    mixed = PowerSum.of(*((t.coeff, t.exponent) for t in big.terms),
                        (F(2**60, 3), d + 1), (F(-5, 7), d + 2), (F(2**-1000), d + 3))
    screened.clear()
    power_sum_nonneg(mixed)
    (fcoeffs,) = screened
    assert max(abs(c) for c in fcoeffs) < 2.0**1001
    assert 0 < fcoeffs[-3] < np.finfo(float).tiny and fcoeffs[-2:] == [0.0, 0.0]
    poly, _, _ = reduce_power_sum(mixed)
    cs = integer_coeffs(poly)
    den = certify_mod.FALLBACK_SAMPLES + 1
    ok = certified_positive(fcoeffs)
    assert any(ok)
    assert all(sign_at(cs, F(k, den)) > 0 for k in range(1, den) if ok[k - 1])


def test_witness_that_does_not_confirm_raises(monkeypatch):
    # A falsified inner certificate whose witness is not a violation of
    # the power sum must stop the engine, also under python -O.
    monkeypatch.setattr(
        certify_mod, "certify_nonneg", lambda p: Certificate({}, "falsified", F(1, 2), [])
    )
    with pytest.raises(ArithmeticError, match="witness does not confirm"):
        power_sum_nonneg(PowerSum.of((1, 0), (1, 1)))


def test_m2_bilaplacian_identity_failure_raises(monkeypatch):
    monkeypatch.setattr(certify_mod, "apply_bilaplacian", lambda w, n: PowerSum.of((1, 0)))
    with pytest.raises(ArithmeticError, match="bilaplacian of the m = 2 profile"):
        certify_m2_subsolution(5)
