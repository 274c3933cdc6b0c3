"""Exactness tests for the rational power-sum calculus."""

from fractions import Fraction
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mems4.closed_forms import (
    MAX_DIGITS,
    BoundaryPair,
    PowerSum,
    apply_bilaplacian,
    bilaplacian_power_coeff,
    boundary_extension,
    hardy_rellich,
    is_admissible,
    laplacian_power_coeff,
    parse_rational,
    quadratic_lower_bound,
    rational_pow,
    singular_voltage,
    touchdown_profile,
    touchdown_shape,
)

F = Fraction
FT = F(4, 3)

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=60
)
dimensions = st.integers(min_value=1, max_value=40)


@pytest.mark.parametrize("text", ["1e4299", "-1E-4299", "-1/5", "0.5", "1e-3", " 2e+3 ", "7"])
def test_parse_rational_is_fraction_up_to_the_exponent_limit(text):
    assert parse_rational(text) == F(text)


@pytest.mark.parametrize("text", [
    "1e4300", "-1E-4300", "1234567e4299", "0.5e-4300",
    # Literals whose own digits pass the limit, which Python's integer
    # parser would refuse with its own message.
    pytest.param("1" * 4301, id="integer-literal"),
    pytest.param("0." + "1" * 4301, id="decimal-literal"),
    pytest.param("1/" + "0" * 4300 + "1", id="denominator-literal"),
    pytest.param("1_" * 4300 + "1", id="underscored-literal"),
])
def test_parse_rational_refuses_more_digits_than_python_writes(text):
    # Within the exponent limit, but 10^4300 has 4301 digits, and Python
    # turns no integer of more than 4300 digits into text.
    with pytest.raises(ValueError, match=f"^numerator or denominator of more than {MAX_DIGITS} digits$"):
        parse_rational(text)
    # The largest numerator and denominator that are written.
    assert parse_rational("9" * MAX_DIGITS + "/" + "9" * (MAX_DIGITS - 1) + "8")


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 0/00 "])
def test_parse_rational_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match=f"^zero denominator, not {text!r}$"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e4301", "-2.5e-4301", "1e10000000", "1e" + "9" * 5000])
def test_parse_rational_refuses_a_huge_exponent_before_expanding_it(text):
    # Fraction itself would build a number of that many digits first.
    with pytest.raises(ValueError):
        parse_rational(text)


def test_quadratic_lower_bound_values():
    assert quadratic_lower_bound(5) == F(416, 27)  # the maximum over N
    assert quadratic_lower_bound(2) == F(128, 27)
    assert quadratic_lower_bound(3) == F(32, 3)
    assert max(quadratic_lower_bound(n) for n in range(1, 41)) == F(416, 27)


def test_singular_voltage_values():
    # Exact rational evaluation of 8(3N-2)(3N-8)/81.
    assert singular_voltage(9) == F(8 * 25 * 19, 81) == F(3800, 81)
    assert singular_voltage(17) == F(8 * 49 * 43, 81) == F(16856, 81)
    assert singular_voltage(2) == F(8 * 4 * (-2), 81) == F(-64, 81)
    assert singular_voltage(3) == F(56, 81)


def test_hardy_rellich_values():
    assert hardy_rellich(4) == 0
    assert hardy_rellich(9) == F(81 * 25, 16) == F(2025, 16)
    assert hardy_rellich(17) == F(48841, 16)
    assert hardy_rellich(17) / 2 == F(48841, 32)


@pytest.mark.parametrize("n", [0, -3])
def test_dimension_validation(n):
    with pytest.raises(ValueError):
        singular_voltage(n)


def test_bilaplacian_power_coeff_examples():
    for n in (1, 5, 12):
        assert bilaplacian_power_coeff(2, n) == 0
        assert bilaplacian_power_coeff(0, n) == 0
    # s = 3: symbolic expansion 3(N+1)(1)(N-1) = 3(N^2-1).
    for n in (2, 9, 17):
        assert bilaplacian_power_coeff(3, n) == 3 * (n * n - 1)


@given(dimensions)
def test_touchdown_exponent_matches_singular_voltage(n):
    assert bilaplacian_power_coeff(FT, n) == -singular_voltage(n)


@given(dimensions)
def test_laplacian_coeff_at_hardy_exponent(n):
    # At s = (4-N)/2 the Laplacian coefficient is N(4-N)/4, whose square
    # is the Hardy-Rellich constant.
    s = F(4 - n, 2)
    c = laplacian_power_coeff(s, n)
    assert c == F(n * (4 - n), 4)
    assert c * c == hardy_rellich(n)


def test_apply_bilaplacian_touchdown_shape():
    out = apply_bilaplacian(touchdown_shape(), 9)
    assert out == PowerSum.of((F(3800, 81), F(-8, 3)))


def test_apply_bilaplacian_w2():
    w2 = touchdown_profile(2)
    assert w2 == PowerSum.of((1, 0), (-3, FT), (2, 2))
    out = apply_bilaplacian(w2, 11)
    # The r^2 term is annihilated; 4/3 term gives 3 * singular_voltage.
    assert out == PowerSum.of((3 * singular_voltage(11), F(-8, 3)))


@given(rationals, rationals, dimensions)
def test_boundary_extension_is_in_kernel(alpha, beta, n):
    phi = boundary_extension(BoundaryPair(alpha, beta))
    assert apply_bilaplacian(phi, n).is_zero()


def test_boundary_extension_examples():
    assert boundary_extension(BoundaryPair(0, 0)).is_zero()
    phi = boundary_extension(BoundaryPair(0, F(-4, 3)))
    assert phi == PowerSum.of((F(2, 3), 0), (F(-2, 3), 2))
    phi = boundary_extension(BoundaryPair(F(1, 2), -1))
    assert phi == PowerSum.of((1, 0), (F(-1, 2), 2))


@given(rationals, rationals)
def test_boundary_extension_matches_data(alpha, beta):
    phi = boundary_extension(BoundaryPair(alpha, beta))
    assert phi.evaluate_exact(1) == alpha
    assert phi.derivative().evaluate_exact(1) == beta


def test_admissibility():
    assert is_admissible(BoundaryPair(0, 0))
    assert is_admissible(BoundaryPair(0, F(-4, 3)))
    assert not is_admissible(BoundaryPair(1, 0))  # strict inequality fails
    assert not is_admissible(BoundaryPair(0, 1))  # positive slope


def test_touchdown_profile_m2_m3():
    assert touchdown_profile(2) == PowerSum.of((1, 0), (-3, FT), (2, 2))
    assert touchdown_profile(3) == PowerSum.of((1, 0), (F(-9, 5), FT), (F(4, 5), 3))


@pytest.mark.parametrize("m", [F(2), F(5, 2), F(3), F(4), F(10), F(1, 2)])
def test_touchdown_profile_clamped(m):
    w = touchdown_profile(m)
    assert w.evaluate_exact(1) == 0
    assert w.derivative().evaluate_exact(1) == 0
    assert w.evaluate_exact(0) == 1


def test_touchdown_profile_pole():
    with pytest.raises(ValueError):
        touchdown_profile(F(4, 3))
    with pytest.raises(ValueError):
        touchdown_profile(0)


def test_power_sum_normalization():
    ps = PowerSum.of((1, 2), (2, 0), (-1, 2), (3, 1))
    assert ps == PowerSum.of((2, 0), (3, 1))
    assert ps.integer_form == (1, 1, ((2, 0), (3, 1)))


@given(rationals, rationals, st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=20))
def test_power_sum_product_eval(a, b, r):
    p = PowerSum.of((a, 1), (1, 0))
    q = PowerSum.of((b, 2), (-1, 0))
    assert (p * q).evaluate_exact(r) == p.evaluate_exact(r) * q.evaluate_exact(r)


def _normalized(pairs):
    """The Fraction-keyed term merge: exponents sorted, duplicates merged,
    zero coefficients dropped.  The oracle normalizer, independent of
    PowerSum's integer one."""
    merged = {}
    for c, e in pairs:
        c, e = F(c), F(e)
        key = (e.numerator, e.denominator)
        if key in merged:
            merged[key][1] += c
        else:
            merged[key] = [e, c]
    return tuple((c, e) for e, c in sorted(merged.values(), key=itemgetter(0)) if c != 0)


# The termwise Fraction formulas, normalized by the oracle: the oracle for
# PowerSum's integer kernels.
def _termwise_mul(p, q):
    return _normalized((c * d, e + f) for c, e in p for d, f in q)


def _termwise_add(p, q):
    return _normalized(p + q)


def _termwise_neg(p):
    return _normalized((-c, e) for c, e in p)


def _termwise_scale(p, c):
    return _normalized((c * d, e) for d, e in p)


def _termwise_bilaplacian(p, n):
    return _normalized((c * bilaplacian_power_coeff(e, n), e - 4) for c, e in p)


def _termwise_derivative(p):
    return _normalized((c * e, e - 1) for c, e in p)


# Few exponents, so that terms share them, negative ones among them; some
# terms come back negated, so that coefficients cancel to an empty sum.
_exponents = st.sampled_from([F(0), FT, F(-8, 3), F(2), F(-1, 2), F(4)]) | st.fractions(
    min_value=F(-6), max_value=F(6), max_denominator=12
)


@st.composite
def power_sums(draw):
    pairs = draw(st.lists(st.tuples(rationals, _exponents), max_size=6))
    pairs += [(-c, e) for c, e in pairs[: draw(st.integers(0, len(pairs)))]]
    return PowerSum.of(*_normalized(pairs))


def _terms(p):
    den, qden, pairs = p.integer_form
    return tuple((F(a, den), F(k, qden)) for a, k in pairs)


def _termwise_evaluate(p, r):
    return sum((c * rational_pow(r, e) for c, e in _terms(p)), F(0))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _same(out, expected):
    assert _terms(out) == expected
    # The form is canonical: den and qden are the lcm of the coefficient
    # and of the exponent denominators.
    den = lcm(*(c.denominator for c, _ in expected))
    qden = lcm(*(e.denominator for _, e in expected))
    assert out.integer_form == (den, qden, tuple((c * den, e * qden) for c, e in expected))


@given(power_sums(), power_sums(), rationals, dimensions)
def test_power_sum_kernels_match_termwise_formulas(p, q, c, n):
    s, t = _terms(p), _terms(q)
    _same(p * q, _termwise_mul(s, t))
    _same(p - q, _termwise_add(s, _termwise_neg(t)))
    _same(p.scale(c), _termwise_scale(s, c))
    _same(apply_bilaplacian(p, n), _termwise_bilaplacian(s, n))
    _same(p.derivative(), _termwise_derivative(s))
    # At 0, at 1, at a point where every power is rational and at one
    # where some power may be irrational.
    root = F(abs(c.numerator) % 7 + 1, abs(c.denominator) % 5 + 1)
    for r in (F(0), F(1), root ** p.integer_form[1], root):
        assert _outcome(p.evaluate_exact, r) == _outcome(_termwise_evaluate, p, r)
    _same(p * q * p - q.scale(c), _termwise_add(
        _termwise_mul(_termwise_mul(s, t), s), _termwise_neg(_termwise_scale(t, c))
    ))


def test_non_canonical_form_equals_the_canonical_one():
    ps = PowerSum((6, 2, ((2, 0), (0, 4), (3, 2))))
    built = PowerSum.of((F(1, 3), 0), (F(1, 2), 1))
    assert ps == built and hash(ps) == hash(built)
    assert ps.integer_form == (6, 1, ((2, 0), (3, 1)))


@given(st.lists(st.tuples(rationals, _exponents), max_size=8))
def test_of_matches_the_termwise_merge(pairs):
    _same(PowerSum.of(*pairs), _normalized(pairs))


def test_rational_pow():
    assert rational_pow(F(1, 8), F(4, 3)) == F(1, 16)
    assert rational_pow(F(27, 8), F(-2, 3)) == F(4, 9)
    with pytest.raises(ValueError):
        rational_pow(F(1, 3), F(1, 2))


def test_evaluate_rejects_negative_radius():
    with pytest.raises(ValueError):
        touchdown_shape().evaluate_exact(F(-1, 2))


def test_evaluate_at_origin():
    assert touchdown_shape().evaluate_exact(0) == 1
    with pytest.raises(ZeroDivisionError):
        PowerSum.of((1, F(-2))).evaluate_exact(0)
