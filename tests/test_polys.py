"""Tests for the exact polynomial engine."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mems4.polys import RationalPolynomial, from_power_shifts, integer_coeffs, sign_at

F = Fraction
P = RationalPolynomial.of


def test_normalization_and_degree():
    assert P(1, 2, 0, 0).degree == 1
    assert P().is_zero()
    assert P(0, 0).is_zero()


def test_eval_horner():
    p = P(-1, 0, 1)  # x^2 - 1
    assert p(F(2)) == 3
    assert p(F(1, 2)) == F(-3, 4)


def test_divmod():
    p = P(-1, 0, 1)
    q, r = p.divmod(P(-1, 1))  # divide by x - 1
    assert q == P(1, 1)
    assert r.is_zero()
    q, r = P(1, 1, 1).divmod(P(0, 1))
    assert q == P(1, 1)
    assert r == P(1)


def test_gcd_and_squarefree():
    x_minus_1 = P(-1, 1)
    x_minus_2 = P(-2, 1)
    p = x_minus_1 * x_minus_1 * x_minus_2
    g = p.gcd(p.derivative())
    assert g == x_minus_1
    sf = p.squarefree_part()
    assert sf == x_minus_1 * x_minus_2


def test_isolate_roots_simple():
    p = P(0, -1, 0, 1).scale(6)  # 6x(x-1)(x+1)
    ivs = p.isolate_roots(F(-2), F(2))
    assert len(ivs) == 3
    roots = [F(-1), F(0), F(1)]
    for (lo, hi), r in zip(ivs, roots):
        assert lo < r < hi


def test_isolate_roots_endpoint_roots_excluded():
    # Roots exactly at interval endpoints must not be reported.
    p = P(0, 1) * P(-1, 1)  # x(x-1)
    assert p.isolate_roots(F(0), F(1)) == []


@settings(max_examples=60)
@given(
    st.lists(
        st.fractions(min_value=F(-5), max_value=F(5), max_denominator=8),
        min_size=1,
        max_size=4,
    )
)
def test_isolation_finds_all_constructed_roots(roots):
    p = P(1)
    for r in roots:
        p = p * P(-r, 1)
    lo, hi = F(-6), F(6)
    ivs = p.isolate_roots(lo, hi)
    distinct = sorted(set(roots))
    assert len(ivs) == len(distinct)
    for (a, b), r in zip(ivs, distinct):
        assert a < r < b
    # Intervals are pairwise disjoint.
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 <= a2


@given(
    st.lists(
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6),
        min_size=0,
        max_size=5,
    ),
    st.lists(
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6),
        min_size=0,
        max_size=5,
    ),
    st.fractions(min_value=F(-2), max_value=F(2), max_denominator=12),
)
# A divisor of higher degree than the dividend: quotient 0, remainder a.
@example(a=[F(1), F(2)], b=[F(0), F(0), F(-1, 2), F(3)], x=F(1, 2))
def test_ring_ops_consistent_with_eval(a, b, x):
    p, q = RationalPolynomial(tuple(a)), RationalPolynomial(tuple(b))
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)
    if not q.is_zero():
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


def test_derivative():
    p = P(5, 0, 3, 2)  # 2x^3 + 3x^2 + 5
    assert p.derivative() == P(0, 6, 6)


def test_from_power_shifts():
    p = from_power_shifts([(F(2), 3), (F(-1), 0), (F(1), 3)])
    assert p == P(-1, 0, 0, 3)


_ROOTS = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=12),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_ROOTS, st.integers(1, 3)), min_size=1, max_size=5),
    st.none() | st.fractions(min_value=F(1, 9), max_value=F(2), max_denominator=9),
    st.fractions(min_value=F(-7), max_value=F(7), max_denominator=5).filter(bool),
)
@example(roots=[(F(0), 2), (F(1), 3), (F(1, 2), 2)], square=F(1, 3), lead=F(-2, 3))
def test_isolation_count_matches_sympy(roots, square, lead):
    # Products of (x - r)^k, roots at 0 and 1 and repeated roots included,
    # times an optional x^2 - s with an irrational root when s is not a
    # square: the interval count is sympy's count of distinct roots in
    # [0, 1], less the roots at the endpoints.
    p = P(lead)
    for r, k in roots:
        for _ in range(k):
            p = p * P(-r, 1)
    if square is not None:
        p = p * P(-square, 0, 1)
    x = sympy.Symbol("x")
    sp = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x
    )
    expected = sp.count_roots(0, 1) - (p(F(0)) == 0) - (p(F(1)) == 0)
    ivs = p.isolate_roots(F(0), F(1))
    assert len(ivs) == expected
    for lo, hi in ivs:
        assert 0 < lo < hi < 1 and p(lo) != 0 and p(hi) != 0
        assert sp.count_roots(lo, hi) == 1


@settings(max_examples=150)
@given(
    st.lists(st.fractions(min_value=F(-9), max_value=F(9), max_denominator=30), max_size=8),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=1000),
    st.booleans(),
)
def test_integer_sign_matches_fraction_horner(coeffs, x, root_at_x):
    p = RationalPolynomial(tuple(coeffs))
    if root_at_x:
        p = p * P(-x, 1)
    v = p(x)
    assert sign_at(integer_coeffs(p), x) == (v > 0) - (v < 0)
