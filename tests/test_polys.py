"""Tests for the exact polynomial engine."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mems4.polys import RationalPolynomial, from_power_shifts

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
