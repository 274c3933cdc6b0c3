"""Tests for the exact polynomial engine."""

from fractions import Fraction
from functools import cached_property
from math import lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mems4 import polys
from mems4.polys import (
    RationalPolynomial,
    _derivative,
    _exact_quotient,
    _primitive,
    _pseudo_remainder,
    _taylor_shift,
    bernstein_sign,
    sign_at,
)

F = Fraction
X = sympy.Symbol("x")


def P(*coeffs):
    return RationalPolynomial.of(*coeffs)


def test_normalization_and_degree():
    assert P(1, 2, 0, 0).degree == 1
    assert P().is_zero()
    assert P(0, 0).is_zero()


def test_eval_horner():
    p = P(-1, 0, 1)  # x^2 - 1
    assert p(F(2)) == 3
    assert p(F(1, 2)) == F(-3, 4)


def test_integer_form_is_cached_and_builds_no_remainders():
    p = P(F(1, 6), F(-3, 4), 2)
    assert p.integer_form == (12, (2, -9, 24))
    assert p.integer_form is p.integer_form
    assert p(F(1, 3)) == F(1, 6) - F(1, 4) + F(2, 9)
    assert "_remainders" not in p.__dict__
    assert P().integer_form == (1, ())


def _sympy_poly(p):
    den, cs = p.integer_form
    return sympy.Poly([sympy.Rational(c, den) for c in reversed(cs)] or [0], X, domain="QQ")


def _coeffs(p):
    den, cs = p.integer_form
    return tuple(F(c, den) for c in cs)


def _product(*factors):
    """The product of the factors, multiplied out by sympy."""
    sp = sympy.Poly(1, X, domain="QQ")
    for f in factors:
        sp = sp * _sympy_poly(f)
    return P(*(F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())))


def test_gcd_and_squarefree():
    # p / gcd(p, p') with the gcd made monic, checked against sympy.
    x_minus_1 = P(-1, 1)
    x_minus_2 = P(-2, 1)
    p = _product(x_minus_1, x_minus_1, x_minus_2)
    sp = _sympy_poly(p)
    assert sympy.gcd(sp, sp.diff(X)).monic() == _sympy_poly(x_minus_1)
    sf = p.squarefree_part()
    assert sf == _product(x_minus_1, x_minus_2)
    assert _sympy_poly(sf) == sp.sqf_part()


def test_isolate_roots_simple():
    p = P(0, -6, 0, 6)  # 6x(x-1)(x+1)
    ivs = p.isolate_roots(F(-2), F(2))
    assert len(ivs) == 3
    roots = [F(-1), F(0), F(1)]
    for (lo, hi), r in zip(ivs, roots):
        assert lo < r < hi


def test_isolate_roots_endpoint_roots_excluded():
    # Roots exactly at interval endpoints must not be reported.
    p = P(0, -1, 1)  # x(x-1)
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
    p = _product(*(P(-r, 1) for r in roots))
    lo, hi = F(-6), F(6)
    ivs = p.isolate_roots(lo, hi)
    distinct = sorted(set(roots))
    assert len(ivs) == len(distinct)
    for (a, b), r in zip(ivs, distinct):
        assert a < r < b
    # Intervals are pairwise disjoint.
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 <= a2


def test_derivative():
    # The Sturm chain starts with the primitive polynomial and its
    # primitive derivative, here sympy's diff of 2x^3 + 3x^2 + 5.
    p = P(5, 0, 3, 2)
    _, derivative = _sympy_poly(p).diff(X).primitive()
    chain = p.sturm_sequence()
    assert chain[0] == [5, 0, 3, 2]
    assert chain[1] == list(reversed(derivative.all_coeffs())) == [0, 1, 1]


_ROOTS = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=12),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_ROOTS, st.integers(1, 3)), min_size=1, max_size=5),
    st.none() | st.fractions(min_value=F(1, 9), max_value=F(2), max_denominator=9),
    st.fractions(min_value=F(-7), max_value=F(7), max_denominator=5).filter(bool),
    st.tuples(_ROOTS, st.integers(0, 3)),
    st.tuples(_ROOTS, st.integers(0, 3)),
)
@example(roots=[(F(0), 2), (F(1), 3), (F(1, 2), 2)], square=F(1, 3), lead=F(-2, 3),
         end=(F(0), 0), other_end=(F(1), 0))
@example(roots=[(F(1, 3), 2), (F(-1, 2), 1)], square=F(1, 4), lead=F(3),
         end=(F(-1, 2), 2), other_end=(F(1, 2), 3))
def test_isolation_count_matches_sympy(roots, square, lead, end, other_end):
    # Products of (x - r)^k, repeated roots included, times an optional
    # x^2 - s with an irrational root when s is not a square, on (a, b)
    # whose ends are roots of any multiplicity (an end's own factor to
    # the power 0..3, more when it is also among the roots): the interval
    # count is sympy's count of distinct roots in [a, b], less the roots
    # at the ends.
    (a, ka), (b, kb) = sorted([end, other_end])
    assume(a < b)
    factors = [P(-r, 1) for r, k in [*roots, (a, ka), (b, kb)] for _ in range(k)]
    if square is not None:
        factors.append(P(-square, 0, 1))
    p = _product(P(lead), *factors)
    sp = _sympy_poly(p)
    expected = sp.count_roots(a, b) - (p(a) == 0) - (p(b) == 0)
    ivs = p.isolate_roots(a, b)
    assert len(ivs) == expected
    for lo, hi in ivs:
        assert a < lo < hi < b and p(lo) != 0 and p(hi) != 0
        assert sp.count_roots(lo, hi) == 1
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        assert hi <= lo


@settings(max_examples=150)
@given(
    st.lists(st.fractions(min_value=F(-9), max_value=F(9), max_denominator=30), max_size=8),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=1000),
    st.booleans(),
)
def test_integer_sign_matches_fraction_horner(coeffs, x, root_at_x):
    p = P(*coeffs)
    if root_at_x:
        p = _product(p, P(-x, 1))
    v = p(x)
    assert sign_at(p.integer_form[1], x) == (v > 0) - (v < 0)


def _fraction_horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_ROOTS, st.integers(1, 3)), max_size=5),
    st.fractions(min_value=F(-7), max_value=F(7), max_denominator=5),
)
@example(roots=[], lead=F(0))
@example(roots=[], lead=F(-3, 7))
@example(roots=[(F(0), 3), (F(1), 2), (F(1, 3), 1)], lead=F(-2, 3))
def test_squarefree_part_matches_sympy(roots, lead):
    # Products of (x - r)^k, repeated roots and roots at 0 and 1 included:
    # the integer square-free part q is a rational multiple of sympy's
    # sqf_part and satisfies p == q * (monic gcd of p and p').
    p = _product(P(lead), *(P(-r, 1) for r, k in roots for _ in range(k)))
    q = p.squarefree_part()
    if p.degree <= 0:
        assert q == p
        return
    sp, sq = _sympy_poly(p), _sympy_poly(q)
    ref = sp.sqf_part()
    assert sq == ref * (sq.LC() / ref.LC())
    assert sq * sympy.gcd(sp, sp.diff(X)).monic() == sp
    (pd, pc), (qd, qc) = p.integer_form, q.integer_form
    assert F(qc[-1], qd) == F(pc[-1], pd)


@settings(max_examples=150)
@given(
    st.lists(st.fractions(min_value=F(-9), max_value=F(9), max_denominator=30), max_size=8),
    st.one_of(
        st.integers(-20, 20),
        st.sampled_from([F(0), F(1), F(-1)]),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=1000),
    ),
    st.integers(0, 3),
)
@example(coeffs=[], x=F(1, 3), multiplicity=0)
@example(coeffs=[F(5, 2)], x=-4, multiplicity=0)
@example(coeffs=[F(1), F(-1, 2)], x=F(1), multiplicity=3)
def test_eval_matches_fraction_horner(coeffs, x, multiplicity):
    # The integer homogeneous Horner value equals the Fraction Horner
    # value: zero polynomial, constants, integer and negative x, and x a
    # repeated root (0 and 1 included) of the polynomial.
    p = _product(P(*coeffs), *[P(-F(x), 1)] * multiplicity)
    v = p(x)
    assert type(v) is Fraction and v == _fraction_horner(_coeffs(p), F(x))
    if multiplicity:
        assert v == 0


def _loop_integer_coeffs(coeffs):
    # The primitive integer coefficients of Fraction coefficients (trailing
    # zeros dropped), as read before the integer form was the polynomial.
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _loop_squarefree_part(coeffs):
    # The Fraction coefficients of the square-free part as computed before
    # the shared remainder sequence: its own gcd loop, a Fraction scale.
    if len(coeffs) <= 1:
        return tuple(coeffs)
    f = _loop_integer_coeffs(coeffs)
    g, r = f, _derivative(f)
    while r:
        g, r = r, _pseudo_remainder(g, r)
    if len(g) == 1:
        return tuple(coeffs)
    scale = coeffs[-1] / f[-1] * g[-1]
    return tuple(scale * c for c in _exact_quotient(f, g))


def _loop_sturm_sequence(coeffs):
    # The Sturm chain as built before: c_(k+1) = -prem(c_(k-1), c_k) on
    # the square-free part, its own loop.
    f = _loop_integer_coeffs(_loop_squarefree_part(coeffs))
    chain = [f, _derivative(f)]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [q for q in chain if q]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_ROOTS, st.integers(1, 3)), max_size=6),
    st.none() | st.fractions(min_value=F(1, 9), max_value=F(2), max_denominator=9),
    st.fractions(min_value=F(-7), max_value=F(7), max_denominator=5),
)
@example(roots=[], square=None, lead=F(0))
@example(roots=[], square=None, lead=F(-3, 7))
@example(roots=[(F(0), 3), (F(1), 2), (F(1, 3), 1)], square=F(2), lead=F(-2, 3))
def test_shared_remainders_match_separate_loops(roots, square, lead):
    # Repeated roots, roots at 0 and 1 and an optional irreducible
    # quadratic: the square-free part and the Sturm chain read from the
    # one remainder sequence equal the separate loops, member for member.
    factors = [P(-r, 1) for r, k in roots for _ in range(k)]
    if square is not None:
        factors.append(P(-square, 0, 1))
    p = _product(P(lead), *factors)
    assert p.squarefree_part() == P(*_loop_squarefree_part(_coeffs(p)))
    assert RationalPolynomial(p.integer_form).sturm_sequence() == _loop_sturm_sequence(_coeffs(p))


def _fraction_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def test_non_canonical_form_equals_the_canonical_one():
    p = RationalPolynomial((12, (4, -6, 0, 0)))
    built = P(F(1, 3), F(-1, 2))
    assert p == built and hash(p) == hash(built)
    assert p.integer_form == built.integer_form == (6, (2, -3)) and p.degree == 1
    assert RationalPolynomial((7, [0, 0])) == P() and P().integer_form == (1, ())


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=F(-9), max_value=F(9), max_denominator=12), max_size=4),
    st.lists(st.tuples(_ROOTS, st.integers(1, 3)), max_size=3),
    st.integers(1, 60),
    st.integers(0, 3),
)
@example(raw=[F(0)], roots=[], k=5, zeros=2)
@example(raw=[F(-2, 3)], roots=[(F(0), 2), (F(1), 1), (F(1, 2), 3)], k=6, zeros=1)
def test_integer_form_matches_the_fraction_oracles(raw, roots, k, zeros):
    # raw times (x - r)^m for each (r, m), multiplied out in Fractions and
    # with its trailing zeros (if any) kept: the polynomial built by .of
    # equals, and hashes equal to, the one built from the non-canonical
    # form (k den, k cs + zeros), and both match the Fraction oracles.
    for r, m in roots:
        for _ in range(m):
            raw = _fraction_mul(raw, [-r, F(1)])
    coeffs = list(raw)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    coeffs = tuple(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    p = P(*raw)
    q = RationalPolynomial((k * den, [k * int(c * den) for c in coeffs] + [0] * zeros))
    assert p == q and hash(p) == hash(q)
    assert p.integer_form == q.integer_form == (den, tuple(int(c * den) for c in coeffs))
    assert q == P(*coeffs)
    for x in (F(0), F(1), F(1, 2), F(-7, 3), *(r for r, _ in roots)):
        assert q(x) == _fraction_horner(coeffs, x)
    assert q.squarefree_part() == P(*_loop_squarefree_part(coeffs))
    assert q.sturm_sequence() == _loop_sturm_sequence(coeffs)
    # Isolation on (0, 1) against sympy's count of the distinct roots there.
    ivs = q.isolate_roots(F(0), F(1))
    if len(coeffs) > 1:
        sp = _sympy_poly(q)
        ends = (coeffs[0] == 0) + (sum(coeffs) == 0)
        assert len(ivs) == sp.count_roots(0, 1) - ends
        for lo, hi in ivs:
            assert 0 < lo < hi < 1 and sp.count_roots(lo, hi) == 1
            assert _fraction_horner(coeffs, lo) != 0 != _fraction_horner(coeffs, hi)
    else:
        assert ivs == []


def _sign_at_values(chain, x):
    # The chain's signs at x by sign_at at every point, 0 and 1 included.
    return [sign_at(q, x) for q in chain]


def _sign_at_variations(chain, x):
    signs = [s for s in _sign_at_values(chain, x) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_ROOTS, st.integers(1, 3)), max_size=5),
    st.integers(0, 3),
    st.integers(0, 3),
    st.none() | st.fractions(min_value=F(1, 9), max_value=F(2), max_denominator=9),
    st.fractions(min_value=F(-7), max_value=F(7), max_denominator=5).filter(bool),
)
@example(roots=[], at_zero=1, at_one=0, square=None, lead=F(1))
@example(roots=[(F(1, 2), 2)], at_zero=3, at_one=2, square=F(1, 4), lead=F(-2, 3))
def test_chain_signs_at_zero_and_one_match_sign_at(roots, at_zero, at_one, square, lead):
    # A zero constant term (a root at 0), a zero coefficient sum (a root
    # at 1), each of multiplicity up to 3, and repeated roots elsewhere:
    # the sign variations at 0 and 1 read from constant terms and
    # coefficient sums equal sign_at's on the chain and on the chain of
    # the separate loops, and isolate_roots(0, 1) finds the same
    # intervals as with sign_at at every point.
    factors = [P(-r, 1) for r, k in [*roots, (F(0), at_zero), (F(1), at_one)] for _ in range(k)]
    if square is not None:
        factors.append(P(-square, 0, 1))
    p = _product(P(lead), *factors)
    assume(p.degree >= 1)
    chain = p.sturm_sequence()
    loop_chain = _loop_sturm_sequence(_coeffs(p))
    for x in (F(0), F(1)):
        expected = _sign_at_variations(chain, x)
        assert polys._sign_variations(chain, x) == expected == _sign_at_variations(loop_chain, x)
    ivs = p.isolate_roots(0, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "_chain_values", _sign_at_values)
        assert RationalPolynomial(p.integer_form).isolate_roots(0, 1) == ivs
    sp = _sympy_poly(p)
    assert len(ivs) == sp.count_roots(0, 1) - (p(F(0)) == 0) - (p(F(1)) == 0)


def test_square_free_isolation_builds_one_remainder_sequence(monkeypatch):
    # (x - 1/3)(x - 1/2)(x - 2/3)(x + 1)(x - 2): square free, no root at 0
    # or 1, remainder degrees 5, 4, ..., 0.  The square-free part, the
    # Sturm chain and the zero tests share one sequence: 5 pseudo-
    # remainders (the last one zero), where separate loops took 15.
    calls = []
    real = polys._pseudo_remainder
    monkeypatch.setattr(polys, "_pseudo_remainder", lambda a, b: calls.append(1) or real(a, b))
    p = _product(P(F(-1, 3), 1), P(F(-1, 2), 1), P(F(-2, 3), 1), P(1, 1), P(-2, 1))
    assert len(p.isolate_roots(F(0), F(1))) == 3
    assert len(calls) == p.degree == 5


def test_isolation_through_end_roots_builds_one_remainder_sequence(monkeypatch):
    # x (x - 1)(x - 1/2)(x + 1): square free, with simple roots at both
    # ends of (0, 1).  Counting through the end roots isolates 1/2 on the
    # chain of p's own remainder sequence; no second polynomial with the
    # end roots divided out builds another.
    built = []
    remainders = RationalPolynomial.__dict__["_remainders"].func
    counted = cached_property(lambda self: built.append(self) or remainders(self))
    counted.__set_name__(RationalPolynomial, "_remainders")
    monkeypatch.setattr(RationalPolynomial, "_remainders", counted)
    p = _product(P(0, 1), P(-1, 1), P(F(-1, 2), 1), P(1, 1))
    ((lo, hi),) = p.isolate_roots(F(0), F(1))
    assert lo < F(1, 2) < hi
    assert len(built) == 1


def test_inexact_division_raises():
    # x^2 + 1 is not divisible by x - 1; the check must hold under
    # python -O as well.
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        _exact_quotient([1, 0, 1], [-1, 1])


@settings(max_examples=60)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12))
def test_taylor_shift_matches_sympy(coeffs):
    shifted = sympy.Poly(list(reversed(coeffs)), X).compose(sympy.Poly(X + 1, X))
    expected = [int(c) for c in reversed(shifted.all_coeffs())]
    assert _taylor_shift(coeffs) == expected + [0] * (len(coeffs) - len(expected))


def test_bernstein_sign_pieces_witness_and_stall():
    # 64 (x - 1/2)^2 + 1: positive, with two sign variations on (0, 1)
    # and none on either half.
    assert bernstein_sign([17, -64, 64]) == ([(0, F(1, 2)), (F(1, 2), 1)], None)
    # 128 (x - 3/8)(x - 7/16): negative only between its roots, where
    # 13/32 is the fewest-bit dyadic.
    assert bernstein_sign([21, -104, 128]) == ([], F(13, 32))
    # (3x - 1)^2 keeps two variations on the piece around 1/3.
    assert bernstein_sign([1, -6, 9]) is None
