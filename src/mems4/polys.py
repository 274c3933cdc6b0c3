"""Exact univariate polynomials: square-free part, Sturm chain, real
root isolation, and a Bernstein sign test on (0, 1).

A polynomial is integer coefficients over one denominator, so all of it
computes over Python integers.  Each polynomial builds one primitive
pseudo-remainder sequence f, f', prem(f, f'), ... down to the gcd of f
and f', once, and keeps it: the square-free part divides f by that gcd
exactly, and the Sturm chain (a list of integer coefficient lists) is
the square-free part's own sequence with the signs +, +, -, -.
The value or the sign of a polynomial at a rational a/b comes from the
integer sum c_i a^i b^(d-i).  Isolation counts on the square-free
part's chain, through roots at the interval's ends (a root is simple
there, so its zero sign counts as just past it), and refines by
bisection with these exact sign tests, so every interval endpoint
reported here is a rational number whose sign data can be replayed
independently.  The Bernstein sign test needs no remainder sequence:
Descartes' rule on one Taylor shift per piece, over integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Sequence

# Halvings after which a piece that still has two or more sign
# variations stops the Bernstein sign test, as a repeated root always
# does; certify_nonneg then hands the polynomial to Sturm isolation.  In
# sweeps of 240 random admitted search candidates (check degree 65..900,
# N = 9, 12, 16, 17, voltage H_N/2, H_N/4 and 1.8e308) every check was
# decided within 6; a repeated root at degree 900 spends about 2.4 s on
# these 8 before the hand-off.
BERNSTEIN_DEPTH = 8

@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial over Q, coefficients in ascending degree order.

    Its one value is the integer form (den, cs), the polynomial
    sum (cs_i / den) x^i with den > 0, so cs has its sign everywhere.
    The constructor drops trailing zeros from cs (any iterable) and
    divides den and cs by their gcd, so equal polynomials compare and
    hash equal however they were built.
    """

    integer_form: tuple[int, tuple[int, ...]]

    def __post_init__(self):
        den, cs = self.integer_form
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        g = gcd(den, *cs)
        object.__setattr__(self, "integer_form", (den // g, tuple(c // g for c in cs)))

    @staticmethod
    def of(*coeffs: Fraction | int | str) -> "RationalPolynomial":
        """Build from rational coefficients in ascending degree order."""
        fs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fs))
        return RationalPolynomial((den, (c.numerator * (den // c.denominator) for c in fs)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.integer_form[1]) - 1

    def is_zero(self) -> bool:
        return not self.integer_form[1]

    def __call__(self, x: Fraction) -> Fraction:
        """Exact value at x: one integer homogeneous Horner sum over the
        common denominator of the coefficients, then a single Fraction."""
        x = Fraction(x)
        den, cs = self.integer_form
        b = x.denominator
        return Fraction(_homogeneous_horner(cs, x) * b, den * b ** len(cs))

    @cached_property
    def _remainders(self) -> list[list[int]]:
        """f, the primitive integer coefficients, its primitive derivative
        f', then the primitive pseudo-remainders r_(k+1) = prem(r_(k-1), r_k)
        down to the last nonzero one, the primitive gcd of f and f'.
        Computed once per instance; [] for the zero polynomial."""
        seq = [_primitive(self.integer_form[1])] if self.degree >= 0 else []
        r = _derivative(seq[0]) if seq else []
        while r:
            seq.append(r)
            r = _pseudo_remainder(seq[-2], r)
        return seq

    def squarefree_part(self) -> "RationalPolynomial":
        """self divided by the monic gcd of self and its derivative.

        Computed over Z: the primitive gcd g of f = cs / content divides f
        exactly (Gauss's lemma), and self / (g / lc(g)) is f / g times the
        integer content * lc(g), over den."""
        if self.degree <= 0:
            return self
        f, g = self._remainders[0], self._remainders[-1]
        if len(g) == 1:
            return self
        den, cs = self.integer_form
        scale = cs[-1] // f[-1] * g[-1]
        return RationalPolynomial((den, (scale * c for c in _exact_quotient(f, g))))

    def sturm_sequence(self) -> list[list[int]]:
        """Sturm chain of the square-free part as integer coefficient
        lists, each member primitive (coprime integer coefficients, a
        positive multiple of the classical member).

        The chain c_0 = f, c_1 = f', c_(k+1) = -prem(c_(k-1), c_k) is the
        square-free part's remainder sequence r_k with the signs
        +, +, -, -, +, +, ...: prem(a, -b) = prem(a, b) and
        prem(-a, b) = -prem(a, b), so c_k = r_k for k = 0, 1 (mod 4) and
        c_k = -r_k otherwise."""
        seq = self.squarefree_part()._remainders
        return [list(r) if k % 4 < 2 else [-c for c in r] for k, r in enumerate(seq)]

    def isolate_roots(
        self, a: Fraction, b: Fraction
    ) -> list[tuple[Fraction, Fraction]]:
        """Disjoint open intervals (lo, hi), each containing exactly one
        distinct root of the polynomial lying strictly inside (a, b).

        Counts on the square-free part's own Sturm chain, also when a or
        b is a root.  Every root of the square-free part is simple, so
        chain[1] is nonzero there, and dropping the zero sign of chain[0]
        counts at a root x as at x + 0: count(x, y) is the number of
        roots in (x, y], and a root at b is taken off the total.  Every
        split point is off the roots, so every reported endpoint is
        strictly inside (a, b) and is a non-root of the polynomial, and
        its exact sign is meaningful.
        """
        a, b = Fraction(a), Fraction(b)
        if self.degree <= 0 or a >= b:
            return []
        chain = self.squarefree_part().sturm_sequence()
        # The square-free part has the roots of self, so its zero test
        # serves both.
        f = chain[0]

        def count(x: Fraction, y: Fraction) -> int:
            return _sign_variations(chain, x) - _sign_variations(chain, y)

        def interior_split(x: Fraction, y: Fraction) -> Fraction:
            mid = (x + y) / 2
            while sign_at(f, mid) == 0:
                mid = (x + mid) / 2
            return mid

        total = count(a, b) - (sign_at(f, b) == 0)
        if total == 0:
            return []
        found: list[tuple[Fraction, Fraction]] = []
        stack = [(a, b, total)]
        while stack:
            x, y, k = stack.pop()
            if k == 1:
                # Pull the edges strictly inside (a, b).
                while x == a or y == b:
                    mid = interior_split(x, y)
                    if count(x, mid) == 1:
                        y = mid
                    else:
                        x = mid
                found.append((x, y))
                continue
            mid = interior_split(x, y)
            left = count(x, mid)
            right = k - left
            if left > 0:
                stack.append((x, mid, left))
            if right > 0:
                stack.append((mid, y, right))
        return sorted(found)


def _primitive(cs: Sequence[int]) -> list[int]:
    """Divide integer coefficients by their (positive) content; [] stays []."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


def _derivative(cs: Sequence[int]) -> list[int]:
    """Primitive form of the derivative of integer coefficients cs."""
    return _primitive([i * c for i, c in enumerate(cs) if i > 0])


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for integer polynomials where b divides a exactly over Z."""
    r = list(a)
    d = len(b) - 1
    q = [0] * (len(r) - d)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = r[k + d] // b[-1]
        if t:
            for i, c in enumerate(b):
                r[k + i] -= t * c
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder |lc(b)|^(deg a - deg b + 1)
    * a mod b; [] when it is zero.  Each elimination step scales by a
    positive factor only, so the result is the primitive form of the
    rational remainder a mod b, sign included."""
    r = list(a)
    d = len(b) - 1
    lc = b[-1]
    for k in range(len(r) - 1, d - 1, -1):
        # r[k] cancels against lc(b), so it is dropped, not updated.
        f = r.pop()
        if f:
            g = gcd(lc, f)
            s, t = abs(lc) // g, f // g if lc > 0 else -f // g
            lo = k - d
            if s > 1:
                r = [s * c for c in r[:lo]] + [s * c - t * e for c, e in zip(r[lo:], b)]
            else:
                r[lo:] = [c - t * e for c, e in zip(r[lo:], b)]
    while r and r[-1] == 0:
        r.pop()
    return _primitive(r)


def _homogeneous_horner(cs: Sequence[int], x: Fraction) -> int:
    """sum c_i a^i b^(d-i) for integer coefficients cs (ascending, degree
    d) and x = a/b, b > 0: b^d times the polynomial's value at x."""
    a, b = x.numerator, x.denominator
    acc, bp = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bp
        bp *= b
    return acc


def sign_at(cs: Sequence[int], x: Fraction) -> int:
    """Sign at x of the polynomial with integer coefficients cs
    (ascending)."""
    acc = _homogeneous_horner(cs, x)
    return (acc > 0) - (acc < 0)


def _taylor_shift(cs: Sequence[int]) -> list[int]:
    """Coefficients of p(x + 1) for integer coefficients cs (ascending):
    pass i replaces cs[i:] by its suffix sums."""
    a = list(cs)
    for i in range(len(a) - 1):
        a[i:] = list(accumulate(reversed(a[i:])))[::-1]
    return a


def bernstein_sign(
    cs: Sequence[int],
) -> tuple[list[tuple[Fraction, Fraction]], Fraction | None] | None:
    """Decide whether the integer polynomial cs (ascending, not zero) is
    >= 0 on (0, 1) by Vincent-Collins-Akritas bisection.

    On a piece (lo, lo + w), p(lo + w x) is a positive multiple of the
    local polynomial P, and the signs of (1+t)^d P(1/(1+t)), P's
    Bernstein coefficients times positive binomials, bound its roots
    (Descartes): no sign variation, no root; one, one simple root.  A
    piece with two or more is split at its midpoint, where the sign is
    tested exactly.  Pieces are taken level by level, left to right.
    Returns (pieces, None) when p > 0 on each piece and p >= 0 at each
    split point, the pieces tiling (0, 1) in order; ([], x) with p(x) < 0,
    x the fewest-bit dyadic of the first negative piece found; None when
    a piece still has two or more variations after BERNSTEIN_DEPTH
    halvings, as a repeated root always has."""
    d = len(cs) - 1
    level = [(Fraction(0), list(cs))]
    pieces: list[tuple[Fraction, Fraction]] = []
    for j in range(BERNSTEIN_DEPTH + 1):
        half_w = Fraction(1, 2 ** (j + 1))
        nxt = []
        for lo, p in level:
            # signs[0] is P's sign just left of the piece's right end.
            signs = [c > 0 for c in _taylor_shift(p[::-1]) if c]
            variations = sum(u != v for u, v in zip(signs, signs[1:]))
            if variations == 0 and signs[0]:
                pieces.append((lo, lo + 2 * half_w))
            elif variations == 0:
                return [], lo + half_w
            elif variations == 1:
                return [], _negative_dyadic(cs, lo, lo + 2 * half_w, right=not signs[0])
            else:
                left = [c << (d - i) for i, c in enumerate(p)]  # 2^d P(x/2)
                if sum(left) < 0:  # 2^d P(1/2)
                    return [], lo + half_w
                nxt += [(lo, left), (lo + half_w, _taylor_shift(left))]
        if not nxt:
            return sorted(pieces), None
        level = nxt
    return None


def _negative_dyadic(cs: Sequence[int], lo: Fraction, hi: Fraction, right: bool) -> Fraction:
    """The fewest-bit dyadic where cs < 0 in a dyadic piece (lo, hi)
    holding one simple root of cs, negative to its right if ``right``.

    That side ends at e = hi (else lo), so the dyadic is e -+ (hi - lo)/2^k
    for the least k at which cs is negative there, and cs stays negative
    for every larger k: k is found by doubling, then bisection."""
    end, step = (hi, lo - hi) if right else (lo, hi - lo)

    def negative(k: int) -> bool:
        return sign_at(cs, end + step / 2**k) < 0

    below, k = 0, 1
    while not negative(k):
        below, k = k, 2 * k
    while k - below > 1:
        mid = (below + k) // 2
        below, k = (below, mid) if negative(mid) else (mid, k)
    return end + step / 2**k


def _sign_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for s in (sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)

