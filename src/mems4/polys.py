"""Exact univariate polynomial arithmetic and real root isolation.

Coefficients are arbitrary-precision rationals.  Root counting uses Sturm
sequences; isolation refines by bisection with exact sign tests, so every
interval endpoint reported here is a rational number whose sign data can
be replayed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial over Q, coefficients in ascending degree order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def of(*coeffs) -> "RationalPolynomial":
        return RationalPolynomial(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RationalPolynomial(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero() or other.is_zero():
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))

    def scale(self, c) -> "RationalPolynomial":
        c = Fraction(c)
        return RationalPolynomial(tuple(c * a for a in self.coeffs))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)
        )

    def divmod(
        self, other: "RationalPolynomial"
    ) -> tuple["RationalPolynomial", "RationalPolynomial"]:
        """Long division: (q, r) with self = q * other + r, deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.coeffs[-1]
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for k in reversed(range(len(q))):
            f = rem[k + d] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return RationalPolynomial(tuple(q)), RationalPolynomial(tuple(rem[:d]))

    def primitive(self) -> "RationalPolynomial":
        """Rescale by a positive rational so coefficients are coprime
        integers (sign-preserving; keeps Sturm remainders small)."""
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        nums = [int(c * den) for c in self.coeffs]
        g = 0
        for v in nums:
            g = gcd(g, abs(v))
        return RationalPolynomial(tuple(Fraction(v, g) for v in nums))

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.primitive(), other.primitive()
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, r.primitive() if not r.is_zero() else r
        if a.is_zero():
            return a
        return a.scale(1 / a.coeffs[-1])  # monic

    def squarefree_part(self) -> "RationalPolynomial":
        if self.degree <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        q, r = self.divmod(g)
        assert r.is_zero()
        return q

    def sturm_sequence(self) -> list["RationalPolynomial"]:
        """Sturm chain of the square-free part."""
        f = self.squarefree_part().primitive()
        chain = [f, f.derivative().primitive()]
        while not chain[-1].is_zero() and chain[-1].degree > 0:
            _, r = chain[-2].divmod(chain[-1])
            if r.is_zero():
                break
            chain.append((-r).primitive())
        return [p for p in chain if not p.is_zero()]

    def isolate_roots(
        self, a: Fraction, b: Fraction
    ) -> list[tuple[Fraction, Fraction]]:
        """Disjoint open intervals (lo, hi), each containing exactly one
        distinct root of the polynomial lying strictly inside (a, b).

        Every reported endpoint is strictly inside (a, b) and is a
        non-root of the polynomial, so its exact sign is meaningful.
        """
        a, b = Fraction(a), Fraction(b)
        if self.degree <= 0 or a >= b:
            return []
        g = self.squarefree_part()
        # Strip roots sitting exactly at the domain endpoints so Sturm
        # counting over (a, b] sees only interior roots.
        for pt in (a, b):
            while g.degree > 0 and g(pt) == 0:
                g, rem = g.divmod(RationalPolynomial.of(-pt, 1))
                assert rem.is_zero()
        if g.degree <= 0:
            return []
        chain = g.sturm_sequence()

        def count(x: Fraction, y: Fraction) -> int:
            return _sign_variations(chain, x) - _sign_variations(chain, y)

        def interior_split(x: Fraction, y: Fraction) -> Fraction:
            mid = (x + y) / 2
            while self(mid) == 0 or g(mid) == 0:
                mid = (x + mid) / 2
            return mid

        total = count(a, b)
        if total == 0:
            return []
        found: list[tuple[Fraction, Fraction]] = []
        stack = [(a, b, total)]
        while stack:
            x, y, k = stack.pop()
            if k == 1:
                # Pull the edges strictly inside (a, b) and off roots of
                # the original polynomial.
                while x == a or y == b or self(x) == 0 or self(y) == 0:
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


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(chain: Sequence[RationalPolynomial], x: Fraction) -> int:
    signs = [s for s in (_sign(p(x)) for p in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)


def from_power_shifts(
    pairs: Iterable[tuple[Fraction, int]]
) -> RationalPolynomial:
    """Polynomial from (coefficient, nonnegative integer exponent) pairs."""
    pairs = list(pairs)
    if not pairs:
        return RationalPolynomial(())
    n = max(e for _, e in pairs)
    out = [Fraction(0)] * (n + 1)
    for c, e in pairs:
        out[e] += Fraction(c)
    return RationalPolynomial(tuple(out))
