"""Exact rational calculus for radial power sums.

Everything in this module works over arbitrary-precision rationals
(`fractions.Fraction`): the explicit touchdown profiles, the harmonic
boundary extension, the action of the radial bilaplacian on powers of r,
and the Hardy-Rellich constant.  No floating point enters, so these
values are safe to feed into the certification engine; the float engine
samples power sums with `radial_operator.sample_power_sum`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rational = Union[Fraction, int]

# Most digits in the numerator or denominator of a rational that
# parse_rational reads: Python turns no integer of more than 4300 digits
# into text, so no artifact can write a larger one.  Nor does it read
# one, so a literal with a longer run of digits is refused on its text.
MAX_DIGITS = 4300
_DIGIT_RUN = re.compile(r"\d[\d_]*")
# Largest decimal exponent parse_rational expands.  It is checked on the
# text first, so "1e10000000" is refused at once; a mantissa adds digits
# ("1234567e4299"), so the digit count is checked after it as well.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
_DIGIT_BOUND = 10**MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits

FOUR_THIRDS = Fraction(4, 3)


def _check_dimension(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"space dimension must be a positive integer, got {n!r}")
    return n


def singular_voltage(n: int) -> Fraction:
    """Voltage at which the pure touchdown shape 1 - r^(4/3) solves the
    deflection equation exactly: 8(3N-2)(3N-8)/81.

    Nonpositive for N <= 2, where it is only a (trivially true) lower
    bound on the pull-in voltage.
    """
    _check_dimension(n)
    return Fraction(8 * (3 * n - 2) * (3 * n - 8), 81)


def quadratic_lower_bound(n: int) -> Fraction:
    """Exact lower bound 32(10N - N^2 - 12)/27 for the homogeneous
    pull-in voltage."""
    _check_dimension(n)
    return Fraction(32 * (10 * n - n * n - 12), 27)


def hardy_rellich(n: int) -> Fraction:
    """Optimal constant N^2(N-4)^2/16 in the Hardy-Rellich inequality
    int (Delta psi)^2 >= H int psi^2/|x|^4 on H_0^2 of the unit ball.

    The inequality itself holds for N >= 5; the value is defined for all
    N >= 1 and callers must gate its use.
    """
    _check_dimension(n)
    return Fraction(n * n * (n - 4) * (n - 4), 16)


def laplacian_power_coeff(s: Rational, n: int) -> Fraction:
    """Coefficient of r^(s-2) in the radial Laplacian of r^s: s(s+N-2)."""
    _check_dimension(n)
    s = Fraction(s)
    return s * (s + n - 2)


def bilaplacian_power_coeff(s: Rational, n: int) -> Fraction:
    """Coefficient K(s,N) = s(s+N-2)(s-2)(s+N-4) of r^(s-4) in the radial
    bilaplacian of r^s (valid away from the origin)."""
    s = Fraction(s)
    return laplacian_power_coeff(s, n) * laplacian_power_coeff(s - 2, n)


@dataclass(frozen=True)
class PowerSum:
    """A finite sum of rational powers of r with rational coefficients.

    Its one value is the integer form (den, qden, pairs): integers
    den, qden > 0 and one (a, k) per term (a/den) r^(k/qden).  The
    constructor canonicalizes the form it is given, whose pairs may be
    any iterable: duplicate exponents merged, zero coefficients dropped,
    pairs sorted by exponent, and den and qden divided by their gcd with
    the numerators, so that they are the lcm of the terms' coefficient
    and exponent denominators.  Equal sums then compare and hash equal
    however they were built.  All arithmetic computes on the form.
    """

    integer_form: tuple[int, int, tuple[tuple[int, int], ...]]

    def __post_init__(self):
        den, qden, pairs = self.integer_form
        merged: dict[int, int] = {}
        for a, k in pairs:
            merged[k] = merged.get(k, 0) + a
        ks = sorted(k for k, a in merged.items() if a)
        g = gcd(den, *(merged[k] for k in ks))
        h = gcd(qden, *ks)
        object.__setattr__(self, "integer_form", (
            den // g, qden // h, tuple((merged[k] // g, k // h) for k in ks)
        ))

    @staticmethod
    def of(*pairs: tuple[Rational, Rational]) -> "PowerSum":
        """Build from rational (coefficient, exponent) pairs."""
        cs = [Fraction(c) for c, _ in pairs]
        es = [Fraction(e) for _, e in pairs]
        den = lcm(*(c.denominator for c in cs))
        qden = lcm(*(e.denominator for e in es))
        return PowerSum((den, qden, (
            (c.numerator * (den // c.denominator), e.numerator * (qden // e.denominator))
            for c, e in zip(cs, es)
        )))

    @staticmethod
    def constant(c: Rational) -> "PowerSum":
        return PowerSum.of((c, 0))

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        d1, q1, p1 = self.integer_form
        d2, q2, p2 = other.integer_form
        den, qden = lcm(d1, d2), lcm(q1, q2)
        return PowerSum((den, qden, (
            (a * c, k * f)
            for pairs, c, f in ((p1, den // d1, qden // q1), (p2, -(den // d2), qden // q2))
            for a, k in pairs
        )))

    def __mul__(self, other: "PowerSum") -> "PowerSum":
        d1, q1, p1 = self.integer_form
        d2, q2, p2 = other.integer_form
        qden = lcm(q1, q2)
        f1, f2 = qden // q1, qden // q2
        p2 = [(b, l * f2) for b, l in p2]
        return PowerSum((d1 * d2, qden, ((a * b, k * f1 + l) for a, k in p1 for b, l in p2)))

    def scale(self, c: Rational) -> "PowerSum":
        c = Fraction(c)
        den, qden, pairs = self.integer_form
        return PowerSum((den * c.denominator, qden, ((a * c.numerator, k) for a, k in pairs)))

    def derivative(self) -> "PowerSum":
        """d/dr (a/den) r^(k/q) = (a k/(den q)) r^((k - q)/q)."""
        den, q, pairs = self.integer_form
        return PowerSum((den * q, q, ((a * k, k - q) for a, k in pairs)))

    def evaluate_exact(self, r: Rational) -> Fraction:
        """Exact value at rational r >= 0; raises if some r^exponent is
        irrational at this point (ValueError) or r = 0 meets a negative
        exponent (ZeroDivisionError).  Some r^(k/q) is irrational exactly
        when the root r^(1/q) is, q the lcm of the exponent denominators,
        so the value is one integer sum in powers of that root."""
        r = Fraction(r)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        den, q, pairs = self.integer_form
        if not pairs:
            return Fraction(0)
        root = rational_pow(r, Fraction(1, q))
        u, v = root.numerator, root.denominator
        k0, k1 = pairs[0][1], pairs[-1][1]
        total = sum(a * u ** (k - k0) * v ** (k1 - k) for a, k in pairs)
        return Fraction(total, den * v ** (k1 - k0)) * root**k0

    def is_zero(self) -> bool:
        return not self.integer_form[2]


def _int_nth_root(a: int, q: int) -> int | None:
    """Exact integer q-th root of a >= 0, or None if a is not a perfect power."""
    if a < 0:
        return None
    if a in (0, 1) or q == 1:
        return a
    # Integer Newton iteration for the floor root; no float intermediates.
    x = 1 << -(-a.bit_length() // q)
    while True:
        y = ((q - 1) * x + a // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    return x if x**q == a else None


def rational_pow(x: Fraction, e: Fraction) -> Fraction:
    """x**e for rational x > 0 (x = 0 allowed with e >= 0); raises
    ValueError when the result is irrational."""
    x = Fraction(x)
    e = Fraction(e)
    if x == 0:
        if e < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Fraction(1) if e == 0 else Fraction(0)
    if x < 0:
        raise ValueError("negative bases are not supported")
    if e == 0:
        return Fraction(1)
    p, q = e.numerator, e.denominator
    num = _int_nth_root(x.numerator, q)
    den = _int_nth_root(x.denominator, q)
    if num is None or den is None:
        raise ValueError(f"{x}**{e} is not rational")
    root = Fraction(num, den)
    return root**p


@dataclass(frozen=True)
class BoundaryPair:
    """Boundary data (value alpha, outward slope beta) at r = 1."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))


HOMOGENEOUS = BoundaryPair(Fraction(0), Fraction(0))


def is_admissible(bp: BoundaryPair) -> bool:
    """True iff beta <= 0 and alpha - beta/2 < 1, which keeps the boundary
    extension strictly below the contact plane."""
    return bp.beta <= 0 and bp.alpha - bp.beta / 2 < 1


def boundary_extension(bp: BoundaryPair) -> PowerSum:
    """The polynomial (alpha - beta/2) + (beta/2) r^2: it has zero
    bilaplacian and matches value alpha and slope beta at r = 1."""
    return PowerSum.of((bp.alpha - bp.beta / 2, 0), (bp.beta / 2, 2))


def apply_bilaplacian(ps: PowerSum, n: int) -> PowerSum:
    """Termwise bilaplacian: sum c K(s,N) r^(s-4), normalized.  With
    s = k/q, q^4 K(s,N) = k (k + (N-2)q) (k - 2q) (k + (N-4)q)."""
    _check_dimension(n)
    den, q, pairs = ps.integer_form
    return PowerSum((den * q**4, q, (
        (a * k * (k + (n - 2) * q) * (k - 2 * q) * (k + (n - 4) * q), k - 4 * q) for a, k in pairs
    )))


def touchdown_shape() -> PowerSum:
    """The exact singular deflection shape 1 - r^(4/3)."""
    return PowerSum.of((1, 0), (-1, FOUR_THIRDS))


def touchdown_profile(m: Rational) -> PowerSum:
    """Clamped singular profile 1 - (3m/(3m-4)) r^(4/3) + (4/(3m-4)) r^m.

    Value and slope at r = 1 vanish identically for every admissible m.
    The coefficient pole m = 4/3 is rejected.  Parameters outside m in
    {2, 3} carry no closed-form certificates; see the certify module.
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError("profile parameter m must be positive")
    if m == FOUR_THIRDS:
        raise ValueError("m = 4/3 is a coefficient pole of the profile family")
    d = 3 * m - 4
    return PowerSum.of((1, 0), (Fraction(-3 * m, d), FOUR_THIRDS), (Fraction(4, d), m))


def parse_rational(text: str) -> Fraction:
    """Fraction(text) for a rational read from outside the program, but
    every refusal is a ValueError with its reason: a decimal exponent of
    magnitude above MAX_EXPONENT, refused before Fraction expands it,
    which takes seconds to minutes; a literal with a run of more than
    MAX_DIGITS digits, or a value whose numerator or denominator has
    more; and a zero denominator.  A value that is not text (a number
    read from JSON) goes to Fraction as it is."""
    if isinstance(text, str):
        exponent = _EXPONENT.search(text)
        if exponent and (len(exponent[1]) > MAX_DIGITS or abs(int(exponent[1])) > MAX_EXPONENT):
            raise ValueError(f"decimal exponent above {MAX_EXPONENT}")
        if len(text) > MAX_DIGITS and any(
            len(run.replace("_", "")) > MAX_DIGITS for run in _DIGIT_RUN.findall(text)
        ):
            raise ValueError(f"numerator or denominator of more than {MAX_DIGITS} digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator, not {text!r}") from None
    if max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"numerator or denominator of more than {MAX_DIGITS} digits")
    return value


def format_rational(x: Fraction) -> str:
    """Render as "num/den" (decimal-free, bit-exact)."""
    return f"{x.numerator}/{x.denominator}"


def rational_to_decimal(x: Fraction) -> str:
    """17-significant-digit decimal rendering for human readers."""
    return f"{float(x):.17g}"
