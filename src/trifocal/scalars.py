"""Exact scalars: arbitrary-precision rationals and prime-field elements.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  Prime-field values are ``Fp`` instances; the default prime
is 101 and can be overridden everywhere a prime appears.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

DEFAULT_PRIME = 101
SECOND_PRIME = 32003


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Fp:
    """Residue mod p, stored in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val, p=DEFAULT_PRIME):
        if isinstance(val, Fp):
            if val.p != p:
                raise ValueError("mixed primes %d and %d" % (val.p, p))
            val = val.val
        elif isinstance(val, Fraction):
            num, den = val.numerator, val.denominator
            if den % p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % p)
            val = num * pow(den, -1, p)
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed primes %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(o.val * pow(self.val, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "Fp(%d, p=%d)" % (self.val, self.p)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine residues r1 mod m1 and r2 mod m2 (coprime moduli)."""
    inv = pow(m1, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """Recover n/d = a mod m with |n|, d <= sqrt(m/2), or None.

    Standard half-extended Euclid; used to lift modular kernel vectors
    back to exact rationals before verification.
    """
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 == 0 or abs(s1) > bound:
        return None
    if gcd(r1, s1) != 1:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    return Fraction(r1, s1)


def next_primes(start: int, count: int) -> list[int]:
    """The first `count` primes >= start, skipping nothing else."""
    out = []
    n = max(2, start)
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out
