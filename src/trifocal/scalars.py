"""Exact scalars: arbitrary-precision rationals and the prime-field helpers.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  As text, in polynomials and JSON alike, a rational is one
token: an optional sign, ASCII digits and at most one slash before a
nonzero denominator (parse_rational).  Residues mod a prime are plain
ints; the default prime is 101 and can be overridden everywhere a prime
appears.  Modular kernel entries, combined by CRT, come back to Q through
rational_reconstruction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

DEFAULT_PRIME = 101


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


def exact_list(xs, what):
    """(xs as a list, whether one is a Fraction); TypeError unless each
    is an int or a Fraction (a bool or a float is neither)."""
    xs = list(xs)
    kinds = set(map(type, xs))
    if not kinds <= {int, Fraction}:
        bad = next(x for x in xs if type(x) not in (int, Fraction))
        raise TypeError("%s %r is not an int or a Fraction" % (what, bad))
    return xs, Fraction in kinds


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """The rational n or n/d in text; ValueError on anything else (module
    docstring), "1_000", " 3", "3/4/5" and "1/0" included."""
    m = _RATIONAL.fullmatch(text)
    if not (m and int(m[2] or 1)):
        raise ValueError("bad rational entry %r" % (text,))
    return Fraction(int(m[1]), int(m[2] or 1))


def scalar_from_json(x):
    """A JSON integer, or the rational of a JSON string (parse_rational);
    floats and booleans are rejected, not truncated or read as 0/1."""
    if type(x) not in (int, str):
        raise ValueError("entries must be integers or 'p/q' strings, got %r" % (x,))
    return parse_rational(x) if type(x) is str else x


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
    if r1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    return Fraction(r1, s1)
