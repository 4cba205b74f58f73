"""3x3x3 tensors over exact scalars.

Index convention: ``t.t[i][j][k]`` with i, j, k in {0,1,2}; from_terms
(and orbits.decode_triples) speak 1-based indices to match the usual T_ijk
labeling.  The last index plays the role of the output (third image) in
the line-transfer picture, so the letter slices are a_ij = T[i][j][0],
b_ij = T[i][j][1], c_ij = T[i][j][2].

A Tensor333 is immutable: nested tuples of ints and Fractions, 3x3x3
(other shapes raise ValueError, other entries such as floats and bools
TypeError), kept flat as well; act is three mode products on the flat
entries.  prank and frank keep the rank invariants on the tensor; a
nonzero small determinant certifies an axis's rank 3 (det(S1 + S2 + S3)
in pencil_rank, the minor on columns 0, 4, 8 of the flattening F in
flattening_rank), and only a zero one falls back to the exact cofactor
rank of S1 + n*S2 + n^4*S3, n = 36 e^3 + 1 past every coefficient of the
pencil's minors (Kronecker substitution), or of F F^T, of rank F over Q.
JSON entries are read by scalars.scalar_from_json: integers or rational strings.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import itemgetter, mul

from . import linalg
from .scalars import exact_list, scalar_from_json

AXES = ("A", "B", "C")


class Tensor333:
    """Immutable 3x3x3 array of ints and Fractions, nested (t) and flat
    (flat, i outer, k inner); prank and frank fill _prank, _frank and _ints."""

    __slots__ = ("t", "flat", "_prank", "_frank", "_ints")

    def __init__(self, entries):
        try:
            t = tuple(tuple(map(tuple, plane)) for plane in entries)
        except TypeError:
            t = ()
        if {len(t), *map(len, t), *map(len, chain.from_iterable(t))} != {3}:
            raise ValueError("tensor entries must be a nested 3x3x3 array")
        flat, _ = exact_list(chain.from_iterable(chain.from_iterable(t)), "tensor entry")
        self.t, self.flat, self._prank, self._frank, self._ints = t, tuple(flat), None, None, None

    @classmethod
    def _from_flat(cls, flat):
        """The tensor of 27 entries, in T_ijk order, known to be exact: no checks."""
        t = cls.__new__(cls)
        t.flat = f = tuple(flat)
        t._prank = t._frank = t._ints = None
        t.t = ((f[:3], f[3:6], f[6:9]), (f[9:12], f[12:15], f[15:18]), (f[18:21], f[21:24], f[24:]))
        return t

    @classmethod
    def from_terms(cls, terms):
        """Build from 1-based (coeff, i, j, k) terms."""
        flat, terms = [0] * 27, list(terms)
        exact_list((term[0] for term in terms), "tensor term coefficient")
        for coeff, i, j, k in terms:
            flat[9 * (i - 1) + 3 * (j - 1) + k - 1] += coeff
        return cls._from_flat(flat)

    def __eq__(self, other):
        return isinstance(other, Tensor333) and self.t == other.t

    def __hash__(self):
        return hash(self.t)

    def is_zero(self):
        return not any(self.flat)

    def __repr__(self):
        return "Tensor333(%r)" % (self.t,)


# per axis, in AXES order, the flat positions 9i + 3j + k of its slices, row by row
_R3 = range(3)
_VIEWS = {"A": itemgetter(*(9 * s + 3 * r + c for s in _R3 for r in _R3 for c in _R3)),
          "B": itemgetter(*(9 * r + 3 * s + c for s in _R3 for r in _R3 for c in _R3)),
          "C": itemgetter(*(9 * r + 3 * c + s for s in _R3 for r in _R3 for c in _R3))}


def perm_sign(sigma):
    """Sign of a permutation of range(n), by counting inversions."""
    return (-1) ** sum(a > b for a, b in combinations(sigma, 2))


def _integral(t: Tensor333):
    """The flat entries with each A-slice times the lcm of its denominators, kept
    on t: all ints, and the same ranks, as that is the action of a diagonal gA."""
    if t._ints is None:
        flat = t._ints = t.flat
        if Fraction in set(map(type, flat)):
            ds = [lcm(*(x.denominator for x in flat[s:s + 9])) for s in (0, 9, 18)]
            t._ints = [x.numerator * (ds[p // 9] // x.denominator) for p, x in enumerate(flat)]
    return t._ints


def _cofactor_rank(m) -> int:
    """Rank of the 3x3 matrix m, flat row by row: 3 if its determinant is
    nonzero, else 2 if one of its nine 2x2 minors is, else 1 if an entry is."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    c0, c1, c2 = m4 * m8 - m5 * m7, m3 * m8 - m5 * m6, m3 * m7 - m4 * m6
    if m0 * c0 - m1 * c1 + m2 * c2:
        return 3
    if (c0 or c1 or c2 or m0 * m4 - m1 * m3 or m0 * m5 - m2 * m3 or m1 * m5 - m2 * m4
            or m0 * m7 - m1 * m6 or m0 * m8 - m2 * m6 or m1 * m8 - m2 * m7):
        return 2
    return 1 if any(m) else 0


def pencil_rank(v) -> int:
    """Rank over Q(x1, x2, x3) of the pencil x1*S1 + x2*S2 + x3*S3 of the
    integer slices v[:9], v[9:18], v[18:] (row by row): 3 if det(S1 + S2 +
    S3), the cubic minor at (1, 1, 1), is nonzero, else the cofactor rank of
    M = S1 + n*S2 + n^4*S3, n = 36 e^3 + 1 with e the largest |entry|.

    Exact, by Kronecker substitution: a k x k minor of M is the pencil's
    minor, a form of degree k <= 3, at (1, n, n^4), where x1^a x2^b x3^c
    is n^(b + 4c), distinct for distinct (b, c) as b <= 3.  Each of its
    coefficients sums at most k! k!/(a! b! c!) <= 36 products of k entries,
    so its size is below n: were the one at the lowest power n^j nonzero,
    the minor of M would not be 0 modulo n^(j + 1)."""
    s = list(zip(v[:9], v[9:18], v[18:]))
    if _cofactor_rank([x + y + z for x, y, z in s]) == 3:
        return 3
    n = 36 * max(map(abs, v)) ** 3 + 1
    n4 = n ** 4
    return _cofactor_rank([x + n * y + n4 * z for x, y, z in s])


def prank(t: Tensor333):
    """Triple of pencil ranks (A, B, C directions), kept on t."""
    if t._prank is None:
        flat = _integral(t)
        t._prank = tuple(pencil_rank(view(flat)) for view in _VIEWS.values())
    return t._prank


def flattening_rank(v) -> int:
    """Rank of the 3x9 flattening F with rows v[:9], v[9:18], v[18:]: 3 if
    its minor on the slices' diagonals (columns 0, 4, 8) is nonzero, else
    the cofactor rank of F F^T, as F F^T x = 0 gives |F^T x|^2 = 0 over Q
    (by Cauchy-Binet, det F F^T is the sum of the squared 3x3 minors of F)."""
    if _cofactor_rank(v[0:9:4] + v[9:18:4] + v[18::4]) == 3:
        return 3
    r0, r1, r2 = v[:9], v[9:18], v[18:]
    g01, g02, g12 = sum(map(mul, r0, r1)), sum(map(mul, r0, r2)), sum(map(mul, r1, r2))
    return _cofactor_rank((sum(map(mul, r0, r0)), g01, g02,
                           g01, sum(map(mul, r1, r1)), g12,
                           g02, g12, sum(map(mul, r2, r2))))


def frank(t: Tensor333):
    """Triple of flattening ranks (A, B, C directions), kept on t."""
    if t._frank is None:
        flat = _integral(t)
        t._frank = tuple(flattening_rank(view(flat)) for view in _VIEWS.values())
    return t._frank


# --- group action ----------------------------------------------------------

def _check_group_element(g, invertible):
    for name, m in zip(("gA", "gB", "gC"), g):
        exact_list((x for row in m for x in row), "group element %s entry" % name)
        if invertible and linalg.det(m) == 0:
            raise ValueError("group element has a singular factor %s" % name)


def _mode_product(m, v):
    """The flat 3x3x3 array v times m along its last index, the new index
    put first: entry 9n + 3a + b is sum_c m[n][c] v[9a + 3b + c]."""
    fibres = list(zip(v[0::3], v[1::3], v[2::3]))
    return [x * p + y * q + z * r for x, y, z in m for p, q, r in fibres]


def act(g, t: Tensor333, check=True) -> Tensor333:
    """Transform t by g = (gA, gB, gC): T'_pqr = sum gA[p][i] gB[q][j] gC[r][k] T_ijk,
    as three mode products (Kolda and Bader, SIAM Review 51(3), 2009): k by
    gC, then j by gB, then i by gA, 243 products in all.  Each factor must be
    a 3x3 matrix of ints and Fractions, and with check an invertible one."""
    gA, gB, gC = g
    _check_group_element(g, check)
    return Tensor333._from_flat(_mode_product(gA, _mode_product(gB, _mode_product(gC, t.flat))))


def random_group_element(rng: random.Random, bound=5):
    while True:
        g = tuple([[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
                  for _ in range(3))
        if all(linalg.det(m) != 0 for m in g):
            return g


def random_orbit_point(nf: Tensor333, seed) -> Tensor333:
    """Deterministic pseudo-random point on the orbit of nf."""
    return act(random_group_element(random.Random(seed)), nf, check=False)


# --- (de)serialization ------------------------------------------------------

def _scalar_to_json(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return "%d/%d" % (x.numerator, x.denominator)
    return int(x)


def tensor_to_json(t: Tensor333) -> str:
    return json.dumps([[[_scalar_to_json(t.t[i][j][k]) for k in range(3)]
                        for j in range(3)] for i in range(3)])


def tensor_from_json(text: str) -> Tensor333:
    data = json.loads(text)
    if not (isinstance(data, list) and len(data) == 3
            and all(isinstance(p, list) and len(p) == 3 for p in data)
            and all(isinstance(row, list) and len(row) == 3 for p in data for row in p)):
        raise ValueError("tensor JSON must be a nested 3x3x3 array")
    return Tensor333([[[scalar_from_json(data[i][j][k]) for k in range(3)]
                       for j in range(3)] for i in range(3)])
