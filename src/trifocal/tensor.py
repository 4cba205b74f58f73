"""3x3x3 tensors over exact scalars.

Index convention: ``t.t[i][j][k]`` with i, j, k in {0,1,2}; from_terms
(and orbits.decode_triples) speak 1-based indices to match the usual T_ijk
labeling.  The last index plays the role of the output (third image) in
the line-transfer picture, so the letter slices are a_ij = T[i][j][0],
b_ij = T[i][j][1], c_ij = T[i][j][2].

A Tensor333 is immutable: nested tuples of ints and Fractions, 3x3x3
(other shapes raise ValueError, other entries such as floats and bools
TypeError), kept flat as well.  Slices, flattenings and pencils are cut
from one fixed reordering of the flat entries per axis (an itemgetter), and
act is three mode products on the flat entries.  prank and frank compute
the rank invariants once and keep them on the tensor: the flattening ranks
by fraction-free elimination (linalg.rank), the pencil ranks from the
cofactors of the pencil at 10 lattice points (see pencil_rank).  JSON
entries are read by scalars.scalar_from_json: integers or rational strings.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import chain, combinations
from operator import itemgetter

from . import linalg
from .scalars import exact_list, scalar_from_json

AXES = ("A", "B", "C")


class Tensor333:
    """Immutable 3x3x3 array of ints and Fractions, nested (t) and flat
    (flat, i outer, k inner); prank and frank fill _prank, _frank."""

    __slots__ = ("t", "flat", "_prank", "_frank")

    def __init__(self, entries):
        try:
            t = tuple(tuple(map(tuple, plane)) for plane in entries)
        except TypeError:
            t = ()
        if {len(t), *map(len, t), *map(len, chain.from_iterable(t))} != {3}:
            raise ValueError("tensor entries must be a nested 3x3x3 array")
        flat, _ = exact_list(chain.from_iterable(chain.from_iterable(t)), "tensor entry")
        self.t, self.flat, self._prank, self._frank = t, tuple(flat), None, None

    @classmethod
    def _from_flat(cls, flat):
        """The tensor of 27 entries, in T_ijk order, known to be exact: no checks."""
        t = cls.__new__(cls)
        t.flat, t._prank, t._frank = tuple(flat), None, None
        t.t = tuple(tuple(t.flat[p:p + 3] for p in range(q, q + 9, 3)) for q in (0, 9, 18))
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


# per axis, the flat positions 9i + 3j + k of its three slices, row by row
_R3 = range(3)
_VIEWS = {"A": itemgetter(*(9 * s + 3 * r + c for s in _R3 for r in _R3 for c in _R3)),
          "B": itemgetter(*(9 * r + 3 * s + c for s in _R3 for r in _R3 for c in _R3)),
          "C": itemgetter(*(9 * r + 3 * c + s for s in _R3 for r in _R3 for c in _R3))}


def _view(t: Tensor333, axis: str):
    """The 27 entries of t as its three axis slices, row by row."""
    if axis not in _VIEWS:
        raise ValueError("axis must be one of A, B, C")
    return _VIEWS[axis](t.flat)


def flattening(t: Tensor333, axis: str):
    """3x9 matrix whose row s is the flattened axis-slice number s+1.

    Its rank is the dimension of the span of the three slices, i.e. the
    multilinear rank of t in the chosen direction.
    """
    v = _view(t, axis)
    return [list(v[:9]), list(v[9:18]), list(v[18:])]


def frank(t: Tensor333):
    """Triple of flattening ranks (A, B, C directions), kept on t."""
    if t._frank is None:
        t._frank = tuple(linalg.rank(flattening(t, ax)) for ax in AXES)
    return t._frank


def pencil(t: Tensor333, axis: str):
    """The 3x3 matrix of linear forms x1*S1 + x2*S2 + x3*S3, returned as
    its three coefficient matrices (S1, S2, S3) = the axis slices."""
    rows = list(map(list, zip(*[iter(_view(t, axis))] * 3)))
    return [rows[:3], rows[3:6], rows[6:]]


def perm_sign(sigma):
    """Sign of a permutation of range(n), by counting inversions."""
    return (-1) ** sum(a > b for a, b in combinations(sigma, 2))


# the points (a, b, c) with a + b + c = 3: no nonzero cubic form in three
# variables vanishes at all of them, and x1 + x2 + x3 is 3 on each
_LATTICE3 = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]

# the nine 2x2 minors of a flat 3x3 matrix m, each m[p] * m[s] - m[q] * m[r]
_MINORS2 = [(3 * r + c, 3 * r + d, 3 * q + c, 3 * q + d)
            for r, q in ((0, 1), (0, 2), (1, 2)) for c, d in ((0, 1), (0, 2), (1, 2))]


def pencil_rank(slices) -> int:
    """Rank of the pencil x1*S1 + x2*S2 + x3*S3 over the rational function
    field in x1, x2, x3: the largest rank of the numeric matrices
    a*S1 + b*S2 + c*S3 over the 10 points of _LATTICE3, each read from
    cofactors: rank 3 if the determinant is nonzero, else 2 if a 2x2 minor
    is, else 1 if an entry is.

    Exact: a k x k minor of the pencil is a form of degree k <= 3, and
    times (x1 + x2 + x3)^(3 - k) it is a cubic, where that factor is
    3^(3 - k) != 0 at every point.  The 10 points are unisolvent for cubics
    (Chung and Yao, SIAM J. Numer. Anal. 14(4), 1977), so a minor that
    vanishes at all of them is zero."""
    xyz = list(zip(*map(chain.from_iterable, slices)))
    best = 0
    for a, b, c in _LATTICE3:
        m = [a * x + b * y + c * z for x, y, z in xyz]
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
        if m0 * (m4 * m8 - m5 * m7) - m1 * (m3 * m8 - m5 * m6) + m2 * (m3 * m7 - m4 * m6):
            return 3
        if best < 2 and any(m[p] * m[s] - m[q] * m[r] for p, q, r, s in _MINORS2):
            best = 2
        elif best == 0 and any(m):
            best = 1
    return best


def prank(t: Tensor333):
    """Triple of pencil ranks (A, B, C directions), kept on t."""
    if t._prank is None:
        t._prank = tuple(pencil_rank(pencil(t, ax)) for ax in AXES)
    return t._prank


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


def random_orbit_point(nf: Tensor333, seed, bound=5) -> Tensor333:
    """Deterministic pseudo-random point on the orbit of nf."""
    return act(random_group_element(random.Random(seed), bound=bound), nf, check=False)


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
