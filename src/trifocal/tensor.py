"""3x3x3 tensors over exact scalars.

Index convention: ``t[i][j][k]`` with i, j, k in {0,1,2}; the public
slice/decode helpers speak 1-based indices to match the usual T_ijk
labeling.  The last index plays the role of the output (third image) in
the line-transfer picture, so the letter slices are a_ij = T[i][j][0],
b_ij = T[i][j][1], c_ij = T[i][j][2].

A Tensor333 is immutable: nested tuples of ints and Fractions, 3x3x3
(other shapes raise ValueError, other entries such as floats and bools
TypeError).  prank and frank compute its rank invariants over the
integers once and keep them on it: the flattening ranks by fraction-free
elimination (linalg.rank), the pencil ranks by exact numeric ranks of the
pencil at 10 lattice points (see pencil_rank).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import product

from . import linalg
from .scalars import exact_list

AXES = ("A", "B", "C")


def _zero3():
    return [[[0, 0, 0] for _ in range(3)] for _ in range(3)]


class Tensor333:
    """Immutable 3x3x3 array of ints and Fractions; prank and frank fill _prank, _frank."""

    __slots__ = ("t", "_prank", "_frank")

    def __init__(self, entries):
        try:
            t = tuple(tuple(tuple(row) for row in plane) for plane in entries)
        except TypeError:
            t = ()
        if {len(t), *map(len, t), *(len(row) for plane in t for row in plane)} != {3}:
            raise ValueError("tensor entries must be a nested 3x3x3 array")
        exact_list((x for plane in t for row in plane for x in row), "tensor entry")
        self.t, self._prank, self._frank = t, None, None

    @classmethod
    def zero(cls):
        return cls(_zero3())

    @classmethod
    def from_terms(cls, terms):
        """Build from 1-based (coeff, i, j, k) terms."""
        t = _zero3()
        for coeff, i, j, k in terms:
            t[i - 1][j - 1][k - 1] += coeff
        return cls(t)

    @classmethod
    def rank_one(cls, u, v, w):
        return cls([[[u[i] * v[j] * w[k] for k in range(3)] for j in range(3)]
                    for i in range(3)])

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.t[i][j][k]

    def __eq__(self, other):
        return isinstance(other, Tensor333) and self.t == other.t

    def __hash__(self):
        return hash(self.t)

    def __add__(self, other):
        return Tensor333([[[self.t[i][j][k] + other.t[i][j][k] for k in range(3)]
                           for j in range(3)] for i in range(3)])

    def __sub__(self, other):
        return Tensor333([[[self.t[i][j][k] - other.t[i][j][k] for k in range(3)]
                           for j in range(3)] for i in range(3)])

    def scale(self, c):
        return Tensor333([[[c * self.t[i][j][k] for k in range(3)]
                           for j in range(3)] for i in range(3)])

    def is_zero(self):
        return all(self.t[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3))

    def entries_flat(self):
        """27 entries in T_ijk order (i outer, k inner)."""
        return [self.t[i][j][k] for i in range(3) for j in range(3) for k in range(3)]

    def __repr__(self):
        return "Tensor333(%r)" % (self.t,)


def slice_of(t: Tensor333, axis: str, index: int):
    """Coordinate slice: axis A fixes i (rows j, cols k), B fixes j
    (rows i, cols k), C fixes k (rows i, cols j).  index is 1-based."""
    if index not in (1, 2, 3):
        raise ValueError("slice index must be 1..3, got %r" % (index,))
    s = index - 1
    if axis == "A":
        return [[t.t[s][j][k] for k in range(3)] for j in range(3)]
    if axis == "B":
        return [[t.t[i][s][k] for k in range(3)] for i in range(3)]
    if axis == "C":
        return [[t.t[i][j][s] for j in range(3)] for i in range(3)]
    raise ValueError("axis must be one of A, B, C")


def flattening(t: Tensor333, axis: str):
    """3x9 matrix whose row s is the flattened axis-slice number s+1.

    Its rank is the dimension of the span of the three slices, i.e. the
    multilinear rank of t in the chosen direction.
    """
    rows = []
    for s in (1, 2, 3):
        sl = slice_of(t, axis, s)
        rows.append([sl[r][c] for r in range(3) for c in range(3)])
    return rows


def frank(t: Tensor333):
    """Triple of flattening ranks (A, B, C directions), kept on t."""
    if t._frank is None:
        t._frank = tuple(linalg.rank(flattening(t, ax)) for ax in AXES)
    return t._frank


def pencil(t: Tensor333, axis: str):
    """The 3x3 matrix of linear forms x1*S1 + x2*S2 + x3*S3, returned as
    its three coefficient matrices (S1, S2, S3) = the axis slices."""
    return [slice_of(t, axis, s) for s in (1, 2, 3)]


def perm_sign(sigma):
    """Sign of a permutation of range(n), by counting inversions."""
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


# the points (a, b, c) with a + b + c = 3: no nonzero cubic form in three
# variables vanishes at all of them, and x1 + x2 + x3 is 3 on each
_LATTICE3 = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def pencil_rank(slices) -> int:
    """Rank of the pencil x1*S1 + x2*S2 + x3*S3 over the rational function
    field in x1, x2, x3: the largest rank of the numeric matrices
    a*S1 + b*S2 + c*S3 over the 10 points of _LATTICE3.

    Exact: a k x k minor of the pencil is a form of degree k <= 3, and
    times (x1 + x2 + x3)^(3 - k) it is a cubic, where that factor is
    3^(3 - k) != 0 at every point.  The 10 points are unisolvent for cubics
    (Chung and Yao, SIAM J. Numer. Anal. 14(4), 1977), so a minor that
    vanishes at all of them is zero."""
    xyz = list(zip(*([x for row in s for x in row] for s in slices)))
    best = 0
    for a, b, c in _LATTICE3:
        v = [a * x + b * y + c * z for x, y, z in xyz]
        m = [v[:3], v[3:6], v[6:]]
        if linalg.det(m):
            return 3
        if best < 2:
            best = max(best, linalg.rank(m))
    return best


def prank(t: Tensor333):
    """Triple of pencil ranks (A, B, C directions), kept on t."""
    if t._prank is None:
        t._prank = tuple(pencil_rank(pencil(t, ax)) for ax in AXES)
    return t._prank


# --- group action ----------------------------------------------------------

def _check_invertible(g):
    for m in g:
        if linalg.det(m) == 0:
            raise ValueError("group element has a singular factor")


def act(g, t: Tensor333, check=True) -> Tensor333:
    """Transform t by g = (gA, gB, gC): T'_pqr = sum gA[p][i] gB[q][j] gC[r][k] T_ijk."""
    gA, gB, gC = g
    if check:
        _check_invertible(g)
    out = _zero3()
    for i, j, k in product(range(3), repeat=3):
        v = t.t[i][j][k]
        if v == 0:
            continue
        for p in range(3):
            a = gA[p][i]
            if a == 0:
                continue
            av = a * v
            for q in range(3):
                b = gB[q][j]
                if b == 0:
                    continue
                abv = b * av
                for r in range(3):
                    c = gC[r][k]
                    if c != 0:
                        out[p][q][r] += c * abv
    return Tensor333(out)


def permute_factors(t: Tensor333, times=1) -> Tensor333:
    """Cyclic relabeling of the three tensor factors (a -> b -> c -> a),
    applied `times` times: one application sends T_ijk to position (k,i,j)."""
    out = t
    for _ in range(times % 3):
        out = Tensor333([[[out.t[q][r][p] for r in range(3)] for q in range(3)]
                         for p in range(3)])
    return out


def random_group_element(rng: random.Random, bound=5):
    while True:
        g = tuple([[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
                  for _ in range(3))
        if all(linalg.det(m) != 0 for m in g):
            return g


def random_orbit_point(nf: Tensor333, seed, bound=5) -> Tensor333:
    """Deterministic pseudo-random point on the orbit of nf."""
    rng = random.Random(seed)
    g = random_group_element(rng, bound=bound)
    return act(g, nf, check=False)


# --- (de)serialization ------------------------------------------------------

def _scalar_to_json(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return "%d/%d" % (x.numerator, x.denominator)
    return int(x)


def _scalar_from_json(x):
    """An exact scalar from a JSON integer or a "p/q" string: an optional
    sign, ASCII digits and at most one slash.  Floats and booleans are
    rejected rather than truncated or read as 0/1."""
    if isinstance(x, str):
        num, _, den = x.partition("/")
        if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x) and int(den or 1):
            return Fraction(int(num), int(den or 1))
        raise ValueError("bad rational entry %r" % (x,))
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError("entries must be integers or 'p/q' strings, got %r" % (x,))


def tensor_to_json(t: Tensor333) -> str:
    return json.dumps([[[_scalar_to_json(t.t[i][j][k]) for k in range(3)]
                        for j in range(3)] for i in range(3)])


def tensor_from_json(text: str) -> Tensor333:
    data = json.loads(text)
    if not (isinstance(data, list) and len(data) == 3
            and all(isinstance(p, list) and len(p) == 3 for p in data)
            and all(isinstance(row, list) and len(row) == 3 for p in data for row in p)):
        raise ValueError("tensor JSON must be a nested 3x3x3 array")
    return Tensor333([[[_scalar_from_json(data[i][j][k]) for k in range(3)]
                       for j in range(3)] for i in range(3)])
