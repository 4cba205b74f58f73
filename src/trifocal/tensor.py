"""3x3x3 tensors over exact scalars.

Index convention: ``t[i][j][k]`` with i, j, k in {0,1,2}; the public
slice/decode helpers speak 1-based indices to match the usual T_ijk
labeling.  The last index plays the role of the output (third image) in
the line-transfer picture, so the letter slices are a_ij = T[i][j][0],
b_ij = T[i][j][1], c_ij = T[i][j][2].
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations, product

from . import linalg

AXES = ("A", "B", "C")


def _zero3():
    return [[[0, 0, 0] for _ in range(3)] for _ in range(3)]


class Tensor333:
    """Immutable-by-convention 3x3x3 array of exact scalars."""

    __slots__ = ("t",)

    def __init__(self, entries):
        t = [[[entries[i][j][k] for k in range(3)] for j in range(3)] for i in range(3)]
        self.t = t

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
        return hash(tuple(self.t[i][j][k] for i in range(3) for j in range(3) for k in range(3)))

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
    """Triple of flattening ranks (A, B, C directions)."""
    return tuple(linalg.rank(flattening(t, ax)) for ax in AXES)


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


# --- small polynomials in the pencil variables x1, x2, x3 -----------------

def _poly3_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c == 0:
                out.pop(e, None)
            else:
                out[e] = c
    return out


def _linear_form(coeffs):
    """c1*x1 + c2*x2 + c3*x3 as {(e1,e2,e3): c}."""
    return {tuple(1 if s == i else 0 for i in range(3)): c
            for s, c in enumerate(coeffs) if c != 0}


def _entry_form(slices, r, c):
    return _linear_form([slices[s][r][c] for s in range(3)])


def pencil_det(slices):
    """Determinant of the symbolic pencil, as {(e1,e2,e3): coeff}."""
    total = {}
    for sigma in permutations(range(3)):
        sign = perm_sign(sigma)
        term = {(0, 0, 0): sign}
        for r in range(3):
            term = _poly3_mul(term, _entry_form(slices, r, sigma[r]))
            if not term:
                break
        for e, c in term.items():
            acc = total.get(e, 0) + c
            if acc == 0:
                total.pop(e, None)
            else:
                total[e] = acc
    return total


def pencil_rank(slices) -> int:
    """Rank of the pencil over the rational function field in x1,x2,x3,
    found by expanding all minors symbolically."""
    if pencil_det(slices):
        return 3
    for rows in ((0, 1), (0, 2), (1, 2)):
        for cols in ((0, 1), (0, 2), (1, 2)):
            a = _entry_form(slices, rows[0], cols[0])
            b = _entry_form(slices, rows[1], cols[1])
            c = _entry_form(slices, rows[0], cols[1])
            d = _entry_form(slices, rows[1], cols[0])
            m = _poly3_mul(a, b)
            for e, coeff in _poly3_mul(c, d).items():
                acc = m.get(e, 0) - coeff
                if acc == 0:
                    m.pop(e, None)
                else:
                    m[e] = acc
            if m:
                return 2
    if any(slices[s][r][c] != 0 for s in range(3) for r in range(3) for c in range(3)):
        return 1
    return 0


def prank(t: Tensor333):
    """Triple of symbolic pencil ranks (A, B, C directions)."""
    return tuple(pencil_rank(pencil(t, ax)) for ax in AXES)


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


def contract(t: Tensor333, u, v):
    """Bilinear contraction: w_k = sum_ij T_ijk u_i v_j."""
    return [sum(t.t[i][j][k] * u[i] * v[j] for i in range(3) for j in range(3))
            for k in range(3)]


def permute_factors(t: Tensor333, times=1) -> Tensor333:
    """Cyclic relabeling of the three tensor factors (a -> b -> c -> a),
    applied `times` times: one application sends T_ijk to position (k,i,j)."""
    out = t
    for _ in range(times % 3):
        out = Tensor333([[[out.t[q][r][p] for r in range(3)] for q in range(3)]
                         for p in range(3)])
    return out


def random_group_element(rng: random.Random, bound=5, max_tries=200):
    for _ in range(max_tries):
        g = tuple([[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
                  for _ in range(3))
        if all(linalg.det(m) != 0 for m in g):
            return g
    raise RuntimeError("could not sample an invertible group element")


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
    """An exact scalar from a JSON integer or a "p/q" string.  Floats and
    booleans are rejected rather than truncated or read as 0/1."""
    if isinstance(x, str):
        num, _, den = x.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("bad rational entry %r" % (x,)) from exc
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
