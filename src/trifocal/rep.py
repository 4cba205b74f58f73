"""Symmetric-group characters, Kronecker multiplicities, highest
weight spaces and the modules they generate.

Partitions are weakly decreasing tuples of positive ints.  A label is a
triple of partitions of the same degree; it names the GL(3)^3-module
S_lam(A) x S_mu(B) x S_nu(C*) inside the degree-d coordinate ring.  The
multiplicity of a label is the Kronecker coefficient, computed from S_d
characters via the Murnaghan-Nakayama rule.

Highest weight vectors come from tableau triples (Fulton-Harris,
Representation Theory, Sections 4 and 15; Landsberg, Tensors: Geometry
and Applications, ch. 6).  Tableaux T_A, T_B, T_C of shapes lam, mu, nu
on the positions 1..d give

    P = sum over sigma_X in C(T_X) of sgn(sigma_A sigma_B sigma_C)
        prod_p T[row_A(sigma_A p), row_B(sigma_B p), row_C(sigma_C p)],

C(T_X) the column group and row_X(p) the row of p in T_X.  P symmetrizes
a tensor whose X part has a wedge e_0 ^ ... ^ e_(h-1) per column of height
h, which raising operators kill: P is zero or a hw vector of weight
(lam, mu, nu), and the standard triples span the hw space.  Relabelling
the positions by g in S_d maps the triple to (gT_A, gT_B, gT_C) and fixes
P, so one T_A suffices: T_B, T_C then run over all fillings, which Garnir
relations reduce to standard ones.  hw_pairs fixes the column-reading T_A
and keeps each standard pair (T_B, T_C), from the row-reading ones on, whose
values mod p = machine_prime(0) at k + 1 fixed generic points are independent
of the kept ones', up to the Kronecker coefficient k: values are coefficients
times an evaluation matrix, so their rank_p <= rank_p of the coefficients
<= rank_Q, and k independent vectors of a k-dimensional space are a basis
(k + 1 of them contradict k).
tableau_values sums over C(T_A) x C(T_B); over C(T_C) each column q_0..q_(h-1)
of T_C gives the h x h determinant of M[i, r] = T[row_A(q_i), row_B(q_i), r].

A highest weight vector h of weight (lam, mu, nu) generates a copy of
S_lam x S_mu x S_nu.  Its basis comes from per-factor lowering-word trees:
words w in the two lowering operators of one gl(3) factor such that the
w.v_lam form a basis of S_lam(C^3), found once per partition on the model
P(T, T, one row), T lam's column-reading tableau.  The products w_A w_B w_C h
are then a basis of the module, so a span needs no elimination and no prime
(Fulton-Harris, Representation Theory, Section 15).  Each tree node is one
poly.shift_batch call on the one term batch of the vectors it lowers.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import islice, permutations, product
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

from . import linalg, poly
from .poly import LOWERING, apply_shift
from .tensor import perm_sign

MAX_DEGREE = 9  # the search bound: no new generators exist above this
_RUN_TERMS = 1 << 16   # _tableau_terms expands its pairs in runs of this many raw terms


class ConsistencyError(ArithmeticError):
    """A representation-theoretic cross-check failed (convention bug)."""


@lru_cache(maxsize=None)
def partitions(d, max_part=None):
    """All partitions of d as weakly decreasing tuples."""
    if d == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(d, max_part or d), 0, -1)
                 for rest in partitions(d - first, first))


@lru_cache(maxsize=None)
def class_size(cls) -> int:
    """d! / prod over parts k of k^m * m!, m the multiplicity of k in cls."""
    return factorial(sum(cls)) // prod(k ** m * factorial(m) for k, m in Counter(cls).items())


@lru_cache(maxsize=None)
def mn_character(lam, cls) -> int:
    """Character of the irreducible S_d module lam on cycle type cls,
    by border-strip removal on the beta set."""
    if sum(lam) != sum(cls):
        raise ValueError("partition %r and class %r have different sizes" % (lam, cls))
    if not cls:
        return 1
    ell, rest, n = cls[0], tuple(cls[1:]), len(lam)
    beta = [lam[i] + (n - 1 - i) for i in range(n)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - ell
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        newlam = tuple(x - (n - 1 - i) for i, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** height * mn_character(newlam, rest)
    return total


@lru_cache(maxsize=None)
def kronecker(lam, mu, nu) -> int:
    """Multiplicity of the label: (1/d!) sum over classes of
    |class| * chi_lam * chi_mu * chi_nu."""
    d = sum(lam)
    if not (sum(mu) == d and sum(nu) == d):
        raise ValueError("label %r has mixed sizes" % ((lam, mu, nu),))
    if d > MAX_DEGREE:
        raise ValueError("degree %d beyond the search bound %d" % (d, MAX_DEGREE))
    total = sum(class_size(cls) * mn_character(lam, cls) * mn_character(mu, cls)
                * mn_character(nu, cls) for cls in partitions(d))
    if total % factorial(d) != 0:
        raise ConsistencyError("character sum for %r is not divisible by d!" % ((lam, mu, nu),))
    val = total // factorial(d)
    if val < 0:
        raise ConsistencyError("negative multiplicity for %r" % ((lam, mu, nu),))
    return val


def weyl_dim(lam) -> int:
    """dim S_lam(C^3) by the Weyl dimension formula."""
    if len(lam) > 3:
        raise ValueError("more than 3 parts: %r" % (lam,))
    l = tuple(lam) + (0,) * (3 - len(lam))
    num = (l[0] - l[1] + 1) * (l[1] - l[2] + 1) * (l[0] - l[2] + 2)
    return num // 2


def label_dim(label) -> int:
    lam, mu, nu = label
    return weyl_dim(lam) * weyl_dim(mu) * weyl_dim(nu)


def all_labels(d):
    """All ordered triples of partitions of d with at most 3 parts."""
    parts = [p for p in partitions(d) if len(p) <= 3]
    return [(a, b, c) for a in parts for b in parts for c in parts]


def ambient_dimension(d) -> int:
    """dim of the degree-d coordinate ring of C^27."""
    return comb(26 + d, d)


# ---------------------------------------------------------------------------
# highest weight spaces (module docstring)

def _pad(lam):
    return tuple(lam) + (0,) * (3 - len(lam))


class HWSpace(NamedTuple):
    """Integer basis of the highest weight space of one label, one term batch."""

    label: tuple
    weight: tuple
    terms: tuple
    dim = property(lambda self: kronecker(*self.label))
    basis = property(lambda self: poly.unpack_terms(self.terms, self.dim))   # Polys viewing the terms


@lru_cache(maxsize=None)
def standard_tableaux(lam):
    """The standard tableaux of the padded shape lam as row words (the rows
    of 1, 2, ..., d): row-reading first, column-reading last."""
    out = [] if any(lam) else [()]
    for r in (2, 1, 0):   # d ends a row whose last box is a corner
        if lam[r] > (lam[r + 1] if r < 2 else 0):
            out += [w + (r,) for w in standard_tableaux(lam[:r] + (lam[r] - 1,) + lam[r + 1:])]
    return tuple(out)


@lru_cache(maxsize=None)
def _columns(word):   # column c: the positions with c earlier ones in their row, top row first
    return [[p for p, r in enumerate(word) if word[:p].count(r) == c] for c in range(word.count(0))]


@lru_cache(maxsize=None)
def _column_group(word):
    """(signs, rows) over the column group of the tableau with row word
    `word`: rows[n, p] is the row of sigma_n(p), signs[n] the sign of sigma_n."""
    signs, rows = [], []
    for perms in product(*(permutations(range(len(c))) for c in _columns(word))):
        rows.append(np.zeros(len(word), np.uint8))
        for c, perm in zip(_columns(word), perms):
            rows[-1][c] = perm
        signs.append(prod(map(perm_sign, perms)))
    return np.array(signs, dtype=np.int64), np.array(rows)


def _tableau_terms(ta, pairs):
    """P of (T_A, T_B, T_C) for each (T_B, T_C) in pairs as one integer
    batch, pair i's terms with id i, empty for no pairs (module docstring)."""
    (sa, ra), groups = _column_group(ta), [[_column_group(t) for t in pair] for pair in pairs]
    out = [(np.empty((0, len(ta)), np.uint8), np.empty(0, np.int64), np.empty(0, np.int64))]
    sizes = [len(sa) * len(b[0]) * len(c[0]) for b, c in groups]
    for run in poly.bounded_runs(enumerate(groups), sizes, _RUN_TERMS):
        signs, rows = [], []
        for _, ((sb, rb), (sc, rc)) in run:
            signs.append((sa[:, None, None] * sb[None, :, None] * sc[None, None, :]).ravel())
            monos = 9 * ra[:, None, None] + 3 * rb[None, :, None] + rc[None, None, :]
            rows.append(np.sort(monos.reshape(len(signs[-1]), -1), axis=1))
        ids = np.repeat([i for i, _ in run], list(map(len, signs)))
        out.append(poly.merge_terms((np.concatenate(rows), ids, np.concatenate(signs))))
    return tuple(map(np.concatenate, zip(*out)))


def residues(seed, n):   # n times 27 pseudo-random residues mod machine_prime(0), flat
    return np.frombuffer(random.Random(seed).randbytes(108 * n), np.uint32) % linalg.machine_prime(0)


def tableau_values(ta, pairs, points):
    """P of (T_A, T_B, T_C) mod p = machine_prime(0) for each (T_B, T_C) in pairs at
    each point (a row of 27 residues) as a points x pairs array, one determinant per
    column of T_C (module docstring), in runs of at most _RUN_TERMS raw terms times points."""
    p, (sa, ra), out = linalg.machine_prime(0), _column_group(ta), []
    x = np.asarray(points, np.int64).reshape(-1, 27).T   # [variable, point]
    sizes = [x.shape[1] * len(sa) * len(_column_group(b)[0]) * len(_column_group(c)[0]) for b, c in pairs]
    for run in poly.bounded_runs(pairs, sizes, _RUN_TERMS):
        (sb, rb), val = map(np.array, zip(*(_column_group(b) for b, _ in run))), 1
        ab = (9 * ra.T[:, :, None] + 3 * rb.swapaxes(1, 2)[:, :, None]).astype(np.intp)   # [pair, q, A, B]
        for q in map(np.array, zip(*(_columns(c) for _, c in run))):   # a column of each T_C
            sc, rc = _column_group(tuple(range(q.shape[1])))   # S_h and its signs: Leibniz
            m = np.take(x, ab[np.arange(len(q))[:, None], q][:, None] + rc[:, :, None, None], axis=0)
            for i in range(1, q.shape[1]):   # m[pair, perm, i, A, B, point] = M[i, perm(i)]
                m[:, :, 0] = m[:, :, 0] * m[:, :, i] % p
            val = val * ((m[:, :, 0] * sc[:, None, None, None]).sum(1) % p) % p
        out.append((val * (sa[:, None] * sb[:, None])[..., None]).sum((1, 2)) % p)
    return np.concatenate(out).T.copy()


@lru_cache(maxsize=None)
def hw_pairs(label):
    """(T_A, pairs): the column-reading T_A and the first kronecker(label) standard pairs
    (T_B, T_C) whose values at k + 1 fixed generic points are independent mod p of those
    before them, in chunks of doubling size (module docstring).  Fewer, or more in one
    chunk, raise ConsistencyError."""
    k, p, (lam, mu, nu) = kronecker(*label), linalg.machine_prime(0), map(_pad, label)
    ta, pairs, kept, size = standard_tableaux(lam)[-1], product(*map(standard_tableaux, (mu, nu))), [], k
    while len(kept) < k and (chunk := list(islice(pairs, size))):   # at seed-free points
        pivots = linalg._eliminate(tableau_values(ta, kept + chunk, residues(0, k + 1)), p)[1]
        kept, size = [(kept + chunk)[j] for j in pivots], 2 * size
    if len(kept) != k:
        raise ConsistencyError("hw space of %r has dimension %d, expected %d" % (label, len(kept), k))
    return ta, tuple(kept)


def hw_space(label) -> HWSpace:
    """Highest weight space of a label: the tableau polynomials of
    hw_pairs(label) as one content-normalized batch (module docstring)."""
    ta, pairs = hw_pairs(label)
    return HWSpace(label, tuple(map(_pad, label)), poly.normalize_batch(_tableau_terms(ta, pairs)))


@lru_cache(maxsize=None)
def lowering_tree(lam):
    """Lowering words whose images of a highest weight vector of weight
    lam form a basis of S_lam(C^3).

    Returned as nodes (parent, (to, frm)): node 0 is the root (parent
    None), node n is the lowering operator (to, frm) applied to node
    `parent` < n.  The words are found by closing the model P(T, T, one
    row), T the column-reading tableau of lam (prod over columns of h! times
    Delta_1^(l1-l2) Delta_12^(l2-l3) Delta_123^l3, leading minors of
    T[i][j][0]) under the two A-lowering operators, one weight at a time,
    keeping each image that is independent of the ones kept before it.
    """
    ta = standard_tableaux(_pad(lam))[-1]
    v = poly.unpack_terms(_tableau_terms(ta, [(ta, (0,) * len(ta))]), 1)[0]
    nodes, p = [(None, None)], linalg.machine_prime(0)
    level = [(0, v)]  # (node id, model vector) of the newest nodes
    while level:
        # images of one level, grouped by weight; different weights are
        # independent, so only images of equal weight are compared
        by_weight = {}
        for parent, f in level:
            for _, to, frm in LOWERING[:2]:   # the two A-lowering operators
                img = apply_shift("A", to, frm, f)
                if not img.is_zero():
                    by_weight.setdefault(img.weight(), []).append((parent, (to, frm), img))
        level = []
        for cands in by_weight.values():   # each one independent mod p of those before it, so over Q
            rows, ids, coeffs = poly.pack_terms([img for _, _, img in cands])
            keys = poly.mono_keys(rows)   # a row per monomial
            a = poly.term_matrix(keys, ids, coeffs, poly.distinct(keys), len(cands), p)
            for j in linalg._eliminate(a, p)[1]:
                level.append((len(nodes), cands[j][2]))
                nodes.append(cands[j][:2])
    if len(nodes) != weyl_dim(lam):
        raise ConsistencyError("lowering tree of %r has %d nodes, expected %d"
                               % (lam, len(nodes), weyl_dim(lam)))
    return tuple(nodes)


def module_span(batch):
    """Basis of the module generated by a highest weight vector h of weight
    (lam, mu, nu), an integer batch (ids aside), as one integer batch: vector
    (a * dim mu + b) * dim nu + c is w_A w_B w_C h for word a, b and c of
    lowering_tree(lam), (mu) and (nu) on the A, B and C factors, each one
    lowering of an earlier vector, then content-normalized.  Vector i's terms
    are one run of id i, sorted by monomial; the runs come in any order."""
    rows, _, coeffs = batch
    w = poly.row_weights(rows)
    if not len(w) or (w != w[:1]).any():
        raise ValueError("module_span needs a nonzero weight-homogeneous highest weight vector")
    w = tuple(map(tuple, w[0].reshape(3, 3).tolist()))
    parts = [tuple(x for x in sorted(c, reverse=True) if x) for c in w]
    if tuple(map(_pad, parts)) != w:
        raise ValueError("module_span needs a dominant-weight vector, got weight %r" % (w,))
    h = poly.normalize_batch(poly.merge_terms((rows, np.zeros(len(rows), np.int64), coeffs)))
    if not poly.is_highest_weight(h):
        raise ValueError("module_span needs a highest weight vector")
    trees = list(map(lowering_tree, parts))
    for axis, tree, step in zip("ABC", trees, (len(trees[1]) * len(trees[2]), len(trees[2]), 1)):
        nodes = [h]   # node n of the tree on every vector, its ids raised by n * step
        for n, (parent, (to, frm)) in enumerate(tree[1:], 1):
            nodes.append(poly.normalize_batch(poly.shift_batch(axis, to, frm, nodes[parent])))
            np.add(nodes[n][1], (n - parent) * step, out=nodes[n][1])
        columns, nodes = [list(x) for x in zip(*nodes)], None
        h = tuple(np.concatenate(columns.pop(0)) for _ in range(3))   # each column dropped once joined
    return h
