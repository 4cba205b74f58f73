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
relations reduce to standard ones.  hw_space fixes the column-reading
T_A, runs through standard pairs (T_B, T_C) from the row-reading ones on
(about four candidates per basis vector through degree 7), expanded in runs
of at most _RUN_TERMS raw terms into one term batch, and keeps each one
independent mod a prime p of those kept, up to the Kronecker coefficient k,
as one batch too.  That is exact for any p: a k x k minor nonzero mod p is
nonzero, and k independent vectors of a k-dimensional space are a basis.

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

from collections import Counter
from functools import lru_cache
from itertools import islice, permutations, product
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

from . import linalg, poly
from .poly import LOWERING, Poly, apply_shift
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
    """Integer basis of the highest weight space of one label."""

    label: tuple
    weight: tuple
    basis: list

    @property
    def dim(self):
        return len(self.basis)


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
def _column_group(word):
    """(signs, rows) over the column group of the tableau with row word
    `word`: rows[n, p] is the row of sigma_n(p), signs[n] the sign of sigma_n."""
    # column c: the positions with c earlier ones in their row, top row first
    columns = [[p for p, r in enumerate(word) if word[:p].count(r) == c]
               for c in range(word.count(0))]
    signs, rows = [], []
    for perms in product(*(permutations(range(len(c))) for c in columns)):
        rows.append(np.zeros(len(word), np.uint8))
        for c, perm in zip(columns, perms):
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


def _independent(batch, n):
    """The ids of the polynomials 0..n-1 of an integer batch independent mod
    machine_prime(0) of the ones before them, hence over Q (module docstring)."""
    p, (rows, ids, coeffs) = linalg.machine_prime(0), batch
    a = poly.term_matrix(poly.mono_keys(rows), ids, coeffs, n, p)
    return linalg._eliminate(np.ascontiguousarray(a.T), p)[1]   # the pivot columns, one row per monomial


@lru_cache(maxsize=None)
def hw_space(label) -> HWSpace:
    """Highest weight space of a label from tableau polynomials, expanded in
    chunks of doubling size (module docstring).  Fewer than kronecker(label)
    independent ones, or more in one chunk, raise ConsistencyError."""
    k, weight = kronecker(*label), tuple(_pad(lam) for lam in label)
    ta = standard_tableaux(weight[0])[-1]
    pairs = product(standard_tableaux(weight[1]), standard_tableaux(weight[2]))
    basis, n, size = _tableau_terms(ta, []), 0, k   # the n kept vectors, ids 0..n-1
    while n < k and (chunk := list(islice(pairs, size))):
        rows, ids, coeffs = _tableau_terms(ta, chunk)
        rows, ids, coeffs = map(np.concatenate, zip(basis, (rows, ids + n, coeffs)))
        pivots = _independent((rows, ids, coeffs), n + len(chunk))
        keep = np.isin(ids, pivots)   # pivots ascend: the kept batch stays sorted by id
        basis = rows[keep], np.searchsorted(pivots, ids[keep]), coeffs[keep]
        n, size = len(pivots), 2 * size
    if n != k:
        raise ConsistencyError("hw space of %r has dimension %d, expected %d" % (label, n, k))
    return HWSpace(label, weight, poly.unpack_terms(poly.normalize_batch(basis), k))


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
    nodes = [(None, None)]
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
        for cands in by_weight.values():
            for j in _independent(poly.pack_terms([img for _, _, img in cands]), len(cands)):
                level.append((len(nodes), cands[j][2]))
                nodes.append(cands[j][:2])
    if len(nodes) != weyl_dim(lam):
        raise ConsistencyError("lowering tree of %r has %d nodes, expected %d"
                               % (lam, len(nodes), weyl_dim(lam)))
    return tuple(nodes)


def module_span(h: Poly):
    """Basis of the module generated by a highest weight vector h of weight
    (lam, mu, nu) as one integer batch: vector i is w_A w_B w_C h for the
    i-th triple of lowering words of lowering_tree(lam), (mu) and (nu) on
    the A, B and C factors, each one lowering of an earlier vector, then
    content-normalized.  Vector i's terms are one run of id i, sorted by
    monomial; the runs come in any order."""
    w = h.weight()
    if w is None:
        raise ValueError("module_span needs a nonzero highest weight vector")
    parts = tuple(tuple(sorted(c, reverse=True)) for c in w)
    if tuple(_pad(c) for c in parts) != w:
        raise ValueError("module_span needs a dominant-weight vector, got weight %r" % (w,))
    if not poly.is_highest_weight(h):
        raise ValueError("module_span needs a highest weight vector")
    batch, dims = poly.normalize_batch(poly.merge_terms(poly.integer_terms([h]))), []
    for axis, part in zip("ABC", parts):
        tree, nvec = lowering_tree(tuple(x for x in part if x)), prod(dims)
        nodes = [batch]   # node n of the tree on every vector, as ids n * nvec + id
        for n, (parent, (to, frm)) in enumerate(tree[1:], 1):
            nodes.append(poly.normalize_batch(poly.shift_batch(axis, to, frm, nodes[parent])))
            np.add(nodes[n][1], (n - parent) * nvec, out=nodes[n][1])
        batch, dims = tuple(map(np.concatenate, zip(*nodes))), dims + [len(tree)]
    rows, ids, coeffs = batch   # id (c * dims[1] + b) * dims[0] + a becomes (a, b, c)'s
    return rows, np.arange(prod(dims)).reshape(dims).transpose(2, 1, 0).ravel()[ids], coeffs
