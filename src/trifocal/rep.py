"""Symmetric-group characters, Kronecker multiplicities, highest
weight spaces and the modules they generate.

Partitions are weakly decreasing tuples of positive ints.  A label is a
triple of partitions of the same degree; it names the GL(3)^3-module
S_lam(A) x S_mu(B) x S_nu(C*) inside the degree-d coordinate ring.  The
multiplicity of a label is the Kronecker coefficient, computed from S_d
characters via the Murnaghan-Nakayama rule; the matching highest weight
space is realized concretely as the joint kernel of the six raising
operators on one torus weight space.

A highest weight vector h of weight (lam, mu, nu) generates a copy of
S_lam x S_mu x S_nu.  Its basis comes from per-factor lowering-word trees:
words w in the two lowering operators of one gl(3) factor such that the
w.v_lam form a basis of S_lam(C^3), found once per partition on a small
one-factor model.  The products w_A w_B w_C h are then a basis of the
module, so a span needs no elimination and no prime (Fulton-Harris,
Representation Theory, Section 15).  Each tree node is one
poly.shift_batch call on all the vectors one factor's tree lowers.

Highest weight spaces are computed once per orbit of labels under the
permutations of the three tensor factors.  Relabelling the factors is a
permutation of the 27 variables that carries the operator E_rs of factor
a to E_rs of the factor a lands in, so it conjugates the six raising
operators onto themselves and maps the weight space and hw space of
(lam, mu, nu) onto those of the permuted label.  The variety is not
symmetric under it (the degree-5 generators single out C), so vanishing
on the orbit is still tested label by label.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from . import linalg, poly
from .poly import LOWERING, RAISING, Poly, apply_shift, var_index
from .tensor import perm_sign

MAX_DEGREE = 9  # the search bound: no new generators exist above this


class ConsistencyError(ArithmeticError):
    """A representation-theoretic cross-check failed (convention bug)."""


@lru_cache(maxsize=None)
def partitions(d, max_part=None):
    """All partitions of d as weakly decreasing tuples."""
    if max_part is None:
        max_part = d
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in partitions(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_max_parts(d, max_parts):
    return tuple(p for p in partitions(d) if len(p) <= max_parts)


def class_size(cls) -> int:
    d = sum(cls)
    z = 1
    mult = {}
    for part in cls:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return factorial(d) // z


@lru_cache(maxsize=None)
def mn_character(lam, cls) -> int:
    """Character of the irreducible S_d module lam on cycle type cls,
    by border-strip removal on the beta set."""
    if sum(lam) != sum(cls):
        raise ValueError("partition %r and class %r have different sizes" % (lam, cls))
    if not cls:
        return 1
    ell = cls[0]
    rest = tuple(cls[1:])
    n = len(lam)
    beta = [lam[i] + (n - 1 - i) for i in range(n)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - ell
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for x in beta if x != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(x - (n - 1 - i) for i, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        term = mn_character(newlam, rest)
        total += -term if height % 2 else term
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
    total = 0
    for cls in partitions(d):
        total += (class_size(cls) * mn_character(lam, cls)
                  * mn_character(mu, cls) * mn_character(nu, cls))
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
    parts = partitions_max_parts(d, 3)
    return [(a, b, c) for a in parts for b in parts for c in parts]


def ambient_dimension(d) -> int:
    """dim of the degree-d coordinate ring of C^27."""
    from math import comb
    return comb(26 + d, d)


def completeness_defect(d) -> int:
    """Sum of kronecker * Weyl dims minus the ambient dimension (0 iff the
    isotypic bookkeeping is consistent)."""
    total = sum(kronecker(*lab) * label_dim(lab) for lab in all_labels(d))
    return total - ambient_dimension(d)


# ---------------------------------------------------------------------------
# highest weight spaces

def _pad(lam):
    return tuple(lam) + (0,) * (3 - len(lam))


class HWSpace:
    """Basis of the joint raising-operator kernel on one weight space."""

    __slots__ = ("label", "weight", "monomials", "basis")

    def __init__(self, label, weight, monomials, basis):
        self.label = label
        self.weight = weight
        self.monomials = monomials
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)


@lru_cache(maxsize=None)
def hw_space(label) -> HWSpace:
    """Highest weight space for a label, with exact integer basis vectors:
    the kernel of the sorted label mapped by the factor permutation (module
    docstring), re-reduced to the identity on the last independent
    monomials (the free columns of the label's own kernel RREF, by matroid
    duality), so bit for bit what _hw_kernel(label) gives.  A dimension
    other than the Kronecker coefficient raises ConsistencyError."""
    canon = tuple(sorted(label))
    hw = _hw_kernel(canon)
    if kronecker(*label) != hw.dim:
        raise ConsistencyError("hw space of %r has dimension %d" % (label, hw.dim))
    if canon == label:
        return hw
    # factor b of the label is factor perm[b] of the sorted label
    perm = next(s for s in permutations(range(3)) if tuple(canon[a] for a in s) == label)
    vmap = poly.variable_map(perm)
    monomials = sorted(tuple(sorted(vmap[v] for v in m)) for m in hw.monomials)
    mapped = [poly.permuted(g, vmap).terms for g in hw.basis]
    rows = [[t.get(m, 0) for m in reversed(monomials)] for t in mapped]
    basis = [Poly({m: c for m, c in zip(monomials, row[::-1]) if c}).content_normalized()
             for row in reversed(linalg._rref(rows)[0])]
    return HWSpace(label, tuple(_pad(lam) for lam in label), monomials, basis)


@lru_cache(maxsize=None)
def _hw_kernel(label) -> HWSpace:
    """The joint kernel of the six raising operators on the label's weight
    space, an integer kernel lifted by linalg.kernel_basis_int."""
    weight = tuple(_pad(lam) for lam in label)
    monomials = poly.weight_space_basis(sum(label[0]), weight)
    columns = poly.pack_terms([Poly._wrap({m: 1}) for m in monomials])   # id = column
    rows = []
    for ax, to, frm in RAISING:
        images, cols, coeffs = poly.shift_batch(ax, to, frm, columns)
        _, row_of = np.unique(images, axis=0, return_inverse=True)   # one row per image monomial
        block = [{} for _ in range(row_of.max(initial=-1) + 1)]
        for r, c, v in zip(row_of.ravel().tolist(), cols.tolist(), coeffs.tolist()):
            block[r][c] = v
        rows += block
    # by first column (stable): kernel_basis_int runs about 15% faster
    rows.sort(key=lambda r: next(iter(r)))
    try:
        vectors = linalg.kernel_basis_int(rows, len(monomials),
                                          expected_dim=kronecker(*label))
    except ArithmeticError as exc:
        raise ConsistencyError("hw space of %r: %s" % (label, exc)) from exc
    basis = [Poly({monomials[i]: c for i, c in enumerate(v) if c}).content_normalized()
             for v in vectors]
    return HWSpace(label, weight, monomials, basis)


def _leading_minor(k) -> Poly:
    """det of the top-left k x k block of the slice T[i][j][0]."""
    out = Poly()
    for sigma in permutations(range(k)):
        out.add_term(tuple(sorted(var_index(r, sigma[r], 0) for r in range(k))),
                     perm_sign(sigma))
    return out


@lru_cache(maxsize=None)
def lowering_tree(lam):
    """Lowering words whose images of a highest weight vector of weight
    lam form a basis of S_lam(C^3).

    Returned as nodes (parent, (to, frm)): node 0 is the root (parent
    None), node n is the lowering operator (to, frm) applied to node
    `parent` < n.  The words are found by closing the one-factor model
    Delta_1^(l1-l2) Delta_12^(l2-l3) Delta_123^l3 (leading minors of
    T[i][j][0]) under the two A-lowering operators, one weight at a time,
    keeping each image that is independent of the ones kept before it.
    """
    l1, l2, l3 = _pad(lam)
    v = Poly.constant(1)
    for k, e in ((1, l1 - l2), (2, l2 - l3), (3, l3)):
        for _ in range(e):
            v = v * _leading_minor(k)
    nodes = [(None, None)]
    level = [(0, v)]  # (node id, model vector) of the newest nodes
    while level:
        # images of one level, grouped by weight; different weights are
        # independent, so only images of equal weight are compared
        by_weight = {}
        for parent, f in level:
            for ax, to, frm in LOWERING:
                if ax != "A":
                    continue
                img = apply_shift("A", to, frm, f)
                if not img.is_zero():
                    by_weight.setdefault(img.weight(), []).append((parent, (to, frm), img))
        level = []
        for cands in by_weight.values():
            cols = sorted({m for _, _, img in cands for m in img.terms})
            kept = []
            for parent, op, img in cands:
                row = [Fraction(img.terms.get(m, 0)) for m in cols]
                if linalg.rank(kept + [row]) > len(kept):
                    kept.append(row)
                    level.append((len(nodes), img))
                    nodes.append((parent, op))
    if len(nodes) != weyl_dim(lam):
        raise ConsistencyError("lowering tree of %r has %d nodes, expected %d"
                               % (lam, len(nodes), weyl_dim(lam)))
    return tuple(nodes)


def module_span(h: Poly):
    """Basis of the irreducible module generated by a highest weight
    vector h of weight (lam, mu, nu): the vectors w_A w_B w_C h for the
    lowering words of lowering_tree(lam), (mu) and (nu) acting on the
    A, B and C factors.  Each vector is one lowering operator applied to
    an earlier one, then content-normalized; h itself comes first.
    """
    w = h.weight()
    if w is None:
        raise ValueError("module_span needs a nonzero highest weight vector")
    parts = tuple(tuple(sorted(c, reverse=True)) for c in w)
    if tuple(_pad(c) for c in parts) != w:
        raise ValueError("module_span needs a dominant-weight vector, got weight %r" % (w,))
    if not poly.is_highest_weight(h):
        raise ValueError("module_span needs a highest weight vector")
    basis = [h.content_normalized()]
    for axis, part in zip("ABC", parts):
        tree = lowering_tree(tuple(x for x in part if x))
        nodes = [poly.pack_terms(basis)]   # node n of the tree on every vector
        for parent, (to, frm) in tree[1:]:
            nodes.append(poly.normalize_batch(poly.shift_batch(axis, to, frm, nodes[parent])))
        # node by node, which halves the transient memory of the largest modules
        images = [basis] + [poly.unpack_terms(b, len(basis)) for b in nodes[1:]]
        basis = [images[n][r] for r in range(len(basis)) for n in range(len(tree))]
    return basis
