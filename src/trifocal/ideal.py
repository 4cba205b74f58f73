"""Graded ideal computations by weight-blocked exact linear algebra.

Everything here avoids Groebner bases: the generator sets, their degree
slices and all membership questions are homogeneous for the torus grading,
so each question decomposes into small independent weight blocks, and an
exact rank over F_p per block answers it.  Vanishing certificates are
integer kernels of exact values at random orbit points (poly.evaluate_points),
each new module proved at nf: for V the closure of G . nf, G = GL(3)^3, a
G-stable space M (rep.module_span of a certificate) vanishes on V iff it
vanishes at nf, as p(g . nf) = (g^-1 p)(nf) with g^-1 p in M.  A label of
no vanishing vector is proved so first (_proved_zero): were h = sum c_j P_j
zero on V, c primitive in Z^k and P_j rep.hw_pairs' k tableau polynomials,
h(g . nf) would be zero in Z[g], so the values P_j(g . nf) mod p would meet
M c = 0 with c nonzero mod p; M of rank k excludes every such h.

The rank sweep is folded by the Weyl group S3^3 of coordinate
permutations.  A degree whose generators all came from
GradedGeneratorSet.add_module (a rep.module_span batch: the module of a hw vector)
spans a GL(3)^3-stable space over Q, and so does every slice of the ideal
above it.  Permutation matrices lie in GL(3, Q)^3 and map the weight block
w onto the block sigma(w) (Fulton-Harris, Representation Theory, on the
Weyl group acting on weights), so rank_Q(w) = rank_Q(sigma w).  When every
degree <= d is module-built the sweep ranks only the dominant block of
each orbit and counts it |S3^3 . w| times; otherwise G is trivial.  A
witness f folds by G_f = {sigma in G : sigma(f) in Q^x f}, checked exactly,
the sigma that also permute the blocks of the ideal plus (f).  Since
rank_p(w) <= rank_Q(w) = rank_Q(sigma w), a folded total is a lower bound
on the dimension over Q, as the unfolded sum is; for G = {id} it is that sum.

Each base representative's block B_r is factored once (Factor, L sparse
by column), memoised per (degree, p, G) for one prime at a time.  A
witness block w maps to r = sigma(w) by the sigma in G that sorts each
slot's contents (the identity for G = {id}): sigma of its witness rows W_w
is forward-substituted through r's L, and only the residual is ranked, so
B_r is neither rebuilt nor re-eliminated.  Over Q, rank [B_r; sigma W_w]
= rank [B_w; W_w], as I_d is S3^3-stable; rank_p <= rank_Q, so each
folded total is still a lower bound on the dimension over Q.

Blocks are built from packed terms with no per-term Python.  Each filed
batch (a module from rep.module_span, or poly.integer_terms of the Polys of
one add call) is gathered once into one read-only chunk of uint8 rows of sorted
variables and coefficients at their narrowest width (poly.narrow), each
generator as its integer multiple with content 1 (the same ideal, nothing
to truncate mod p), sorted by weight key, then by order of filing.  A
weight is its int key here (poly.weight_keys); the degree-n weights are
the key column of poly._monomial_table(n).  Weight keys, an array per
degree built at filing with their 3 x 3 contents, index slices of the
chunks, which are a module's basis vectors: terms held once.  From
rep.hw_space to the store discovery passes term batches, and evaluates
term slices (poly.evaluate_points); the set holds no Poly.
A product row is a generator's rows beside a multiplier, sorted; a
monomial's key has five bits per variable (poly.mono_keys, 35 at degree
7), and poly.term_matrix fills a block's transpose A, a row per monomial
key.  Witness multiples and certificates are rows of the same blocks.  A
column permutation changes no rank and no Echelon.add verdict, so key
order serves as well as order of first appearance.

Discovery also uses the swap tau: T_ijk -> T_jik.  It normalises GL(3)^3,
tau(g . T) = (gB, gA, gC) . tau(T), so if sigma . nf = tau(nf) for a sigma
in S3^3 (permutation matrices: sigma . nf has nf_x at the variable sigma(x))
then tau(V) = V for V the orbit closure of nf.  tau maps the hw vectors of
a label (lam, mu, nu) onto those of (mu, lam, nu), the vanishing ones onto
the vanishing ones, and a module's basis vector of lowering words (a, b, c)
to the partner's (b, a, c) up to a scalar.  When tau maps the hw vector of
each module below degree d to that of a module, it maps the generators
below d onto themselves up to sign, so block w onto block tau(w) by a
signed row and column permutation: the mod-p verdicts of a label and its
partner agree.  scan_degree then derives the later label of each pair.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from . import linalg, rep
from .poly import (N_VARS, PAD, Poly, _RUN_TERMS, _monomial_table, _run_starts, bounded_runs,
                   distinct, evaluate_points, integer_terms, key_weights, merge_terms, mono_keys,
                   narrow, normalize_batch, row_weights, term_matrix, term_slices, var_ijk,
                   weight_keys, weight_space_basis)
from .scalars import DEFAULT_PRIME, is_prime
from .tensor import Tensor333, _integral, random_orbit_point

DEFAULT_DEGREE_CAP = 6
HARD_DEGREE_CAP = 7
MAX_DRAWS = 8   # per label in scan_degree; discover(6) at seeds 0-29 needed at most 3

# S3^3 as (sigma_A, sigma_B, sigma_C); sigma sends T_ijk to T_sA(i)sB(j)sC(k)
WEYL = tuple(product(permutations(range(3)), repeat=3))
IDENTITY = (WEYL[0],)
_WEYL_INDEX = {sigma: i for i, sigma in enumerate(WEYL)}


class DegreeCapError(ValueError):
    pass


def _check_cap(d):
    if d > HARD_DEGREE_CAP:
        raise DegreeCapError("degree %d exceeds the cap %d (ambient dimension there is %d)"
                             % (d, HARD_DEGREE_CAP, rep.ambient_dimension(d)))


@lru_cache(maxsize=None)
def _weyl_maps():
    """T_x -> T_y with y[a] = sigma[a][x[a]], PAD to PAD: a uint8 row per sigma in WEYL."""
    return np.array([[9 * a[i] + 3 * b[j] + c[k] for i, j, k in map(var_ijk, range(N_VARS))] + [PAD]
                     for a, b, c in WEYL], np.uint8)


def _check_prime(p):
    linalg._check_machine_prime(p)  # before is_prime, which trial-divides
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)


def _gathered(slices):
    """(rows, ids, coeffs, count) of a weight's chunk slices: ids count the
    generators in order of filing."""
    rows, coeffs, n = map(np.concatenate, zip(*slices))
    return rows, np.repeat(np.arange(len(n)), n), coeffs, len(n)


class GradedGeneratorSet:
    """Homogeneous, weight-homogeneous generators bucketed by degree and
    indexed by weight, held as term chunks.  A degree is module-built while
    all of its generators came from add_module."""

    def __init__(self):
        self._tables = {}   # degree -> {weight key: chunk slices}, in order of filing
        self._weights = {}  # degree -> the keys of _tables[degree] as an array, their 3 x 3 contents
        self._modules = {}  # degree -> module-built
        self._hws = {}      # _key of each module's hw vector -> its rows and coefficients (_swap_closed)
        self._ranks = {}    # (degree, p, group) -> {representative: its block's Factor}
        self._folds = {}    # (degree, group) -> _fold of the slice weights

    def _file(self, degree, batch):
        # a batch of id runs (ids in filing order, runs in any order) as one chunk, its slices by id
        rows, ids, coeffs = batch
        starts = _run_starts(ids)
        keys = weight_keys(row_weights(rows[starts]))   # raises before any change to the set
        order = np.lexsort((ids[starts], keys))   # the runs by weight, then in order of filing
        n, filed = np.diff(np.r_[starts, len(ids)])[order], ids[starts[order]]
        runs = [slice(a, a + k) for a, k in zip(starts[order].tolist(), n.tolist())]
        rows, coeffs = (np.concatenate([x[:0]] + [x[run] for run in runs]) for x in (rows, narrow(coeffs)))
        rows.flags.writeable = coeffs.flags.writeable = False
        ends = np.r_[0, np.cumsum(n)].tolist()
        cuts = np.r_[np.flatnonzero(np.diff(keys[order], prepend=-1)), len(order)]
        index = self._tables.setdefault(degree, {})
        for w, a, b in sorted(zip(keys[order[cuts[:-1]]].tolist(), cuts, cuts[1:]),
                              key=lambda item: filed[item[1]]):   # new weights in order of filing
            index.setdefault(w, []).append((rows[ends[a]:ends[b]], coeffs[ends[a]:ends[b]], n[a:b]))
        weights = np.fromiter(index, np.int64, len(index))
        self._weights[degree] = weights, key_weights(weights)
        self._modules.setdefault(degree, True)
        self._ranks.clear()
        self._folds.clear()
        return [(rows[a:b], coeffs[a:b]) for a, b in (ends[s:s + 2] for s in np.argsort(filed).tolist())]

    def add(self, degree, polys):
        """Add plain generators, Polys; their degree stops being module-built."""
        polys = list(polys)
        for f in polys:
            if f.degree() != degree:
                raise ValueError("generator of degree %s filed under %d" % (f.degree(), degree))
            f.weight()   # raises unless f is weight-homogeneous
        self._file(degree, integer_terms(polys))
        self._modules[degree] = False

    def add_module(self, batch):
        """Add a module, a rep.module_span batch (its content-normalized hw
        vector id 0), and return its basis as _file does."""
        basis = self._file(batch[0].shape[1], batch)   # lowering keeps degree and weight
        self._hws[_key(*basis[0])] = basis[0]
        return basis

    def degrees(self):
        return sorted(self._tables)

    def symmetry_group(self, d):
        """S3^3 when every degree <= d is module-built, else {id}."""
        return WEYL if all(m for e, m in self._modules.items() if e <= d) else IDENTITY


# ---------------------------------------------------------------------------
# degree slices as weight-blocked rows

class Block:
    """Product rows as terms: per term the key of its monomial, its row and
    its coefficient; len() is the number of rows, + stacks two blocks."""

    __slots__ = ("keys", "rows", "coeffs", "n")
    _none = np.zeros(0, np.int64)

    def __init__(self, keys=_none, rows=_none, coeffs=_none, n=0):
        self.keys, self.rows, self.coeffs, self.n = keys, rows, coeffs, n

    def __len__(self):
        return self.n

    def __add__(self, other):
        return Block(np.concatenate([self.keys, other.keys]),
                     np.concatenate([self.rows, other.rows + self.n]),
                     np.concatenate([self.coeffs, other.coeffs]), self.n + other.n)

    def matrix(self, p):
        """The block mod p as a dense C-ordered array: a row per block row, a column per key."""
        cols = distinct(self.keys)
        return term_matrix(self.rows, np.searchsorted(cols, self.keys), self.coeffs, np.arange(self.n),
                           len(cols), p)


# a degree-7 sweep over generators of degree >= 3 meets under 5000 keys
@lru_cache(maxsize=8192)
def _multipliers(n, w):
    """The degree-n monomials of weight key w as a k x n uint8 array."""
    basis = weight_space_basis(n, tuple(map(tuple, key_weights(w)[0].tolist())))
    return np.array(basis, dtype=np.uint8).reshape(len(basis), n)


def _block(gens, d, w, top, witness=None):
    """The Block of degree-d product rows of weight key w from the
    generators of degree at most top, or from one witness (degree, weight
    key, terms): by degree, then by generator weight, multiplier and generator."""
    groups = [witness] if witness else [
        (e, g, _gathered(index[g])) for e in gens.degrees() if e <= min(d, top)
        for index, (keys, slots) in [(gens._tables[e], gens._weights[e])]
        for g in keys[(slots <= key_weights(w)).all((1, 2))].tolist()]
    parts, n = [(np.zeros((0, d), np.uint8), Block._none, np.zeros(0, np.int8))], 0   # the chunks' width
    for e, wg, (rows, ids, coeffs, count) in groups:
        mult = _multipliers(d - e, w - wg)   # no content of wg exceeds w's: no digit borrows
        k, t = len(mult), len(rows)
        parts.append((np.concatenate([np.broadcast_to(rows, (k, t, e)), np.broadcast_to(
            mult[:, None], (k, t, d - e))], axis=2).reshape(k * t, d),
            (n + count * np.arange(k)[:, None] + ids).ravel(), np.tile(coeffs, k)))
        n += k * count
    rows, at, coeffs = (np.concatenate(x) for x in zip(*parts))
    rows.sort(axis=1)
    return Block(mono_keys(rows), at, coeffs, n)


def _slice_weights(gens: GradedGeneratorSet, d):
    """Keys of the weights of the degree-d slice's nonempty blocks, ascending."""
    return distinct(np.concatenate([np.empty(0, np.int64)] + [
        (gens._weights[e][0][:, None] + _monomial_table(d - e)[1]).ravel()
        for e in gens.degrees() if e <= d]))


def slice_rows_by_weight(gens: GradedGeneratorSet, d, weights):
    """Monomial-times-generator rows of the degree-d slice grouped by torus
    weight, {weight key: Block}, for the given keys whose block is nonempty."""
    return {w: block for w in weights if (block := _block(gens, d, w, d))}


def rows_in_weight_block(gens: GradedGeneratorSet, d, w):
    """The Block of degree-d product rows with a prescribed weight key from
    the generators of degree below d."""
    return _block(gens, d, w, d - 1)


def _independent_of(block: Block, certs, d, w, p):
    """For each polynomial of certs (rows, ids, coeffs, count), of degree d and
    weight key w, in turn, whether it is independent mod p of the block's rows
    and of those before it: one dense array of both, reduced in place."""
    a = (block + _block(None, d, w, d, (d, w, certs))).matrix(p)
    ech = linalg.Echelon(a[:len(block)], p)
    return [ech.add(x) for x in a[len(block):]]


# ---------------------------------------------------------------------------
# the folded rank sweep

def stabiliser(group, f: Poly):
    """The sigma in group with sigma(f) a rational multiple of f."""
    return _stabiliser(group, frozenset(f.terms.items()))


@lru_cache(maxsize=64)
def _stabiliser(group, terms):
    rows, _, coeffs = integer_terms([Poly._wrap(dict(terms))])
    coeffs = coeffs.astype(object if np.abs(coeffs).max() >> 31 else coeffs.dtype)   # products of two < 2^62
    # f and its image under each sigma: monomial keys in order, and their coefficients
    images = np.sort(_weyl_maps()[[0] + [_WEYL_INDEX[s] for s in group]][:, rows], axis=2)
    keys = mono_keys(images.reshape(-1, rows.shape[1])).reshape(len(images), -1)
    at = np.argsort(keys, axis=1)
    keys, c = np.take_along_axis(keys, at, 1), coeffs[at]
    same = (keys == keys[0]).all(1) & (c * c[0, 0] == c[0] * c[:, :1]).all(1)
    return tuple(sigma for sigma, ok in zip(group, same[1:]) if ok)


def _fold(group, keys):
    """{orbit representative: number of the weights in it} of distinct
    weight keys; a representative is the key of the largest weight of its orbit."""
    slots = key_weights(keys)
    if group is WEYL:   # each slot's contents in decreasing order
        reps = weight_keys(np.sort(slots, axis=2)[..., ::-1])
    else:
        reps = keys
        for sigma in group:   # the image of w has w[a][sigma[a][i]] in slot a, place i
            reps = np.maximum(reps, weight_keys(slots[:, [[0], [1], [2]], sigma]))
    reps, counts = np.unique(reps, return_counts=True)
    return dict(zip(reps.tolist(), counts.tolist()))


class Factor(NamedTuple):
    """linalg.lu_mod_p of a block's transpose A, a row per monomial (rows
    added to the block are columns added to A): the key of each row of P A, L."""
    keys: np.ndarray
    low: tuple
    rank = property(lambda self: len(self.low[2]) - 1)
    nbytes = property(lambda self: self.keys.nbytes + sum(x.nbytes for x in self.low))


def _factor(block: Block, p):
    keys = distinct(block.keys)
    a = term_matrix(block.keys, block.rows, block.coeffs, keys, len(block), p)   # A, reduced in place
    perm, low = linalg.lu_mod_p(a, p)
    return Factor(keys[perm], low)


def _witness_rank(ranks, group, d, w, witness, p):
    """(F, k): F the kept factor of w's base representative r = sigma(w)
    (module docstring), empty if r has no rows, and k the rank that sigma of
    w's witness rows adds to it, their monomials beyond F's as zero rows of A."""
    e, wf, (rows, ids, coeffs) = witness
    x = key_weights(w)[0].tolist()
    order = [sorted(range(3), key=lambda i: -c[i]) if group is WEYL else range(3) for c in x]
    sigma = tuple(tuple(np.argsort(o).tolist()) for o in order)   # sigma[a][o[j]] = j
    r, swf = weight_keys([[c[i] for c, o in zip(v, order) for i in o] for v in (x, wf)]).tolist()
    fac = ranks.get(r) or _factor(Block(), p)
    block = _block(None, d, r, d, (e, swf, (np.sort(_weyl_maps()[_WEYL_INDEX[sigma]][rows], axis=1),
                                            ids, coeffs, 1)))
    keys = np.r_[fac.keys, distinct(block.keys[~np.isin(block.keys, fac.keys)])]
    y = term_matrix(block.keys, block.rows, block.coeffs, keys, len(block), p)
    return fac, linalg.extension_rank(fac.low, y, p)


def check_witness(f: Poly):
    """(degree, weight) of a witness; ValueError unless f is nonzero,
    homogeneous and weight-homogeneous."""
    if f.is_zero():
        raise ValueError("the witness is the zero polynomial")
    if f.degree() == 0:
        raise ValueError("the witness is the nonzero constant %s, a unit" % f.terms[()])
    return f.degree(), f.weight()


def hilbert_with_witnesses(gens: GradedGeneratorSet, witnesses, d, p=DEFAULT_PRIME, progress=None):
    """Quotient dimensions in degree d of the base ideal and of each
    base+witness ideal: F_p ranks of weight blocks, one bulk elimination
    per block, folded by gens.symmetry_group(d) and by each witness's
    stabiliser in it (see the module docstring).

    witnesses: list of homogeneous weight-homogeneous polynomials.
    Returns (base_quotient, [witness_quotients]).
    """
    _check_cap(d)
    _check_prime(p)
    group = gens.symmetry_group(d)
    base = gens._folds.get((d, group))
    if base is None:
        base = gens._folds[d, group] = _fold(group, _slice_weights(gens, d))
    folds = []  # (witness, degree, weight, stabiliser, {representative: orbit size})
    for f in witnesses:   # one above degree d has no rows and no stabiliser here
        e, wf = check_witness(f)
        stab = stabiliser(group, f) if e <= d else ()
        folds.append((f, e, wf, stab, _fold(stab, weight_keys(wf) + _monomial_table(d - e)[1])
                      if stab else {}))
    # base block factors are memoised on gens until it gains generators, one prime at a time
    ranks = gens._ranks.get((d, p, group))
    memo = ranks is not None
    if not memo:
        for key in [key for key in gens._ranks if key[1] != p]:
            del gens._ranks[key]
        ranks = gens._ranks[d, p, group] = {   # each block built when factored, then dropped
            w: _factor(slice_rows_by_weight(gens, d, (w,))[w], p) for w in base}
    base_dim = sum(n * ranks[w].rank for w, n in base.items())
    ext_dims, reduced = [], 0
    for f, e, wf, _, wit in folds:
        total, witness = base_dim, (e, wf, integer_terms([f]))
        for w, n in wit.items():   # plus the rank each block's witness rows add to its base rows
            fac, k = _witness_rank(ranks, group, d, w, witness, p)
            reduced += len(fac.keys) > 0
            total += n * k
        ext_dims.append(total)
    if progress:
        progress("degree %d: ranked %d of %d nonempty weight blocks%s, |G| = %d" % (
            d, 0 if memo else len(base), sum(base.values()),
            " (%d from the memo)" % len(base) if memo else "", len(group)) + "".join(
            "; witness %d: %d of %d, |G_w| = %d" % (j + 1, len(wit), sum(wit.values()), len(stab))
            for j, (_, _, _, stab, wit) in enumerate(folds)) + (
            "; %d witness blocks reduced against kept factors" % reduced if folds else "")
            + "; kept factors %d bytes" % sum(fac.nbytes for fac in ranks.values()))
    amb = rep.ambient_dimension(d)
    return amb - base_dim, [amb - t for t in ext_dims]


def ideal_dim_in_degree(gens: GradedGeneratorSet, d, p=DEFAULT_PRIME, progress=None) -> int:
    """Dimension over F_p of the degree-d slice of the generated ideal:
    the witness-free sweep."""
    return rep.ambient_dimension(d) - hilbert_quotient(gens, d, p, progress)


def hilbert_quotient(gens: GradedGeneratorSet, d, p=DEFAULT_PRIME, progress=None) -> int:
    return hilbert_with_witnesses(gens, [], d, p=p, progress=progress)[0]


# ---------------------------------------------------------------------------
# vanishing on the variety

class VanishingReport(NamedTuple):
    multiplicity: int
    certificates: tuple   # an integer batch, certificate i the terms of id i


def evaluate_batch(terms, point: Tensor333):
    """Exact values of several term slices at one tensor (evaluate_points)."""
    return evaluate_points(terms, [point])[0]


def trifocal_points(nf: Tensor333, seed, count):
    return [random_orbit_point(nf, seed + i) for i in range(count)]


def _combinations(kernel, batch, n):
    """sum_i v[i] f_i, content-normalized, for each integer vector v of the
    kernel, f_i the terms of id i < n of an integer batch: the terms tiled
    once per vector, as one batch."""
    rows, ids, coeffs = batch
    k = np.array(kernel, dtype=object).reshape(len(kernel), n)[:, ids]
    c = (k * coeffs).ravel()   # objects; int64 below L1 2^62, as in shift_batch
    if np.abs(c).sum() < 1 << 62:
        c = c.astype(np.int64)
    return normalize_batch(merge_terms((np.tile(rows, (len(k), 1)), np.arange(len(k)).repeat(len(ids)), c)))


def vanishing_subspace(hw: rep.HWSpace, nf: Tensor333, seed) -> VanishingReport:
    """One draw: the certified integer kernel of the hw basis's values at
    2 * dim random orbit points of nf, which holds the vanishing subspace,
    screened at 2 * dim fresh ones; ArithmeticError if either step fails."""
    n = 2 * hw.dim   # a label of no hw vector passes with no certificate
    rows = linalg._integer_rows(evaluate_points(term_slices(hw.terms), trifocal_points(nf, seed, n)))
    kernel = linalg.kernel_basis_int([{c: x for c, x in enumerate(r) if x} for r in rows], hw.dim)
    certs = _combinations(kernel, hw.terms, hw.dim)
    if any(map(any, evaluate_points(term_slices(certs), trifocal_points(nf, seed + n, n)))):
        raise ArithmeticError("inconsistent vanishing kernel for label %r" % (hw.label,))
    return VanishingReport(len(kernel), certs)


def _proved_zero(label, nf: Tensor333, seed):
    """Whether rep.hw_pairs(label)'s k tableau polynomials have values of rank k mod p at
    k points g . nf, g from rep.residues(seed, k): then no hw vector vanishes on V (module docstring)."""
    (ta, pairs), p = rep.hw_pairs(label), linalg.machine_prime(0)
    x = np.array([v % p for v in _integral(nf)], np.uint64).reshape(1, 3, 3, 3)   # a diagonal gA
    for m in rep.residues(seed, len(pairs)).astype(np.uint64).reshape(3, -1, 3, 3)[::-1]:
        x = np.einsum("nab,nijb->naij", m, x) % p   # by gC, gB, gA: three products below 2^64
    return len(linalg.rref_mod_p(rep.tableau_values(ta, pairs, x.reshape(-1, 27)), p)[1]) == len(pairs)


# ---------------------------------------------------------------------------
# the discovery pipeline

class DiscoveredModule(NamedTuple):
    degree: int
    label: tuple
    basis: list   # the store's (rows, coeffs) slices, the content-normalized hw vector first
    dim = property(lambda self: len(self.basis))


class DegreeScan(NamedTuple):
    """Per-degree outcome: label rows and the new minimal generators."""
    degree: int
    rows: list      # (label, kronecker, hw_dim, vanishing, new_mult)
    modules: list   # DiscoveredModule, new minimal generators only
    new_generator_count = property(lambda self: sum(m.dim for m in self.modules))


# tau: T_ijk -> T_jik on variable indices, PAD to PAD
_TAU = np.r_[np.arange(N_VARS).reshape(3, 3, 3).transpose(1, 0, 2).ravel(), PAD].astype(np.uint8)


def _key(rows, coeffs):   # the terms of a content-normalized polynomial, hashable
    return rows.tobytes(), tuple(coeffs.tolist())


def _swapped(terms):
    """tau(f), content-normalized, for each content-normalized f of terms, its (rows,
    coefficients) of one degree, as one batch, f's terms with its id, coefficients as
    wide as the widest f's, filled in runs of at most poly._RUN_TERMS terms (tau
    keeps their number), each normalized in int64."""
    ends = np.cumsum([0] + [len(c) for _, c in terms])
    ids = np.repeat(np.arange(len(terms)), np.diff(ends))
    rows = np.empty((ends[-1], terms[0][0].shape[1]), np.uint8)
    coeffs = np.empty(ends[-1], np.result_type(np.int8, *(c.dtype for _, c in terms)))
    for run in bounded_runs(range(len(terms)), np.diff(ends), _RUN_TERMS):
        at = slice(ends[run[0]], ends[run[-1] + 1])
        r = np.sort(_TAU[np.concatenate([terms[i][0] for i in run])], axis=1)
        c = np.concatenate([terms[i][1] for i in run]).astype(np.result_type(np.int64, coeffs))
        order = np.argsort(mono_keys(r, ids[at]))   # by polynomial, then monomial: ids stay
        rows[at], _, coeffs[at] = normalize_batch((r[order], ids[at], c[order]))
    return rows, ids, coeffs


@lru_cache(maxsize=8)
def _swap_element(nf: Tensor333):
    """A sigma in WEYL with sigma . nf = tau(nf), or None (module docstring)."""
    code = {x: i for i, x in enumerate(nf.flat)}   # one integer per distinct entry
    flat, tau_nf = (np.array([code[nf.flat[v]] for v in vs]) for vs in (range(N_VARS), _TAU[:N_VARS]))
    hit = np.flatnonzero((tau_nf[_weyl_maps()[:, :N_VARS]] == flat).all(1))
    return WEYL[hit[0]] if hit.size else None


def _swap_closed(gens: GradedGeneratorSet, nf: Tensor333, d):
    """Whether degree d may derive labels by tau (module docstring): _swap_element
    exists, the degrees below d are module-built, and tau maps hw vectors to hw vectors."""
    return (_swap_element(nf) is not None and gens.symmetry_group(d - 1) is WEYL and all(
        _key(*_swapped([hw])[::2]) in gens._hws for hw in gens._hws.values()))


def _new_modules(d, gens: GradedGeneratorSet, hw: rep.HWSpace, nf: Tensor333, seed, p):
    """(draws, multiplicity, module batches of the certificates that raise the
    rank mod p of the lower-degree rows) of the first draw k (seed + 10_000 k)
    to pass its screen with such modules zero at nf; after MAX_DRAWS the error."""
    w = int(weight_keys(hw.weight)[0])
    for k in range(MAX_DRAWS):
        try:
            mult, (rows, ids, coeffs) = vanishing_subspace(hw, nf, seed + 10_000 * k)
        except ArithmeticError as exc:
            error = exc
            continue
        new = _independent_of(   # no block without certificates
            rows_in_weight_block(gens, d, w), (rows, ids, coeffs, mult), d, w, p) if mult else []
        at = np.searchsorted(ids, np.arange(mult + 1)).tolist()
        spans = [rep.module_span((rows[a:b], ids[a:b], coeffs[a:b]))
                 for a, b, ok in zip(at, at[1:], new) if ok]
        if not any(any(evaluate_points(term_slices(span), [nf])[0]) for span in spans):
            return k + 1, mult, spans
        error = ArithmeticError("a module of label %r does not vanish at nf" % (hw.label,))
    raise error


def scan_degree(d, gens: GradedGeneratorSet, nf: Tensor333, seed,
                p=DEFAULT_PRIME, progress=None) -> DegreeScan:
    """One pass of the minimal-generator search in degree d: for label i at seed
    s = seed + 7919 i, _proved_zero, or else _new_modules, each new module filed
    in gens.  When _swap_closed holds, a label whose partner (mu, lam, nu) was
    scanned before it takes the partner's row and tau of its new modules instead."""
    _check_prime(p)
    scan, scanned = DegreeScan(d, [], []), {}   # label -> (its index, its row, its new modules)
    labels = [lab for lab in rep.all_labels(d) if rep.kronecker(*lab) > 0]
    swap = _swap_closed(gens, nf, d)
    for idx, lab in enumerate(labels):
        partner = (lab[1], lab[0], lab[2])
        if swap and partner in scanned:
            src, row, mods = scanned[partner]
            row, note = (lab,) + row[1:], " (swap of label %d)" % (src + 1)
            word = np.arange(rep.label_dim(lab)).reshape(   # this one's words (a, b, c) are
                [rep.weyl_dim(x) for x in partner]).transpose(1, 0, 2).ravel()   # the partner's (b, a, c)
            modules = [DiscoveredModule(d, lab, gens.add_module(_swapped([m.basis[i] for i in word])))
                       for m in mods]
        else:
            k, s = rep.kronecker(*lab), seed + 7919 * idx
            draws, mult, spans = (0, 0, []) if _proved_zero(lab, nf, s) else _new_modules(
                d, gens, rep.hw_space(lab), nf, s, p)
            row = (lab, k, k, mult, len(spans))
            note = "; %d draws" % draws if draws > 1 else ""
            modules = [DiscoveredModule(d, lab, gens.add_module(spans.pop(0)))
                       for _ in range(len(spans))]   # each batch released once filed
            scanned[lab] = idx, row, modules
        scan.rows.append(row)
        scan.modules.extend(modules)
        if progress:
            progress("degree %d: label %d/%d %r vanishing %d new %d%s"
                     % (d, idx + 1, len(labels), lab, row[3], row[4], note))
    return scan


class Discovery:
    def __init__(self):
        self.scans, self.gens = {}, GradedGeneratorSet()

    def counts(self):
        return {d: s.new_generator_count for d, s in sorted(self.scans.items())}

    def modules(self):
        return [m for d in sorted(self.scans) for m in self.scans[d].modules]


def discover(max_degree, nf: Tensor333, seed=2024, p=DEFAULT_PRIME,
             progress=None) -> Discovery:
    """The minimal-generator search through max_degree; the seed picks sample
    points only, as every filed module is proved at nf.  A new count is a rank
    gain mod p over the lower-degree product rows: right over Q where p keeps
    their rank, wrong and unflagged at a bad prime (0, 54, 81 quintics at p = 2, 3, 5)."""
    _check_cap(max_degree)
    disc = Discovery()
    for d in range(1, max_degree + 1):
        disc.scans[d] = scan_degree(d, disc.gens, nf, seed + 1000 * d, p=p, progress=progress)
    return disc


# ---------------------------------------------------------------------------
# graded non-zero-divisor test

class NZDReport:
    def __init__(self, witness_degree, table, failing_degree):
        # table: d -> (expected, actual)
        self.witness_degree, self.table, self.failing_degree = witness_degree, table, failing_degree

    def __bool__(self):
        return self.failing_degree is None


def graded_nonzerodivisor_check(gens: GradedGeneratorSet, f: Poly, cap=DEFAULT_DEGREE_CAP,
                                p=DEFAULT_PRIME, progress=None) -> NZDReport:
    """Degree-capped Hilbert-series identity: f is certified a
    non-zero-divisor up to the cap iff for all d <= cap
    H(base+f, d) = H(base, d) - H(base, d - deg f)."""
    _check_cap(cap)
    e, _ = check_witness(f)
    H, Hf = {0: 1}, {0: 1}
    for d in range(1, cap + 1):
        H[d], (Hf[d],) = hilbert_with_witnesses(gens, [f], d, p=p, progress=progress)
    table = {d: (H[d] - H.get(d - e, 0), Hf[d]) for d in range(1, cap + 1)}
    return NZDReport(e, table, next((d for d, (x, y) in table.items() if x != y), None))
