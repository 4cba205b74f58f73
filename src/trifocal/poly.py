"""Sparse polynomials in the 27 tensor coordinates T_ijk.

A monomial is a sorted tuple of variable indices (with multiplicity),
where variable (i,j,k) has index 9i+3j+k, all 0-based.  A polynomial is a
dict from monomials to nonzero exact coefficients.  Every polynomial we
care about is weight-homogeneous: the triple of index contents
(A-content, B-content, C-content) is the same for all monomials.

Evaluation is exact, through one kernel, evaluate_points.  Each value is
lifted by CRT to the symmetric range from its residues mod M = 2^64 times
machine primes (linalg.machine_prime), primes taken only while M <= 2 *
L1(f) * max|x|^deg, a bound on 2|f(x)|: larger entries cost more primes,
never a wrong value.  The residue mod 2^64 is wrapping uint64 arithmetic,
and with no prime it is the value.  Fraction entries are cleared by a
common denominator D, f_e(x) = f_e(D x) / D^e on each degree-e part;
entries other than ints and Fractions raise TypeError.
The polynomials go in runs of whole ones of at most _RUN_TERMS terms or
one larger polynomial (bounded_runs), so the temporaries do not grow with
the terms, each run with its points in groups that need the same primes;
the last layout of read-only slices serves the next call with them (_runs).

Terms have one layout: an n x width uint8 array of sorted variable
indices, rows of lower degree padded by PAD, beside integer coefficients.
Inside the package a polynomial is a term slice (rows, coeffs) of such a
batch, its rows at its degree: the generator store's chunks hold them
(ideal.GradedGeneratorSet), evaluate_points takes a list of them, and its
layout cache (_runs) is keyed by the identity of those slice tuples.  The
raising and lowering operators act on batches of terms: the rows of several
slices, and per term a polynomial id and a coefficient.  A shift
(shift_batch) replaces each matching position, re-sorts the rows and
merges like terms by a key (mono_keys), the id above five bits per
variable, whose order is tuple order (int64, or objects where that would
overflow).  Coefficients are int64 while L1 * width < 2^62, so no product
by a multiplicity and no merge overflows; objects otherwise.  Slices may
hold any integer width, widened to int64 before arithmetic.

A Poly, a dict of exact terms, appears only at the edges: parse_poly and
format_poly, the witnesses and their checks.  _pack builds its rows,
integer coefficients and common denominator on demand; pack_terms and
integer_terms make batches of Polys, unpack_terms turns a batch back into
Polys.

As text (parse_poly, format_poly) a polynomial is terms [sign] factor
(* factor)*, the sign needed after the first; a factor is an unsigned
rational (scalars.parse_rational) or a variable, T_i_j_k or a_ij = T_ij1,
b_ij = T_ij2, c_ij = T_ij3 (1-based), each with an optional ^ and ASCII
digits.  One compiled pattern (_TERM) matches term by term from the start,
whitespace allowed between tokens and never inside one, so "1 2*a11" is
refused, not read as 12*a11.  Before a term is expanded, its powers are
counted against PARSE_BUDGET twice over the whole text: once for the
variables, with multiplicity, and once for the bits of the numbers (e
times the bits of the base, at least e), so a few bytes such as
"3^100000000*a11" cannot ask for minutes or gigabytes.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import inf, lcm, prod
from operator import is_

import numpy as np

from .linalg import machine_prime
from .scalars import exact_list, parse_rational
from .tensor import perm_sign

N_VARS = 27
_SHIFTS = np.arange(32, -1, -4)   # of the nine contents of a weight key (weight_keys)


def var_index(i, j, k) -> int:
    """0-based (i,j,k) -> flat variable index."""
    return 9 * i + 3 * j + k


def var_ijk(v: int):
    return (v // 9, (v % 9) // 3, v % 3)


def var_name(v: int) -> str:
    i, j, k = var_ijk(v)
    return "T_%d_%d_%d" % (i + 1, j + 1, k + 1)


def row_weights(rows):
    """Each row's weight as nine contents, A-contents first (PAD in none)."""
    return np.stack([(_SLOTS[rows, a] == i).sum(axis=1) for a in range(3) for i in range(3)], 1)


def weight_keys(contents):
    """Weights given as rows of nine contents (or as 3 x 3 weights), each as
    one int64 key: four bits per content, the A-contents first, so key order
    is tuple order and the key of a product is the sum of its factors' keys."""
    contents = np.asarray(contents, np.int64).reshape(-1, 9)
    if ((contents < 0) | (contents > 15)).any():   # it would carry into the next digit
        raise ValueError("a weight content outside 0..15 does not fit a 4-bit digit")
    return (contents << _SHIFTS).sum(axis=1)


def key_weights(keys):
    """The 3 x 3 contents of each weight key: weight_keys' inverse."""
    return (np.reshape(keys, (-1, 1)) >> _SHIFTS & 15).reshape(-1, 3, 3)


class Poly:
    """Sparse exact polynomial, a dict of terms; never stores zero
    coefficients, never changes."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """The sum of (monomial, coefficient) pairs (or a dict of them), like
        terms added up and zero sums dropped.  TypeError unless each
        coefficient is an int or a Fraction."""
        terms = list(terms.items() if isinstance(terms, dict) else terms)
        exact_list((c for _, c in terms), "coefficient")
        acc = {}
        for mono, coeff in terms:
            mono = tuple(mono)
            acc[mono] = acc.get(mono, 0) + coeff
        self.terms = {m: c for m, c in acc.items() if c != 0}

    @classmethod
    def _wrap(cls, terms):
        """A Poly that takes ownership of `terms` (no zero coefficients)."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def degree(self):
        """Common degree of the monomials; None for the zero polynomial,
        an error if the polynomial is not homogeneous."""
        rows = _pack(self)[0]
        if (rows[:, -1:] == PAD).any():
            raise ValueError("polynomial is not homogeneous")
        return rows.shape[1] if len(rows) else None

    def weight(self):
        """The common weight; None for the zero polynomial, an error if the
        polynomial mixes weights."""
        w = row_weights(_pack(self)[0])
        if (w != w[:1]).any():
            raise ValueError("polynomial is not weight-homogeneous")
        return tuple(map(tuple, w[0].reshape(3, 3).tolist())) if len(w) else None

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


# ---------------------------------------------------------------------------
# exact evaluation (see the module docstring)

PAD = N_VARS      # a 28th variable: 1, or D at a point with denominator D
_BASE = N_VARS + 1
_RUN_TERMS = 1 << 16   # evaluate_points' runs: above 28^3, so they take the cube path
_RING = 1 << 64   # the modulus of uint64 arithmetic, taken before any prime
_LAST = [(), []]   # the read-only slices of evaluate_points' last call and their runs (_runs)
_SLOTS = np.array([var_ijk(v) for v in range(N_VARS)] + [(3, 3, 3)], np.uint8)   # PAD: none


def _padded(rows, width):
    """rows, or rows padded by PAD to the width (np.pad takes about 5 times as long)."""
    return rows if rows.shape[1] == width else np.hstack(
        [rows, np.full((len(rows), width - rows.shape[1]), PAD, np.uint8)])


def _pack(f: Poly):
    """f's terms as (rows, integer coefficients, common denominator D): row i
    is monomial i padded by PAD to f's degree, rows.shape[1], coefficient i
    D times f's, int64 while their L1 norm is below 2^62, objects above."""
    coeffs, fractions = exact_list(f.terms.values(), "coefficient")
    den = lcm(*(Fraction(c).denominator for c in coeffs)) if fractions else 1
    ints = [int(c * den) for c in coeffs]
    deg = max(map(len, f.terms), default=0)
    rows = np.frombuffer(b"".join([bytes(m).ljust(deg, bytes([PAD])) for m in f.terms]),
                         dtype=np.uint8).reshape(len(ints), deg)
    return rows, np.array(ints, np.int64 if sum(map(abs, ints)) < 1 << 62 else object), den


def _unpacked(rows, coeffs):
    """{monomial: coefficient} of rows padded by PAD."""
    if not rows.shape[1]:
        return {(): c for c in coeffs.tolist()}   # a constant, or zero
    monos = list(struct.iter_unpack("%dB" % rows.shape[1], rows.tobytes()))
    for i in np.flatnonzero(rows[:, -1] == PAD).tolist():   # below the full width
        monos[i] = monos[i][:monos[i].index(PAD)]
    return dict(zip(monos, coeffs.tolist()))


def _batch(packs):
    """The rows of packs (_pack), padded by PAD to the largest degree, the
    ids of their terms and their integer coefficients, as one batch."""
    width = max([0] + [pk[0].shape[1] for pk in packs])
    return (np.concatenate([np.empty((0, width), np.uint8)] + [_padded(pk[0], width) for pk in packs]),
            np.repeat(np.arange(len(packs)), [len(pk[1]) for pk in packs]),
            np.concatenate([np.empty(0, np.int64)] + [pk[1] for pk in packs]))


def integer_terms(polys):
    """The terms of polys as one batch (rows, ids, coeffs), those of polys[i]
    with id i, with the coefficients of each one's integer multiple with
    content 1 (denominators cleared, then divided by their gcd)."""
    rows, ids, coeffs = _batch([_pack(f) for f in polys])
    g = np.gcd.reduceat(coeffs, _run_starts(ids))
    return rows, ids, coeffs if (g == 1).all() else coeffs // g[ids]


def _primes_above(bound):
    """The fewest machine primes, largest first, with product > bound."""
    out, m = [], 1
    while m <= bound:
        out.append(machine_prime(len(out)))
        m *= out[-1]
    return out


def _residues(codes, cube, coef, starts, ys, q):
    """The values mod q, indexed [point, polynomial]: mod 2^64 in wrapping
    uint64 arithmetic or mod a machine prime in int64.  The rows of codes
    index each term's factors in the entries ys, or in their 28^3 products
    when cube is set."""
    dtype = np.uint64 if q == _RING else np.int64   # uint64 * int64 would be float64
    red = (lambda a: a) if q == _RING else (lambda a: np.remainder(a, q, out=a))
    t = np.array([[e % q for e in y] for y in ys], dtype)
    if cube:
        t2 = red(t[:, :, None] * t[:, None, :]).reshape(len(ys), -1)
        t = red(t2[:, :, None] * t[:, None, :]).reshape(len(ys), -1)
    v = red(t.take(codes[0].astype(np.intp), axis=1) * red(   # take is faster on intp
        (coef % q if coef.dtype == object else coef).astype(dtype)))
    for i in codes[1:]:
        v *= t.take(i.astype(np.intp), axis=1)
        red(v)
    return red(np.add.reduceat(v, starts, axis=1))


def bounded_runs(items, sizes, limit):
    """The items in consecutive runs (lists), each of total size at most
    limit or a single larger item."""
    runs, total = [], inf
    for x, size in zip(items, sizes):
        if total + size > limit:
            runs.append([])
            total = 0
        runs[-1].append(x)
        total += size
    return runs


def _runs(terms):
    """evaluate_points' runs of the term slices with terms, each (indices,
    codes, coefficients, starts, cube, degree, width, max L1).  The runs of a
    call on read-only slices, as the store's, are kept with them (_LAST) and
    serve the next call with the same slice tuples; others go on return."""
    if len(_LAST[0]) == len(terms) and all(map(is_, _LAST[0], terms)):
        return _LAST[1]
    _LAST[:] = (), []   # one layout at a time: the old one goes before the new is built
    runs = []
    live = [j for j, (_, c) in enumerate(terms) if len(c)]
    for run in bounded_runs(live, [len(terms[j][1]) for j in live], _RUN_TERMS):
        rows, coefs = zip(*(terms[j] for j in run))
        deg = max(r.shape[1] for r in rows)
        width = max(1, deg)   # a constant is one PAD
        rows = np.concatenate([_padded(r, width) for r in rows])
        cube = len(rows) > _BASE ** 3
        if cube:   # one lookup per chunk code (a*28 + b)*28 + c in a table of all 28^3 products
            rows = _padded(rows, 3 * -(-width // 3))
            width, codes = rows.shape[1], rows[:, 0::3].T.astype(np.uint16, order="C")
            for c in (1, 2):
                codes *= _BASE
                codes += rows[:, c::3].T
        else:
            codes = rows.T.copy()
        coef, starts = np.concatenate(coefs), np.cumsum([0] + [len(c) for c in coefs[:-1]])
        big = coef.dtype == object or max(-int(coef.min()), int(coef.max())) >> 31
        coef = coef.astype(object if big else np.int64)   # so the L1 sums below are exact
        runs.append((run, codes, narrow(coef), starts, cube, deg, width,
                     int(np.add.reduceat(np.abs(coef), starts).max())))
    _LAST[:] = ((), []) if any(x.flags.writeable for s in terms for x in s) else (terms, runs)
    return runs


def evaluate_points(terms, points):
    """Exact values [[f(t) for f in terms] for t in points] of the term
    slices (rows, integer coeffs) at Tensor333 points: ints, or Fractions
    where a denominator remains."""
    out = [[0] * len(terms) for _ in points]
    ds = [lcm(*(e.denominator for e in t.flat if type(e) is Fraction)) for t in points]
    ys = [[int(e * d) for e in t.flat] + [d] for t, d in zip(points, ds)]   # D x, D
    for run, codes, coef, starts, cube, deg, width, l1 in _runs(terms) if ys else ():
        scales, groups = [y[-1] ** width for y in ys], {}
        for i, y in enumerate(ys):   # |f(D x) * D^pads| <= L1 * max|y|^(degree, or the width)
            groups.setdefault(tuple(_primes_above(2 * l1 * max(map(abs, y)) ** (
                deg if y[-1] == 1 else width) >> 64)), []).append(i)
        for primes, at in groups.items():   # the points that need the same primes
            moduli = [_RING, *primes]
            m = prod(moduli)
            basis = [m // q * pow(m // q, -1, q) for q in moduli]
            step = max(1, (1 << 19) // len(coef))   # 4 MB per residue temporary
            for chunk in (at[i0:i0 + step] for i0 in range(0, len(at), step)):
                res = [_residues(codes, cube, coef, starts, [ys[i] for i in chunk], q)
                       for q in moduli]
                lifted = res[0].view(np.int64)   # the values themselves: below 2^63 in size
                if primes:
                    lifted = sum(r.astype(object) * e for r, e in zip(res, basis)) % m
                    lifted = np.where(lifted > m // 2, lifted - m, lifted)
                for i, vals in zip(chunk, lifted.tolist()):
                    for j, g in zip(run, vals):
                        out[i][j] = g // scales[i] if g % scales[i] == 0 else Fraction(g, scales[i])
    return out


# ---------------------------------------------------------------------------
# torus weights, weight spaces

def weight_space_basis(d, weight):
    """All degree-d monomials with the given (A,B,C) index contents, in
    tuple order: a slice of the degree's monomial table (_monomial_table).

    Monomials correspond to 3x3x3 nonnegative integer arrays whose three
    axis marginals are the content vectors; every weight of nonnegative
    contents that sum to d in each slot has some.
    """
    if not (sum(weight[0]) == sum(weight[1]) == sum(weight[2]) == d):
        raise ValueError("weight %r does not sum to degree %d in every slot" % (weight, d))
    if min(map(min, weight)) < 0:
        return []
    rows, keys, starts = _monomial_table(d)
    i = int(np.searchsorted(keys, weight_keys(weight)[0]))
    return list(map(tuple, rows[starts[i]:starts[i + 1]].tolist()))


@lru_cache(maxsize=None)
def _monomial_table(d):
    """The degree-d monomials as rows of sorted variables, by weight and
    then in tuple order; the keys of their weights (weight_keys), ascending,
    the one list of the degree-d weights; and where each weight's rows start."""
    rows = np.zeros((1, 0), np.uint8)
    for _ in range(d):   # each row extended by every variable from its last one on: tuple order
        last = rows[:, -1] if rows.shape[1] else np.zeros(len(rows), np.uint8)
        n = N_VARS - last.astype(np.int64)
        new = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - last, n)
        rows = np.c_[np.repeat(rows, n, axis=0), new.astype(np.uint8)]
    var_keys = weight_keys(row_weights(np.arange(N_VARS, dtype=np.uint8)[:, None]))
    key = np.zeros(len(rows), np.int64)
    for col in rows.T:   # one column at a time: the sum of the variables' keys
        key += var_keys[col]
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    return rows[order], keys, np.r_[starts, len(rows)]


# ---------------------------------------------------------------------------
# raising / lowering operators (one gl(3) copy per tensor factor)

def pack_terms(polys):
    """The terms of polys as one batch (rows, ids, coeffs), those of
    polys[i] with id i (module docstring): exact coefficients, int64 where
    all are integers of L1 below 2^62, objects otherwise."""
    packs = [_pack(f) for f in polys]
    rows, ids, coeffs = _batch(packs)
    if any(den > 1 or c.dtype == object for _, c, den in packs) or sum(
            int(np.abs(c).sum()) for _, c, _ in packs) >> 62:   # each below 2^62 (_pack)
        coeffs = np.array([c for f in polys for c in f.terms.values()], dtype=object)
    return rows, ids, coeffs


def unpack_terms(batch, n):
    """The batch as n Polys, polynomial i made of the terms with id i (ids
    ascending, as shift_batch leaves them)."""
    rows, ids, coeffs = batch
    bounds = np.searchsorted(ids, np.arange(n + 1)).tolist()
    return [Poly._wrap(_unpacked(rows[a:b], coeffs[a:b])) for a, b in zip(bounds, bounds[1:])]


def term_slices(batch):
    """The (rows, coeffs) slice of each run of one id in a batch, in batch order."""
    rows, ids, coeffs = batch
    cuts = np.r_[_run_starts(ids), len(ids)].tolist()
    return [(rows[a:b], coeffs[a:b]) for a, b in zip(cuts, cuts[1:])]


@lru_cache(maxsize=None)
def _shift_tables(axis, to_idx, from_idx):
    """(hit, image) over the row values: hit[v] when v's factor-`axis`
    index is from_idx, image[v] the variable with it set to to_idx."""
    ax, ijk = "ABC".index(axis), np.array([var_ijk(v) for v in range(PAD + 1)])
    hit = (ijk[:, ax] == from_idx) & (np.arange(PAD + 1) < N_VARS)
    ijk[hit, ax] = to_idx
    return hit, (ijk @ (9, 3, 1)).astype(np.uint8)


def narrow(coeffs):
    """Integer coefficients at the narrowest signed width that holds them; objects stay."""
    return coeffs if coeffs.dtype == object else coeffs.astype(np.min_scalar_type(
        min(int(coeffs.min(initial=0)), -int(coeffs.max(initial=0))) - 1), copy=False)


def distinct(a):
    """The distinct entries of a, ascending: np.unique without its import of numpy.ma."""
    a = np.sort(a, axis=None)
    return a[_run_starts(a)]


def _run_starts(a):
    """The indices where a run of equal entries of a starts."""
    return np.flatnonzero(np.concatenate(([len(a) > 0], a[1:] != a[:-1])))


def shift_batch(axis, to_idx, from_idx, batch):
    """apply_shift on every polynomial of a batch at once; the result is
    sorted by id, then by monomial in tuple order (module docstring)."""
    rows, ids, coeffs = batch
    hit, image = _shift_tables(axis, to_idx, from_idx)
    if coeffs.dtype != object and int(np.abs(coeffs).sum()) * rows.shape[1] >= 1 << 62:
        coeffs = coeffs.astype(object)   # the dtype rule (module docstring)
    t, pos = np.nonzero(hit[rows])
    new = rows[t]
    new[np.arange(len(t)), pos] = image[rows[t, pos]]
    new.sort(axis=1)
    return merge_terms((new, ids[t], coeffs[t]))


def mono_keys(rows, lead=None):
    """An integer key per row: five bits per variable, v + 1 or 0 for PAD,
    below the bits of lead (an int64 or object array) when given.  The
    order of the keys is tuple order: a monomial sorts before its
    extensions.  Without lead, ValueError above 12 columns (int64 would wrap)."""
    if lead is None and rows.shape[1] > 12:
        raise ValueError("%d variables of five bits overflow an int64 key" % rows.shape[1])
    key = np.zeros(len(rows), np.int64) if lead is None else lead.copy()
    for col in rows.T:   # in place, one column at a time
        key <<= 5
        key |= (col + 1) % _BASE
    return key


def merge_terms(batch):
    """The batch with like terms added up and zero sums dropped, sorted by
    id, then by monomial in tuple order; its rows must be sorted."""
    rows, ids, coeffs = batch
    key = mono_keys(rows, ids.astype(np.int64 if 5 * rows.shape[1] + int(
        ids.max(initial=0)).bit_length() < 63 else object))
    order = np.argsort(key)
    starts = _run_starts(key[order])
    del key   # the unsorted keys go before the sums are gathered
    sums = np.add.reduceat(coeffs[order], starts)
    keep = order[starts[sums != 0]]
    return rows[keep], ids[keep], sums[sums != 0]


def normalize_batch(batch):
    """Each polynomial of an integer batch from merge_terms as its integer
    multiple with content 1 whose first term, its smallest monomial, is positive."""
    rows, ids, coeffs = batch
    starts = _run_starts(ids)   # a one-term reduceat is the term itself, sign and all
    g = np.abs(np.gcd.reduceat(coeffs, starts)) * np.sign(coeffs[starts])
    return rows, ids, coeffs // np.repeat(g, np.diff(np.r_[starts, len(ids)]))


def term_matrix(keys, at, coeffs, cols, n, p):
    """Terms as a dense, C-ordered len(cols) x n array mod p: a row per key
    of cols, in the order given (sorted or not; it holds every term's key),
    and a column per row of terms.  Term t puts coeffs[t] in the row of
    keys[t] and column at[t]."""
    order = np.argsort(cols)
    a = np.zeros((len(cols), n), np.int64)   # % np.int64(p) widens: int8 % 32003 overflows
    a[order[np.searchsorted(cols, keys, sorter=order)], at] = coeffs % np.int64(p)
    return a


def apply_shift(axis, to_idx, from_idx, f: Poly) -> Poly:
    """The derivation sum_rest T[to,rest] * d/dT[from,rest] on poly f
    (indices 0-based within the chosen factor): shift_batch on one Poly,
    kept as the name the benchmark's tracer counts."""
    return unpack_terms(shift_batch(axis, to_idx, from_idx, pack_terms([f])), 1)[0]


LOWERING = tuple((ax, to, frm) for ax in "ABC" for to, frm in ((1, 0), (2, 1)))
RAISING = tuple((ax, to, frm) for ax in "ABC" for to, frm in ((0, 1), (1, 2)))


def is_highest_weight(batch) -> bool:
    """Whether every raising operator kills each polynomial of a batch."""
    return all(len(shift_batch(ax, to, frm, batch)[0]) == 0 for ax, to, frm in RAISING)


# ---------------------------------------------------------------------------
# the degree-3 pencil determinant coefficients

def _pencil_entry_vars(axis, r, c):
    """Variable indices of the three x-coefficients of pencil entry (r,c)."""
    if axis not in ("A", "B", "C"):
        raise ValueError("axis must be A, B or C")
    return [var_index(*((s, r, c), (r, s, c), (r, c, s))["ABC".index(axis)]) for s in range(3)]


def det_slice_poly(axis, index):
    """det of a single 1-based coordinate slice as a cubic Poly
    (equals the x_index^3 coefficient of the axis pencil determinant)."""
    return Poly((sorted(_pencil_entry_vars(axis, r, sigma[r])[index - 1] for r in range(3)),
                 perm_sign(sigma)) for sigma in permutations(range(3)))


def f_determinant():
    """det [[a11,a12,a13],[b11,b12,b13],[c11,c12,c13]]: the x1^3
    coefficient of the A-axis pencil determinant, a highest weight vector
    of weight ((3,0,0),(1,1,1),(1,1,1))."""
    return det_slice_poly("A", 1)


# ---------------------------------------------------------------------------
# text / JSON formats

def format_poly(f: Poly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for mono in sorted(f.terms, key=lambda m: (-len(m), m)):
        body = "*".join(var_name(v) + ("^%d" % mono.count(v) if mono.count(v) > 1 else "")
                        for v in sorted(set(mono)))
        c = abs(Fraction(f.terms[mono]))
        parts.append(("- " if f.terms[mono] < 0 else "+ ") + (
            str(c) if not mono else body if c == 1 else "%s*%s" % (c, body)))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


_FACTOR = r"(?:[0-9]+(?:/[0-9]+)?|T_[1-3]_[1-3]_[1-3]|[abc][1-3][1-3])(?:\s*\^\s*[0-9]+)?"
_TERM = re.compile(r"\s*([+-]?)\s*(%s(?:\s*\*\s*%s)*)\s*" % (_FACTOR, _FACTOR))
_NAMES = {name: v for v in range(N_VARS) for i, j, k in [var_ijk(v)]
          for name in (var_name(v), "abc"[k] + "%d%d" % (i + 1, j + 1))}


PARSE_BUDGET = 1 << 20   # parse_poly's variables, and its bits of numbers (module docstring)


def parse_poly(text: str) -> Poly:
    """The Poly of text such as 'c*T_1_2_3^2*a11 - ...' in the term grammar
    (module docstring); ValueError at the first term that does not match or
    that passes PARSE_BUDGET."""
    terms, pos, degrees, bits = [], 0, 0, 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        if not m or (terms and not m[1]):
            raise ValueError("bad term at offset %d of %r" % (pos, text))
        powers, numbers = [], []
        for factor in m[2].split("*"):
            base, _, exp = factor.partition("^")
            base, e = base.strip(), int(exp or 1)
            if base in _NAMES:
                powers.append((_NAMES[base], e))
                degrees += e
            else:
                c = parse_rational(base)
                numbers.append((c, e))
                bits += e * max(1, c.numerator.bit_length(), c.denominator.bit_length())
        if max(degrees, bits) > PARSE_BUDGET:
            raise ValueError("term at offset %d passes %d variables or %d bits of numbers"
                             % (pos, PARSE_BUDGET, PARSE_BUDGET))
        terms.append((sorted(v for v, e in powers for _ in range(e)),
                      prod(c ** e for c, e in numbers) * (-1 if m[1] == "-" else 1)))
        pos = m.end()
    return Poly(terms)


def witness_g() -> Poly:
    """The shipped degree-4 highest weight witness polynomial (loaded from
    the data file; weight ((2,2,0),(2,1,1),(2,1,1)))."""
    from importlib.resources import files
    text = files("trifocal").joinpath("data/witness_g.txt").read_text()
    return parse_poly("\n".join(ln for ln in text.splitlines() if not ln.lstrip().startswith("#")))
