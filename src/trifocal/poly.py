"""Sparse polynomials in the 27 tensor coordinates T_ijk.

A monomial is a sorted tuple of variable indices (with multiplicity),
where variable (i,j,k) has index 9i+3j+k, all 0-based.  A polynomial is a
dict from monomials to nonzero exact coefficients.  Every polynomial we
care about is weight-homogeneous: the triple of index contents
(A-content, B-content, C-content) is the same for all monomials.

The letter aliases follow a_ij = T[i][j][1], b_ij = T[i][j][2],
c_ij = T[i][j][3] in 1-based notation.

Evaluation is exact, through one kernel, evaluate_points.  Each value is
computed modulo machine primes (linalg.machine_prime) and lifted by CRT
to the symmetric range, with primes taken until their product exceeds
2 * L1(f) * max|x|^deg >= 2|f(x)|: larger entries cost more primes,
never a wrong value.  Fraction entries are cleared by a
common denominator D, f_e(x) = f_e(D x) / D^e on each degree-e part;
entries and coefficients that are not ints or Fractions (floats, bools)
raise TypeError.  The monomials and integer coefficients of a polynomial
are packed into numpy arrays on first use and cached on it until
add_term changes it (_pack).

The raising and lowering operators act on batches of terms (pack_terms):
an n x width uint8 array of sorted variable indices, rows of lower degree
padded by HOLE, and per term a polynomial id and a coefficient.  A shift
(shift_batch) replaces each matching position, re-sorts the rows and
merges like terms by a key, the id above five bits per variable, whose
order is tuple order (int64, or objects where that would overflow).
Coefficients are int64 while L1 * width < 2^62, so no product by a
multiplicity and no merge overflows; objects otherwise.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm, prod

import numpy as np

from .linalg import machine_prime
from .tensor import Tensor333, perm_sign

N_VARS = 27


def var_index(i, j, k) -> int:
    """0-based (i,j,k) -> flat variable index."""
    return 9 * i + 3 * j + k


def var_ijk(v: int):
    return (v // 9, (v % 9) // 3, v % 3)


def var_name(v: int) -> str:
    i, j, k = var_ijk(v)
    return "T_%d_%d_%d" % (i + 1, j + 1, k + 1)


def mono_mul(m1, m2):
    return tuple(sorted(m1 + m2))


def mono_weight(mono):
    """((A-content), (B-content), (C-content)) of a monomial."""
    wa = [0, 0, 0]
    wb = [0, 0, 0]
    wc = [0, 0, 0]
    for v in mono:
        i, j, k = var_ijk(v)
        wa[i] += 1
        wb[j] += 1
        wc[k] += 1
    return (tuple(wa), tuple(wb), tuple(wc))


class Poly:
    """Sparse exact polynomial; never stores zero coefficients."""

    __slots__ = ("terms", "_packed")

    def __init__(self, terms=None):
        self.terms = {}
        self._packed = None
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self.add_term(mono, coeff)

    @classmethod
    def variable(cls, i, j, k, one_based=False):
        if one_based:
            i, j, k = i - 1, j - 1, k - 1
        return cls({(var_index(i, j, k),): 1})

    @classmethod
    def _wrap(cls, terms):
        """A Poly that takes ownership of `terms` (no zero coefficients)."""
        p = cls.__new__(cls)
        p.terms = terms
        p._packed = None
        return p

    @classmethod
    def constant(cls, c):
        return cls({(): c}) if c != 0 else cls()

    def add_term(self, mono, coeff):
        if coeff == 0:
            return
        self._packed = None
        mono = tuple(mono)
        acc = self.terms.get(mono, 0) + coeff
        if acc == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = acc

    def copy(self):
        p = Poly()
        p.terms = dict(self.terms)
        return p

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other):
        p = self.copy()
        for m, c in other.terms.items():
            p.add_term(m, c)
        return p

    def __sub__(self, other):
        p = self.copy()
        for m, c in other.terms.items():
            p.add_term(m, -c)
        return p

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if c == 0:
            return Poly()
        return Poly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out = Poly()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out.add_term(mono_mul(m1, m2), c1 * c2)
        return out

    __rmul__ = __mul__

    def degree(self):
        """Common degree of the monomials; None for the zero polynomial,
        an error if the polynomial is not homogeneous."""
        degs = {len(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def weight(self):
        """The common weight; raises if the polynomial mixes weights."""
        ws = {mono_weight(m) for m in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return ws.pop()

    def evaluate(self, t: Tensor333):
        return evaluate_points([self], [t])[0][0]

    def derivative(self, v: int):
        out = Poly()
        for mono, coeff in self.terms.items():
            e = mono.count(v)
            if e == 0:
                continue
            reduced = list(mono)
            reduced.remove(v)
            out.add_term(tuple(reduced), coeff * e)
        return out

    def content_normalized(self):
        """Integer-coefficient scale with content 1 and positive leading
        coefficient (graded-lex leading monomial)."""
        if not self.terms:
            return Poly()
        terms = self.terms
        if not all(type(c) is int for c in terms.values()):
            den = 1
            for c in terms.values():
                f = Fraction(c)
                den = den * f.denominator // gcd(den, f.denominator)
            terms = {m: int(Fraction(c) * den) for m, c in terms.items()}
        g = gcd(*terms.values())
        if terms[min(terms)] < 0:
            g = -g
        if g == 1:
            return Poly._wrap(dict(terms))
        return Poly._wrap({m: c // g for m, c in terms.items()})

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def permuted(f: Poly, vmap) -> Poly:
    """f with each variable v replaced by vmap[v], for a permutation vmap
    of the 27 variables; monomials stay sorted."""
    return Poly._wrap({tuple(sorted([vmap[v] for v in m])): c for m, c in f.terms.items()})


def variable_map(sigma=((0, 1, 2),) * 3):
    """T_x -> T_y with y[a] = sigma[a][x[a]]: each factor's indices
    permuted by sigma (a Weyl group element)."""
    return tuple(var_index(*(s[i] for s, i in zip(sigma, var_ijk(v)))) for v in range(N_VARS))


# ---------------------------------------------------------------------------
# exact evaluation (see the module docstring)

PAD = N_VARS      # a 28th variable: 1, or D at a point with denominator D
_BASE = N_VARS + 1


def _mono_rows(monos, width, pad):
    """The monomials as an n x width uint8 array, each row padded by pad."""
    return np.frombuffer(b"".join([bytes(m).ljust(width, pad) for m in monos]),
                         dtype=np.uint8).reshape(len(monos), width)


def _exact(xs, what):
    """(xs as a list, whether one is a Fraction); TypeError unless each
    is an int or a Fraction."""
    xs = list(xs)
    kinds = set(map(type, xs))
    if not kinds <= {int, Fraction}:
        bad = next(x for x in xs if type(x) not in (int, Fraction))
        raise TypeError("%s %r is not an int or a Fraction" % (what, bad))
    return xs, Fraction in kinds


def _pack(f: Poly):
    """f's terms as (codes, integer coefficients, their L1 norm, common
    denominator, degree), cached on f until add_term.  Row i of codes is
    monomial i as chunks (a*28 + b)*28 + c of three variable indices,
    padded by PAD."""
    if f._packed is not None:
        return f._packed
    terms = f.terms
    coeffs, fractions = _exact(terms.values(), "coefficient")
    den = lcm(*(Fraction(c).denominator for c in coeffs)) if fractions else 1
    coeffs = [int(c * den) for c in coeffs] if fractions else coeffs
    l1 = sum(map(abs, coeffs))
    deg = max(map(len, terms), default=0)
    width = 3 * max(1, -(-deg // 3))
    v = _mono_rows(terms, width, bytes([PAD])).reshape(len(terms), width // 3, 3)
    # below 2^31 a coefficient times a residue fits int64; larger ones are
    # reduced mod each prime first
    f._packed = (v @ np.array([_BASE ** 2, _BASE, 1], np.int32),
                 np.array(coeffs, dtype=np.int64 if l1 < 1 << 31 else object), l1, den, deg)
    return f._packed


def _primes_above(bound):
    """The fewest machine primes, largest first, with product > bound."""
    out, m = [], 1
    while m <= bound:
        out.append(machine_prime(len(out)))
        m *= out[-1]
    return out


def _residues(idx, cube, coef, starts, ys, primes):
    """The values mod each prime, indexed [prime, point, polynomial].  The
    rows of idx index each term's factors in the entries ys, or in their
    28^3 products when cube is set."""
    ps = np.array(primes, dtype=np.int64)[:, None, None]
    t = (np.array(ys, dtype=object) % ps).astype(np.int64)
    if cube:
        t2 = (t[..., :, None] * t[..., None, :] % ps[..., None]).reshape(*t.shape[:2], -1)
        t = (t2[..., :, None] * t[..., None, :] % ps[..., None]).reshape(*t.shape[:2], -1)
    if coef.dtype == object:
        coef = (coef % ps[:, 0]).astype(np.int64)[:, None, :]
    v = t.take(idx[0], axis=2) * coef
    v += ps << 31   # a multiple of p that makes v >= 0: a negative remainder is slow
    v %= ps
    for i in idx[1:]:
        v *= t.take(i, axis=2)
        v %= ps
    return np.add.reduceat(v, starts, axis=2) % ps


def evaluate_points(polys, points):
    """Exact values [[f(t) for f in polys] for t in points] at Tensor333
    points: ints, or Fractions where a denominator remains."""
    packs = [_pack(f) for f in polys]
    live = [j for j, pk in enumerate(packs) if pk[2]]
    out = [[0] * len(packs) for _ in points]
    if not live or not out:
        return out
    codes, coefs, l1s, dens, degs = zip(*(packs[j] for j in live))
    k = max(c.shape[1] for c in codes)
    codes = np.concatenate([c if c.shape[1] == k else np.pad(  # 28^3 - 1: three pads
        c, ((0, 0), (0, k - c.shape[1])), constant_values=_BASE ** 3 - 1) for c in codes])
    coef = np.concatenate(coefs)
    starts = np.cumsum([0] + [len(c) for c in coefs[:-1]])
    # one table lookup per chunk when there are more terms than products
    cube = len(codes) > _BASE ** 3
    idx = codes.T if cube else np.hstack(np.unravel_index(codes, (_BASE,) * 3)).T
    rows = []
    for t in points:
        x, fractions = _exact(t.entries_flat(), "tensor entry")
        d = lcm(*(Fraction(e).denominator for e in x)) if fractions else 1
        rows.append([int(e * d) for e in x] + [d] if fractions else x + [1])
    scales = [y[-1] ** (3 * k) for y in rows]
    # |f(D x) * D^pads| <= L1 * max|y|^(degree, or the width with pads)
    deg = max(degs)
    primes = _primes_above(2 * max(l1s) * max(
        max(map(abs, y)) ** (deg if y[-1] == 1 else 3 * k) for y in rows))
    m = prod(primes)
    basis = [m // p * pow(m // p, -1, p) for p in primes]
    step = max(1, (1 << 20) // (len(codes) * len(primes)))   # about 8 MB per int64 temporary
    for i0 in range(0, len(rows), step):
        res = _residues(idx, cube, coef, starts, rows[i0:i0 + step], primes)
        lifted = sum(r.astype(object) * e for r, e in zip(res, basis)) % m
        for i, vals in enumerate(np.where(lifted > m // 2, lifted - m, lifted).tolist(), i0):
            for j, g, den in zip(live, vals, dens):
                q = den * scales[i]
                out[i][j] = g // q if g % q == 0 else Fraction(g, q)
    return out


# ---------------------------------------------------------------------------
# torus weights, weight spaces

def weight_space_basis(d, weight):
    """All degree-d monomials with the given (A,B,C) index contents.

    Monomials correspond to 3x3x3 nonnegative integer arrays whose three
    axis marginals are the content vectors.
    """
    wa, wb, wc = weight
    if not (sum(wa) == sum(wb) == sum(wc) == d):
        raise ValueError("weight %r does not sum to degree %d in every slot" % (weight, d))
    cells = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    out = []

    def rec(idx, ra, rb, rc, left, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        if idx == len(cells):
            return
        i, j, k = cells[idx]
        cap = min(ra[i], rb[j], rc[k], left)
        v = var_index(i, j, k)
        for e in range(cap + 1):
            if e:
                ra[i] -= 1; rb[j] -= 1; rc[k] -= 1
                acc.append(v)
            rec(idx + 1, ra, rb, rc, left - e, acc)
        for _ in range(cap):
            ra[i] += 1; rb[j] += 1; rc[k] += 1
            acc.pop()
    rec(0, list(wa), list(wb), list(wc), d, [])
    return sorted(out)


# ---------------------------------------------------------------------------
# raising / lowering operators (one gl(3) copy per tensor factor)

HOLE = 31   # pads the rows of lower-degree monomials: sorts last in a row, no shift moves it


def pack_terms(polys):
    """The terms of polys as one batch (rows, ids, coeffs), those of
    polys[i] with id i (module docstring)."""
    monos = [m for f in polys for m in f.terms]
    coeffs = [c for f in polys for c in f.terms.values()]
    width = max(1, max(map(len, monos), default=0))   # a constant is one HOLE
    small = all(type(c) is int for c in coeffs) and sum(map(abs, coeffs)) < 1 << 62
    coeffs = np.array(coeffs, dtype=np.int64 if small else object)
    ids = np.repeat(np.arange(len(polys)), list(map(len, polys)))
    return _mono_rows(monos, width, bytes([HOLE])), ids, coeffs


def unpack_terms(batch, n):
    """The batch as n Polys, polynomial i made of the terms with id i
    (ids ascending, as shift_batch leaves them)."""
    rows, ids, coeffs = batch
    monos, coeffs = list(struct.iter_unpack("%dB" % rows.shape[1], rows.tobytes())), coeffs.tolist()
    for i in np.flatnonzero(rows[:, -1] == HOLE).tolist():   # below the full degree
        monos[i] = monos[i][:monos[i].index(HOLE)]
    bounds = np.searchsorted(ids, np.arange(n + 1)).tolist()
    return [Poly._wrap(dict(zip(monos[a:b], coeffs[a:b]))) for a, b in zip(bounds, bounds[1:])]


@lru_cache(maxsize=None)
def _shift_tables(axis, to_idx, from_idx):
    """(hit, image) over the row values: hit[v] when v's factor-`axis`
    index is from_idx, image[v] the variable with it set to to_idx."""
    ax, ijk = "ABC".index(axis), np.array([var_ijk(v) for v in range(HOLE + 1)])
    hit = (ijk[:, ax] == from_idx) & (np.arange(HOLE + 1) < N_VARS)
    ijk[hit, ax] = to_idx
    return hit, (ijk @ (9, 3, 1)).astype(np.uint8)


def _run_starts(a):
    """The indices where a run of equal entries of a starts."""
    return np.flatnonzero(np.diff(a, prepend=a[:1] - 1))


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


def merge_terms(batch):
    """The batch with like terms added up and zero sums dropped, sorted by
    id, then by monomial in tuple order; its rows must be sorted."""
    rows, ids, coeffs = batch
    # five bits per variable, v + 1 or 0 for HOLE: shorter monomials first
    key = ids.astype(np.int64 if 5 * rows.shape[1] + int(ids.max(initial=0)).bit_length() < 63
                     else object)
    for col in ((rows + 1) & 31).T.astype(key.dtype):
        key = key << 5 | col
    order = np.argsort(key)
    starts = _run_starts(key[order])
    sums = np.add.reduceat(coeffs[order], starts)
    keep = order[starts[sums != 0]]
    return rows[keep], ids[keep], sums[sums != 0]


def normalize_batch(batch):
    """Poly.content_normalized on each polynomial of an integer batch from
    shift_batch, whose first term is its smallest monomial."""
    rows, ids, coeffs = batch
    starts = _run_starts(ids)   # a one-term reduceat is the term itself, sign and all
    g = np.abs(np.gcd.reduceat(coeffs, starts)) * np.sign(coeffs[starts])
    return rows, ids, coeffs // np.repeat(g, np.diff(np.r_[starts, len(ids)]))


def apply_shift(axis, to_idx, from_idx, f: Poly) -> Poly:
    """The derivation sum_rest T[to,rest] * d/dT[from,rest] on poly f
    (indices 0-based within the chosen factor)."""
    return unpack_terms(shift_batch(axis, to_idx, from_idx, pack_terms([f])), 1)[0]


LOWERING = tuple((ax, to, frm) for ax in "ABC" for to, frm in ((1, 0), (2, 1)))
RAISING = tuple((ax, to, frm) for ax in "ABC" for to, frm in ((0, 1), (1, 2)))


def is_highest_weight(f: Poly) -> bool:
    return all(apply_shift(ax, to, frm, f).is_zero() for ax, to, frm in RAISING)


# ---------------------------------------------------------------------------
# the degree-3 pencil determinant coefficients

_X_MONOMIALS = [(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
                (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)]


def _pencil_entry_vars(axis, r, c):
    """Variable indices of the three x-coefficients of pencil entry (r,c)."""
    if axis == "A":
        return [var_index(s, r, c) for s in range(3)]
    if axis == "B":
        return [var_index(r, s, c) for s in range(3)]
    if axis == "C":
        return [var_index(r, c, s) for s in range(3)]
    raise ValueError("axis must be A, B or C")


def m3_with_x_monomials(axis):
    """The symbolic pencil determinant for an axis, split by x-monomial:
    list of ((e1,e2,e3), Poly) with e the exponent of (x1,x2,x3)."""
    buckets = {e: Poly() for e in _X_MONOMIALS}
    for sigma in permutations(range(3)):
        sign = perm_sign(sigma)
        for s1 in range(3):
            for s2 in range(3):
                for s3 in range(3):
                    e = [0, 0, 0]
                    e[s1] += 1; e[s2] += 1; e[s3] += 1
                    mono = tuple(sorted((_pencil_entry_vars(axis, 0, sigma[0])[s1],
                                         _pencil_entry_vars(axis, 1, sigma[1])[s2],
                                         _pencil_entry_vars(axis, 2, sigma[2])[s3])))
                    buckets[tuple(e)].add_term(mono, sign)
    return [(e, buckets[e]) for e in _X_MONOMIALS]


def m3_generators(axis):
    """The 10 homogeneous cubics: coefficients (on x-monomials) of the
    determinant of the axis pencil."""
    return [p for _, p in m3_with_x_monomials(axis)]


def s3_m3():
    """All 30 pencil-determinant cubics over the three axes."""
    out = []
    for ax in "ABC":
        out.extend(m3_generators(ax))
    return out


def det_slice_poly(axis, index):
    """det of a single 1-based coordinate slice as a cubic Poly
    (equals the x_index^3 coefficient of the axis pencil determinant)."""
    out = Poly()
    for sigma in permutations(range(3)):
        mono = tuple(sorted(_pencil_entry_vars(axis, r, sigma[r])[index - 1]
                            for r in range(3)))
        out.add_term(mono, perm_sign(sigma))
    return out


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
        coeff = f.terms[mono]
        factors = []
        seen = []
        for v in mono:
            if v in seen:
                continue
            seen.append(v)
            e = mono.count(v)
            factors.append(var_name(v) + ("^%d" % e if e > 1 else ""))
        body = "*".join(factors) if factors else "1"
        c = Fraction(coeff)
        if c == 1 and factors:
            parts.append("+ " + body)
        elif c == -1 and factors:
            parts.append("- " + body)
        else:
            sign = "- " if c < 0 else "+ "
            parts.append(sign + str(abs(c)) + "*" + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _parse_var(token: str) -> int:
    bits = token.split("_")
    if len(bits) == 4 and bits[0] == "T":
        ijk = bits[1:]
    elif len(token) == 3 and token[0] in "abc":
        ijk = [token[1], token[2], str("abc".index(token[0]) + 1)]
    else:
        raise ValueError("bad variable %r" % token)
    if any(x not in ("1", "2", "3") for x in ijk):
        raise ValueError("bad variable %r" % token)
    i, j, k = (int(x) - 1 for x in ijk)
    return var_index(i, j, k)


def parse_poly(text: str) -> Poly:
    """Parse 'c*T_1_2_3^2*a11 - ...' (T_i_j_k or letter a/b/c names).

    Coefficients are integers or p/q, exponents nonnegative integers.
    Anything else (a negative or fractional exponent, a dangling sign or
    operator, an unknown variable) raises ValueError.
    """
    chunks = "".join(text.split()).replace("-", "+-").split("+")
    if chunks[0] == "" and len(chunks) > 1:
        del chunks[0]  # a leading sign
    out = Poly()
    for chunk in chunks:
        coeff = 1
        if chunk.startswith("-"):
            coeff = -1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("empty term (dangling sign) in %r" % (text,))
        mono = []
        for factor in chunk.split("*"):
            base, caret, exp = factor.partition("^")
            if not base or (caret and not exp.isdigit()):
                raise ValueError("bad factor %r" % (factor,))
            e = int(exp) if caret else 1
            num, slash, den = base.partition("/")
            if not num.isdigit():
                mono.extend([_parse_var(base)] * e)
            elif slash and not (den.isdigit() and int(den)):
                raise ValueError("bad coefficient %r" % (base,))
            else:
                coeff = coeff * (Fraction(int(num), int(den)) if slash else int(num)) ** e
        out.add_term(tuple(sorted(mono)), coeff)
    return out


def witness_g() -> Poly:
    """The shipped degree-4 highest weight witness polynomial (loaded from
    the data file; weight ((2,2,0),(2,1,1),(2,1,1)))."""
    from importlib.resources import files
    text = files("trifocal").joinpath("data/witness_g.txt").read_text()
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    return parse_poly("".join(lines))
