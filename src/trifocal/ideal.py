"""Graded ideal computations by weight-blocked exact linear algebra.

Everything here avoids Groebner bases: the generator sets, their degree
slices and all membership questions are homogeneous for the torus grading,
so each question decomposes into small independent weight blocks, and an
exact rank over F_p per block answers it.  Exact-over-Q statements
(vanishing certificates) are produced from rational kernels of evaluation
matrices at integer points and re-verified by direct evaluation.
"""

from __future__ import annotations

import numpy as np

from . import linalg, rep
from .poly import Poly, mono_mul, mono_weight, monomials_of_degree, weight_space_basis
from .scalars import DEFAULT_PRIME, is_prime
from .tensor import Tensor333, random_orbit_point

DEFAULT_DEGREE_CAP = 6
HARD_DEGREE_CAP = 7


class DegreeCapError(ValueError):
    pass


def _check_cap(d, cap):
    if d > min(cap, HARD_DEGREE_CAP):
        raise DegreeCapError(
            "degree %d exceeds the cap %d (ambient dimension there is %d); "
            "raise degree_cap explicitly to opt in" % (d, cap, rep.ambient_dimension(d)))


class GradedGeneratorSet:
    """Homogeneous generators bucketed by degree."""

    def __init__(self, by_degree=None):
        self.by_degree = {}
        if by_degree:
            for d, polys in by_degree.items():
                self.add(d, polys)

    def add(self, degree, polys):
        for f in polys:
            if f.degree() != degree:
                raise ValueError("generator of degree %s filed under %d" % (f.degree(), degree))
        self.by_degree.setdefault(degree, []).extend(polys)

    def degrees(self):
        return sorted(self.by_degree)

    def polys(self, degree):
        return self.by_degree.get(degree, [])

    def below(self, d):
        return GradedGeneratorSet({e: list(ps) for e, ps in self.by_degree.items() if e < d})

    def with_extra(self, degree, polys):
        g = GradedGeneratorSet({e: list(ps) for e, ps in self.by_degree.items()})
        g.add(degree, polys)
        return g

    def counts(self):
        return {d: len(ps) for d, ps in sorted(self.by_degree.items())}


# ---------------------------------------------------------------------------
# degree slices as weight-blocked rows

def _product_row(gen: Poly, mult):
    return {mono_mul(m, mult): c for m, c in gen.terms.items()}


def slice_rows_by_weight(gens: GradedGeneratorSet, d):
    """All monomial-times-generator rows of the degree-d slice, grouped by
    torus weight.  Rows are sparse {monomial: int} dicts."""
    groups = {}
    for e in gens.degrees():
        if e > d:
            continue
        for g in gens.polys(e):
            for mult in monomials_of_degree(d - e):
                row = _product_row(g, mult)
                w = mono_weight(next(iter(row)))
                groups.setdefault(w, []).append(row)
    return groups


def rows_in_weight_block(gens: GradedGeneratorSet, d, weight, strict_below=True):
    """Degree-d product rows with a prescribed weight (one block only)."""
    rows = []
    for e in gens.degrees():
        if e > d or (strict_below and e == d):
            continue
        for g in gens.polys(e):
            wg = g.weight()
            delta = tuple(tuple(a - b for a, b in zip(wt, wgt))
                          for wt, wgt in zip(weight, wg))
            if any(x < 0 for slot in delta for x in slot):
                continue
            for mult in weight_space_basis(d - e, delta):
                rows.append(_product_row(g, mult))
    return rows


def _block_echelon(rows, p):
    """Echelon object over F_p spanning the given sparse rows."""
    cols = {}
    for r in rows:
        for m in r:
            if m not in cols:
                cols[m] = len(cols)
    ech = linalg.Echelon(len(cols), p)
    if not rows:
        return ech, cols
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for i, r in enumerate(rows):
        for m, c in r.items():
            a[i, cols[m]] = c % p
    # bulk forward elimination, then seed the echelon with the survivors
    m_, n_ = a.shape
    rk = 0
    for c in range(n_):
        if rk == m_:
            break
        nz = np.nonzero(a[rk:, c])[0]
        if nz.size == 0:
            continue
        i = rk + int(nz[0])
        if i != rk:
            a[[rk, i], c:] = a[[i, rk], c:]
        inv = pow(int(a[rk, c]), -1, p)
        a[rk, c:] = (a[rk, c:] * inv) % p
        below = a[rk + 1:, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            a[rk + 1 + hit, c:] = (a[rk + 1 + hit, c:] - np.outer(below[hit], a[rk, c:])) % p
        rk += 1
    for i in range(rk):
        lead = int(np.nonzero(a[i])[0][0])
        ech.lead[lead] = len(ech.rows)
        ech.rows.append(a[i])
    return ech, cols


def _poly_vector(f: Poly, cols, p):
    v = np.zeros(len(cols), dtype=np.int64)
    missing = object()
    for m, c in f.terms.items():
        idx = cols.get(m, missing)
        if idx is missing:
            return None  # monomial outside the block's column span
        v[idx] = c % p
    return v


def ideal_dim_in_degree(gens: GradedGeneratorSet, d, p=DEFAULT_PRIME,
                        cap=DEFAULT_DEGREE_CAP, progress=None) -> int:
    """Dimension of the degree-d slice of the generated ideal, as the sum
    of weight-block ranks over F_p."""
    _check_cap(d, cap)
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    groups = slice_rows_by_weight(gens, d)
    total = 0
    for i, (w, rows) in enumerate(groups.items()):
        ech, _ = _block_echelon(rows, p)
        total += ech.rank
        if progress and (i + 1) % 2000 == 0:
            progress("degree %d: %d/%d weight blocks" % (d, i + 1, len(groups)))
    return total


def hilbert_quotient(gens: GradedGeneratorSet, d, p=DEFAULT_PRIME,
                     cap=DEFAULT_DEGREE_CAP, progress=None) -> int:
    if d == 0:
        return 1
    return rep.ambient_dimension(d) - ideal_dim_in_degree(gens, d, p=p, cap=cap,
                                                          progress=progress)


def hilbert_with_witnesses(gens: GradedGeneratorSet, witnesses, d, p=DEFAULT_PRIME,
                           cap=DEFAULT_DEGREE_CAP, progress=None):
    """Quotient dimensions in degree d for the base ideal and for each
    base+witness ideal, sharing the per-block base echelon.

    witnesses: list of homogeneous weight-homogeneous polynomials.
    Returns (base_quotient, [witness_quotients]).
    """
    _check_cap(d, cap)
    base_groups = slice_rows_by_weight(gens, d)
    ext_groups = []
    for wpoly in witnesses:
        e = wpoly.degree()
        g = {}
        if e <= d:
            for mult in monomials_of_degree(d - e):
                row = _product_row(wpoly, mult)
                w = mono_weight(next(iter(row)))
                g.setdefault(w, []).append(row)
        ext_groups.append(g)
    weights = set(base_groups)
    for g in ext_groups:
        weights.update(g)
    base_total = 0
    ext_totals = [0] * len(ext_groups)
    for i, w in enumerate(sorted(weights)):
        rows = base_groups.get(w, [])
        ext_rows = [g.get(w, []) for g in ext_groups]
        cols = {}
        for r in rows:
            for m in r:
                cols.setdefault(m, len(cols))
        for er in ext_rows:
            for r in er:
                for m in r:
                    cols.setdefault(m, len(cols))
        ech = linalg.Echelon(len(cols), p)
        for r in rows:
            v = np.zeros(len(cols), dtype=np.int64)
            for m, c in r.items():
                v[cols[m]] = c % p
            ech.add(v)
        base_total += ech.rank
        for j, er in enumerate(ext_rows):
            if not er:
                ext_totals[j] += ech.rank
                continue
            fork = ech.fork()
            for r in er:
                v = np.zeros(len(cols), dtype=np.int64)
                for m, c in r.items():
                    v[cols[m]] = c % p
                fork.add(v)
            ext_totals[j] += fork.rank
        if progress and (i + 1) % 2000 == 0:
            progress("degree %d: %d/%d weight blocks" % (d, i + 1, len(weights)))
    amb = rep.ambient_dimension(d)
    return amb - base_total, [amb - t for t in ext_totals]


def minimal_generator_test(h: Poly, gens: GradedGeneratorSet, p=DEFAULT_PRIME) -> bool:
    """True iff h lies in the degree slice generated by the lower-degree
    part of gens (restricted to h's weight block); True means h is NOT a
    minimal generator."""
    d = h.degree()
    w = h.weight()
    rows = rows_in_weight_block(gens, d, w, strict_below=True)
    ech, cols = _block_echelon(rows, p)
    for m in h.terms:
        if m not in cols:
            return False
    v = _poly_vector(h, cols, p)
    return not ech.fork().add(v)


# ---------------------------------------------------------------------------
# vanishing on the variety

class VanishingReport:
    __slots__ = ("label", "multiplicity", "certificates")

    def __init__(self, label, multiplicity, certificates):
        self.label = label
        self.multiplicity = multiplicity
        self.certificates = certificates


def evaluate_batch(polys, point: Tensor333):
    """Exact values of several polynomials at one integer tensor; monomial
    values are shared across the batch."""
    flat = point.entries_flat()
    cache = {}
    out = []
    for f in polys:
        total = 0
        for mono, coeff in f.terms.items():
            v = cache.get(mono)
            if v is None:
                v = 1
                for idx in mono:
                    v *= flat[idx]
                cache[mono] = v
            total += coeff * v
        out.append(total)
    return out


def trifocal_points(nf: Tensor333, seed, count):
    return [random_orbit_point(nf, seed + i) for i in range(count)]


def vanishing_subspace(hw: rep.HWSpace, nf: Tensor333, seed, oversample=2) -> VanishingReport:
    """Sub-hw-space vanishing on the orbit closure of nf.

    Evaluates the hw basis at oversample*dim random orbit points, takes the
    exact rational kernel, and re-verifies every certificate on a fresh
    batch (resampling once before declaring a hard failure).
    """
    m = hw.dim
    if m == 0:
        return VanishingReport(hw.label, 0, [])
    npts = max(oversample * m, m + 1)
    for attempt in range(2):
        base = seed + attempt * 10_000
        pts = trifocal_points(nf, base, npts)
        mat = [evaluate_batch(hw.basis, pt) for pt in pts]
        kernel = linalg.kernel_basis(mat)
        certs = []
        for vec in kernel:
            f = Poly()
            for coeff, basis_poly in zip(vec, hw.basis):
                if coeff:
                    f = f + basis_poly.scale(coeff)
            certs.append(f.content_normalized())
        fresh = trifocal_points(nf, base + npts, npts)
        ok = all(all(v == 0 for v in evaluate_batch(certs, pt)) for pt in fresh) if certs else True
        if ok:
            return VanishingReport(hw.label, len(certs), certs)
    raise ArithmeticError(
        "inconsistent vanishing kernel for label %r after resampling" % (hw.label,))


# ---------------------------------------------------------------------------
# the discovery pipeline

class DiscoveredModule:
    __slots__ = ("degree", "label", "hw_vector", "basis")

    def __init__(self, degree, label, hw_vector, basis):
        self.degree = degree
        self.label = label
        self.hw_vector = hw_vector
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)


class DegreeScan:
    """Per-degree outcome: label rows and the new minimal generators."""

    def __init__(self, degree):
        self.degree = degree
        self.rows = []       # (label, kronecker, hw_dim, vanishing, new_mult)
        self.modules = []    # DiscoveredModule, new minimal generators only

    @property
    def new_generator_count(self):
        return sum(m.dim for m in self.modules)

    def new_labels(self):
        return [m.label for m in self.modules]


def scan_degree(d, gens: GradedGeneratorSet, nf: Tensor333, seed,
                p=DEFAULT_PRIME, oversample=2, progress=None) -> DegreeScan:
    """One pass of the minimal-generator search in degree d: for every
    isotypic label, find the vanishing hw subspace and sort its
    certificates into old (inside the lower-degree ideal slice) and new."""
    scan = DegreeScan(d)
    labels = [lab for lab in rep.all_labels(d) if rep.kronecker(*lab) > 0]
    for idx, lab in enumerate(labels):
        hw = rep.hw_space(lab)
        report = vanishing_subspace(hw, nf, seed + 7919 * idx, oversample=oversample)
        new_certs = []
        if report.multiplicity:
            rows = rows_in_weight_block(gens, d, hw.weight, strict_below=True)
            ech, cols = _block_echelon(rows, p)
            for cert in report.certificates:
                for m in cert.terms:
                    cols.setdefault(m, len(cols))
            if len(cols) > ech.ncols:
                grown = linalg.Echelon(len(cols), p)
                for row in ech.rows:
                    v = np.zeros(len(cols), dtype=np.int64)
                    v[:len(row)] = row
                    grown.add(v)
                ech = grown
            for cert in report.certificates:
                v = _poly_vector(cert, cols, p)
                if ech.add(v):
                    new_certs.append(cert)
        scan.rows.append((lab, rep.kronecker(*lab), hw.dim, report.multiplicity, len(new_certs)))
        for cert in new_certs:
            scan.modules.append(DiscoveredModule(d, lab, cert, rep.module_span(cert)))
        if progress:
            progress("degree %d: label %d/%d %r vanishing %d new %d"
                     % (d, idx + 1, len(labels), lab, report.multiplicity, len(new_certs)))
    return scan


class Discovery:
    def __init__(self, nf, seed, prime):
        self.nf = nf
        self.seed = seed
        self.prime = prime
        self.scans = {}
        self.gens = GradedGeneratorSet()

    def counts(self):
        return {d: s.new_generator_count for d, s in sorted(self.scans.items())}

    def modules(self):
        return [m for d in sorted(self.scans) for m in self.scans[d].modules]


def discover(max_degree, nf: Tensor333, seed=2024, p=DEFAULT_PRIME,
             oversample=2, progress=None) -> Discovery:
    """Run the minimal-generator search through max_degree, accumulating
    the generator set degree by degree."""
    _check_cap(max_degree, HARD_DEGREE_CAP)
    disc = Discovery(nf, seed, p)
    for d in range(1, max_degree + 1):
        scan = scan_degree(d, disc.gens, nf, seed + 1000 * d, p=p,
                           oversample=oversample, progress=progress)
        disc.scans[d] = scan
        new = [f for m in scan.modules for f in m.basis]
        if new:
            disc.gens.add(d, new)
    return disc


# ---------------------------------------------------------------------------
# graded non-zero-divisor test

class NZDReport:
    def __init__(self, witness_degree, table, failing_degree):
        self.witness_degree = witness_degree
        self.table = table  # d -> (expected, actual)
        self.failing_degree = failing_degree

    def __bool__(self):
        return self.failing_degree is None


def graded_nonzerodivisor_check(gens: GradedGeneratorSet, f: Poly, cap=DEFAULT_DEGREE_CAP,
                                p=DEFAULT_PRIME, progress=None) -> NZDReport:
    """Degree-capped Hilbert-series identity: f is certified a
    non-zero-divisor up to the cap iff for all d <= cap
    H(base+f, d) = H(base, d) - H(base, d - deg f)."""
    e = f.degree()
    f.weight()  # raises unless weight-homogeneous
    H = {0: 1}
    Hf = {0: 1}
    for d in range(1, cap + 1):
        base_q, (ext_q,) = hilbert_with_witnesses(gens, [f], d, p=p, cap=cap,
                                                  progress=progress)
        H[d] = base_q
        Hf[d] = ext_q
    table = {}
    failing = None
    for d in range(1, cap + 1):
        expected = H[d] - (H[d - e] if d - e >= 0 else 0)
        table[d] = (expected, Hf[d])
        if expected != Hf[d] and failing is None:
            failing = d
    return NZDReport(e, table, failing)
