"""Exact linear algebra over Q and F_p.

Dense matrices over Q are plain lists of lists holding ints or Fractions;
everything there is exact, nothing touches floating point.  Over F_p there
is one elimination kernel, rref_mod_p (numpy int64 arithmetic mod a prime
below MACHINE_PRIME_BOUND): ranks, the incremental Echelon and the modular
kernels behind the certified integer kernels are all read off its output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .scalars import crt_pair, rational_reconstruction

# primes just below 2**30: residues multiply without overflowing int64
_WORK_PRIMES = [1073741789, 1073741783, 1073741741, 1073741723, 1073741719,
                1073741717, 1073741689, 1073741671, 1073741663, 1073741651]


def dims(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    return rows, cols


def identity(n, one=1):
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


def transpose(m):
    r, c = dims(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def mat_mul(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise ValueError("shape mismatch %dx%d * %dx%d" % (ra, ca, rb, cb))
    return [[sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb)]
            for i in range(ra)]


def mat_vec(m, v):
    r, c = dims(m)
    if len(v) != c:
        raise ValueError("shape mismatch")
    return [sum(m[i][j] * v[j] for j in range(c)) for i in range(r)]


def _to_field(m):
    """Copy, promoting ints to Fraction so division is exact."""
    out = []
    for row in m:
        out.append([Fraction(x) if isinstance(x, int) else x for x in row])
    return out


def _rref(m):
    """In-place RREF on a field-valued copy. Returns (rank, pivot cols)."""
    a = _to_field(m)
    rows, cols = dims(a)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m) -> int:
    if not m:
        return 0
    _, pivots = _rref(m)
    return len(pivots)


def kernel_basis(m):
    """Basis of the right null space (list of vectors); [] when full rank."""
    rows, cols = dims(m)
    a, pivots = _rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][f]
        basis.append(v)
    return basis


def det(m):
    """Exact determinant. Bareiss for int entries, elimination otherwise."""
    rows, cols = dims(m)
    if rows != cols:
        raise ValueError("determinant of a %dx%d matrix" % (rows, cols))
    n = rows
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in m for x in row):
        return _det_bareiss([list(r) for r in m])
    a = _to_field(m)
    sign = 1
    result = None
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return a[0][0] * 0
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        piv = a[c][c]
        result = piv if result is None else result * piv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result if sign > 0 else -result


def _det_bareiss(a):
    # fraction-free elimination; all divisions are exact over Z
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# modular (numpy) elimination

# residues below this bound multiply inside int64
MACHINE_PRIME_BOUND = (1 << 31) - 1


def _check_machine_prime(p):
    if p > MACHINE_PRIME_BOUND:
        raise ValueError("prime %d too large for int64 elimination" % p)


def rref_mod_p(rows_array, p):
    """Reduced row echelon form of an integer matrix mod p.  Returns (the
    nonzero rows, each with a leading 1 in a column that is zero in every
    other row, the list of those pivot columns)."""
    _check_machine_prime(p)
    a = np.ascontiguousarray(rows_array, dtype=np.int64) % p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        # rows r.. are zero left of c, so only columns c.. change
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


class Echelon:
    """Row echelon mod p of some base rows that grows by independent
    candidate rows."""

    def __init__(self, rows_array, p):
        a, pivots = rref_mod_p(rows_array, p)
        self.p = p
        self.rows = list(a)
        self.lead = {c: i for i, c in enumerate(pivots)}

    def add(self, v) -> bool:
        """Reduce v against the echelon; absorb it if independent."""
        p = self.p
        v = np.asarray(v, dtype=np.int64) % p
        while True:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return False
            l = int(nz[0])
            j = self.lead.get(l)
            if j is None:
                inv = pow(int(v[l]), -1, p)
                v = (v * inv) % p
                self.lead[l] = len(self.rows)
                self.rows.append(v)
                return True
            v = (v - v[l] * self.rows[j]) % p


def _primitive_int_vector(fracs):
    """Scale a rational vector to a primitive integer vector, leading > 0."""
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def kernel_basis_int(sparse_rows, ncols, expected_dim=None):
    """Exact integer kernel of an integer matrix given as sparse rows.

    Each row is a dict {col: int}.  Works modulo machine primes, lifts by
    CRT + rational reconstruction, and verifies the lifted vectors against
    the exact rows, so the result is certified regardless of prime luck.
    The modular elimination runs on a row sample when there are many more
    rows than columns; the exact verification is always against all rows.
    Returns a list of primitive integer vectors (python lists).
    """
    import random as _random

    all_rows = [r for r in sparse_rows if r]
    if not all_rows:
        return identity(ncols)

    sample_size = ncols + 64
    rng = _random.Random(0xC0FFEE)
    if len(all_rows) > sample_size:
        rows = rng.sample(all_rows, sample_size)
    else:
        rows = all_rows

    def dense_mod(p):
        a = np.zeros((len(rows), ncols), dtype=np.int64)
        for i, r in enumerate(rows):
            for c, v in r.items():
                a[i, c] = v % p
        return a

    for _attempt in range(4):
        used = []
        residues = None  # kernel entries as CRT residues
        modulus = 1
        ref_pivots = None
        lifted = None
        for p in _WORK_PRIMES:
            a, pivots = rref_mod_p(dense_mod(p), p)
            # free columns get the identity, pivot columns minus the RREF
            free = np.setdiff1d(np.arange(ncols), pivots)
            basis = np.zeros((len(free), ncols), dtype=np.int64)
            basis[np.arange(len(free)), free] = 1
            basis[:, pivots] = (-a[:, free] % p).T
            # The rational rank profile has the most pivots, earliest first;
            # a prime dividing some minor sees fewer or later pivots.  Skip
            # such a prime, and restart only when a better profile shows up.
            if ref_pivots is not None and pivots != ref_pivots:
                if (-len(pivots), pivots) > (-len(ref_pivots), ref_pivots):
                    continue
                used, residues, modulus = [], None, 1
            ref_pivots = pivots
            used.append(p)
            if residues is None:
                residues = basis.astype(object)
                modulus = p
            else:
                for idx in np.ndindex(residues.shape):
                    residues[idx], _ = crt_pair(int(residues[idx]) % modulus, modulus,
                                                int(basis[idx]), p)
                modulus *= p
            lifted = _try_lift(residues, modulus)
            if lifted is None:
                continue
            if _verify_kernel(all_rows, lifted):
                if expected_dim is not None and len(lifted) != expected_dim:
                    raise ArithmeticError(
                        "kernel dimension %d != expected %d" % (len(lifted), expected_dim))
                return lifted
            lifted = None
            if len(rows) < len(all_rows):
                break  # sample too thin: verified false, enlarge below
        if len(rows) == len(all_rows):
            raise ArithmeticError(
                "integer kernel did not stabilize over %d primes" % len(used))
        sample_size *= 2
        if len(all_rows) > sample_size:
            rows = rng.sample(all_rows, sample_size)
        else:
            rows = all_rows
    raise ArithmeticError("integer kernel computation failed to converge")


def _try_lift(residues, modulus):
    vecs = []
    for row in residues:
        fr = []
        for x in row:
            f = rational_reconstruction(int(x), modulus)
            if f is None:
                return None
            fr.append(f)
        vecs.append(_primitive_int_vector(fr))
    return vecs


def _verify_kernel(rows, vectors):
    for v in vectors:
        for r in rows:
            if sum(val * v[c] for c, val in r.items()) != 0:
                return False
    return True
