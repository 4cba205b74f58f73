"""Exact linear algebra over Q and F_p.

Dense matrices over Q are plain lists of lists holding ints or Fractions;
everything there is exact, nothing touches floating point.  There is one
elimination over Q: ranks and kernels clear each row's denominators and run
fraction-free (Bareiss) elimination over Z.  Determinants are 3x3 only, by
cofactors.  Over F_p (numpy int64 arithmetic mod a prime up to
MACHINE_PRIME_BOUND) one forward elimination, _eliminate, works in place:
rep takes its pivots, lu_mod_p its L (for extension_rank), Echelon its U
with leading 1s, rref_mod_p that U reduced by one pass upward.  Both passes
reduce late: k row updates keep every entry in (-k(p-1)^2, p), and they
reduce before k(p-1)^2 + p would pass 2^62; for p <= 2^31 - 1 that holds at
k = 1, so int64 never overflows.  They update the rows a pivot hits in
chunks of at most _UPDATE_ENTRIES entries, so the peak is the array (a copy
of the input for rref_mod_p, not for Echelon), two 2 MB temporaries and L.
machine_prime supplies the primes of multi-prime computations and of exact
evaluation beyond 2^64.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .scalars import is_prime, rational_reconstruction


def dims(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for r in m:
        if len(r) != cols:
            raise ValueError("ragged matrix")
    return rows, cols


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _integer_rows(m):
    """Copy of m with each row scaled by the lcm of its denominators: an
    integer matrix of the same rank and the same right kernel."""
    out = []
    for row in m:
        if all(type(x) is int for x in row):
            out.append(list(row))
        else:
            den = lcm(*[x.denominator for x in row])
            out.append([int(x * den) for x in row])
    return out


def _bareiss(a):
    """Fraction-free (Bareiss) elimination of an integer matrix to row
    echelon form, in place: each division by the previous pivot is exact, so
    every entry stays an integer (a minor of the input).  Returns the rank."""
    rows, cols = dims(a)
    r, prev = 0, 1
    for c in range(cols):
        for pr in range(r, rows):
            if a[pr][c]:
                break
        else:
            continue
        a[r], a[pr] = a[pr], a[r]
        top = a[r]
        piv = top[c]
        for i in range(r + 1, rows):
            f = a[i][c]
            a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        r += 1
        if r == rows:
            break
    return r


def rank(m) -> int:
    """Rank over Q of a matrix of ints and Fractions, by Bareiss
    elimination on its row-scaled integer copy."""
    return _bareiss(_integer_rows(m)) if m else 0


def kernel_basis(m):
    """Basis of the right null space of a matrix of ints and Fractions, as
    primitive integer vectors with a positive leading entry; [] when m has
    full column rank.  Bareiss elimination of [m^T | I] (m row-scaled to
    integers) leaves cols - rank rows whose m^T part is zero; the I part of
    such a row is a combination c of the rows of I with m c = 0, and these
    c are independent because the eliminated matrix keeps full rank."""
    rows, cols = dims(m)
    m = _integer_rows(m)
    a = [[m[i][j] for i in range(rows)] + [int(i == j) for i in range(cols)]
         for j in range(cols)]
    _bareiss(a)
    return [_primitive_int_vector(r[rows:]) for r in a if not any(r[:rows])]


def det(m):
    """Exact determinant of a 3x3 matrix of ints and Fractions, by
    cofactors; ValueError for any other shape."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# modular (numpy) elimination

# residues below this bound multiply inside int64
MACHINE_PRIME_BOUND = (1 << 31) - 1
_UPDATE_ENTRIES = 1 << 18   # each pivot updates the rows it hits in chunks this large
_MACHINE_PRIMES = []   # largest first, found on demand


def machine_prime(i):
    """The i-th largest prime <= MACHINE_PRIME_BOUND, counting from 0."""
    while len(_MACHINE_PRIMES) <= i:
        q = _MACHINE_PRIMES[-1] - 2 if _MACHINE_PRIMES else MACHINE_PRIME_BOUND
        while pow(2, q - 1, q) != 1 or not is_prime(q):   # a Fermat test first
            q -= 2
        _MACHINE_PRIMES.append(q)
    return _MACHINE_PRIMES[i]


def _check_machine_prime(p):
    if p > MACHINE_PRIME_BOUND:
        raise ValueError("prime %d too large for int64 elimination: at most %d"
                         % (p, MACHINE_PRIME_BOUND))


def _eliminate(a, p):
    """Forward elimination mod p with partial pivoting, in place on a
    C-ordered int64 array, as LAPACK getrf: whole rows swapped, each pivot's
    multipliers stored below it, only the rows below it updated.  Returns
    (perm, pivots): row j of P a is row perm[j] of a, and a then holds
    P a = L U mod p: U's row j, unreduced, in columns pivots[j].. of row j,
    L's multipliers below each pivot, zeros elsewhere."""
    _check_machine_prime(p)
    a %= p
    m, n = a.shape
    limit = ((1 << 62) - p) // (p - 1) ** 2   # 1 for p near 2^31
    perm, pivots = np.arange(m), []
    r = k = 0   # k: updates since every entry was last in [0, p)
    for c in range(n):
        if r == m:
            break
        if k:
            a[r:, c] %= p
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i, hit = r + int(nz[0]), r + nz[1:]   # rows r..i-1 are zero in column c
        if i != r:
            a[[r, i]], perm[[r, i]] = a[[i, r]], perm[[i, r]]
        if hit.size:
            col = a[hit, c] = a[hit, c] * pow(int(a[r, c]), -1, p) % p   # L's column, in place
            top, step = a[r, c + 1:] % p, max(1, _UPDATE_ENTRIES // max(1, n - c - 1))
            for h in range(0, hit.size, step):   # once when the update fits
                a[hit[h:h + step], c + 1:] -= np.outer(col[h:h + step], top)
            k = (k + 1) % limit
            if not k:
                a[r + 1:, c + 1:] %= p
        pivots.append(c)
        r += 1
    return perm, pivots


def _row_echelon(a, p):
    """(U, pivots) of a C-ordered int64 array mod p: U the nonzero rows of
    the echelon form _eliminate leaves in it, each scaled to a leading 1 in
    column pivots[j], entries in [0, p); entries above pivots stay."""
    pivots = _eliminate(a, p)[1]
    u = a[:len(pivots)]
    for j, c in enumerate(pivots):
        u[j + 1:, c] = 0   # L's multipliers
        u[j] = u[j] % p * pow(int(u[j, c]), -1, p) % p
    return u, pivots


def rref_mod_p(rows_array, p):
    """Reduced row echelon form of an integer matrix mod p: (the nonzero
    rows, each with a leading 1 in a column zero in every other row, those
    pivot columns).  _row_echelon's U, then one pass upward clears each
    pivot's column above it; the input stays unchanged."""
    a, pivots = _row_echelon(np.array(rows_array, dtype=np.int64, order="C"), p)   # "K" keeps F order
    limit = ((1 << 62) - p) // (p - 1) ** 2
    k = 0   # k: updates since every entry of rows above was last in [0, p)
    for j in range(len(pivots) - 1, 0, -1):
        c = pivots[j]   # column c of rows above j is untouched so far: in [0, p)
        hit = np.nonzero(a[:j, c])[0]
        if hit.size:
            col, top = a[hit, c], a[j, c:] % p
            step = max(1, _UPDATE_ENTRIES // (a.shape[1] - c))
            for h in range(0, hit.size, step):   # once when the update fits
                a[hit[h:h + step], c:] -= np.outer(col[h:h + step], top)
            k = (k + 1) % limit
            if not k:
                a[:j, c + 1:] %= p
    a %= p
    return a, pivots


def lu_mod_p(a, p):
    """_eliminate in place on a C-ordered int64 array, and L from it.
    Returns (perm, low): row j of P a is row perm[j] of a, and low = (at,
    val, starts) holds the unit lower triangular L of P a = L U, U echelon,
    by column: column k's nonzero multipliers val[starts[k]:starts[k + 1]],
    in the smallest unsigned dtype holding p - 1, sit in rows at[...]."""
    perm, pivots = _eliminate(a, p)
    at, val, starts = [np.empty(0, np.min_scalar_type(len(a)))], [np.empty(0, np.min_scalar_type(p - 1))], [0]
    for j, c in enumerate(pivots):   # L's column j, in the compact dtypes
        nz = j + 1 + np.nonzero(a[j + 1:, c])[0]
        at.append(nz.astype(at[0].dtype))
        val.append(a[nz, c].astype(val[0].dtype))
        starts.append(starts[-1] + len(nz))
    return perm, (np.concatenate(at), np.concatenate(val), np.array(starts))


def extension_rank(low, y, p):
    """The rank mod p that columns y (rows in P a order; those past a's: zero
    rows of a) add to a with lu_mod_p's L: L^-1 P [a | y] = [U | L^-1 y] and
    U is zero below its rank, so forward-substitute y and rank it there."""
    at, val, starts = low
    r = len(starts) - 1
    for j in range(r):   # each row in [0, p) when it is used
        if y[j].any():
            rows = at[starts[j]:starts[j + 1]]
            y[rows] = (y[rows] - np.outer(val[starts[j]:starts[j + 1]], y[j])) % p
    return len(_eliminate(np.ascontiguousarray(y[r:]), p)[1])


class Echelon:
    """Row echelon mod p of some base rows, a C-ordered int64 array reduced
    in place, that grows by independent candidate rows."""

    def __init__(self, a, p):
        a, pivots = _row_echelon(a, p)
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
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def kernel_basis_int(sparse_rows, ncols):
    """Exact integer kernel of an integer matrix given as sparse rows
    {col: int}, for ideal.vanishing_subspace and the hw-space test oracle.
    Each of up to 10 machine primes eliminates the rows with rref_mod_p in
    blocks of ncols // 2 under the echelon so far; a prime with fewer or
    later pivots than the best seen is skipped.  The modular kernels are
    joined by CRT, lifted by rational reconstruction (which needs small
    entries in the reduced kernel basis, not in the matrix) and verified
    against every row.  Returns primitive integer vectors with a positive
    leading entry; ArithmeticError when no lift verifies.
    """
    rows = [r for r in sparse_rows if r]
    if not rows:
        return identity(ncols)
    step = max(1, ncols // 2)
    residues, modulus, ref_pivots = None, 1, None   # kernel entries mod modulus
    for p in map(machine_prime, range(10)):
        a, pivots = np.zeros((0, ncols), dtype=np.int64), []
        for i0 in range(0, len(rows), step):
            block = rows[i0:i0 + step]
            a = np.vstack([a, np.zeros((len(block), ncols), dtype=np.int64)])
            for i, r in enumerate(block, len(a) - len(block)):
                for c, v in r.items():
                    a[i, c] = v % p   # entries can exceed int64
            a, pivots = rref_mod_p(a, p)
        # free columns get the identity, pivot columns minus the RREF
        free = np.delete(np.arange(ncols), pivots)
        basis = np.zeros((len(free), ncols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = (-a[:, free] % p).T
        # The rational rank profile has the most pivots, earliest first; a
        # prime dividing some minor sees fewer or later pivots.  Skip such a
        # prime, and restart only when a better profile shows up.
        if ref_pivots is not None and pivots != ref_pivots:
            if (-len(pivots), pivots) > (-len(ref_pivots), ref_pivots):
                continue
            residues = None
        ref_pivots = pivots
        if residues is None:
            residues, modulus = basis.astype(object), p
        else:
            residues = residues + modulus * ((basis - residues) * pow(modulus, -1, p) % p)
            modulus *= p
        lifted = [[rational_reconstruction(int(x), modulus) for x in v] for v in residues]
        if any(None in v for v in lifted):
            continue
        lifted = [_primitive_int_vector(v) for v in lifted]
        if all(sum(val * v[c] for c, val in r.items()) == 0 for v in lifted for r in rows):
            return lifted
    raise ArithmeticError("integer kernel did not stabilize over 10 primes")

