import random
from fractions import Fraction
from functools import reduce
from math import gcd, prod

import numpy as np
import pytest

from trifocal import linalg
from trifocal.scalars import is_prime, rational_reconstruction

from helpers import mat_vec


def det_cofactor(m):
    """Independent oracle: cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * det_cofactor(sub)
        total += term if j % 2 == 0 else -term
    return total


def fraction_rref(m):
    """Oracle: the RREF of a Fraction copy of m and its pivot columns."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def fraction_rref_kernel(m):
    """Oracle: the kernel basis read off a Fraction RREF of m, one vector per
    free column (1 there, minus the RREF column at the pivots)."""
    a, pivots = fraction_rref(m)
    cols = len(m[0]) if m else 0
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        basis.append(v)
    return basis


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def schoolbook_rank_mod(m, p):
    """Independent oracle: schoolbook elimination mod p on Python ints."""
    a = [[x % p for x in row] for row in m]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        for i in range(r + 1, len(a)):
            f = a[i][c] * inv
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def transpose(m):
    """Oracle: the transpose of a matrix given as a list of rows."""
    return [list(col) for col in zip(*m)]


def rref_rank(m, p):
    return len(linalg.rref_mod_p(np.array(m, dtype=np.int64), p)[1])


def test_rank_identity_and_zero():
    assert linalg.rank(linalg.identity(3)) == 3
    assert linalg.rank([[0] * 9 for _ in range(3)]) == 0


def test_rank_c_flattening_of_slices_form():
    # the three classical C-direction slices, stacked as flattening rows
    t1 = [[0, -1, 0], [0, 0, 0], [1, 0, 0]]
    t2 = [[0, 0, 0], [0, -1, 0], [0, 1, 0]]
    t3 = [[0, 0, 0], [0, 0, 0], [0, -1, 1]]
    rows = [[s[r][c] for r in range(3) for c in range(3)] for s in (t1, t2, t3)]
    assert linalg.rank(rows) == 3


def test_rank_equals_rank_of_transpose():
    rng = random.Random(1)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=4)
        assert linalg.rank(m) == linalg.rank(transpose(m))


def test_kernel_identity_block():
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    ker = linalg.kernel_basis(m)
    assert len(ker) == 1
    assert [x for x in ker[0]] == [0, 0, 0, 1]
    assert linalg.kernel_basis(linalg.identity(3)) == []


def test_kernel_rank_nullity_and_exactness():
    rng = random.Random(2)
    for _ in range(10):
        m = random_matrix(rng, 4, 9)
        r = linalg.rank(m)
        ker = linalg.kernel_basis(m)
        assert len(ker) == 9 - r
        for v in ker:
            assert all(x == 0 for x in mat_vec(m, v))


def test_kernel_basis_of_rational_matrices_is_primitive_exact_and_full():
    rng = random.Random(5)
    for trial in range(300):
        rows, cols, k = rng.randint(1, 6), rng.randint(1, 9), rng.randint(0, 6)
        # a product of rows x k and k x cols factors: rank at most k, often less
        left = random_matrix(rng, rows, k, bound=4)
        right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.3
                  else rng.randint(-5, 5) * rng.choice((1, 1, 2 ** 64 + 1, -3 ** 50))
                  for _ in range(cols)] for _ in range(k)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * cols
             for row in left]
        if trial % 5 == 0:   # an all-zero row and an all-zero column
            m[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            m = [[0 if c == j else x for c, x in enumerate(row)] for row in m]
        ker = linalg.kernel_basis(m)
        assert len(ker) == cols - len(fraction_rref(m)[1])
        assert len(fraction_rref(ker)[1]) == len(ker)
        for v in ker:
            assert all(type(x) is int for x in v)
            assert all(x == 0 for x in mat_vec(m, v))
            assert reduce(gcd, v) == 1 and next(x for x in v if x) > 0


def test_det_examples():
    assert linalg.det([[0, 1, 0], [-1, 0, 0], [0, 0, 1]]) == 1
    singular = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]  # row3 = row1 + row2
    assert linalg.det(singular) == 0
    assert linalg.rank(singular) == 2


def test_det_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(25):
        m = random_matrix(rng, 3, 3, bound=6)
        assert linalg.det(m) == det_cofactor(m)


def test_det_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 5), Fraction(1, 7), 0], [0, 0, 1]]
    assert linalg.det(m) == Fraction(1, 14) - Fraction(1, 15)


def test_det_nonzero_iff_full_rank():
    rng = random.Random(4)
    for _ in range(30):
        m = random_matrix(rng, 3, 3, bound=3)
        if rng.random() < 0.3:
            m[2] = [Fraction(x, 2) + y for x, y in zip(m[0], m[1])]   # singular
        assert (linalg.det(m) != 0) == (linalg.rank(m) == 3)


def test_minor_validation():
    for m in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4]], linalg.identity(4),
              [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ValueError):
            linalg.det(m)


def test_rank_mod_p_vs_rational():
    """Ranks over Q and F_101 agree on most small integer matrices; any
    mismatch must come from the modular rank dropping."""
    rng = random.Random(6)
    agree = 0
    total = 200
    for _ in range(total):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), bound=50)
        rq = linalg.rank(m)
        rp = rref_rank(m, 101)
        if rq == rp:
            agree += 1
        else:
            assert rp < rq
    assert agree >= 0.95 * total


def test_sparse_identity_rank():
    n = 1000
    assert rref_rank(np.eye(n, dtype=np.int64), 101) == n


def test_sparse_outer_product_rank():
    rng = random.Random(7)
    p = 101
    for r in (1, 2, 3):
        n = 8
        m = [[0] * n for _ in range(n)]
        for _ in range(r):
            u = [rng.randint(1, p - 1) for _ in range(n)]
            v = [rng.randint(1, p - 1) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    m[i][j] = (m[i][j] + u[i] * v[j]) % p
        assert rref_rank(m, p) == schoolbook_rank_mod(m, p) == r


def test_sparse_agrees_with_dense_up_to_50():
    rng = random.Random(8)
    p = 101
    for n in range(1, 51):
        density = rng.choice([0.05, 0.2, 0.5])
        entries = {}
        for i in range(n):
            for j in range(n):
                if rng.random() < density:
                    entries[(i, j)] = rng.randint(1, p - 1)
        dense = [[entries.get((i, j), 0) for j in range(n)] for i in range(n)]
        assert rref_rank(dense, p) == schoolbook_rank_mod(dense, p)


def assert_rref(a, pivots, m, p):
    """a, pivots is a reduced row echelon form mod p of m, of its rank."""
    assert a.shape == (len(pivots), m.shape[1]) and a.dtype == np.int64
    assert ((0 <= a) & (a < p)).all()
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not a[i, :c].any() and a[i, c] == 1
        assert a[:, c].tolist() == [int(j == i) for j in range(len(pivots))]
    assert len(pivots) == schoolbook_rank_mod(m.tolist(), p)


def rref_reduce_every_update(rows_array, p):
    """Oracle: rref_mod_p as it was before delayed reduction, every row
    update reduced mod p at once."""
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


# a prime just below 2^30: four row updates fit below 2^62 between two
# reductions, so a block of 40 rows is reduced several times
PRIME_BELOW_2_30 = (1 << 30) - 35


@pytest.mark.parametrize("p", [101, 32003, linalg.machine_prime(0), PRIME_BELOW_2_30])
def test_delayed_reduction_matches_reducing_every_update(p):
    q = PRIME_BELOW_2_30
    assert is_prime(q) and ((1 << 62) - q) // (q - 1) ** 2 == 4
    near = (1 << 62) // p   # multiples of p that bring an entry near +-2^62
    rng = random.Random(p)
    for trial in range(12):
        if trial < 2:   # 40 x 60 and 40 x 40 of full rank: 40 pivots
            rows, cols = 40, 60 - 20 * trial
            k = min(rows, cols)
        else:
            rows, cols = rng.randint(1, 40), rng.randint(1, 60)
            k = rng.randint(1, min(rows, cols))
        # rank k mod p, then shifted by multiples of p, some close to +-2^62
        low = np.array(random_matrix(rng, rows, k, bound=p - 1), dtype=object).dot(
            np.array(random_matrix(rng, k, cols, bound=p - 1), dtype=object)) % p
        m = np.array([[x + p * rng.choice((rng.randint(-near, near), near - 1, 1 - near))
                       for x in row] for row in low], dtype=np.int64)
        a, pivots = linalg.rref_mod_p(m, p)
        assert_rref(a, pivots, m, p)
        want, want_pivots = rref_reduce_every_update(m, p)
        assert pivots == want_pivots and np.array_equal(a, want)


def test_rref_mod_p_is_reduced_and_matches_echelon_add():
    rng = random.Random(9)
    for p in (2, 101, linalg.machine_prime(0)):
        for _ in range(40):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            # low-rank products as well as full random matrices
            k = rng.randint(1, 4)
            m = np.array(random_matrix(rng, rows, k), dtype=np.int64) @ np.array(
                random_matrix(rng, k, cols), dtype=np.int64)
            a, pivots = linalg.rref_mod_p(m, p)
            assert_rref(a, pivots, m, p)
            ech = linalg.Echelon(np.zeros((0, cols), dtype=np.int64), p)
            assert sum(ech.add(row) for row in m) == len(pivots)
            # seeded with 2-6 rows of rank at most one less
            n = rng.randint(2, 6)
            b = rng.randint(1, n - 1)
            base = np.array(random_matrix(rng, n, b), dtype=np.int64) @ np.array(
                random_matrix(rng, b, cols), dtype=np.int64)
            ech = linalg.Echelon(base.copy(), p)   # reduced in place
            ranks = [len(linalg.rref_mod_p(np.vstack([base, m[:i]]), p)[1]) for i in range(rows + 1)]
            assert len(ech.rows) == ranks[0]
            assert [ech.add(row) for row in m] == [y > x for x, y in zip(ranks, ranks[1:])]
    with pytest.raises(ValueError, match="too large"):
        linalg.rref_mod_p(np.eye(2, dtype=np.int64), 2 ** 31 + 11)


def rref_whole_updates(rows_array, p):
    """Oracle: rref_mod_p before it reduced in place and chunked its
    updates: a copy, a second one for % p, each pivot's hit rows updated in
    one step, and a third copy for the returned rows."""
    a = np.ascontiguousarray(rows_array, dtype=np.int64) % p
    m, n = a.shape
    limit = ((1 << 62) - p) // (p - 1) ** 2
    pivots = []
    r = k = 0
    for c in range(n):
        if r == m:
            break
        if k:
            a[:, c] %= p
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] % p if k else a[r, c:]) * inv % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit, c:] -= np.outer(col[hit], a[r, c:])
            k = (k + 1) % limit
            if not k:
                a[:, c + 1:] %= p
        pivots.append(c)
        r += 1
    return a[:r] % p, pivots


@pytest.mark.parametrize("p", [2, 101, 32003, linalg.MACHINE_PRIME_BOUND])
@pytest.mark.parametrize("entries", [1, 40])
def test_chunked_updates_match_whole_updates(monkeypatch, p, entries):
    """Updates in chunks of one row, or of 40 // (columns left) rows, give
    the rows and pivots of the whole updates, on wide, tall and
    rank-deficient matrices whose entries reach +-2^62, as a list, an array
    and a transposed view; the input stays unchanged and the rows are
    C-contiguous."""
    monkeypatch.setattr(linalg, "_UPDATE_ENTRIES", entries)
    rng = random.Random(p + entries)
    near = (1 << 62) // p
    for rows, cols, k in ((12, 40, 12), (40, 12, 12), (30, 30, 7), (25, 60, 3), (9, 9, 0)):
        low = np.array(random_matrix(rng, rows, k, bound=p - 1), dtype=object).reshape(rows, k).dot(
            np.array(random_matrix(rng, k, cols, bound=p - 1), dtype=object).reshape(k, cols)) % p
        m = np.array([[x + p * rng.choice((rng.randint(-near, near), near - 1, 1 - near))
                       for x in row] for row in low], dtype=np.int64)
        for given in (m.tolist(), m, m.T):
            before = np.array(given)
            a, pivots = linalg.rref_mod_p(given, p)
            want, want_pivots = rref_whole_updates(given, p)
            assert pivots == want_pivots and np.array_equal(a, want) and a.flags.c_contiguous
            assert_rref(a, pivots, np.array(given), p)
            assert np.array_equal(np.array(given), before)
            assert len(pivots) <= k


@pytest.mark.parametrize("p", [2, 101, PRIME_BELOW_2_30, linalg.MACHINE_PRIME_BOUND])
@pytest.mark.parametrize("entries", [1, 40])
def test_lu_mod_p_factors_the_permuted_matrix(monkeypatch, p, entries):
    """lu_mod_p's L and the U it leaves in place give P a = L U mod p, and
    _eliminate's pivots are rref_mod_p's and the every-update oracle's, on
    wide, tall, rank-deficient, all-zero, 0-row and 0-column matrices whose
    entries reach +-2^62, updated in chunks of one row or of 40 entries."""
    monkeypatch.setattr(linalg, "_UPDATE_ENTRIES", entries)
    rng = random.Random(3 * p + entries)
    near = (1 << 62) // p
    for rows, cols, k in ((12, 40, 12), (40, 12, 12), (30, 30, 7), (25, 60, 3), (9, 9, 0),
                          (0, 5, 0), (5, 0, 0)):
        low = np.array(random_matrix(rng, rows, k, bound=p - 1), dtype=object).reshape(rows, k).dot(
            np.array(random_matrix(rng, k, cols, bound=p - 1), dtype=object).reshape(k, cols)) % p
        m = np.array([[x + p * rng.choice((rng.randint(-near, near), near - 1, 1 - near))
                       for x in row] for row in low], dtype=np.int64).reshape(rows, cols)
        a = m.copy()
        perm, (at, val, starts) = linalg.lu_mod_p(a, p)
        pivots = rref_reduce_every_update(m, p)[1]
        assert linalg._eliminate(m.copy(), p)[1] == linalg.rref_mod_p(m, p)[1] == pivots
        assert sorted(perm) == list(range(rows)) and len(starts) == len(pivots) + 1
        el, u = np.eye(rows, dtype=object), np.zeros((rows, cols), dtype=object)
        for j, c in enumerate(pivots):
            below = at[starts[j]:starts[j + 1]].astype(np.intp)
            assert (below > j).all()
            el[below, j] = val[starts[j]:starts[j + 1]].astype(object)
            u[j, c:] = a[j, c:] % p
            assert u[j, c]
        assert np.array_equal(el.dot(u) % p, m[perm].astype(object) % p)


def test_echelon_reduces_its_array_in_place(traced_peak_mb):
    """Echelon's base rows are views of the C-ordered array it is given,
    reduced in place: a 600 x 2000 array of rank 20 (9.2 MB) traces only the
    update temporaries, no second copy."""
    rng = np.random.default_rng(21)
    p = 32003
    m = rng.integers(0, p, (600, 20)) @ rng.integers(0, p, (20, 2000)) % p
    peak, ech = traced_peak_mb(linalg.Echelon, m, p)
    assert len(ech.rows) == 20 and all(np.shares_memory(row, m) for row in ech.rows)
    assert peak < m.nbytes / 2 ** 20, peak


def test_rref_peak_is_its_working_copy(traced_peak_mb):
    """A 700 x 2424 matrix of rank 20, each pivot hitting every row: the
    peak is one int64 copy and at most 8 MB of update temporaries."""
    rng = np.random.default_rng(20)
    p = 32003
    m = rng.integers(0, p, (700, 20)) @ rng.integers(0, p, (20, 2424)) % p
    peak, (a, pivots) = traced_peak_mb(linalg.rref_mod_p, m, p)
    assert len(pivots) == 20 and a.shape == (20, 2424)
    assert peak <= m.nbytes / 2 ** 20 + 8


def test_kernel_basis_int_certified():
    rows = [{0: 1, 1: -2}, {1: 1, 2: -3}]
    (v,) = linalg.kernel_basis_int(rows, 3)
    assert v == [6, 3, 1]
    for r in rows:
        assert sum(c * v[i] for i, c in r.items()) == 0


def test_kernel_basis_int_skips_primes_where_rank_drops():
    # every second machine prime divides the second row, so the rank drops
    # from 2 to 1 there; the kernel entries need three good primes to lift
    q = prod(map(linalg.machine_prime, range(0, 10, 2)))
    a, b = 3 ** 25 + 4, 5 ** 17 - 2
    rows = [{0: 1, 2: a}, {1: q, 2: b * q}]
    assert linalg.kernel_basis_int(rows, 3) == [[a, b, -1]]


# 10 columns: blocks of 5 rows, so 3 rows fit one block, 10 fill two, 11
# spill into a third, and 300 rows are 60 blocks
@pytest.mark.parametrize("nrows", [1, 3, 10, 11, 300])
@pytest.mark.parametrize("huge", [False, True])
def test_kernel_basis_int_streams_every_row_in_blocks(monkeypatch, nrows, huge):
    rng = random.Random(10 * nrows + huge)
    ncols, rank = 10, min(nrows, 6)
    base = random_matrix(rng, rank, ncols)
    rows = []
    while len(rows) < nrows:
        coef = [rng.randint(-3, 3) for _ in base]
        row = [sum(c * b[j] for c, b in zip(coef, base)) for j in range(ncols)]
        if any(row):
            # a factor beyond int64 scales a row and leaves the kernel alone
            f = rng.randint(2 ** 64, 2 ** 80) if huge else 1
            rows.append({j: f * x for j, x in enumerate(row) if x})
    calls = []
    rref = linalg.rref_mod_p
    monkeypatch.setattr(linalg, "rref_mod_p", lambda a, p: calls.append(p) or rref(a, p))
    got = linalg.kernel_basis_int(rows, ncols)
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    assert got == [linalg._primitive_int_vector(v) for v in fraction_rref_kernel(dense)]
    assert got and all(calls.count(p) == -(-nrows // 5) for p in calls)


def test_rational_reconstruction_roundtrip():
    p = 1073741789
    for f in (Fraction(0), Fraction(3, 7), Fraction(-22, 5), Fraction(104)):
        a = (f.numerator * pow(f.denominator, -1, p)) % p
        assert rational_reconstruction(a, p) == f


def test_rational_reconstruction_beyond_float_range():
    m = 2 ** 1100 + 1
    for f in (Fraction(3, 7), Fraction(-22, 5), Fraction(2 ** 500, 3 ** 300)):
        a = (f.numerator * pow(f.denominator, -1, m)) % m
        assert rational_reconstruction(a, m) == f


def test_rational_reconstruction_perfect_square_bound():
    # m // 2 = k^2 - 1, so the bound is k - 1; a float sqrt rounds it to k
    k = 2 ** 40
    m = 2 * k * k - 1
    assert rational_reconstruction(k - 1, m) == k - 1
    assert rational_reconstruction(m - (k - 1), m) == -(k - 1)
    assert rational_reconstruction(k, m) is None
