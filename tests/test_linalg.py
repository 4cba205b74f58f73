import random
from fractions import Fraction
from itertools import combinations

import pytest

from trifocal import linalg
from trifocal.linalg import SparseMatrix
from trifocal.scalars import Fp, rational_reconstruction


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


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


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
        assert linalg.rank(m) == linalg.rank(linalg.transpose(m))


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
            assert all(x == 0 for x in linalg.mat_vec(m, v))


def test_det_examples():
    assert linalg.det([[0, 1], [-1, 0]]) == 1
    singular = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]  # row3 = row1 + row2
    assert linalg.det(singular) == 0
    assert linalg.rank(singular) == 2


def test_det_matches_cofactor_oracle():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            m = random_matrix(rng, n, n, bound=6)
            assert linalg.det(m) == det_cofactor(m)


def test_det_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert linalg.det(m) == Fraction(1, 14) - Fraction(1, 15)


def test_det_nonzero_iff_full_rank():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=3)
        assert (linalg.det(m) != 0) == (linalg.rank(m) == n)


def test_minor_of_rank3_4x9_vanishes():
    rng = random.Random(5)
    left = random_matrix(rng, 4, 3)
    right = random_matrix(rng, 3, 9)
    m = linalg.mat_mul(left, right)  # rank <= 3
    assert linalg.rank(m) == 3
    for cols in list(combinations(range(9), 4))[:40]:
        assert linalg.minor(m, range(4), cols) == 0


def test_minor_validation():
    m = linalg.identity(3)
    with pytest.raises(ValueError):
        linalg.minor(m, [0, 1], [0])
    with pytest.raises(ValueError):
        linalg.minor(m, [0, 5], [0, 1])
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


def test_rank_mod_p_vs_rational():
    """Ranks over Q and F_101 agree on most small integer matrices; any
    mismatch must come from the modular rank dropping."""
    rng = random.Random(6)
    agree = 0
    total = 200
    for _ in range(total):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), bound=50)
        rq = linalg.rank(m)
        sp = SparseMatrix(len(m), len(m[0]),
                          {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v})
        rp = sp.rank(p=101)
        if rq == rp:
            agree += 1
        else:
            assert rp < rq
    assert agree >= 0.95 * total


def test_sparse_identity_rank():
    n = 1000
    sp = SparseMatrix(n, n, {(i, i): 1 for i in range(n)})
    assert sp.rank(p=101) == n


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
        dense_rank = linalg.rank([[Fp(x, p) for x in row] for row in m])
        sp = SparseMatrix(n, n, {(i, j): v for i, row in enumerate(m)
                                 for j, v in enumerate(row) if v})
        assert sp.rank(p=p) == dense_rank == r


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
        sp = SparseMatrix(n, n, dict(entries))
        dense = [[Fp(entries.get((i, j), 0), p) for j in range(n)] for i in range(n)]
        assert sp.rank(p=p) == linalg.rank(dense)


def test_sparse_rational_rejected_when_huge():
    sp = SparseMatrix(1000, 1000, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match="prime field"):
        sp.rank()


def test_sparse_rational_ok_when_small():
    sp = SparseMatrix(3, 3, {(0, 0): Fraction(1, 2), (1, 1): 1})
    assert sp.rank() == 2


def test_solve():
    m = [[1, 2], [3, 5]]
    x = linalg.solve(m, [5, 13])
    assert linalg.mat_vec(m, x) == [5, 13]
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_kernel_basis_int_certified():
    rows = [{0: 1, 1: -2}, {1: 1, 2: -3}]
    (v,) = linalg.kernel_basis_int(rows, 3)
    assert v == [6, 3, 1]
    for r in rows:
        assert sum(c * v[i] for i, c in r.items()) == 0


def test_kernel_basis_int_skips_primes_where_rank_drops():
    # every second work prime divides the second row, so the rank drops
    # from 2 to 1 there; the kernel entries need three good primes to lift
    P = linalg._WORK_PRIMES
    q = P[0] * P[2] * P[4] * P[6] * P[8]
    a, b = 3 ** 25 + 4, 5 ** 17 - 2
    rows = [{0: 1, 2: a}, {1: q, 2: b * q}]
    assert linalg.kernel_basis_int(rows, 3) == [[a, b, -1]]


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


def test_sparse_matrix_invariants():
    sp = SparseMatrix(3, 3)
    sp[0, 0] = 5
    sp[0, 0] = 0  # storing zero deletes the entry
    assert sp.nnz == 0
    sp[1, 2] = 7
    sp[1, 2] = 9  # keys stay unique
    assert sp.nnz == 1 and sp[1, 2] == 9
    with pytest.raises(IndexError):
        sp[3, 0] = 1
    with pytest.raises(ValueError):
        sp.rank(p=100)
