import random
from fractions import Fraction
from itertools import product

import pytest

from trifocal import linalg
from trifocal.cameras import trifocal_from_cameras
from trifocal.orbits import (catalog, skew_tensor, sub_generic, trifocal_normal_form,
                             trifocal_slices_form)
from trifocal.tensor import (AXES, Tensor333, _integral, act, frank, prank, random_group_element,
                             random_orbit_point, tensor_from_json, tensor_to_json)

from helpers import (evaluate, flattening, m3_with_x_monomials, mat_vec, pencil, permute_factors,
                     random_triple, scaled)

ZERO = Tensor333(((0,) * 3,) * 3 for _ in range(3))


def slice_of(t: Tensor333, axis: str, index: int):
    """Coordinate slice: axis A fixes i (rows j, cols k), B fixes j
    (rows i, cols k), C fixes k (rows i, cols j).  index is 1-based."""
    if index not in (1, 2, 3):
        raise ValueError("slice index must be 1..3, got %r" % (index,))
    return pencil(t, axis)[index - 1]


def mat_mul(a, b):
    """Oracle: the schoolbook product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(m):
    """Oracle: the transpose of a matrix given as a list of rows."""
    return [list(col) for col in zip(*m)]


def outer(u, v, w):
    """The rank-one tensor u x v x w."""
    return Tensor333([[[x * y * z for z in w] for y in v] for x in u])


def contract(t, u, v):
    """Oracle: the bilinear contraction w_k = sum_ij T_ijk u_i v_j."""
    return [sum(t.t[i][j][k] * u[i] * v[j] for i in range(3) for j in range(3))
            for k in range(3)]


def test_slice_of_slices_form():
    t = trifocal_slices_form()
    assert slice_of(t, "C", 1) == [[0, -1, 0], [0, 0, 0], [1, 0, 0]]
    assert slice_of(t, "C", 2) == [[0, 0, 0], [0, -1, 0], [0, 1, 0]]
    assert slice_of(t, "C", 3) == [[0, 0, 0], [0, 0, 0], [0, -1, 1]]


def test_slice_zero_and_errors():
    z = ZERO
    for ax in "ABC":
        for s in (1, 2, 3):
            assert slice_of(z, ax, s) == [[0] * 3 for _ in range(3)]
    with pytest.raises(ValueError):
        slice_of(z, "A", 0)
    with pytest.raises(ValueError):
        slice_of(z, "D", 1)


def test_slice_rank_one():
    u, v, w = [1, 2, 3], [4, 5, 6], [7, 8, 9]
    t = outer(u, v, w)
    for i in (1, 2, 3):
        expected = [[u[i - 1] * v[j] * w[k] for k in range(3)] for j in range(3)]
        assert slice_of(t, "A", i) == expected


def test_flattening_rows_are_vectorized_slices():
    t = trifocal_normal_form()
    for ax in "ABC":
        fl = flattening(t, ax)
        for s in (1, 2, 3):
            sl = slice_of(t, ax, s)
            assert fl[s - 1] == [sl[r][c] for r in range(3) for c in range(3)]
    assert flattening(ZERO, "A") == [[0] * 9 for _ in range(3)]


def test_flattening_of_skew_tensor():
    t = skew_tensor()
    fl = flattening(t, "A")
    e = lambda r, c: [1 if (rr, cc) == (r, c) else 0 for rr in range(3) for cc in range(3)]
    sub = lambda x, y: [a - b for a, b in zip(x, y)]
    assert fl[0] == sub(e(1, 2), e(2, 1))
    assert fl[1] == sub(e(2, 0), e(0, 2))
    assert fl[2] == sub(e(0, 1), e(1, 0))
    assert linalg.rank(fl) == 3


def test_frank_examples():
    assert frank(trifocal_normal_form()) == (3, 3, 3)
    assert frank(trifocal_slices_form()) == (3, 3, 3)
    assert frank(ZERO) == (0, 0, 0)
    assert frank(sub_generic((2, 3, 3), seed=3)) == (2, 3, 3)


def test_pencil_of_normal_form():
    t = trifocal_normal_form()
    slices = pencil(t, "C")
    # x1*S1 + x2*S2 + x3*S3 == [[0,c1,0],[0,c2,0],[c1,0,c3]]
    expected = {(0, 1): [1, 0, 0], (1, 1): [0, 1, 0], (2, 0): [1, 0, 0], (2, 2): [0, 0, 1]}
    for r in range(3):
        for c in range(3):
            coeffs = [slices[s][r][c] for s in range(3)]
            assert coeffs == expected.get((r, c), [0, 0, 0])


def test_pencil_of_skew_tensor():
    slices = pencil(skew_tensor(), "A")
    # [[0, x3, -x2], [-x3, 0, x1], [x2, -x1, 0]]
    expected = {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0],
                (1, 0): [0, 0, -1], (1, 2): [1, 0, 0],
                (2, 0): [0, 1, 0], (2, 1): [-1, 0, 0]}
    for r in range(3):
        for c in range(3):
            assert [slices[s][r][c] for s in range(3)] == expected.get((r, c), [0, 0, 0])
    assert pencil(ZERO, "B") == [[[0] * 3 for _ in range(3)] for _ in range(3)]


def test_prank_examples():
    assert prank(trifocal_normal_form()) == (3, 3, 2)
    assert prank(trifocal_slices_form()) == (3, 3, 2)
    assert prank(skew_tensor()) == (2, 2, 2)
    assert prank(ZERO) == (0, 0, 0)


def test_pencil_rank_one():
    t = Tensor333.from_terms([(1, 1, 1, 1)])
    assert prank(t) == (1, 1, 1)


def test_act_identity_and_scaling():
    t = trifocal_normal_form()
    ident = (linalg.identity(3), linalg.identity(3), linalg.identity(3))
    assert act(ident, t) == t
    a, b, c = 2, 3, 5
    g = ([[a, 0, 0], [0, a, 0], [0, 0, a]],
         [[b, 0, 0], [0, b, 0], [0, 0, b]],
         [[c, 0, 0], [0, c, 0], [0, 0, c]])
    assert act(g, t) == scaled(t, a * b * c)


def test_act_rejects_singular():
    t = trifocal_normal_form()
    g = ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], linalg.identity(3), linalg.identity(3))
    with pytest.raises(ValueError):
        act(g, t)


def test_act_is_a_group_action():
    rng = random.Random(11)
    t = trifocal_normal_form()
    for _ in range(5):
        g = random_group_element(rng, bound=3)
        h = random_group_element(rng, bound=3)
        gh = tuple(mat_mul(gm, hm) for gm, hm in zip(g, h))
        assert act(gh, t) == act(g, act(h, t))


@pytest.mark.parametrize("nf,expected_prank", [
    (trifocal_normal_form(), (3, 3, 2)),
    (skew_tensor(), (2, 2, 2)),
])
def test_rank_invariance_under_action(nf, expected_prank):
    rng = random.Random(12)
    fr = frank(nf)
    for _ in range(100):
        g = random_group_element(rng, bound=4)
        moved = act(g, nf, check=False)
        assert prank(moved) == expected_prank
        assert frank(moved) == fr


def test_prank_c_detects_exactly_the_cubic_vanishing():
    rng = random.Random(13)
    cases = [trifocal_normal_form(), skew_tensor(), ZERO]
    for _ in range(10):
        cases.append(Tensor333([[[rng.randint(-4, 4) for _ in range(3)]
                                 for _ in range(3)] for _ in range(3)]))
    for t in cases:
        cubics = [(e, evaluate(f, t)) for e, f in m3_with_x_monomials("C")]
        assert (prank(t)[2] < 3) == (not any(v for _, v in cubics))
        # the evaluated cubic generators are the coefficients of the pencil
        # determinant: check it at a few points x
        s1, s2, s3 = pencil(t, "C")
        for x in ((1, 0, 0), (2, -1, 3), (-4, 5, 7)):
            m = [[x[0] * a + x[1] * b + x[2] * c for a, b, c in zip(r1, r2, r3)]
                 for r1, r2, r3 in zip(s1, s2, s3)]
            assert linalg.det(m) == sum(v * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
                                        for e, v in cubics)


def test_contract_bilinear_and_rank_one():
    t = trifocal_normal_form()
    assert contract(t, [0, 0, 0], [1, 2, 3]) == [0, 0, 0]
    u, v, w = [1, -2, 3], [0, 1, 4], [2, 5, -1]
    up, vp = [3, 1, 1], [-1, 2, 0]
    t1 = outer(u, v, w)
    du = sum(a * b for a, b in zip(u, up))
    dv = sum(a * b for a, b in zip(v, vp))
    assert contract(t1, up, vp) == [du * dv * x for x in w]


def test_contract_equivariance():
    rng = random.Random(14)
    t = trifocal_normal_form()
    for _ in range(10):
        g = random_group_element(rng, bound=3)
        u = [rng.randint(-5, 5) for _ in range(3)]
        v = [rng.randint(-5, 5) for _ in range(3)]
        lhs = contract(act(g, t, check=False), u, v)
        gat, gbt, gct = (transpose(m) for m in g)
        inner = contract(t, mat_vec(gat, u), mat_vec(gbt, v))
        assert lhs == mat_vec(g[2], inner)


def test_random_orbit_point_deterministic():
    nf = trifocal_normal_form()
    assert random_orbit_point(nf, 5) == random_orbit_point(nf, 5)
    assert random_orbit_point(nf, 5) != random_orbit_point(nf, 6)
    assert random_orbit_point(ZERO, 5) == ZERO
    assert prank(random_orbit_point(nf, 77)) == (3, 3, 2)


def test_permute_factors_cycles():
    t = trifocal_normal_form()
    s = permute_factors(t)
    assert permute_factors(permute_factors(s)) == t
    pr = prank(t)
    assert prank(s) == (pr[2], pr[0], pr[1])


def test_slice_reassembly_roundtrip():
    t = trifocal_slices_form()
    rebuilt_a = Tensor333([[[slice_of(t, "A", i + 1)[j][k] for k in range(3)]
                            for j in range(3)] for i in range(3)])
    rebuilt_b = Tensor333([[[slice_of(t, "B", j + 1)[i][k] for k in range(3)]
                            for j in range(3)] for i in range(3)])
    rebuilt_c = Tensor333([[[slice_of(t, "C", k + 1)[i][j] for k in range(3)]
                            for j in range(3)] for i in range(3)])
    assert rebuilt_a == rebuilt_b == rebuilt_c == t
    # and the pencil coefficient matrices are exactly the slices
    for ax in "ABC":
        assert pencil(t, ax) == [slice_of(t, ax, s) for s in (1, 2, 3)]


def test_json_roundtrip():
    t = trifocal_normal_form()
    assert tensor_from_json(tensor_to_json(t)) == t
    q = Tensor333([[[Fraction(1, 2) if (i, j, k) == (0, 0, 0) else 0
                     for k in range(3)] for j in range(3)] for i in range(3)])
    assert tensor_from_json(tensor_to_json(q)) == q
    with pytest.raises(ValueError):
        tensor_from_json("[[1,2],[3,4]]")
    with pytest.raises(ValueError):
        tensor_from_json(tensor_to_json(t).replace("1", "1.5", 1))


# --- immutability and the rank memo ------------------------------------------

def fresh_ranks(t):
    """Oracle: the pencil and flattening ranks of t, recomputed without its
    memo: the pencil ranks on a fresh copy of t, the flattening ranks by
    fraction-free elimination."""
    return prank(Tensor333(t.t)), tuple(linalg.rank(flattening(t, ax)) for ax in AXES)


def memo_cases():
    rng = random.Random(16)
    cases = [nf.tensor for nf in catalog().values()]
    cases += [trifocal_from_cameras(random_triple(rng)) for _ in range(5)]
    cases += [Tensor333([[[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
                         for _ in range(3)]) for _ in range(5)]
    cases.append(Tensor333([[[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)]
                             for _ in range(3)] for _ in range(3)]))
    cases.append(scaled(random_orbit_point(trifocal_normal_form(), 16), Fraction(2, 3)))
    return cases


def test_memoised_ranks_match_a_fresh_computation():
    for t in memo_cases():
        assert t._prank is None and t._frank is None and t._ints is None
        pr, fr = prank(t), frank(t)
        assert prank(t) is pr is t._prank and frank(t) is fr is t._frank
        assert _integral(t) is t._ints and all(type(x) is int for x in t._ints)
        assert (pr, fr) == fresh_ranks(Tensor333(t.t))


def test_entries_are_immutable():
    t = trifocal_normal_form()
    with pytest.raises(TypeError):
        t.t[0][0][0] = 1
    assert hash(t) == hash(Tensor333([[list(row) for row in plane] for plane in t.t]))


def test_derived_tensors_carry_no_memo():
    t = trifocal_normal_form()
    prank(t), frank(t)
    g = random_group_element(random.Random(17))
    for derived in (act(g, t), act(g, skew_tensor()), random_orbit_point(t, 17)):
        assert derived._prank is None and derived._frank is None and derived._ints is None
        assert (prank(derived), frank(derived)) == fresh_ranks(derived)


def _nested(shape):
    if not shape:
        return 0
    return [_nested(shape[1:]) for _ in range(shape[0])]


@pytest.mark.parametrize("shape", [(3, 3, 4), (4, 3, 3), (4, 3, 4), (3, 3)])
def test_malformed_shapes_are_rejected(shape):
    with pytest.raises(ValueError):
        Tensor333(_nested(shape))


@pytest.mark.parametrize("bad", [0.5, 2.0, True, "1", None, [0]])
def test_inexact_entries_are_rejected(bad):
    entries = _nested((3, 3, 3))
    entries[2][1][0] = bad
    with pytest.raises(TypeError):
        Tensor333(entries)


# --- the flat kernels against the nested loops they replaced -------------------

def oracle_slice_of(t, axis, index):
    """Oracle: the nested-loop coordinate slice, index 1-based."""
    s = index - 1
    if axis == "A":
        return [[t.t[s][j][k] for k in range(3)] for j in range(3)]
    if axis == "B":
        return [[t.t[i][s][k] for k in range(3)] for i in range(3)]
    return [[t.t[i][j][s] for j in range(3)] for i in range(3)]


def oracle_act(g, t):
    """Oracle: T'_pqr = sum gA[p][i] gB[q][j] gC[r][k] T_ijk, skipping zeros."""
    gA, gB, gC = g
    out = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in product(range(3), repeat=3):
        v = t.t[i][j][k]
        if v == 0:
            continue
        for p in range(3):
            a = gA[p][i]
            if a == 0:
                continue
            av = a * v
            for q in range(3):
                b = gB[q][j]
                if b == 0:
                    continue
                abv = b * av
                for r in range(3):
                    c = gC[r][k]
                    if c != 0:
                        out[p][q][r] += c * abv
    return Tensor333(out)


def kernel_cases():
    """Tensors of ints, Fractions and entries near 2^70, sparse and dense,
    and the zero tensor."""
    rng = random.Random(18)
    big = 1 << 70
    cases = [ZERO, trifocal_normal_form(), skew_tensor()]
    for _ in range(6):
        cases.append(Tensor333([[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
                                for _ in range(3)]))
        cases.append(Tensor333([[[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(3)] for _ in range(3)] for _ in range(3)]))
        cases.append(Tensor333([[[big + rng.randint(-9, 9) if rng.random() < 0.5 else -big
                                  for _ in range(3)] for _ in range(3)] for _ in range(3)]))
        cases.append(Tensor333([[[rng.choice((-1, 1)) if rng.random() < 0.15 else 0
                                  for _ in range(3)] for _ in range(3)] for _ in range(3)]))
    return cases


def group_cases():
    """Group elements: dense ints, sparse (permutation-like) ints, Fractions
    and entries near 2^70."""
    rng = random.Random(19)
    big = 1 << 70
    out = []
    for _ in range(4):
        out.append(random_group_element(rng))
        out.append(tuple([[rng.choice((-2, 1, 3)) if c == (r + s) % 3 else 0 for c in range(3)]
                          for r in range(3)] for s in range(3)))
        out.append(tuple([[Fraction(x, rng.randint(1, 7)) for x in row] for row in m]
                         for m in random_group_element(rng)))
        out.append(tuple([[big * x + rng.randint(-3, 3) for x in row] for row in m]
                         for m in random_group_element(rng)))
    return out


def test_slices_flattenings_and_pencils_match_the_nested_loops():
    for t in kernel_cases():
        for ax in AXES:
            want = [oracle_slice_of(t, ax, s) for s in (1, 2, 3)]
            assert [slice_of(t, ax, s) for s in (1, 2, 3)] == want
            assert pencil(t, ax) == want
            assert flattening(t, ax) == [[x for row in sl for x in row] for sl in want]
    with pytest.raises(ValueError):
        flattening(ZERO, "D")
    with pytest.raises(ValueError):
        pencil(ZERO, "a")


def test_act_matches_the_nested_loop():
    for g in group_cases():
        for t in kernel_cases():
            got = act(g, t)
            assert got == oracle_act(g, t)
            assert all(type(x) in (int, Fraction) for x in got.flat)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, "1", None])
def test_act_rejects_inexact_group_entries(bad):
    g = [linalg.identity(3), linalg.identity(3), linalg.identity(3)]
    g[1][2][0] = bad
    with pytest.raises(TypeError, match="group element gB entry"):
        act(g, trifocal_normal_form())
    with pytest.raises(TypeError, match="group element gB entry"):
        act(g, ZERO)


def test_unchecked_act_with_float_entries_leaves_no_float_tensor():
    for bad in (0.5, True):
        g = ([[bad, 0, 0], [0, 1, 0], [0, 0, 1]], linalg.identity(3), linalg.identity(3))
        for t in (trifocal_normal_form(), ZERO):
            with pytest.raises(TypeError, match="group element gA entry"):
                act(g, t, check=False)


@pytest.mark.parametrize("bad", [0.5, 2.0, True])
def test_scalars_and_vectors_are_checked_where_they_enter(bad):
    """from_terms checks its coefficients, since the tensor it builds skips
    the constructor's checks."""
    with pytest.raises(TypeError):
        Tensor333.from_terms([(1, 1, 1, 1), (bad, 2, 3, 1)])


def test_unchecked_tensors_equal_the_checked_constructor():
    """Each tensor that _from_flat builds (from_terms, act,
    trifocal_from_cameras) equals Tensor333 of its nested entries and of
    the nested-loop oracle, entry types included."""
    rng = random.Random(21)
    cases, g = kernel_cases(), group_cases()
    built = [(Tensor333.from_terms([(Fraction(1, 2), 1, 2, 3), (4, 1, 2, 3), (-1, 3, 3, 1)]),
              [[[Fraction(9, 2) if (i, j, k) == (0, 1, 2) else -(i == j == 2 and k == 0)
                 for k in range(3)] for j in range(3)] for i in range(3)])]
    for n, t in enumerate(cases[1:]):
        built.append((act(g[n % len(g)], t, check=False), oracle_act(g[n % len(g)], t).t))
    built.append((trifocal_from_cameras(random_triple(rng)), None))
    for t, nested in built:
        want = Tensor333(t.t if nested is None else nested)
        assert t == want and t.flat == want.flat and t.t == want.t
        assert [type(x) for x in t.flat] == [type(x) for x in want.flat]
        assert all(type(p) is tuple and all(type(r) is tuple for r in p) for p in t.t)
        assert t._prank is None and t._frank is None


def test_from_flat_equals_the_constructor():
    """_from_flat's nine slices give the nested entries, equality and hash
    of Tensor333 on the same entries, for ints and Fractions."""
    for t in kernel_cases():
        nested = [[[t.flat[9 * i + 3 * j + k] for k in range(3)] for j in range(3)]
                  for i in range(3)]
        got, want = Tensor333._from_flat(list(t.flat)), Tensor333(nested)
        assert got.t == want.t and got == want and hash(got) == hash(want)
        assert got.flat == want.flat and type(got.flat) is tuple
