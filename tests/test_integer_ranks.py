"""The integer kernels of the membership test against the implementations
they replaced, kept here as oracles: the symbolic pencil rank (every minor
expanded as a polynomial in x1, x2, x3) and the rank read off a Fraction
RREF."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from trifocal import ideal, linalg, orbits
from trifocal.cameras import (Camera, CameraTriple, DegenerateConfigurationError,
                              focal_point, trifocal_from_cameras)
from trifocal.tensor import (AXES, Tensor333, act, flattening, frank, pencil,
                             pencil_rank, perm_sign, prank, random_group_element)

from helpers import mat_vec, random_triple, scaled


# --- oracles -------------------------------------------------------------------

def mat_mul(a, b):
    """Oracle: the schoolbook product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def oracle_rank(m):
    """Rank of a matrix over Q: pivots of a Fraction RREF."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
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
        r += 1
    return r


def _poly3_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c == 0:
                out.pop(e, None)
            else:
                out[e] = c
    return out


def _entry_form(slices, r, c):
    return {tuple(1 if s == i else 0 for i in range(3)): slices[s][r][c]
            for s in range(3) if slices[s][r][c] != 0}


def oracle_pencil_det(slices):
    """Determinant of the symbolic pencil, as {(e1,e2,e3): coeff}."""
    total = {}
    for sigma in permutations(range(3)):
        term = {(0, 0, 0): perm_sign(sigma)}
        for r in range(3):
            term = _poly3_mul(term, _entry_form(slices, r, sigma[r]))
        for e, c in term.items():
            acc = total.get(e, 0) + c
            if acc == 0:
                total.pop(e, None)
            else:
                total[e] = acc
    return total


def oracle_pencil_rank(slices):
    """Rank of the pencil over Q(x1, x2, x3), every minor expanded."""
    if oracle_pencil_det(slices):
        return 3
    for rows in ((0, 1), (0, 2), (1, 2)):
        for cols in ((0, 1), (0, 2), (1, 2)):
            m = _poly3_mul(_entry_form(slices, rows[0], cols[0]),
                           _entry_form(slices, rows[1], cols[1]))
            for e, coeff in _poly3_mul(_entry_form(slices, rows[0], cols[1]),
                                       _entry_form(slices, rows[1], cols[0])).items():
                acc = m.get(e, 0) - coeff
                if acc == 0:
                    m.pop(e, None)
                else:
                    m[e] = acc
            if m:
                return 2
    return 1 if any(x != 0 for s in slices for row in s for x in row) else 0


def oracle_prank(t):
    return tuple(oracle_pencil_rank(pencil(t, ax)) for ax in AXES)


def oracle_frank(t):
    return tuple(oracle_rank(flattening(t, ax)) for ax in AXES)


def det_cofactor(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det_cofactor([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def oracle_camera_tensor(a1, a2, a3):
    """T_ijk = (-1)^k det [row i of A1; row j of A2; rows of A3 but k]."""
    return Tensor333([[[(-1) ** k * det_cofactor(
        [a1[i], a2[j]] + [r for c, r in enumerate(a3) if c != k])
        for k in range(3)] for j in range(3)] for i in range(3)])


# --- inputs --------------------------------------------------------------------

def camera_tensors(rng, n):
    return [trifocal_from_cameras(random_triple(rng)) for _ in range(n)]


def random_tensors(rng, n, bound=9):
    return [Tensor333([[[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
                       for _ in range(3)]) for _ in range(n)]


def catalog_images(rng):
    out = []
    for name, nf in sorted(orbits.catalog().items()):
        for _ in range(3):
            out.append(act(random_group_element(rng), nf.tensor, check=False))
    return out


def sparse_tensor(rng):
    density = rng.choice((0.02, 0.05, 0.1, 0.2, 0.4))
    return Tensor333([[[rng.choice((-1, 1)) if rng.random() < density else 0
                        for _ in range(3)] for _ in range(3)] for _ in range(3)])


def rational(rng, bound=6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rational_tensor(rng):
    return Tensor333([[[rational(rng) for _ in range(3)] for _ in range(3)]
                      for _ in range(3)])


# --- tests ---------------------------------------------------------------------

def test_rank_matches_fraction_rref():
    rng = random.Random(61)
    for _ in range(200):
        r, c, k = rng.randint(1, 6), rng.randint(1, 9), rng.randint(1, 6)
        # a product of r x k and k x c factors: rank at most k, often less
        left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)]
        right = [[rational(rng) if rng.random() < 0.3 else rng.randint(-5, 5)
                  for _ in range(c)] for _ in range(k)]
        m = mat_mul(left, right)
        assert linalg.rank(m) == oracle_rank(m)


def test_det_matches_cofactors_with_denominators():
    rng = random.Random(62)
    for _ in range(80):
        m = [[rational(rng) for _ in range(3)] for _ in range(3)]
        if rng.random() < 0.3:
            m[-1] = [x + y for x, y in zip(m[0], m[1])]  # singular
        assert linalg.det(m) == det_cofactor(m)


@pytest.mark.parametrize("kind", ["camera", "random", "catalog", "rational"])
def test_ranks_and_verdicts_match_the_oracles(kind, monkeypatch):
    rng = random.Random(63)
    tensors = {"camera": lambda: camera_tensors(rng, 20),
               "random": lambda: random_tensors(rng, 20),
               "catalog": lambda: catalog_images(rng),
               "rational": lambda: [rational_tensor(rng) for _ in range(10)]
               + [scaled(t, Fraction(1, 6)) for t in camera_tensors(rng, 5)]}[kind]()
    got = [(prank(t), frank(t), orbits.is_trifocal(t), orbits.classify_component(t))
           for t in tensors]
    monkeypatch.setattr(orbits, "prank", oracle_prank)
    monkeypatch.setattr(orbits, "frank", oracle_frank)
    want = [(oracle_prank(t), oracle_frank(t), orbits.is_trifocal(t),
             orbits.classify_component(t)) for t in tensors]
    assert got == want


def test_sparse_pencil_ranks_match_and_cover_every_rank():
    rng = random.Random(64)
    seen = set()
    for _ in range(300):
        t = sparse_tensor(rng)
        for ax in AXES:
            slices = pencil(t, ax)
            r = pencil_rank(slices)
            assert r == oracle_pencil_rank(slices)
            seen.add(r)
    assert seen == {0, 1, 2, 3}


def test_fraction_pencils_of_every_rank_match_the_oracle():
    """Slices A_s * B with B of rank r: the pencil (sum x_s A_s) B has rank
    r for generic A_s.  Each rank 0-3 must turn up, and so must skew
    pencils, whose every numeric matrix is singular."""
    rng = random.Random(68)
    seen = set()
    for r in (0, 1, 2, 3) * 10:
        left = [[rational(rng) for _ in range(r)] for _ in range(3)]
        b = mat_mul(left, [[rational(rng) for _ in range(3)] for _ in range(r)]) if r \
            else [[0] * 3 for _ in range(3)]
        slices = [mat_mul([[rational(rng) for _ in range(3)] for _ in range(3)], b)
                  for _ in range(3)]
        got = pencil_rank(slices)
        assert got == oracle_pencil_rank(slices)
        seen.add(got)
    for _ in range(10):
        u = [rational(rng) for _ in range(3)]
        skew = [[[0, u[s], 0], [-u[s], 0, 0], [0, 0, 0]] for s in range(3)]
        skew[0][0][2], skew[0][2][0] = Fraction(1, 3), Fraction(-1, 3)
        assert pencil_rank(skew) == oracle_pencil_rank(skew) == 2
    assert seen == {0, 1, 2, 3}


def test_rational_cameras_match_the_determinant_oracle():
    rng = random.Random(65)
    checked = 0
    while checked < 10:
        cams = [[[rational(rng) for _ in range(4)] for _ in range(3)] for _ in range(3)]
        try:
            ct = CameraTriple(*(Camera(m) for m in cams))
        except DegenerateConfigurationError:
            continue
        assert trifocal_from_cameras(ct) == oracle_camera_tensor(*cams)
        # distinct centers imply the stacked check CameraTriple leaves out
        assert oracle_rank([row for m in cams for row in m]) == 4
        for cam in ct.cameras():
            f = focal_point(cam)
            assert all(isinstance(x, int) for x in f)
            assert mat_vec(cam.m, f) == [0, 0, 0]
        checked += 1


def test_integer_cameras_match_the_determinant_oracle():
    rng = random.Random(66)
    for _ in range(20):
        ct = random_triple(rng)
        assert trifocal_from_cameras(ct) == oracle_camera_tensor(*(a.m for a in ct.cameras()))


@pytest.mark.slow
def test_membership_verdicts_agree_with_the_generators(discovery6):
    """The paper's two halves on a sample: tensors the rank test accepts
    make all 2071 generators vanish; generic tensors it rejects because
    no pencil drops rank make some cubic generator non-zero."""
    gens = [f for m in discovery6.modules() for f in m.basis]
    cubics = [f for f in gens if f.degree() == 3]
    assert len(gens) == 2071 and len(cubics) == 10
    rng = random.Random(67)
    for t in camera_tensors(rng, 3):
        assert orbits.is_trifocal(t)[0]
        assert not any(ideal.evaluate_batch(gens, t))
    for t in random_tensors(rng, 5):
        ok, reason = orbits.is_trifocal(t)
        assert not ok and "no pencil drops rank" in reason
        assert any(ideal.evaluate_batch(cubics, t))
