"""The integer kernels of the membership test against the implementations
they replaced, kept here as oracles: the symbolic pencil rank (every minor
expanded as a polynomial in x1, x2, x3) and the rank read off a Fraction
RREF.  Large entries, large denominators and pencils built to vanish at a
smaller substitution test the bound behind the one-matrix pencil rank;
tensors whose certifying determinants are zero test the exact ranks that
those determinants skip when nonzero."""

import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from trifocal import ideal, linalg, orbits
from trifocal.cameras import (Camera, CameraTriple, DegenerateConfigurationError,
                              trifocal_from_cameras)
from trifocal.cli import main
from trifocal.tensor import (AXES, Tensor333, act, frank, perm_sign, prank,
                             random_group_element, tensor_to_json)

from helpers import (flattening, focal_point, from_pencil_a, mat_vec, pencil, permute_factors,
                     random_triple, scaled)


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


def rank_r(rng, r):
    """A 3x3 product of 3 x r and r x 3 rational factors: rank r for generic factors."""
    if not r:
        return [[0] * 3 for _ in range(3)]
    return mat_mul([[rational(rng) for _ in range(r)] for _ in range(3)],
                   [[rational(rng) for _ in range(3)] for _ in range(r)])


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
        assert prank(t) == oracle_prank(t)
        seen.update(prank(t))
    assert seen == {0, 1, 2, 3}


def test_fraction_pencils_of_every_rank_match_the_oracle():
    """Slices A_s * B with B of rank r: the pencil (sum x_s A_s) B has rank
    r for generic A_s.  Each rank 0-3 must turn up, and so must skew
    pencils, whose every numeric matrix is singular."""
    rng = random.Random(68)
    seen = set()
    for r in (0, 1, 2, 3) * 10:
        b = rank_r(rng, r)
        slices = [mat_mul([[rational(rng) for _ in range(3)] for _ in range(3)], b)
                  for _ in range(3)]
        got = prank(Tensor333(slices))[0]   # the A-slices of Tensor333(slices)
        assert got == oracle_pencil_rank(slices)
        seen.add(got)
    for _ in range(10):
        u = [rational(rng) for _ in range(3)]
        skew = [[[0, u[s], 0], [-u[s], 0, 0], [0, 0, 0]] for s in range(3)]
        skew[0][0][2], skew[0][2][0] = Fraction(1, 3), Fraction(-1, 3)
        assert prank(Tensor333(skew))[0] == oracle_pencil_rank(skew) == 2
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
    cubics = [t for t in gens if t[0].shape[1] == 3]
    assert len(gens) == 2071 and len(cubics) == 10
    rng = random.Random(67)
    for t in camera_tensors(rng, 3):
        assert orbits.is_trifocal(t)[0]
        assert not any(ideal.evaluate_batch(gens, t))
    for t in random_tensors(rng, 5):
        ok, reason = orbits.is_trifocal(t)
        assert not ok and "no pencil drops rank" in reason
        assert any(ideal.evaluate_batch(cubics, t))


# --- sizes that stress the substitution bound n = 36 e^3 + 1 -------------------

def rank_one_sum(r, draw):
    """The sum of r tensors a (x) b (x) c, the entries of a, b, c from draw():
    flattening and pencil ranks r for generic factors."""
    flat = [0] * 27
    for _ in range(r):
        for p, (x, y, z) in enumerate(product(*([draw() for _ in range(3)] for _ in range(3)))):
            flat[p] += x * y * z
    return Tensor333._from_flat(flat)


def cancelling_pencils(e):
    """Tensors of largest entry e whose A-pencil has a nonzero determinant
    that vanishes at a substitution (1, m, m^4) with m < 36 e^3 + 1, or at
    (1, m, m^k) with k < 4, and at (1, 1, 1), so that pencil_rank must
    reach the substitution to rank it; each also on the B and C axes.

    x1 S + x2 S2 with S2 = -E_33 has determinant x1^2 (det(S) x1 - x2) when
    the top left 2x2 minor of S is 1; with the first row's x1 turned into
    x1 - x3 (S3 = minus the first row of S) it is
    x1 (x1 - x3) (det(S) x1 - x2), so it vanishes at m = det(S): e + 1,
    2e + 1 and g e^2 + 1 for g = 1, 4 and e below.  The determinants
    x2^3 - x1^2 x3 and x1 x2^2 - x1^2 x3 of the last two vanish at
    (1, m, m^3) and (1, m, m^2)."""
    mats = [[[1, 0, 1], [0, 1, 0], [-1, 0, e]], [[1, 0, 1], [0, 1, 1], [-e, -1, e]]]
    mats += [[[e, e - 1, 0], [1, 1, g], [0, -e, 1]] for g in sorted({1, 4, e}) if g <= e]
    forms = [[[(x, -((j, k) == (2, 2)), -x if j == 0 else 0) for k, x in enumerate(row)]
              for j, row in enumerate(m)] for m in mats]
    forms.append([[(0, 1, 0), (-1, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 1, 0), (1, 0, 0)],
                  [(0, 0, 1), (0, 0, 0), (0, 1, 0)]])
    forms.append([[(1, 0, 0), (0, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 1, 0), (1, 0, 0)],
                  [(0, 0, 0), (0, 0, 1), (0, 1, 0)]])
    out = []
    for t in map(from_pencil_a, forms):
        out += [t, permute_factors(t), permute_factors(permute_factors(t))]
    return out


def huge_tensors(rng):
    e = 10 ** 40
    out = [rank_one_sum(r, lambda: rng.randint(-10 ** 13, 10 ** 13))
           for r in (0, 1, 2, 3) for _ in range(3)]
    out += [Tensor333._from_flat([rng.choice((-e, e)) for _ in range(27)]) for _ in range(5)]
    out += [Tensor333._from_flat([rng.randint(-e, e) for _ in range(27)]) for _ in range(5)]
    return out + cancelling_pencils(e) + cancelling_pencils(2) + cancelling_pencils(7)


def coprime_denominators(rng, count, top=10 ** 9):
    out = []
    while len(out) < count:
        d = rng.randint(top // 2, top)
        if all(gcd(d, x) == 1 for x in out):
            out.append(d)
    return out


def rational_tensors(rng):
    dens = coprime_denominators(rng, 27)
    out = [rank_one_sum(r, lambda: Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.choice(dens)))
           for r in (0, 1, 2, 3) for _ in range(3)]
    out.append(Tensor333._from_flat([Fraction(rng.randint(1, 10 ** 9), d) for d in dens]))
    return out + [scaled(t, Fraction(1, d)) for t, d in zip(camera_tensors(rng, 3), dens)]


def scaled_pencils(rng):
    """Slices A_s B with B of rank r, times 10^30: A-pencil rank r."""
    out = []
    for r in (0, 1, 2, 3) * 3:
        b = rank_r(rng, r)
        t = Tensor333([mat_mul([[rational(rng) for _ in range(3)] for _ in range(3)], b)
                       for _ in range(3)])
        out.append(scaled(t, 10 ** 30))
    return out


def one_entry_tensors(rng):
    zero = Tensor333._from_flat([0] * 27)
    return [zero] + [Tensor333._from_flat([0] * p + [x] + [0] * (26 - p))
                     for p in range(27) for x in (rng.choice((-1, 1)) * 10 ** 40,
                                                   Fraction(1, 10 ** 9 + 7))]


LARGE = {"huge": huge_tensors, "rational": rational_tensors, "pencils": scaled_pencils,
         "one-entry": one_entry_tensors}


@pytest.mark.parametrize("family", sorted(LARGE))
def test_ranks_match_the_oracles_at_large_sizes(family):
    for t in LARGE[family](random.Random(69)):
        assert (prank(t), frank(t)) == (oracle_prank(t), oracle_frank(t)), t


def test_the_large_families_give_every_rank_for_both_invariants():
    pranks, franks = set(), set()
    for make in LARGE.values():
        for t in make(random.Random(69)):
            pranks.update(prank(t))
            franks.update(frank(t))
    assert pranks == franks == {0, 1, 2, 3}


# --- zero certifying determinants: the exact ranks behind them ----------------

def summed_pencil(t, axis):
    """S1 + S2 + S3 of the axis pencil, whose nonzero determinant certifies pencil rank 3."""
    return [[sum(x) for x in zip(*rows)] for rows in zip(*pencil(t, axis))]


def chosen_minor(t, axis):
    """Columns 0, 4, 8 of the axis flattening, whose nonzero determinant
    certifies flattening rank 3."""
    return [row[0::4] for row in flattening(t, axis)]


def sum_zero_pencils(rng):
    """A-slices S1, S2 and S3 = -(S1 + S2): S1 + S2 + S3 = 0, and the pencil
    (x1 - x3) S1 + (x2 - x3) S2 has the rank of y1 S1 + y2 S2, which is 3
    for S1 = I, S2 = diag(1, 2, 3) and r for S_s = A_s B with B of rank r."""
    pairs = [([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]])]
    for r in (0, 1, 2, 3) * 3:
        b = rank_r(rng, r)
        pairs.append([mat_mul([[rational(rng) for _ in range(3)] for _ in range(3)], b)
                      for _ in range(2)])
    return [Tensor333([s1, s2, [[-x - y for x, y in zip(p, q)] for p, q in zip(s1, s2)]])
            for s1, s2 in pairs]


def dependent_columns(rng):
    """Tensors whose A-flattening L R has rank r, column 8 of R the sum of
    columns 0 and 4, so that the chosen minor is 0."""
    out = []
    for r in (0, 1, 2, 3) * 3:
        rows = [[rational(rng) for _ in range(8)] for _ in range(r)]
        rows = [row + [row[0] + row[4]] for row in rows]
        f = mat_mul([[rng.randint(-5, 5) for _ in range(r)] for _ in range(3)], rows) if r \
            else [[0] * 9 for _ in range(3)]
        out.append(Tensor333._from_flat([x for row in f for x in row]))
    return out


def test_zero_certifying_determinants_fall_back_to_the_oracle_ranks():
    """On axes whose certifying determinant is 0 the exact rank still
    matches the oracles, and every rank 0-3 of both invariants comes out of
    it; each cancelling pencil has such an axis, so it reaches the
    substitution."""
    rng = random.Random(71)
    pranks, franks = set(), set()
    for t in sum_zero_pencils(rng) + dependent_columns(rng):
        assert (prank(t), frank(t)) == (oracle_prank(t), oracle_frank(t)), t
        for ax, p, f in zip(AXES, prank(t), frank(t)):
            if linalg.det(summed_pencil(t, ax)) == 0:
                pranks.add(p)
            if linalg.det(chosen_minor(t, ax)) == 0:
                franks.add(f)
    assert pranks == franks == {0, 1, 2, 3}
    for e in (2, 7, 10 ** 40):
        for t in cancelling_pencils(e):
            assert any(linalg.det(summed_pencil(t, ax)) == 0 for ax in AXES), t


def large_check_input(case):
    """A trifocal tensor with entries of about 4000 digits, below the
    interpreter's int-string limit, or one whose 27 entries have 27
    distinct denominators of about 90 digits."""
    rng = random.Random(70)
    if case == "4000 digits":
        big = 10 ** 1330
        g = tuple([[rng.randint(-big, big) for _ in range(3)] for _ in range(3)]
                  for _ in range(3))
        t = act(g, orbits.trifocal_normal_form())
        assert 3900 < max(len(str(abs(x))) for x in t.flat) < sys.get_int_max_str_digits()
        return t
    d = [Fraction(1, rng.randint(10 ** 29, 10 ** 30)) for _ in range(9)]
    g = tuple([[d[3 * f], 0, 0], [0, d[3 * f + 1], 0], [0, 0, d[3 * f + 2]]] for f in range(3))
    t = act(g, act(random_group_element(rng), camera_tensors(rng, 1)[0]))
    assert len({x.denominator for x in t.flat}) == 27
    return t


@pytest.mark.parametrize("case", ["4000 digits", "27 denominators"])
@pytest.mark.parametrize("bump", [0, 1])
def test_check_on_large_entries_gives_the_oracle_verdict(case, bump, tmp_path, capsys,
                                                         monkeypatch):
    """`trifocal check` on the JSON of a large trifocal tensor, and of the
    same tensor with 1 added to one entry, prints the verdict and reason of
    the oracle ranks and exits with the matching code."""
    t = large_check_input(case)
    if bump:
        t = Tensor333._from_flat((t.flat[0] + 1,) + t.flat[1:])
    path = tmp_path / "t.json"
    path.write_text(tensor_to_json(t))
    code = main(["check", str(path)])
    printed = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(orbits, "prank", oracle_prank)
    monkeypatch.setattr(orbits, "frank", oracle_frank)
    verdict, reason = orbits.is_trifocal(t)
    assert verdict is not bool(bump)
    assert printed == ["trifocal: %s" % verdict, "reason: %s" % reason]
    assert code == (0 if verdict else 1)
