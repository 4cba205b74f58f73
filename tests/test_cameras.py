import json
import random
from fractions import Fraction
from math import gcd

import pytest

from trifocal import linalg
from trifocal.cameras import (Camera, CameraTriple, DegenerateConfigurationError,
                              InvalidCameraError, trifocal_from_cameras, triple_from_json)
from trifocal.tensor import act, frank, prank, random_group_element

from helpers import focal_point, mat_vec, random_camera, random_triple, scaled, trifocal_laplace
from test_tensor import contract


def mat_mul(a, b):
    """Oracle: the schoolbook product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class DegenerateTransferError(ValueError):
    pass


def cross(x, y):
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]


def transfer_geometric(ct, l1, l2):
    """The oracle that pins the sign convention of trifocal_from_cameras:
    the line of view 3 induced by a line pair of views 1 and 2, by
    synthetic projective geometry.  The back-projected planes Ai^T li meet
    in a space line, which camera 3 images.  DegenerateTransferError when
    the planes are dependent or the line passes through the third focal
    point."""
    a1, a2, a3 = ct.cameras()
    planes = [[sum(a.m[r][c] * line[r] for r in range(3)) for c in range(4)]
              for a, line in ((a1, l1), (a2, l2))]
    ker = linalg.kernel_basis(planes)
    if len(ker) != 2:
        raise DegenerateTransferError("back-projected planes are dependent")
    l3 = cross(*(mat_vec(a3.m, x) for x in ker))
    if not any(l3):
        raise DegenerateTransferError("transferred line is undefined (through the focal point)")
    return l3


def proportional(u, v):
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return False
    n = len(u)
    return all(u[i] * v[j] - u[j] * v[i] == 0 for i in range(n) for j in range(i + 1, n))


def test_focal_point_identity_block():
    cam = Camera([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    f = focal_point(cam)
    assert proportional(f, [0, 0, 0, 1])


def test_focal_point_column_permutation():
    base = Camera([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    perm = [2, 0, 3, 1]  # new column c comes from old column perm[c]
    cam = Camera([[base.m[r][perm[c]] for c in range(4)] for r in range(3)])
    f0 = focal_point(base)
    f1 = focal_point(cam)
    assert [f1[c] for c in range(4)] == [f0[perm[c]] for c in range(4)]


def test_focal_point_exactness_and_rank_check():
    rng = random.Random(21)
    for _ in range(10):
        cam = random_camera(rng)
        f = focal_point(cam)
        assert any(x != 0 for x in f)
        assert mat_vec(cam.m, f) == [0, 0, 0]
    with pytest.raises(InvalidCameraError):
        focal_point(Camera([[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]]))


def test_identical_cameras_rejected():
    rng = random.Random(22)
    a1 = random_camera(rng)
    a2 = random_camera(rng)
    with pytest.raises(DegenerateConfigurationError):
        CameraTriple(a1, a2, Camera([list(r) for r in a2.m]))


def test_camera_tensors_have_trifocal_ranks():
    rng = random.Random(23)
    for _ in range(15):
        t = trifocal_from_cameras(random_triple(rng))
        assert prank(t) == (3, 3, 2)
        assert frank(t) == (3, 3, 3)


def test_scaling_one_camera_scales_the_tensor():
    rng = random.Random(24)
    ct = random_triple(rng)
    t = trifocal_from_cameras(ct)
    tripled = CameraTriple(Camera([[3 * x for x in row] for row in ct.a1.m]), ct.a2, ct.a3)
    assert trifocal_from_cameras(tripled) == scaled(t, 3)


def test_camera_side_action_matches_tensor_action():
    rng = random.Random(25)
    ct = random_triple(rng)
    t = trifocal_from_cameras(ct)
    g = random_group_element(rng, bound=3)
    moved = CameraTriple(Camera(mat_mul(g[0], ct.a1.m)),
                         Camera(mat_mul(g[1], ct.a2.m)),
                         ct.a3)
    assert trifocal_from_cameras(moved) == act((g[0], g[1], linalg.identity(3)), t)


def det_cofactor(m):
    """Oracle: cofactor expansion along the first row, any square size."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det_cofactor([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def test_world_coordinate_change_scales_tensor():
    rng = random.Random(26)
    ct = random_triple(rng)
    t = trifocal_from_cameras(ct)
    while True:
        h = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        dh = det_cofactor(h)
        if dh != 0:
            break
    moved = CameraTriple(*(Camera(mat_mul(a.m, h)) for a in ct.cameras()))
    assert trifocal_from_cameras(moved) == scaled(t, dh)


def test_transfer_is_proportional_to_contraction():
    """The convention-pinning oracle: geometric transfer vs tensor
    contraction, exact proportionality on 50 random line pairs."""
    rng = random.Random(27)
    checked = 0
    while checked < 50:
        ct = random_triple(rng)
        t = trifocal_from_cameras(ct)
        for _ in range(5):
            l1 = [rng.randint(-5, 5) for _ in range(3)]
            l2 = [rng.randint(-5, 5) for _ in range(3)]
            try:
                l3 = transfer_geometric(ct, l1, l2)
            except DegenerateTransferError:
                continue
            w = contract(t, l1, l2)
            assert proportional(w, l3)
            checked += 1


def test_transfer_from_world_line():
    rng = random.Random(28)
    ct = random_triple(rng)
    a1, a2, a3 = ct.cameras()
    # pick a world line through two points, image it, transfer it back
    for _ in range(20):
        p = [rng.randint(-4, 4) for _ in range(4)]
        q = [rng.randint(-4, 4) for _ in range(4)]
        x1, y1 = mat_vec(a1.m, p), mat_vec(a1.m, q)
        x2, y2 = mat_vec(a2.m, p), mat_vec(a2.m, q)
        l1, l2 = cross(x1, y1), cross(x2, y2)
        if all(v == 0 for v in l1) or all(v == 0 for v in l2):
            continue
        try:
            l3 = transfer_geometric(ct, l1, l2)
        except DegenerateTransferError:
            continue
        x3, y3 = mat_vec(a3.m, p), mat_vec(a3.m, q)
        assert proportional(l3, cross(x3, y3))
        return
    pytest.fail("no usable world line found")


def test_transfer_degenerate_plane_pair():
    rng = random.Random(29)
    for _ in range(40):
        ct = random_triple(rng, bound=4)
        a1, a2 = ct.a1, ct.a2
        # find a plane in the intersection of the two back-projection images
        stacked = [[a1.m[r][c] for r in range(3)] + [-a2.m[r][c] for r in range(3)]
                   for c in range(4)]
        ker = linalg.kernel_basis(stacked)
        if not ker:
            continue
        v = ker[0]
        l1, l2 = list(v[:3]), list(v[3:])
        if all(x == 0 for x in l1) or all(x == 0 for x in l2):
            continue
        with pytest.raises(DegenerateTransferError):
            transfer_geometric(ct, l1, l2)
        return
    pytest.fail("no degenerate pair constructed")


def test_scaling_lines_keeps_output_line():
    # the output is a projective line: scaling an input rescales it
    rng = random.Random(30)
    ct = random_triple(rng)
    l1, l2 = [1, 2, -1], [3, 0, 1]
    out = transfer_geometric(ct, l1, l2)
    assert proportional(out, transfer_geometric(ct, [5 * x for x in l1], l2))
    assert proportional(out, transfer_geometric(ct, l1, [-7 * x for x in l2]))


def test_triple_from_json():
    rng = random.Random(31)
    ct = random_triple(rng)
    blob = json.dumps({"A1": ct.a1.m, "A2": ct.a2.m, "A3": ct.a3.m})
    parsed = triple_from_json(blob)
    assert trifocal_from_cameras(parsed) == trifocal_from_cameras(ct)
    with pytest.raises(ValueError):
        triple_from_json(json.dumps({"A1": ct.a1.m}))
    with pytest.raises(ValueError):
        triple_from_json(json.dumps({"A1": [[1, 2], [3, 4]], "A2": ct.a2.m, "A3": ct.a3.m}))


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1"])
def test_inexact_camera_entries_are_rejected(bad):
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    m[2][3] = bad
    with pytest.raises(TypeError, match="camera entry"):
        Camera(m)


def oracle_focal_point(m):
    """Oracle: the signed maximal minors by cofactor determinants."""
    return [(-1) ** j * det_cofactor([r[:j] + r[j + 1:] for r in m]) for j in range(4)]


def test_focal_point_matches_the_cofactor_oracle():
    rng = random.Random(32)
    for _ in range(40):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.5
              else rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        want = oracle_focal_point(m)
        if not any(want):
            continue
        f = focal_point(Camera(m))
        assert all(type(x) is int for x in f) and gcd(*f) == 1 and proportional(f, want)
        assert next(x for x in f if x) > 0


def test_fraction_cameras_give_their_tensor():
    rng = random.Random(33)
    ct = random_triple(rng)
    halves = CameraTriple(*(Camera([[Fraction(x, 2) for x in row] for row in a.m])
                            for a in ct.cameras()))
    # one row each of A1 and A2 and two of A3 in every 4x4 minor
    assert trifocal_from_cameras(halves) == scaled(trifocal_from_cameras(ct), Fraction(1, 16))


def fraction_camera(rng):
    while True:
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)] for _ in range(3)]
        if linalg.rank(m) == 3:
            return Camera(m)


def test_cofactor_tensor_matches_the_laplace_oracle():
    """The cofactor-vector tensor equals the Laplace-form one, entry types
    included, on integer triples (small, sparse and beyond 2^64) and
    Fraction triples; a triple whose tensor is zero still raises."""
    rng = random.Random(34)
    triples = [random_triple(rng, bound) for bound in (1, 3, 9, 10 ** 6, 10 ** 25)
               for _ in range(48)]
    triples += [CameraTriple(*(fraction_camera(rng) for _ in range(3))) for _ in range(40)]
    for ct in triples:
        got, want = trifocal_from_cameras(ct), trifocal_laplace(ct)
        assert got == want and [type(x) for x in got.flat] == [type(x) for x in want.flat]
    same = CameraTriple.__new__(CameraTriple)   # three copies of one camera, unchecked
    same.a1 = same.a2 = same.a3 = ct.a1
    for build in (trifocal_from_cameras, trifocal_laplace):
        with pytest.raises(DegenerateConfigurationError, match="produced the zero tensor"):
            build(same)


def oracle_triple_message(cams):
    """Oracle: the error CameraTriple must raise, from the set of primitive
    focal points, or None for three distinct centers."""
    try:
        centers = {tuple(focal_point(a)) for a in cams}
    except InvalidCameraError:
        return "rank-deficient camera in triple"
    return None if len(centers) == 3 else "two cameras share a focal point"


def test_camera_triple_verdicts_match_the_focal_point_oracle():
    """Each pair of cameras sharing a center (one camera scaled by -2 or
    3/5, or moved by an invertible 3x3 matrix), a rank-deficient camera in
    each position, and three distinct centers."""
    rng = random.Random(35)
    flat = Camera([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    seen = []
    for _ in range(20):
        base = [random_camera(rng, 5) for _ in range(3)]
        g = random_group_element(rng, bound=3)[0]
        cases = [base] + [base[:k] + [flat] + base[k + 1:] for k in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for m in ([[-2 * x for x in r] for r in base[i].m],
                      [[Fraction(3, 5) * x for x in r] for r in base[i].m], mat_mul(g, base[i].m)):
                cases.append(base[:j] + [Camera(m)] + base[j + 1:])
        for cams in cases:
            want = oracle_triple_message(cams)
            seen.append(want)
            if want is None:
                assert CameraTriple(*cams).cameras() == tuple(cams)
            else:
                with pytest.raises(DegenerateConfigurationError, match=want):
                    CameraTriple(*cams)
    assert set(seen) == {None, "rank-deficient camera in triple", "two cameras share a focal point"}
