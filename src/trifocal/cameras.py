"""Cameras and the trifocal tensor of a camera triple.

A camera is a full-rank 3x4 matrix of ints and Fractions (other entries
raise TypeError).  A triple of cameras produces a 3x3x3 tensor through
signed 4x4 minors of the stacked 4x9 matrix (one row from each of the
first two cameras, two rows from the third), each a six-term Laplace
expansion along its first two rows into products of 2x2 minors, so
integer cameras give an integer tensor with no division.  Focal points
are the signed maximal minors of a camera, made primitive.  The sign
convention of the minor formula is pinned by the tests, against the
synthetic line transfer (back-project two image lines, intersect the
planes, image the space line into the third view) in tests/test_cameras.py.
"""

from __future__ import annotations

import json

from . import linalg
from .scalars import exact_list, scalar_from_json
from .tensor import Tensor333


class InvalidCameraError(ValueError):
    pass


class DegenerateConfigurationError(ValueError):
    pass


class Camera:
    __slots__ = ("m",)

    def __init__(self, m):
        rows, cols = linalg.dims(m)
        if (rows, cols) != (3, 4):
            raise InvalidCameraError("camera must be 3x4, got %dx%d" % (rows, cols))
        self.m = [list(r) for r in m]
        exact_list([x for r in self.m for x in r], "camera entry")


def focal_point(a: Camera):
    """Kernel of the camera matrix, the center of projection in P^3: its
    signed maximal minors (Laplace along row 1 into the 2x2 minors of rows
    2 and 3), as a primitive integer vector whose first nonzero entry is
    positive.  They are all zero exactly when the camera is rank-deficient."""
    u, (m01, m02, m03, m12, m13, m23) = a.m[0], _minors2(*a.m[1:])
    minors = [u[1] * m23 - u[2] * m13 + u[3] * m12, u[2] * m03 - u[0] * m23 - u[3] * m02,
              u[0] * m13 - u[1] * m03 + u[3] * m01, u[1] * m02 - u[0] * m12 - u[2] * m01]
    if not any(minors):
        raise InvalidCameraError("camera is rank-deficient")
    return linalg._primitive_int_vector(minors)


class CameraTriple:
    def __init__(self, a1: Camera, a2: Camera, a3: Camera):
        try:
            centers = {tuple(focal_point(a)) for a in (a1, a2, a3)}
        except InvalidCameraError as exc:
            raise DegenerateConfigurationError("rank-deficient camera in triple") from exc
        # primitive sign-fixed centers are proportional only when equal; two
        # distinct centers f, g already make the nine camera rows span Q^4
        # (they span the hyperplanes f-perp and g-perp)
        if len(centers) < 3:
            raise DegenerateConfigurationError("two cameras share a focal point")
        self.a1, self.a2, self.a3 = a1, a2, a3

    def cameras(self):
        return (self.a1, self.a2, self.a3)


# the column pairs (p, q) of a Laplace expansion of a 4x4 determinant along
# its first two rows, and their signs (-1)^(p + q + 1); the pair
# complementary to _PAIRS[s] is _PAIRS[5 - s]
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SIGNS = (1, -1, 1, 1, -1, 1)


def _minors2(u, v):
    """The 2x2 minors of the rows u, v, one per column pair of _PAIRS."""
    return [u[p] * v[q] - u[q] * v[p] for p, q in _PAIRS]


def trifocal_from_cameras(ct: CameraTriple) -> Tensor333:
    """T_ijk = sign(k) * det of [row i of A1; row j of A2; the two rows of A3
    complementary to k], with sign(k) = (-1)^k.  Defined up to a global
    scale.  Each 4x4 determinant is a Laplace expansion along its first two
    rows: sum over column pairs S of sign(S) * minor(S) * minor(complement)."""
    a1, a2, a3 = ct.cameras()
    lower = []
    for k in range(3):
        m = _minors2(*(r for c, r in enumerate(a3.m) if c != k))
        lower.append([(-1) ** k * _SIGNS[s] * m[5 - s] for s in range(6)])
    out = Tensor333._from_flat([u0 * l0 + u1 * l1 + u2 * l2 + u3 * l3 + u4 * l4 + u5 * l5
                                for x in a1.m for y in a2.m
                                for u0, u1, u2, u3, u4, u5 in [_minors2(x, y)]
                                for l0, l1, l2, l3, l4, l5 in lower])
    if out.is_zero():
        raise DegenerateConfigurationError("camera triple produced the zero tensor")
    return out


# --- (de)serialization ------------------------------------------------------

def camera_from_json_obj(data) -> Camera:
    if not (isinstance(data, list) and len(data) == 3
            and all(isinstance(r, list) and len(r) == 4 for r in data)):
        raise ValueError("camera JSON must be a 3x4 nested array")
    return Camera([[scalar_from_json(x) for x in row] for row in data])


def triple_from_json(text: str) -> CameraTriple:
    data = json.loads(text)
    try:
        a1, a2, a3 = (camera_from_json_obj(data[k]) for k in ("A1", "A2", "A3"))
    except (KeyError, TypeError) as exc:
        raise ValueError("camera triple JSON needs keys A1, A2, A3") from exc
    return CameraTriple(a1, a2, a3)
