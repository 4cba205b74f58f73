"""Cameras and the trifocal tensor of a camera triple.

A camera is a full-rank 3x4 matrix of ints and Fractions (other entries
raise TypeError); its center, the vector of its signed maximal minors, is
zero exactly when it is rank-deficient.  A triple of cameras gives a 3x3x3
tensor of signed 4x4 minors of the stacked 4x9 matrix (a row of each of the
first two cameras, two rows of the third), each a row of the first camera
dotted with the cofactor vector of the other three rows, so integer cameras
give an integer tensor with no division.  The sign convention is pinned by
the synthetic line transfer (back-project two image lines, intersect the
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


def _minors2(u, v):
    """The 2x2 minors of the rows u, v, on columns 01, 02, 03, 12, 13, 23."""
    (u0, u1, u2, u3), (v0, v1, v2, v3) = u, v
    return (u0 * v1 - u1 * v0, u0 * v2 - u2 * v0, u0 * v3 - u3 * v0,
            u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u2 * v3 - u3 * v2)


def _cofactors(y, m):
    """The signed maximal minors c of the 3x4 matrix M of row y over two rows
    with 2x2 minors m, by Laplace along y: det[x; M] = x . c for every row x."""
    (y0, y1, y2, y3), (m01, m02, m03, m12, m13, m23) = y, m
    return (y1 * m23 - y2 * m13 + y3 * m12, y2 * m03 - y0 * m23 - y3 * m02,
            y0 * m13 - y1 * m03 + y3 * m01, y1 * m02 - y0 * m12 - y2 * m01)


def _center(a: Camera):
    """The signed maximal minors of a, all zero exactly when it is rank-deficient."""
    return _cofactors(a.m[0], _minors2(*a.m[1:]))


class CameraTriple:
    def __init__(self, a1: Camera, a2: Camera, a3: Camera):
        c1, c2, c3 = centers = [_center(a) for a in (a1, a2, a3)]
        if not all(map(any, centers)):
            raise DegenerateConfigurationError("rank-deficient camera in triple")
        # two distinct centers f, g make the nine rows span Q^4 (f-perp + g-perp)
        if not all(any(_minors2(u, v)) for u, v in ((c1, c2), (c1, c3), (c2, c3))):
            raise DegenerateConfigurationError("two cameras share a focal point")
        self.a1, self.a2, self.a3 = a1, a2, a3

    def cameras(self):
        return (self.a1, self.a2, self.a3)


def trifocal_from_cameras(ct: CameraTriple) -> Tensor333:
    """T_ijk = (-1)^k det of [row i of A1; row j of A2; the two rows of A3
    other than k], up to a global scale: row i of A1 dotted with the cofactor
    vector of the other three rows, (-1)^k folded into the 2x2 minors by
    taking A3's rows in cyclic order k + 1, k + 2.  36 + 108 + 108 products."""
    a1, a2, a3 = (a.m for a in ct.cameras())
    lower = [_minors2(a3[k - 2], a3[k - 1]) for k in range(3)]
    cs = [_cofactors(y, m) for y in a2 for m in lower]
    out = Tensor333._from_flat([x0 * c0 + x1 * c1 + x2 * c2 + x3 * c3 for x0, x1, x2, x3 in a1
                                for c0, c1, c2, c3 in cs])
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
