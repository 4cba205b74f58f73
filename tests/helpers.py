"""Test data the package itself never builds: the pencil-determinant cubics,
random camera triples, the isotypic dimension count and module spans as
lists of polynomials."""

import random
from itertools import permutations, product

import numpy as np

from trifocal import linalg, poly, rep
from trifocal.cameras import Camera, CameraTriple, DegenerateConfigurationError
from trifocal.poly import Poly, _pencil_entry_vars
from trifocal.tensor import perm_sign

_X_MONOMIALS = [(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
                (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)]


def m3_with_x_monomials(axis):
    """The symbolic pencil determinant for an axis, split by x-monomial:
    list of ((e1,e2,e3), Poly) with e the exponent of (x1,x2,x3)."""
    buckets = {e: [] for e in _X_MONOMIALS}
    for sigma in permutations(range(3)):
        for s in product(range(3), repeat=3):   # s[r]: the x picked in row r
            mono = sorted(_pencil_entry_vars(axis, r, sigma[r])[s[r]] for r in range(3))
            buckets[tuple(map(s.count, range(3)))].append((mono, perm_sign(sigma)))
    return [(e, Poly(buckets[e])) for e in _X_MONOMIALS]


def m3_generators(axis):
    """The 10 homogeneous cubics: coefficients (on x-monomials) of the
    determinant of the axis pencil."""
    return [p for _, p in m3_with_x_monomials(axis)]


def random_camera(rng: random.Random, bound=9) -> Camera:
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(3)]
        if linalg.rank(m) == 3:
            return Camera(m)


def random_triple(rng: random.Random, bound=9) -> CameraTriple:
    while True:
        try:
            return CameraTriple(*(random_camera(rng, bound) for _ in range(3)))
        except DegenerateConfigurationError:
            continue


def completeness_defect(d) -> int:
    """Sum of kronecker * Weyl dims minus the ambient dimension (0 iff the
    isotypic bookkeeping is consistent)."""
    return (sum(rep.kronecker(*lab) * rep.label_dim(lab) for lab in rep.all_labels(d))
            - rep.ambient_dimension(d))


def span_polys(h):
    """The basis rep.module_span(h) as Polys, vector i the run of id i."""
    rows, ids, coeffs = rep.module_span(h)
    order = np.argsort(ids, kind="stable")   # the runs by id, each run's terms kept in order
    return poly.unpack_terms((rows[order], ids[order], coeffs[order]), int(ids.max()) + 1)
