"""Test data the package itself never builds: the pencil-determinant cubics,
random camera triples, their tensor by Laplace expansion and a camera's
primitive center, the isotypic dimension count, hw bases from expanded
candidates, a degree's generators by weight, term batches of polynomials,
module spans and discovered bases as lists of polynomials, hashable terms, a few tensor and matrix operations (the slices of an axis as a
pencil or a flattening among them), and the degeneration replays and
degree-6 separation checks on the boundary orbits 17 and 18."""

import random
from itertools import islice, permutations, product

import numpy as np

from trifocal import cameras, ideal, linalg, poly, rep
from trifocal.cameras import Camera, CameraTriple, DegenerateConfigurationError, InvalidCameraError
from trifocal.orbits import orbit17_rep, orbit18_rep, skew_tensor
from trifocal.poly import N_VARS, Poly, _pencil_entry_vars, evaluate_points, var_ijk, var_index
from trifocal.tensor import _VIEWS, Tensor333, act, perm_sign, prank

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


# the column pairs (p, q) of a Laplace expansion of a 4x4 determinant along
# its first two rows, and their signs (-1)^(p + q + 1); the pair
# complementary to _PAIRS[s] is _PAIRS[5 - s]
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SIGNS = (1, -1, 1, 1, -1, 1)


def _minors2(u, v):
    """The 2x2 minors of the rows u, v, one per column pair of _PAIRS."""
    return [u[p] * v[q] - u[q] * v[p] for p, q in _PAIRS]


def trifocal_laplace(ct: CameraTriple) -> Tensor333:
    """Oracle for cameras.trifocal_from_cameras: T_ijk = (-1)^k * det of
    [row i of A1; row j of A2; the two rows of A3 other than k], each 4x4
    determinant a Laplace expansion along its first two rows: the sum over
    column pairs S of sign(S) * minor(S) * minor(complement).  Raises
    DegenerateConfigurationError on the zero tensor."""
    a1, a2, a3 = ct.cameras()
    lower = []
    for k in range(3):
        m = _minors2(*(r for c, r in enumerate(a3.m) if c != k))
        lower.append([(-1) ** k * _SIGNS[s] * m[5 - s] for s in range(6)])
    out = Tensor333([[[sum(u * v for u, v in zip(_minors2(x, y), low)) for low in lower]
                      for y in a2.m] for x in a1.m])
    if out.is_zero():
        raise DegenerateConfigurationError("camera triple produced the zero tensor")
    return out


def focal_point(a: Camera):
    """The center of projection of a in P^3, the kernel of its matrix, as a
    primitive integer vector whose first nonzero entry is positive."""
    c = cameras._center(a)
    if not any(c):
        raise InvalidCameraError("camera is rank-deficient")
    return linalg._primitive_int_vector(c)


def completeness_defect(d) -> int:
    """Sum of kronecker * Weyl dims minus the ambient dimension (0 iff the
    isotypic bookkeeping is consistent)."""
    return (sum(rep.kronecker(*lab) * rep.label_dim(lab) for lab in rep.all_labels(d))
            - rep.ambient_dimension(d))


def independent_ids(batch, n):
    """The ids of the polynomials 0..n-1 of an integer batch independent mod
    machine_prime(0) of the ones before them, hence over Q."""
    p, (rows, ids, coeffs) = linalg.machine_prime(0), batch
    keys = poly.mono_keys(rows)
    a = poly.term_matrix(keys, ids, coeffs, np.unique(keys), n, p)
    return linalg._eliminate(a, p)[1]   # the pivot columns, one row per monomial


def expanded_hw_basis(label):
    """Oracle for rep.hw_space: the first kronecker(label) standard pairs whose
    tableau polynomials, expanded in chunks of doubling size, are independent
    mod machine_prime(0) of those kept (independent_ids), content-normalized."""
    k, weight = rep.kronecker(*label), tuple(rep._pad(lam) for lam in label)
    ta = rep.standard_tableaux(weight[0])[-1]
    pairs = product(rep.standard_tableaux(weight[1]), rep.standard_tableaux(weight[2]))
    basis, n, size = rep._tableau_terms(ta, []), 0, k   # the n kept vectors, ids 0..n-1
    while n < k and (chunk := list(islice(pairs, size))):
        rows, ids, coeffs = rep._tableau_terms(ta, chunk)
        rows, ids, coeffs = map(np.concatenate, zip(basis, (rows, ids + n, coeffs)))
        pivots = independent_ids((rows, ids, coeffs), n + len(chunk))
        keep = np.isin(ids, pivots)   # pivots ascend: the kept batch stays sorted by id
        basis = rows[keep], np.searchsorted(pivots, ids[keep]), coeffs[keep]
        n, size = len(pivots), 2 * size
    assert n == k, label
    return poly.unpack_terms(poly.normalize_batch(basis), k)


def weight_table(gens, degree):
    """The generator weights of one degree of an ideal.GradedGeneratorSet as a
    k x 9 array, and the matching [(weight, (rows, ids, coeffs, count))] list,
    each weight a triple of content triples: the terms of that weight's
    generators (poly.integer_terms) and their number, gathered from the
    chunks (ideal._gathered)."""
    index = gens._tables[degree]
    weights = poly.key_weights(np.fromiter(index, np.int64, len(index)))
    return weights.reshape(-1, 9), [(tuple(map(tuple, w)), ideal._gathered(slices))
                                    for w, slices in zip(weights.tolist(), index.values())]


def batch_of(f):
    """The terms of a Poly as an integer batch of one polynomial, the input
    of rep.module_span."""
    return poly.integer_terms([f])


def span_polys(h):
    """The basis rep.module_span of the Poly h as Polys, vector i the run of id i."""
    return batch_polys(rep.module_span(batch_of(h)))


def module_polys(modules):
    """{degree: the basis vectors of the modules of that degree}, as Polys
    in order of filing: the input of a plain GradedGeneratorSet."""
    out = {}
    for m in modules:
        out.setdefault(m.degree, []).extend(m.basis)
    return out


def term_key(f):
    """The hashable terms of a Poly, as ideal._key reads them from its pack."""
    return ideal._key(*poly._pack(f)[:2])


def batch_polys(batch):
    """A batch whose runs come in any order (rep.module_span) as Polys, by id."""
    rows, ids, coeffs = batch
    order = np.argsort(ids, kind="stable")   # the runs by id, each run's terms kept in order
    return poly.unpack_terms((rows[order], ids[order], coeffs[order]), int(ids.max()) + 1)


def mat_vec(m, v):
    """The matrix m, a list of rows, times the vector v."""
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _view(t, axis):
    """The 27 entries of t as its three axis slices, row by row, as the
    package's rank invariants read them."""
    if axis not in _VIEWS:
        raise ValueError("axis must be one of A, B, C")
    return _VIEWS[axis](t.flat)


def flattening(t, axis):
    """3x9 matrix whose row s is the flattened axis-slice number s+1: its
    rank is the multilinear rank of t in that direction."""
    v = _view(t, axis)
    return [list(v[:9]), list(v[9:18]), list(v[18:])]


def pencil(t, axis):
    """The 3x3 matrix of linear forms x1*S1 + x2*S2 + x3*S3, as its three
    coefficient matrices (S1, S2, S3) = the axis slices."""
    rows = list(map(list, zip(*[iter(_view(t, axis))] * 3)))
    return [rows[:3], rows[3:6], rows[6:]]


def scaled(t, c):
    """The tensor c * t."""
    return Tensor333._from_flat([c * x for x in t.flat])


def permute_factors(t):
    """The cyclic relabeling a -> b -> c -> a of the tensor factors: T_ijk
    moves to position (k, i, j)."""
    return Tensor333([[[t.t[q][r][p] for r in range(3)] for q in range(3)] for p in range(3)])


# --- the degeneration replays onto the boundary orbits 17 and 18 ---------------

# the points (a, b, c) with a + b + c = 3: no nonzero cubic form in three
# variables vanishes at all of them (Chung and Yao, SIAM J. Numer. Anal.
# 14(4), 1977)
_LATTICE3 = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]

I3 = linalg.identity(3)


def from_pencil_a(entries):
    """The tensor whose A-pencil entry (j, k) has the coefficient triple
    entries[j][k] on (a1, a2, a3)."""
    return Tensor333([[[e[i] for e in row] for row in entries] for i in range(3)])


def family17(z):
    return from_pencil_a([[(0, 0, 0), (-1, 0, 0), (0, -1, 0)],
                          [(1, 0, 0), (0, 0, 0), (0, 0, z)],
                          [(0, 1, 0), (0, 0, -z), (0, 0, 0)]])


def family18(t):
    return from_pencil_a([[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                          [(-t, 0, 0), (0, 0, 0), (0, 0, t)],
                          [(0, -1, 0), (0, 0, -1), (0, 0, 0)]])


def replay_orbit17():
    """The skew family with its (2,3)/(3,2) entries scaled by z: at
    z = 1, 2, 3 an A-substitution of the skew tensor, of pencil ranks
    (2, 2, 2); its z -> 0 limit is the sign-flipped orbit-17
    representative, exactly."""
    for z in (1, 2, 3):
        member = act(([[0, 0, -1], [0, 1, 0], [z, 0, 0]], I3, I3), skew_tensor())
        if member != family17(z) or prank(member) != (2, 2, 2):
            return False
    return family17(0) == act((I3, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]], I3), orbit17_rep())


def replay_orbit18(rep18):
    """The row-scaled skew family, checked as in replay_orbit17 at t = 1,
    2, 3, whose t -> 0 limit L has a zero second row; setting
    a3 = a2^2/a1 and rescaling the third row by -a1/a2 must turn L into the
    row-cycled rep18, checked as cross-multiplied cubic-form identities at
    the 10 points of _LATTICE3 (unisolvent for cubics)."""
    for t in (1, 2, 3):
        member = act(([[0, 0, 1], [0, -1, 0], [1, 0, 0]], [[1, 0, 0], [0, t, 0], [0, 0, 1]], I3),
                     skew_tensor())
        if member != family18(t) or prank(member) != (2, 2, 2):
            return False
    cyc = (I3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], I3)
    limit, target = pencil(family18(0), "A"), pencil(act(cyc, rep18), "A")
    # rows 1 and 2 have no a3 and the chain leaves them alone
    if any(lp[:2] != tp[:2] for lp, tp in zip(limit, target)):
        return False
    # row 3, cleared of a1*a2: -a1 * L(a1^2, a1*a2, a2^2) = a1*a2 * T(a1, a2, a3)
    for k in range(3):
        l1, l2, l3 = (limit[s][2][k] for s in range(3))
        t1, t2, t3 = (target[s][2][k] for s in range(3))
        for a1, a2, a3 in _LATTICE3:
            if -a1 * (l1 * a1 * a1 + l2 * a1 * a2 + l3 * a2 * a2) != \
                    a1 * a2 * (t1 * a1 + t2 * a2 + t3 * a3):
                return False
    return True


def boundary_orbit_reps():
    """The boundary representatives by their customary primed names.

    Primed versions come from the cyclic factor relabeling a -> b -> c -> a.
    The quoted orbit-18 representative sits one permutation off the
    table's unprimed entry, so it is filed under 18' and its cyclic image
    under 18''; this is the unique assignment under which each boundary
    representative is separated by the expected degree-6 module.
    """
    t17, t18 = orbit17_rep(), orbit18_rep()
    return {"17": t17, "17'": permute_factors(t17), "17''": permute_factors(permute_factors(t17)),
            "18'": t18, "18''": permute_factors(t18)}


# the degree-6 module label that must NOT vanish on each boundary representative
SEPARATION_CLAIMS = {
    "17": ((3, 3), (2, 2, 2), (4, 1, 1)),
    "17'": ((2, 2, 2), (3, 3), (4, 1, 1)),
    "18'": ((3, 3), (3, 3), (2, 2, 2)),
    "18''": ((2, 2, 2), (3, 3), (3, 3)),
}


def m6_separates(modules, name):
    """Is a basis element of the claimed degree-6 module nonzero on the
    named boundary representative?"""
    mod = next(m for m in modules if m.degree == 6 and m.label == SEPARATION_CLAIMS[name])
    return any(evaluate_points(mod.basis, [boundary_orbit_reps()[name]])[0])


def variable_map(sigma):
    """T_x -> T_y with y[a] = sigma[a][x[a]]: each factor's indices
    permuted by sigma (a Weyl group element), as a tuple walk."""
    return tuple(var_index(*(s[i] for s, i in zip(sigma, var_ijk(v)))) for v in range(N_VARS))
