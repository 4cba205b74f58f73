"""Normal-form catalog, invariant signatures, component classification
and the rank-based membership test for trifocal tensors.

The catalog carries only representatives with an explicit construction:
integer-triple codes, the line-transfer normal forms, the skew
(Levi-Civita) class, two boundary orbits used in degeneration checks, and
generic points of the three subspace varieties.
"""

from __future__ import annotations

import random

from . import linalg
from .poly import evaluate_points
from .tensor import (_LATTICE3, AXES, Tensor333, act, frank, pencil, permute_factors,
                     prank, random_group_element)


def decode_triples(codes) -> Tensor333:
    """Integer-triple encoding of sums of basis tensors: the code ijk (with
    1<=i<=3, 4<=j<=6, 7<=k<=9) contributes e_i x e_{j-3} x e_{k-6}."""
    terms = []
    for code in codes:
        if isinstance(code, int):
            i, j, k = code // 100, (code // 10) % 10, code % 10
        else:
            i, j, k = code
        if not (1 <= i <= 3 and 4 <= j <= 6 and 7 <= k <= 9):
            raise ValueError("triple %r out of range (i in 1..3, j in 4..6, k in 7..9)" % (code,))
        terms.append((1, i, j - 3, k - 6))
    return Tensor333.from_terms(terms)


def skew_tensor() -> Tensor333:
    """The fully skew class: the Levi-Civita tensor (every pencil is a
    skew-symmetric matrix of independent linear forms)."""
    return Tensor333.from_terms([
        (1, 1, 2, 3), (1, 2, 3, 1), (1, 3, 1, 2),
        (-1, 1, 3, 2), (-1, 2, 1, 3), (-1, 3, 2, 1)])


def trifocal_normal_form() -> Tensor333:
    return Tensor333.from_terms([(1, 1, 2, 1), (1, 3, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3)])


def trifocal_slices_form() -> Tensor333:
    """The six-term variant whose C-slices are the classical triple of
    rank-deficient matrices."""
    return Tensor333.from_terms([
        (-1, 1, 2, 1), (1, 3, 1, 1), (-1, 2, 2, 2),
        (1, 3, 2, 2), (-1, 3, 2, 3), (1, 3, 3, 3)])


def orbit17_rep() -> Tensor333:
    return Tensor333.from_terms([(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 3), (1, 2, 3, 1)])


def orbit18_rep() -> Tensor333:
    return Tensor333.from_terms([(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 3)])


def sub_generic(pattern, seed=1) -> Tensor333:
    """Generic point of a subspace variety: random integers in [-5, 5]
    supported on a coordinate subspace of the given (p,q,r) shape, then a
    random coordinate change."""
    p, q, r = pattern
    rng = random.Random(seed)
    entries = [[[rng.randint(-5, 5) if (i < p and j < q and k < r) else 0
                 for k in range(3)] for j in range(3)] for i in range(3)]
    return act(random_group_element(rng), Tensor333(entries), check=False)


class NormalForm:
    __slots__ = ("name", "tensor", "provenance")

    def __init__(self, name, tensor, provenance):
        self.name, self.tensor, self.provenance = name, tensor, provenance


def catalog():
    """The named normal forms, {name: NormalForm}."""
    forms = [
        NormalForm("trifocal", trifocal_normal_form(),
                   provenance="four-term normal form of a general trifocal tensor"),
        NormalForm("trifocal-slices", trifocal_slices_form(),
                   provenance="six-term variant with the classical C-direction slices"),
        NormalForm("orbit11", decode_triples([149, 167, 248, 357]),
                   provenance="integer-triple code 149 167 248 357"),
        NormalForm("orbit17", orbit17_rep(),
                   provenance="a1(b1 c2 + b2 c1) + a2(b1 c3 + b3 c1)"),
        NormalForm("orbit18", orbit18_rep(),
                   provenance="a1(b1 c1 + b2 c2) + a2(b1 c2 + b2 c3)"),
        NormalForm("skew", skew_tensor(),
                   provenance="scaled Levi-Civita tensor; every pencil skew-symmetric"),
        NormalForm("sub233", sub_generic((2, 3, 3)),
                   provenance="generic point of the 2x3x3 subspace variety"),
        NormalForm("sub323", sub_generic((3, 2, 3)),
                   provenance="generic point of the 3x2x3 subspace variety"),
        NormalForm("sub332", sub_generic((3, 3, 2)),
                   provenance="generic point of the 3x3x2 subspace variety"),
    ]
    return {nf.name: nf for nf in forms}


# ---------------------------------------------------------------------------
# signatures and classification

class Signature:
    __slots__ = ("frank", "prank", "m3_axis_vanishing", "m5_vanishing", "m6_vanishing")

    def __init__(self, frank_, prank_, m3_axis_vanishing, m5_vanishing, m6_vanishing):
        self.frank, self.prank, self.m3_axis_vanishing = frank_, prank_, m3_axis_vanishing
        self.m5_vanishing, self.m6_vanishing = m5_vanishing, m6_vanishing

    def to_dict(self):
        out = {
            "frank": list(self.frank),
            "prank": list(self.prank),
            "m3_axis_vanishing": {ax: v for ax, v in zip("ABC", self.m3_axis_vanishing)},
        }
        if self.m5_vanishing is not None:
            out["m5_vanishing"] = self.m5_vanishing
        if self.m6_vanishing is not None:
            out["m6_vanishing"] = {"+".join(map(str, lab)): v
                                   for lab, v in self.m6_vanishing.items()}
        return out


def m3_vanishes(t: Tensor333, axis) -> bool:
    """Do the 10 cubics of the axis vanish at t?  They are the coefficients
    of the determinant of the axis pencil, so they do exactly when the
    pencil's rank is below 3."""
    return prank(t)[AXES.index(axis)] < 3


def signature(t: Tensor333, modules=None) -> Signature:
    """Invariant fingerprint.  modules, when given, is an iterable of
    discovered generator modules (degree, label, basis) used to fill the
    degree-5/6 vanishing flags, a label's m6 flag over all its modules; m5
    and m6 stay None without a module of their degree."""
    pr = prank(t)   # an axis's cubics vanish exactly when its pencil rank is below 3
    m5 = m6 = None
    if modules is not None:
        m6, modules, at = {}, list(modules), 0   # one evaluation, split per module
        values = evaluate_points([f for mod in modules for f in mod.basis], [t])[0]
        for mod in modules:
            vanishes, at = not any(values[at:at + len(mod.basis)]), at + len(mod.basis)
            if mod.degree == 5:
                m5 = vanishes if m5 is None else m5 and vanishes
            elif mod.degree == 6:
                m6[mod.label] = m6.get(mod.label, True) and vanishes
    return Signature(frank(t), pr, tuple(r < 3 for r in pr), m5, m6 or None)


def classify_component(t: Tensor333) -> str:
    """Which listed component of the cubic zero locus contains t.  Points
    in several closures report the first match in the priority order
    Sub233, Sub323, PRank222, Trifocal."""
    if not m3_vanishes(t, "C"):
        return "NotInVM3"
    fa, fb, _ = frank(t)
    if fa < 3:
        return "Sub233"
    if fb < 3:
        return "Sub323"
    if prank(t) == (2, 2, 2):
        return "PRank222"
    return "Trifocal"


def is_trifocal(t: Tensor333, permutation_tolerant=False):
    """Rank-based membership test: P-Rank must be exactly (3,3,2) (any
    permutation if permutation_tolerant) and F-Rank exactly (3,3,3).

    Returns (verdict, reason).  Both ranks are exact, deterministic and
    invariant under GL(3)^3, so the test needs no random coordinate change:
    the flattening ranks come from fraction-free integer elimination, and
    each pencil rank is the largest numeric rank of the pencil at the 10
    lattice points a + b + c = 3, which are unisolvent for cubics (Chung
    and Yao, SIAM J. Numer. Anal. 14(4), 1977), so no minor of degree <= 3
    can vanish at all of them without vanishing identically.
    """
    pr = prank(t)
    if not (sorted(pr) == [2, 3, 3] if permutation_tolerant else pr == (3, 3, 2)):
        if sorted(pr) == [3, 3, 3]:
            reason = "P-Rank %r: no pencil drops rank" % (pr,)
        elif sorted(pr) == [2, 3, 3]:
            reason = "P-Rank %r: deficient in the wrong direction" % (pr,)
        else:
            reason = "P-Rank %r: below (3,3,2)" % (pr,)
        return False, reason
    fr = frank(t)
    if fr != (3, 3, 3):
        return False, "F-Rank %r: below (3,3,3)" % (fr,)
    return True, "P-Rank %r and F-Rank (3, 3, 3)" % (pr,)


# ---------------------------------------------------------------------------
# degeneration replays

def _tensor_from_pencil_a(entries) -> Tensor333:
    """entries[j][k] = coefficient triple on (a1,a2,a3) of the pencil entry."""
    return Tensor333([[[e[i] for e in row] for row in entries] for i in range(3)])


def _family17(z) -> Tensor333:
    return _tensor_from_pencil_a([[(0, 0, 0), (-1, 0, 0), (0, -1, 0)],
                                  [(1, 0, 0), (0, 0, 0), (0, 0, z)],
                                  [(0, 1, 0), (0, 0, -z), (0, 0, 0)]])


def _family18(t) -> Tensor333:
    return _tensor_from_pencil_a([[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                                  [(-t, 0, 0), (0, 0, 0), (0, 0, t)],
                                  [(0, -1, 0), (0, 0, -1), (0, 0, 0)]])


def _group17(z):   # A-substitution sending the skew pencil to the orbit-17 family shape
    return ([[0, 0, -1], [0, 1, 0], [z, 0, 0]], linalg.identity(3), linalg.identity(3))


def _group18(t):
    return ([[0, 0, 1], [0, -1, 0], [1, 0, 0]], [[1, 0, 0], [0, t, 0], [0, 0, 1]],
            linalg.identity(3))


def degeneration_check(name: str) -> bool:
    """Replay the explicit limit constructions landing on the boundary
    orbits 17 and 18, each family checked at the parameters 1, 2, 3.

    orbit17: the one-parameter skew family with the (2,3)/(3,2) entries
    scaled by z; its z -> 0 limit must equal the sign-flipped orbit-17
    representative, exactly.

    orbit18: the row-scaled skew family whose t -> 0 limit L has a zero
    second row; then the documented substitution chain (set a3 = a2^2/a1
    and rescale the third row by -a1/a2) must turn L into the row-cycled
    orbit-18 representative, verified as cross-multiplied cubic-form
    identities at the 10 points of tensor._LATTICE3.  Each family member
    must have pencil ranks (2, 2, 2), the skew class, whose cubics vanish on
    every axis.
    """
    F = skew_tensor()
    if name == "orbit17":
        for z in (1, 2, 3):
            member = act(_group17(z), F)
            if member != _family17(z) or prank(member) != (2, 2, 2):
                return False
        limit = _family17(0)
        flip = (linalg.identity(3), [[-1, 0, 0], [0, 1, 0], [0, 0, 1]], linalg.identity(3))
        return limit == act(flip, orbit17_rep())
    if name == "orbit18":
        for t in (1, 2, 3):
            member = act(_group18(t), F)
            if member != _family18(t) or prank(member) != (2, 2, 2):
                return False
        limit = _family18(0)
        cyc = (linalg.identity(3), [[0, 1, 0], [0, 0, 1], [1, 0, 0]], linalg.identity(3))
        limit_pencil, target_pencil = pencil(limit, "A"), pencil(act(cyc, orbit18_rep()), "A")
        # rows 1 and 2 must agree outright (no a3, untouched by the chain)
        if any(lp[:2] != tp[:2] for lp, tp in zip(limit_pencil, target_pencil)):
            return False
        # row 3: with L and T the linear forms of limit and target, setting
        # a3 = a2^2/a1 and rescaling by -a1/a2 must give T; cleared of
        # a1*a2, the cubic forms -a1*L(a1^2, a1*a2, a2^2) and a1*a2*T agree,
        # checked at the points of _LATTICE3 (unisolvent for cubics)
        for k in range(3):
            l1, l2, l3 = (limit_pencil[s][2][k] for s in range(3))
            t1, t2, t3 = (target_pencil[s][2][k] for s in range(3))
            for a1, a2, a3 in _LATTICE3:
                if -a1 * (l1 * a1 * a1 + l2 * a1 * a2 + l3 * a2 * a2) != \
                        a1 * a2 * (t1 * a1 + t2 * a2 + t3 * a3):
                    return False
        return True
    raise ValueError("unknown degeneration target %r" % (name,))


def boundary_orbit_reps():
    """The boundary representatives used in the separation checks, keyed
    by their customary primed names.

    Primed versions come from the cyclic factor relabeling a -> b -> c -> a.
    The quoted orbit-18 representative sits one permutation off the
    table's unprimed entry, so it is filed under 18' and its cyclic image
    under 18''; this is the unique assignment under which each boundary
    representative is separated by the expected degree-6 module.
    """
    t17, t18 = orbit17_rep(), orbit18_rep()
    return {"17": t17, "17'": permute_factors(t17, 1), "17''": permute_factors(t17, 2),
            "18'": t18, "18''": permute_factors(t18, 1)}


# degree-6 module label that must NOT vanish on each boundary representative
SEPARATION_CLAIMS = {
    "17": ((3, 3), (2, 2, 2), (4, 1, 1)),
    "17'": ((2, 2, 2), (3, 3), (4, 1, 1)),
    "18'": ((3, 3), (3, 3), (2, 2, 2)),
    "18''": ((2, 2, 2), (3, 3), (3, 3)),
}


def m6_separates(modules, rep_name: str) -> bool:
    """Does the claimed degree-6 module have a basis element that is
    nonzero on the named boundary representative?"""
    label = SEPARATION_CLAIMS[rep_name]
    t = boundary_orbit_reps()[rep_name]
    for mod in modules:
        if mod.degree == 6 and mod.label == label:
            return any(evaluate_points(mod.basis, [t])[0])
    raise ValueError("no degree-6 module with label %r among the given modules" % (label,))
