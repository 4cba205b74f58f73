"""Normal-form catalog, invariant signatures, component classification
and the rank-based membership test for trifocal tensors.

The catalog carries only representatives with an explicit construction:
integer-triple codes, the line-transfer normal forms, the skew
(Levi-Civita) class, the boundary orbits 17 and 18, and generic points of
the three subspace varieties.  The degeneration replays onto orbits 17 and
18 and the degree-6 separation of the boundary representatives are checks
of this catalog and of the discovered modules; they live in the tests
(tests/helpers.py), not here.
"""

from __future__ import annotations

import random

from .poly import evaluate_points
from .tensor import AXES, Tensor333, act, frank, prank, random_group_element


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
    invariant under GL(3)^3, so the test needs no random coordinate change.
    A nonzero det(S1 + S2 + S3) of a pencil, or minor on columns 0, 4, 8 of
    a flattening F, certifies rank 3.  Only a zero one falls back to the
    cofactor rank of F F^T, of rank F over Q, or of S1 + n*S2 + n^4*S3,
    where n = 36 e^3 + 1 (e the largest |entry|) exceeds every coefficient
    of the pencil's minors and sends their monomials to distinct powers.
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
