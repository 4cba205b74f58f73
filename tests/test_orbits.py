import random
import sys
from collections import Counter

import pytest

from trifocal import ideal, orbits, poly, tensor
from trifocal.cameras import trifocal_from_cameras
from trifocal.orbits import (catalog, classify_component, decode_triples, is_trifocal,
                             m3_vanishes, signature, skew_tensor, sub_generic,
                             trifocal_normal_form)
from trifocal.poly import evaluate_points
from trifocal.tensor import Tensor333, act, frank, prank, random_group_element, random_orbit_point

from helpers import boundary_orbit_reps, pencil, permute_factors, random_triple, replay_orbit18


def test_decode_examples():
    t = decode_triples([149, 167, 248, 357])
    expected = Tensor333.from_terms([(1, 1, 1, 3), (1, 1, 3, 1), (1, 2, 1, 2), (1, 3, 2, 1)])
    assert t == expected
    assert decode_triples([147]) == Tensor333.from_terms([(1, 1, 1, 1)])
    assert frank(decode_triples([148, 157])) == (1, 2, 2)
    with pytest.raises(ValueError):
        decode_triples([417])
    with pytest.raises(ValueError):
        decode_triples([199])


def test_decode_orbit11_pencil():
    slices = pencil(decode_triples([149, 167, 248, 357]), "A")
    expected = {(0, 1): [0, 1, 0], (0, 2): [1, 0, 0],
                (1, 0): [0, 0, 1], (2, 0): [1, 0, 0]}
    for r in range(3):
        for c in range(3):
            assert [slices[s][r][c] for s in range(3)] == expected.get((r, c), [0, 0, 0])


def test_catalog_contents_and_signatures():
    cat = catalog()
    sig = signature(cat["trifocal"].tensor)
    assert sig.frank == (3, 3, 3)
    assert sig.prank == (3, 3, 2)
    assert sig.m3_axis_vanishing == (False, False, True)

    skew_sig = signature(cat["skew"].tensor)
    assert skew_sig.prank == (2, 2, 2)
    assert skew_sig.m3_axis_vanishing == (True, True, True)

    assert frank(cat["sub233"].tensor) == (2, 3, 3)
    assert frank(cat["sub323"].tensor) == (3, 2, 3)
    assert frank(cat["sub332"].tensor) == (3, 3, 2)


def test_orbit11_matches_trifocal_after_double_cycle():
    cat = catalog()
    moved = permute_factors(permute_factors(cat["orbit11"].tensor))
    s1 = signature(moved)
    s0 = signature(cat["trifocal"].tensor)
    assert (s1.frank, s1.prank, s1.m3_axis_vanishing) == (s0.frank, s0.prank, s0.m3_axis_vanishing)
    # and the raw representative carries the same multiset of invariants
    raw = signature(cat["orbit11"].tensor)
    assert sorted(raw.prank) == sorted(s0.prank)
    assert sorted(raw.frank) == sorted(s0.frank)


def test_signature_with_modules(discovery5):
    mods = discovery5.modules()
    sig = signature(trifocal_normal_form(), modules=mods)
    assert sig.m5_vanishing is True
    sig_skew = signature(skew_tensor(), modules=mods)
    assert sig_skew.m5_vanishing is False
    d = sig.to_dict()
    assert d["m5_vanishing"] is True
    assert d["m3_axis_vanishing"] == {"A": False, "B": False, "C": True}


def test_signature_without_degree5_modules_has_no_m5(discovery5):
    cubics = [m for m in discovery5.modules() if m.degree == 3]
    assert cubics
    sig = signature(sub_generic((3, 3, 2)), modules=cubics)
    assert sig.m5_vanishing is None
    assert sig.m3_axis_vanishing[2] is False
    assert "m5_vanishing" not in sig.to_dict()


def test_signature_without_degree6_modules_has_no_m6(discovery5):
    sig = signature(trifocal_normal_form(), modules=discovery5.modules())
    assert sig.m5_vanishing is True and sig.m6_vanishing is None
    assert "m6_vanishing" not in sig.to_dict()


def test_signature_m6_flag_covers_every_module_of_a_label(discovery5):
    """skew_tensor() is on every cubic and off a quintic: a label with both
    modules does not vanish, whichever comes last."""
    t = skew_tensor()
    picked = {m.degree: m for m in discovery5.modules()   # a cubic on t, a quintic off it
              if any(evaluate_points(m.basis, [t])[0]) == (m.degree == 5)}
    cubic, quintic = picked[3], picked[5]
    for pair in ((cubic, quintic), (quintic, cubic)):
        mods = [ideal.DiscoveredModule(6, ("x",), m.basis) for m in pair]
        assert signature(t, modules=mods).m6_vanishing == {("x",): False}


def test_signature_splits_one_evaluation_per_module(discovery5, monkeypatch):
    mods = discovery5.modules()
    # as degree-6 modules, each module's own vanishing flag is reported
    each = [ideal.DiscoveredModule(6, (i,), m.basis) for i, m in enumerate(mods)]
    rng = random.Random(23)
    points = [nf.tensor for nf in catalog().values()] + [
        random_orbit_point(trifocal_normal_form(), 7), trifocal_from_cameras(random_triple(rng)),
        Tensor333([[[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)] for _ in range(3)])]
    oracle = {}
    for t in points:
        flags = [not any(evaluate_points(m.basis, [t])[0]) for m in mods]
        oracle[t] = (all(v for v, m in zip(flags, mods) if m.degree == 5),
                     {(i,): v for i, v in enumerate(flags)})
    assert len({tuple(m6.values()) for _, m6 in oracle.values()}) > 2   # the flags differ
    builds, bounded = [], poly.bounded_runs
    monkeypatch.setattr(poly, "bounded_runs", lambda *args: builds.append(1) or bounded(*args))
    for t in points:
        assert signature(t, modules=mods).m5_vanishing == oracle[t][0]
        assert signature(t, modules=iter(each)).m6_vanishing == oracle[t][1]
        assert len(builds) <= 1   # both lists share their bases: one layout, kept across tensors


def test_classification_examples():
    rng = random.Random(61)
    ct = random_triple(rng)
    assert classify_component(trifocal_from_cameras(ct)) == "Trifocal"
    assert classify_component(random_orbit_point(skew_tensor(), 5)) == "PRank222"
    assert classify_component(decode_triples([148, 157, 249])) in ("Sub233", "Sub323")
    assert classify_component(catalog()["orbit17"].tensor) == "Sub233"
    gen = Tensor333([[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
                     for _ in range(3)])
    assert classify_component(gen) == "NotInVM3"


def test_classification_is_action_invariant():
    rng = random.Random(62)
    for nf_name in ("trifocal", "skew", "sub233", "orbit17"):
        t = catalog()[nf_name].tensor
        expected = classify_component(t)
        for _ in range(10):
            g = random_group_element(rng, bound=3)
            assert classify_component(act(g, t, check=False)) == expected


def test_is_trifocal_verdicts():
    rng = random.Random(63)
    for _ in range(10):
        t = trifocal_from_cameras(random_triple(rng))
        ok, reason = is_trifocal(t)
        assert ok, reason
    ok, reason = is_trifocal(skew_tensor())
    assert not ok and "P-Rank (2, 2, 2)" in reason
    for _ in range(10):
        gen = Tensor333([[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
                        for _ in range(3)])
        ok, reason = is_trifocal(gen)
        assert not ok and "no pencil drops rank" in reason
    ok, reason = is_trifocal(sub_generic((2, 3, 3), seed=4))
    assert not ok


def test_is_trifocal_permutation_tolerance():
    t = permute_factors(trifocal_normal_form())
    assert prank(t) != (3, 3, 2)
    ok, reason = is_trifocal(t)
    assert not ok and "wrong direction" in reason
    ok, _ = is_trifocal(t, permutation_tolerant=True)
    assert ok


def test_is_trifocal_randomized_variant():
    """The verdict survives a random coordinate change, so is_trifocal
    needs no random one of its own."""
    rng = random.Random(3)
    for t, expected in ((trifocal_normal_form(), True), (skew_tensor(), False)):
        for _ in range(10):
            moved = act(random_group_element(rng), t, check=False)
            assert is_trifocal(moved)[0] is expected


def test_degeneration_orbit18_rejects_a_perturbed_row_3():
    # the row cycle of the replay makes index j = 1 of the representative
    # row 3 of the target, the row compared after the substitution chain
    for i in range(3):
        for k in range(3):
            bumped = [[list(row) for row in plane] for plane in orbits.orbit18_rep().t]
            bumped[i][0][k] += 1
            assert replay_orbit18(Tensor333(bumped)) is False, (i, k)


def test_skew_not_in_subspace_closures():
    F = skew_tensor()
    # closures only shrink flattening ranks, so one above the bound is a certificate
    def obstructed(t, bound):
        return any(a > b for a, b in zip(frank(t), bound))
    assert obstructed(F, (2, 3, 3))
    assert obstructed(F, (3, 2, 3))
    # while the boundary reps do pass the coarse flattening screen
    assert not obstructed(catalog()["orbit17"].tensor, (2, 3, 3))


def test_boundary_reps_all_in_skew_class():
    for name, t in boundary_orbit_reps().items():
        assert prank(t) == (2, 2, 2), name
        assert all(m3_vanishes(t, ax) for ax in "ABC"), name


def test_each_rank_is_computed_once_per_tensor(monkeypatch):
    """is_trifocal, classify_component and signature on one camera tensor
    share its three pencil ranks and three flattening ranks.  Every
    trifocal module that binds pencil_rank or flattening_rank gets the
    counter, so a copy bound elsewhere is counted too."""
    calls = Counter()
    for name in ("pencil_rank", "flattening_rank"):
        original = getattr(tensor, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("trifocal") \
                    and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    t = trifocal_from_cameras(random_triple(random.Random(31)))
    assert is_trifocal(t)[0]
    assert classify_component(t) == "Trifocal"
    assert signature(t).prank == (3, 3, 2)
    assert calls == {"pencil_rank": 3, "flattening_rank": 3}
