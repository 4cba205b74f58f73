"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy shared work (generator discovery through degree 6) happens once
in the session fixture; stated runtime budgets are asserted where the
criteria name them.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import trifocal
from trifocal import ideal, orbits, poly, rep
from trifocal.cameras import trifocal_from_cameras
from trifocal.cli import main
from trifocal.ideal import graded_nonzerodivisor_check, hilbert_quotient
from trifocal.orbits import is_trifocal, orbit18_rep, skew_tensor, sub_generic
from trifocal.poly import f_determinant, witness_g
from trifocal.tensor import Tensor333

from helpers import (boundary_orbit_reps, completeness_defect, m6_separates, random_triple,
                     replay_orbit17, replay_orbit18)

M6_EXPECTED = {
    ((2, 2, 2), (3, 3), (3, 3)): 100,
    ((3, 3), (2, 2, 2), (3, 3)): 100,
    ((2, 2, 2), (3, 3), (4, 1, 1)): 100,
    ((3, 3), (2, 2, 2), (4, 1, 1)): 100,
    ((3, 3), (3, 2, 1), (3, 2, 1)): 640,
    ((3, 2, 1), (3, 3), (3, 2, 1)): 640,
    ((3, 3), (4, 1, 1), (2, 2, 2)): 100,
    ((4, 1, 1), (3, 3), (2, 2, 2)): 100,
    ((3, 3), (3, 3), (2, 2, 2)): 100,
}


def report(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


@pytest.mark.slow
def test_criterion_1_generator_counts(capsys):
    t0 = time.time()
    assert main(["discover", "--degree", "5", "--json"]) == 0
    payload5 = json.loads(capsys.readouterr().out)
    low_elapsed = time.time() - t0
    assert payload5["new_generators_by_degree"] == {
        "1": 0, "2": 0, "3": 10, "4": 0, "5": 81}
    mods5 = {tuple(tuple(p) for p in m["label"]): m["dimension"]
             for m in payload5["modules"] if m["degree"] == 5}
    assert mods5 == {((2, 2, 1), (2, 2, 1), (3, 1, 1)): 54,
                     ((2, 2, 1), (2, 2, 1), (2, 2, 1)): 27}
    mods3 = [m for m in payload5["modules"] if m["degree"] == 3]
    assert mods3 == [{"degree": 3, "label": [[1, 1, 1], [1, 1, 1], [3]], "dimension": 10}]
    assert low_elapsed < 300, "degrees <= 5 must finish within 5 minutes"

    t1 = time.time()
    assert main(["discover", "--degree", "6", "--json"]) == 0
    payload6 = json.loads(capsys.readouterr().out)
    six_elapsed = time.time() - t1
    assert payload6["new_generators_by_degree"]["6"] == 1980
    mods6 = {tuple(tuple(p) for p in m["label"]): m["dimension"]
             for m in payload6["modules"] if m["degree"] == 6}
    assert mods6 == M6_EXPECTED
    assert sorted(mods6.values(), reverse=True) == [640, 640] + [100] * 7
    assert six_elapsed < 7200, "degree 6 must finish within 2 hours"
    with capsys.disabled():
        report(1, "minimal generators 10/0/81/1980 in degrees 3/4/5/6 with the "
                  "expected labels (<=5: %.1fs, 6: %.1fs)" % (low_elapsed, six_elapsed))


@pytest.mark.slow
def test_criterion_2_hilbert_function(discovery6, capsys):
    expected = {1: 27, 2: 378, 3: 3644, 4: 27135, 5: 166050, 6: 865860}
    t0 = time.time()
    got = {d: hilbert_quotient(discovery6.gens, d) for d in range(1, 7)}
    elapsed = time.time() - t0
    assert got == expected
    assert elapsed < 7200
    with capsys.disabled():
        report(2, "Hilbert quotient dimensions %s (%.1fs)" % (got, elapsed))


@pytest.mark.slow
def test_criterion_3_membership_pipeline(capsys):
    rng = random.Random(90210)
    accepted = 0
    for _ in range(100):
        t = trifocal_from_cameras(random_triple(rng))
        ok, reason = is_trifocal(t)
        assert ok, reason
        accepted += 1
    rejected = 0
    for _ in range(100):
        t = Tensor333([[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
                       for _ in range(3)])
        ok, reason = is_trifocal(t)
        assert not ok and "no pencil drops rank" in reason
        rejected += 1
    ok, reason = is_trifocal(skew_tensor())
    assert not ok and "P-Rank (2, 2, 2)" in reason
    for pattern in ((2, 3, 3), (3, 2, 3), (3, 3, 2)):
        ok, reason = is_trifocal(sub_generic(pattern, seed=11))
        assert not ok and "P-Rank" in reason
    with capsys.disabled():
        report(3, "%d/100 camera tensors accepted; %d/100 generic tensors, the "
                  "skew tensor and all sub-generic points rejected with rank reasons"
               % (accepted, rejected))


@pytest.mark.slow
def test_criterion_4_vanishing_certificates(discovery6, trifocal_nf, capsys):
    all_gens = [f for m in discovery6.modules() for f in m.basis]
    assert len(all_gens) == 10 + 81 + 1980
    t0 = time.time()
    for seed in range(200):
        pt = ideal.trifocal_points(trifocal_nf, 800_000 + seed, 1)[0]
        vals = ideal.evaluate_batch(all_gens, pt)
        assert all(v == 0 for v in vals), "seed %d" % seed
    elapsed = time.time() - t0

    F = skew_tensor()
    mods5 = [m for m in discovery6.modules() if m.degree == 5]
    assert len(mods5) == 2
    for m in mods5:
        assert any(v != 0 for v in ideal.evaluate_batch(m.basis, F))

    mods6 = discovery6.modules()
    for name in ("17", "17'", "18'", "18''"):
        assert m6_separates(mods6, name), name
    with capsys.disabled():
        report(4, "2071 generators vanish exactly at 200 fresh orbit points "
                  "(%.1fs); both degree-5 modules nonzero on the skew tensor; "
                  "degree-6 separation holds on 17, 17', 18', 18''" % elapsed)


@pytest.mark.slow
def test_criterion_5_representation_cross_checks(discovery6, capsys):
    checked = 0
    for d in range(1, 6):
        assert completeness_defect(d) == 0
        for lab in rep.all_labels(d):
            k = rep.kronecker(*lab)
            if k == 0:
                continue
            # hw_space stops at k vectors, so this bounds its dimension from
            # below; from above only test_rep's raising-operator kernel
            # oracle (d <= 6) and completeness_defect, which checks k
            assert rep.hw_space(lab).dim == k, lab
            checked += 1
    for lab in M6_EXPECTED:
        assert rep.hw_space(lab).dim == rep.kronecker(*lab), lab
    span_dims = sorted({m.dim for m in discovery6.modules() if m.degree >= 5})
    assert span_dims == [27, 54, 100, 640]
    for m in discovery6.modules():
        assert m.dim == rep.label_dim(m.label)
    assert len(set(rep.module_span(poly.integer_terms([f_determinant()]))[1].tolist())) == 10
    with capsys.disabled():
        report(5, "hw dims = Kronecker for %d labels (degrees 1-5 exhaustive + "
                  "degree-6 module labels); isotypic sums match ambient dims; "
                  "module spans hit 27/54/100/640" % checked)


@pytest.mark.slow
def test_criterion_6_non_zero_divisors(discovery6, capsys):
    f = f_determinant()
    g = witness_g()
    t0 = time.time()
    for p in (101, 32003):
        rf = graded_nonzerodivisor_check(discovery6.gens, f, cap=6, p=p)
        assert bool(rf), (p, rf.table)
        assert rf.witness_degree == 3
        rg = graded_nonzerodivisor_check(discovery6.gens, g, cap=6, p=p)
        assert bool(rg), (p, rg.table)
        assert rg.witness_degree == 4
    elapsed = time.time() - t0
    with capsys.disabled():
        report(6, "graded identities (1-t^3)H=H and (1-t^4)H=H hold through "
                  "degree 6 at primes 101 and 32003 (%.1fs)" % elapsed)


@pytest.mark.slow
def test_stretch_hilbert_degree7(discovery6, capsys):
    """Not an acceptance gate: the degree-7 quotient dimension (the folded
    sweep ranks 153 of its 10368 weight blocks, in a few seconds and about
    210 MB)."""
    value = hilbert_quotient(discovery6.gens, 7)
    assert value == 3942162
    with capsys.disabled():
        print("STRETCH: PASS - Hilbert quotient at degree 7 = %d" % value)


@pytest.mark.slow
def test_stretch_discover_degree7(capsys):
    """Not an acceptance gate: the minimal-generator search through degree
    7 at the default seed finds no degree-7 generator.  It runs in its own
    process, so that the wall time and peak RSS it prints are its own."""
    # ru_maxrss survives exec and so would report pytest's own peak; on Linux
    # VmHWM is the peak of the new process image alone
    code = ("import json, resource, time\n"
            "from trifocal import ideal, orbits\n"
            "t = time.perf_counter()\n"
            "counts = ideal.discover(7, orbits.trifocal_normal_form(), seed=2024).counts()\n"
            "seconds = time.perf_counter() - t\n"
            "try:\n"
            "    rss = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "               if line.startswith('VmHWM:')) / 1024\n"
            "except OSError:\n"
            "    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "print(json.dumps({'counts': counts, 'seconds': seconds, 'rss_mb': rss}))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trifocal.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["counts"] == {"1": 0, "2": 0, "3": 10, "4": 0, "5": 81, "6": 1980, "7": 0}
    with capsys.disabled():
        print("STRETCH: PASS - discover(7) finds 10/81/1980/0 in degrees 3/5/6/7 "
              "(%.1fs, peak RSS %.0f MB)" % (run["seconds"], run["rss_mb"]))


def test_criterion_7_degeneration_replay(capsys):
    assert replay_orbit17() is True
    assert replay_orbit18(orbit18_rep()) is True
    reps = boundary_orbit_reps()
    assert set(reps) == {"17", "17'", "17''", "18'", "18''"}
    with capsys.disabled():
        report(7, "symbolic degeneration replays for orbits 17 and 18 hold exactly")
