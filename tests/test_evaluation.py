"""The exact evaluation kernel (poly.evaluate_points) against the per-term
dict loop it replaced, kept here as the oracle.  The kernel takes integer
term slices; Polys with Fraction coefficients reach it through helpers.values."""

import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from trifocal import ideal, poly, rep
from trifocal.linalg import MACHINE_PRIME_BOUND
from trifocal.orbits import skew_tensor
from trifocal.poly import Poly, evaluate_points, term_slices, witness_g
from trifocal.scalars import is_prime
from trifocal.tensor import Tensor333

from helpers import evaluate, hw_batch, m3_generators, poly_of, slices, values


# --- oracle --------------------------------------------------------------------

def oracle(polys, t):
    """Values of the polynomials at t, one product per term."""
    flat = t.flat
    out = []
    for f in polys:
        total = 0
        for mono, coeff in f.terms.items():
            v = coeff
            for idx in mono:
                v = v * flat[idx]
            total = total + v
        out.append(total)
    return out


def random_poly(rng, degrees, cmax, fractions=False, nterms=25):
    terms = {}
    for _ in range(nterms):
        mono = tuple(sorted(rng.randrange(27) for _ in range(rng.choice(degrees))))
        c = rng.randint(-cmax, cmax)
        terms[mono] = terms.get(mono, 0) + (Fraction(c, rng.randint(1, 60)) if fractions else c)
    return Poly(terms)


def random_tensor(rng, entry):
    return Tensor333([[[entry() for _ in range(3)] for _ in range(3)] for _ in range(3)])


def sample_polys(seed):
    rng = random.Random(seed)
    return [
        Poly(),
        Poly({(): -7}),
        random_poly(rng, (0, 1, 2, 3, 4), 50),          # not homogeneous
        random_poly(rng, (7,), 10),
        random_poly(rng, (6,), 1 << 80),
        random_poly(rng, (2, 5), 100, fractions=True),
        random_poly(rng, (1, 7), 1 << 80, fractions=True),
        Poly({(3,) * 7: 5}),                             # |value| = L1 * |x|^7 at equal entries
        Poly({(4,) * 7: -3}),
        witness_g(),
    ] + [g for ax in "ABC" for g in m3_generators(ax)]


def sample_points(seed):
    rng = random.Random(seed)
    near = 1 << 70
    return [
        random_tensor(rng, lambda: rng.randint(-9, 9)),
        random_tensor(rng, lambda: rng.randint(-300, 300)),
        random_tensor(rng, lambda: rng.choice((-1, 1)) * rng.randint(near - 99, near)),
        Tensor333([[[near - 1] * 3] * 3] * 3),
        Tensor333([[[-(near + 3)] * 3] * 3] * 3),
        random_tensor(rng, lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 9))),
        random_tensor(rng, lambda: Fraction(rng.randint(-1 << 40, 1 << 40), rng.randint(1, 1 << 30))),
    ]


# --- kernel against the oracle --------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_equals_oracle(seed):
    polys, points = sample_polys(seed), sample_points(100 + seed)
    got = values(polys, points)
    assert len(got) == len(points)
    for t, vals in zip(points, got):
        want = oracle(polys, t)
        assert vals == want
        assert any(v < 0 for v in want) and any(v > 0 for v in want)
        assert all(type(v) is int for v, w in zip(vals, want) if type(w) is int)


def test_batch_of_one_and_single_poly_agree_with_the_batch():
    polys, points = sample_polys(5), sample_points(6)
    packs = [poly._pack(f) for f in polys]   # integer multiples by their denominators
    got = values(polys, points)
    for t, vals in zip(points, got):
        assert ideal.evaluate_batch([pk[:2] for pk in packs], t) == [v * pk[2] for v, pk in zip(vals, packs)]
        assert [evaluate(f, t) for f in polys] == vals


def test_empty_inputs():
    t = sample_points(0)[0]
    assert evaluate_points([], [t, t]) == [[], []]
    assert evaluate_points(slices(sample_polys(0)[:2]), []) == []
    assert ideal.evaluate_batch(slices([Poly(), Poly()]), t) == [0, 0]
    assert evaluate(Poly(), t) == 0
    assert evaluate(Poly({(): Fraction(3, 4)}), t) == Fraction(3, 4)


def test_cube_path_equals_oracle(monkeypatch):
    """Above 28^3 terms the kernel looks up chunk codes of three factors in
    a table of all 28^3 products: degrees 0-7, a constant, a polynomial
    that is not homogeneous and Fraction coefficients, at Fraction points
    and points near 2^70, as the oracle and as each polynomial alone."""
    rng = random.Random(9)
    polys = [Poly({(): -7}), Poly(), random_poly(rng, range(8), 1 << 40, nterms=6000),
             random_poly(rng, (2, 6), 50, fractions=True, nterms=3000)] + [
        random_poly(rng, (d,), 1 << (10 * d), nterms=min(27 ** d, 4000)) for d in range(1, 8)]
    assert sum(map(len, polys)) > poly._BASE ** 3 > max(map(len, polys))
    points = sample_points(11)[:6]   # the last alone needs 199 primes and 2 s
    residues, cubes = poly._residues, []

    def logged(idx, cube, *args):
        cubes.append(cube)
        return residues(idx, cube, *args)

    monkeypatch.setattr(poly, "_residues", logged)
    got = values(polys, points)
    assert cubes and all(cubes)
    del cubes[:]
    for t, vals in zip(points, got):
        assert vals == oracle(polys, t) == [evaluate(f, t) for f in polys]
    assert cubes and not any(cubes)   # one polynomial alone is below 28^3 terms


def test_runs_of_polynomials_equal_the_oracle(monkeypatch):
    """With runs of at most 3000 terms: a polynomial above 28^3 terms (a
    cube-path run of its own) among direct-path runs, polynomials that
    straddle runs, zero and constant polynomials, Fraction coefficients and
    Fraction points; each run takes primes for its own bound."""
    monkeypatch.setattr(poly, "_RUN_TERMS", 3000)
    rng = random.Random(12)
    big = random_poly(rng, (5, 6, 7), 1 << 40, nterms=24000)
    polys = [Poly(), Poly({(): -7}), random_poly(rng, (3, 4), 99, nterms=1400),
             random_poly(rng, (2, 5), 50, fractions=True, nterms=1400), Poly(),
             random_poly(rng, (6,), 1 << 80, nterms=2900), big, Poly({(): Fraction(5, 3)}),
             random_poly(rng, (1, 7), 9, nterms=900), random_poly(rng, (0, 2), 9, nterms=900)]
    assert len(big) > poly._BASE ** 3
    points = sample_points(13)[:6]
    residues, runs = poly._residues, []

    def logged(codes, cube, coef, starts, ys, q):
        if not runs or runs[-1][0] is not codes:   # a run takes a call per modulus and group
            runs.append((codes, cube, len(starts), []))
        runs[-1][3].append(q)
        return residues(codes, cube, coef, starts, ys, q)

    monkeypatch.setattr(poly, "_residues", logged)
    got = values(polys, points)
    whole = runs[:]
    assert [run[1:3] for run in whole] == [(False, 3), (False, 1), (True, 1), (False, 3)]
    for t, vals in zip(points, got):
        assert vals == oracle(polys, t)
    for (i, j), run in zip(((0, 5), (5, 6), (6, 7), (7, 10)), whole):
        del runs[:]   # each run alone: the same values and the moduli of its own bound
        assert values(polys[i:j], points) == [vals[i:j] for vals in got]
        assert [r[3] for r in runs] == [run[3]]


def peak_terms():
    """2000 term slices of degree 6 with 320000 terms between them."""
    rng = np.random.default_rng(14)
    rows = np.sort(rng.integers(0, 27, (320000, 6)).astype(np.uint8), axis=1)
    batch = (rows, np.sort(rng.integers(0, 2000, 320000)), rng.integers(-50, 50, 320000))
    terms = term_slices(poly.normalize_batch(poly.merge_terms(batch)))
    assert len(terms) == 2000 and sum(len(c) for _, c in terms) > 300000
    return terms


def test_evaluation_peak_does_not_grow_with_the_terms(traced_peak_mb):
    """320000 terms of 2000 polynomials at one point: runs of at most
    _RUN_TERMS terms keep the peak under 8 MB (about 22 MB as one run)."""
    terms = peak_terms()
    ones = Tensor333([[[1] * 3] * 3] * 3)
    assert evaluate_points(terms, [ones]) == [[int(c.sum()) for _, c in terms]]
    peak, _ = traced_peak_mb(evaluate_points, terms, [sample_points(15)[1]])
    assert peak < 8


def test_evaluation_peak_from_a_cold_start(traced_peak_mb):
    """The same call with no layout kept: building the runs' layout, which
    the call then keeps, stays under the same 8 MB."""
    terms, t = peak_terms(), sample_points(15)[1]
    evaluate_points(slices([Poly({(): 1})]), [t])   # its one-term layout replaces the last
    assert len(poly._LAST[0]) == 1
    peak, got = traced_peak_mb(evaluate_points, terms, [t])
    assert peak < 8
    assert poly._LAST[0] is terms and got == [oracle(list(map(poly_of, terms)), t)]


def test_prime_count_follows_the_bound(monkeypatch):
    """The primes taken beyond the 2^64 ring: none at small entries, some
    near 2^70."""
    counts = []
    primes_above = poly._primes_above

    def counting(bound):
        out = primes_above(bound)
        counts.append(len(out))
        return out

    monkeypatch.setattr(poly, "_primes_above", counting)
    polys = sample_polys(3)[:4]   # coefficients below 2^10, degree <= 7
    small, _, big = sample_points(4)[:3]
    assert values(polys, [small]) == [oracle(polys, small)]
    assert values(polys, [big]) == [oracle(polys, big)]
    assert counts[0] == 0 < counts[1]


def test_points_take_the_primes_of_their_own_bound(monkeypatch):
    """A small-entry point evaluated in one call with a point near 2^70
    gets the moduli it gets alone, the ring and no prime, not the large
    point's."""
    residues, calls = poly._residues, []

    def logged(codes, cube, coef, starts, ys, q):
        calls.append((len(ys), q))
        return residues(codes, cube, coef, starts, ys, q)

    monkeypatch.setattr(poly, "_residues", logged)
    polys = sample_polys(5)[:4]
    small, _, big = sample_points(6)[:3]
    assert values(polys, [small]) == [oracle(polys, small)]
    assert calls == [(1, poly._RING)]
    del calls[:]
    assert values(polys, [big]) == [oracle(polys, big)]
    large = [q for _, q in calls]
    assert calls == [(1, q) for q in large] and large[0] == poly._RING and len(large) > 1
    del calls[:]
    points = [small, big, small]
    assert values(polys, points) == [oracle(polys, t) for t in points]
    assert calls == [(2, poly._RING)] + [(1, q) for q in large]


A = 3037000499   # 2 * A^2 < 2^64 < 2 * (A + 1)^2
X0 = Poly({(0,): 1})
FILLER = [Poly({(i, j): (-1) ** (i * j) for i in range(27) for j in range(i, 27)})
          for _ in range(59)]   # 59 * 378 terms: with it, a run takes the cube path


def point(entries, rest=1):
    """A tensor with the given flat entries and rest everywhere else."""
    return Tensor333([[[entries.get(9 * i + 3 * j + k, rest) for k in range(3)] for j in range(3)]
                      for i in range(3)])


RING_CASES = [   # polynomials, point, primes beyond the ring
    ([Poly({(0, 1): 1}), Poly({(0, 0): 1})], point({0: A, 1: -A}), 0),
    ([Poly({(0, 1): 1})], point({0: A + 1, 1: -A - 1}), 1),
    ([Poly({(0, 1): 1})], point({0: Fraction(A, 3), 1: Fraction(-A, 3)}), 0),
    ([Poly({(0, 1): 1})], point({0: Fraction(A + 2, 3), 1: Fraction(A + 2, 3)}), 1),
    ([X0], point({0: (1 << 63) - 1}), 0),
    ([X0], point({0: 1 - (1 << 63)}), 0),
    ([X0], point({0: -1 << 63}), 1),
    ([Poly({(): (1 << 63) - 1}), Poly({(): 1 - (1 << 63)})], point({}), 0),
    ([Poly({(): -1 << 63})], point({}), 1),
    ([Poly({(0, 1): (1 << 60) + 1, (1, 2): -3})], point({1: -1}), 0),   # above 2^53
    ([Poly({(0, 1, 2): 3}), Poly({(0, 0, 2): -5})], point({0: (1 << 19) + 1, 2: -(1 << 19)}), 0),
    ([Poly({(0,): 1 << 80, (1,): -1})], point({0: 3, 1: -7}), 1),
    ([Poly({(): (1 << 63) - 1}), Poly({(): 1 - (1 << 63)})] + FILLER, point({4: -1}), 0),
    ([Poly({(): -1 << 63})] + FILLER, point({4: -1}), 1),
    ([Poly({(0, 1): (1 << 60) + 1, (1, 2): -3})] + FILLER, point({1: -1}, -1), 0),
    ([Poly({(): (1 << 60) - 1}), Poly({(): 1 - (1 << 60)})] + FILLER,
     point({5: Fraction(1, 2)}, -1), 0),   # D = 2: the value times D^3 sits just inside 2^63
    ([Poly({(): 1 << 60})] + FILLER, point({5: Fraction(1, 2)}, -1), 1),
    ([Poly({(): -1 << 60})] + FILLER, point({5: Fraction(-1, 2)}), 1),
    ([Poly({(0, 1): 1 << 80, (1, 2): -1})] + FILLER, point({0: 3, 1: -7}), 1),
]


@pytest.mark.parametrize("polys, t, primes", RING_CASES)
def test_values_at_the_ring_boundary_equal_the_oracle(monkeypatch, polys, t, primes):
    """Bounds just below and at or above 2^64, values at +-(2^63 - 1), at
    -2^63 and above 2^53, object and negative coefficients, Fraction
    points, on the direct and the cube path: the oracle's values, from the
    ring alone below the bound and with a prime above it."""
    residues, calls = poly._residues, []

    def logged(codes, cube, coef, starts, ys, q):
        calls.append((cube, q))
        return residues(codes, cube, coef, starts, ys, q)

    monkeypatch.setattr(poly, "_residues", logged)
    got, want = values(polys, [t])[0], oracle(polys, t)
    assert got == want and all(type(v) is int for v, w in zip(got, want) if type(w) is int)
    assert [q for _, q in calls] == [poly._RING] + [poly.machine_prime(i) for i in range(primes)]
    assert {cube for cube, _ in calls} == {len(polys) > 1 + len(FILLER) // 2}
    assert max(map(abs, want)) > 1 << 53


def test_the_last_layout_serves_the_same_packs_only(monkeypatch):
    """A's term slices, a fresh list of the same slice tuples (the kept
    layout), B with one slice swapped for one of the same length, then A
    again: the oracle's values each time, one layout held, built only on a
    change."""
    builds, bounded = [], poly.bounded_runs
    monkeypatch.setattr(poly, "bounded_runs", lambda *args: builds.append(1) or bounded(*args))
    a = FILLER[:40] + [Poly({(0, 1, 2): 1}), Poly({(0, 1): 7})] + FILLER[40:]
    b = a[:41] + [Poly({(0, 2): -7})] + a[42:]
    ta = slices(a)
    tb = ta[:41] + slices(b[41:42]) + ta[42:]
    points = sample_points(16)[:2] + [sample_points(16)[5]]
    for terms, polys, built in ((ta, a, 1), (list(ta), a, 1), (tb, b, 2), (list(ta), a, 3)):
        assert evaluate_points(terms, points) == [oracle(polys, t) for t in points]
        assert len(builds) == built
        kept, runs = poly._LAST
        assert len(kept) == len(terms) and all(map(operator.is_, kept, terms))
        assert any(run[4] for run in runs)   # the cube path
    evaluate_points([], points)   # no polynomials: no layout
    assert poly._LAST == [[], []]


def test_primes_are_machine_primes():
    primes = poly._primes_above(1 << 200)
    assert len(set(primes)) == len(primes) == 7
    assert all(p <= MACHINE_PRIME_BOUND and is_prime(p) for p in primes)


# --- the packed form ------------------------------------------------------------

def test_module_span_packs_match_fresh_packs(discovery5, trifocal_nf):
    """A filed module_span batch gives basis vectors that are term slices
    of the filed chunk: the packs of the same polynomials made afresh from
    their terms, with the same values, their coefficients at the chunk's
    width (int8: content-normalized, they stay within [-5, 5])."""
    points = [skew_tensor()] + ideal.trifocal_points(trifocal_nf, 77, 2)
    for m in discovery5.scans[5].modules:
        basis = ideal.GradedGeneratorSet().add_module(rep.module_span(hw_batch(m)))
        fresh = list(map(poly_of, basis))
        for a, b in zip(basis, map(poly._pack, fresh)):
            assert np.array_equal(a[0], b[0]) and a[0].dtype == b[0].dtype
            assert np.array_equal(a[1], b[1]) and a[1].dtype == np.int8 and b[2] == 1
        assert evaluate_points(basis, points) == values(fresh, points) \
            == [oracle(fresh, t) for t in points]
    f = fresh[-1]   # the generators vanish at orbit points; f minus a term does not
    m0 = next(iter(f.terms))
    g = Poly({m: c for m, c in f.terms.items() if m != m0})
    assert len(g) == len(f) - 1
    assert evaluate(g, points[1]) == oracle([g], points[1])[0] != 0


def test_floats_and_bools_are_rejected():
    t = sample_points(8)[0]
    f = Poly({(0, 1): 2})
    for bad in (0.5, 2.0, True):
        entries = [[list(row) for row in plane] for plane in t.t]
        entries[0][0][1] = bad
        with pytest.raises(TypeError):
            evaluate(f, Tensor333(entries))
        with pytest.raises(TypeError):
            ideal.evaluate_batch(slices([f]), Tensor333(entries))
        with pytest.raises(TypeError):   # Poly() would turn True into 1
            evaluate(Poly._wrap({(0,): bad, (1,): 1}), t)


# --- the discovered generators ---------------------------------------------------

@pytest.mark.slow
def test_discovered_generators_equal_the_oracle(discovery6, trifocal_nf):
    gens = [f for m in discovery6.modules() for f in m.basis]
    points = [skew_tensor()] + ideal.trifocal_points(trifocal_nf, 4242, 2)
    got = evaluate_points(gens, points)
    for t, vals in zip(points, got):
        assert vals == oracle(list(map(poly_of, gens)), t)
    assert sum(v != 0 for v in got[0]) == 155
    assert not any(got[1]) and not any(got[2])
