import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from trifocal import ideal, linalg, poly, rep
from trifocal.ideal import (DegreeCapError, GradedGeneratorSet,
                            graded_nonzerodivisor_check, hilbert_quotient,
                            hilbert_with_witnesses, ideal_dim_in_degree, scan_degree,
                            slice_rows_by_weight, vanishing_subspace)
from trifocal.orbits import catalog, skew_tensor
from trifocal.poly import (Poly, det_slice_poly, f_determinant, integer_terms, merge_terms,
                           parse_poly, var_ijk, var_index, weight_space_basis, witness_g)
from trifocal.tensor import Tensor333, act, random_orbit_point

from helpers import (batch_of, batch_polys, hw_batch, m3_generators, module_polys, normalized,
                     plain_set, poly_of, scale, slices, stabiliser, term_key, variable_map,
                     weight_table)


@pytest.fixture(scope="module")
def m3_set():
    return plain_set({3: m3_generators("C")})


def test_ideal_dims_of_cubic_generators(m3_set):
    assert ideal_dim_in_degree(m3_set, 3) == 10
    assert ideal_dim_in_degree(m3_set, 4) == 270
    assert ideal_dim_in_degree(m3_set, 5) == 3780


def test_hilbert_quotients_low_degrees(m3_set):
    assert hilbert_quotient(m3_set, 0) == 1
    assert hilbert_quotient(m3_set, 1) == 27
    assert hilbert_quotient(m3_set, 2) == 378
    assert hilbert_quotient(m3_set, 3) == 3644
    assert hilbert_quotient(m3_set, 4) == 27135


def test_degree_cap_enforced(m3_set):
    with pytest.raises(DegreeCapError):
        ideal_dim_in_degree(m3_set, 8)
    with pytest.raises(DegreeCapError):   # before any degree is ranked
        graded_nonzerodivisor_check(m3_set, det_slice_poly("A", 1), cap=8)


# --- the dict product-row builder, the oracle of the packed blocks ----------------

def dict_groups(by_degree):
    """{degree: [(weight, generators)]} of {degree: generators}, weights in
    order of filing."""
    out = {}
    for e, polys in by_degree.items():
        groups = {}
        for f in polys:
            groups.setdefault(f.weight(), []).append(f)
        out[e] = list(groups.items())
    return out


def weight_of(key):
    """A weight key (poly.weight_keys) as a triple of content triples."""
    return tuple(map(tuple, poly.key_weights(key)[0].tolist()))


def key_of(weight):
    """The weight key of a triple of content triples."""
    return int(poly.weight_keys(weight)[0])


def minus(w, v):
    return tuple(tuple(a - b for a, b in zip(x, y)) for x, y in zip(w, v))


def dict_rows(groups, d, key, top):
    """Degree-d product rows {monomial: coefficient} of the weight key from
    generators of degree at most top: by degree, generator weight,
    multiplier, then generator."""
    rows = []
    for e in sorted(groups):
        for wg, polys in groups[e] if e <= min(d, top) else ():
            rest = minus(weight_of(key), wg)
            if min(map(min, rest)) >= 0:
                for mult in weight_space_basis(d - e, rest):
                    rows.extend({tuple(sorted(m + mult)): c for m, c in g.terms.items()} for g in polys)
    return rows


def dict_block_matrix(rows, p):
    """The rows mod p over their monomials in order of first appearance."""
    cols, ri, ci, vals = {}, [], [], []
    for i, r in enumerate(rows):
        for m, c in r.items():
            ri.append(i)
            ci.append(cols.setdefault(m, len(cols)))
            vals.append(c % p)
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    a[ri, ci] = vals
    return a, list(cols)


def assert_same_block(block, rows, p=101):
    """The packed block is the oracle matrix up to a column permutation,
    with the same rows in the same order; returns the oracle matrix."""
    a, keys = block.matrix(p), np.unique(block.keys)
    b, monos = dict_block_matrix(rows, p)
    assert len(block) == len(rows) and a.shape == b.shape
    want = poly.mono_keys(np.array(monos, dtype=np.uint8).reshape(len(monos), -1 if monos else 0))
    at = np.searchsorted(keys, want)
    assert len(set(at.tolist())) == len(at) and np.array_equal(keys[at], want)
    assert np.array_equal(a[:, at], b)
    return b


# --- tuple walks, the oracles of the weight-key fold, filing and stabiliser -----

def tuple_contents(n):
    """Index contents (x, y, z), x + y + z = n, of one factor in degree n."""
    return tuple((x, y, n - x - y) for x in range(n, -1, -1) for y in range(n - x, -1, -1))


def tuple_shifted_weights(w, n):
    """Weights of degree-n multiples of a weight-w polynomial; every
    content triple is the weight of some monomial."""
    return {tuple(tuple(a + b for a, b in zip(slot, c)) for slot, c in zip(w, cs))
            for cs in product(tuple_contents(n), repeat=3)}


def tuple_slice_weights(gens, d):
    """Weights of the nonempty blocks of the degree-d slice."""
    return set().union(*(tuple_shifted_weights(wg, d - e) for e in gens.degrees() if e <= d
                         for wg, _ in weight_table(gens, e)[1]))


def tuple_image(sigma, w):
    return tuple(tuple(slot[i] for i in s) for slot, s in zip(w, sigma))


def tuple_fold(group, weights):
    """{orbit representative: number of the weights in it}, one walk per orbit."""
    weights, seen, reps = set(weights), set(), {}
    for w in weights:
        if w not in seen:
            orbit = {tuple_image(sigma, w) for sigma in group}
            seen |= orbit
            reps[max(orbit)] = len(orbit & weights)
    return reps


def keys_of(weights):
    return poly.weight_keys(sorted(weights))


def mono_weight(mono):
    """((A-content), (B-content), (C-content)) of a monomial."""
    w = [[0, 0, 0] for _ in range(3)]
    for v in mono:
        for slot, i in zip(w, var_ijk(v)):
            slot[i] += 1
    return tuple(map(tuple, w))


def file_per_generator(index, polys):
    """GradedGeneratorSet._file's index after filing polys, the weight of
    each generator read from its first term and its terms gathered one
    generator at a time."""
    index = dict(index)
    rows, ids, coeffs = integer_terms(polys)
    bounds = np.searchsorted(ids, np.arange(len(polys) + 1))
    groups = {}
    for i, m in enumerate(rows[bounds[:-1]].tolist()):
        groups.setdefault(mono_weight(m), []).append(i)
    for w, gs in groups.items():
        take = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in gs])
        old = index.get(w, (rows[:0], ids[:0], coeffs[:0], 0))
        new = np.repeat(np.arange(old[3], old[3] + len(gs)), np.diff(bounds)[gs])
        index[w] = (np.concatenate([old[0], rows[take]]), np.concatenate([old[1], new]),
                    np.concatenate([old[2], coeffs[take]]), old[3] + len(gs))
    return index


def dict_stabiliser(group, f):
    """The sigma in group whose permuted term dict is a multiple of f's."""
    m0, out = next(iter(f.terms)), []
    for sigma in group:
        vmap = variable_map(sigma)
        g = {tuple(sorted(vmap[v] for v in m)): c for m, c in f.terms.items()}
        if g.keys() == f.terms.keys() and all(
                g[m] * f.terms[m0] == c * g[m0] for m, c in f.terms.items()):
            out.append(sigma)
    return tuple(out)


def minimal_generator_test(h, gens, p=101):
    """True iff h lies in the degree slice generated by the lower-degree
    part of gens, the test scan_degree makes: True means h is NOT a
    minimal generator."""
    w = key_of(h.weight())
    block = ideal.rows_in_weight_block(gens, h.degree(), w)
    return not ideal._independent_of(block, batch_of(h) + (1,), h.degree(), w, p)[0]


def test_weight_blocking_is_lossless(m3_set):
    """Blocked rank sum equals the rank of the unblocked matrix: all packed
    blocks of a degree stacked into one, over the union of their columns."""
    for d in (3, 4):
        blocks = slice_rows_by_weight(m3_set, d, ideal._slice_weights(m3_set, d))
        whole = sum(blocks.values(), ideal.Block())
        a = whole.matrix(101)
        assert len(linalg.rref_mod_p(a, 101)[1]) == ideal_dim_in_degree(m3_set, d)


def test_short_side_rank_matches_row_elimination(m3_set):
    """_factor eliminates a block's transpose, whichever side is short.
    Every block of degrees 3-5 equals the oracle matrix up to a column
    permutation; it (all wide from degree 4) and its transpose, a Block
    keyed by row index (all tall), have the rank of the oracle matrix's row
    elimination."""
    groups, sides = dict_groups({3: m3_generators("C")}), set()
    for d in (3, 4, 5):
        for w, block in slice_rows_by_weight(m3_set, d, ideal._slice_weights(m3_set, d)).items():
            b = assert_same_block(block, dict_rows(groups, d, w, d))
            col_of = np.unique(block.keys, return_inverse=True)[1]
            flipped = ideal.Block(block.rows.astype(np.int64), col_of, block.coeffs, b.shape[1])
            for blk, want in ((block, b), (flipped, b.T)):
                sides.add(np.sign(len(blk) - blk.matrix(101).shape[1]))
                assert ideal._factor(blk, 101).rank == len(linalg.rref_mod_p(want, 101)[1])
    assert {-1, 1} <= sides   # wide and tall blocks both occur


def test_packed_blocks_equal_dict_rows():
    """Two cubic modules that share weights, so that their weight groups
    merge, and two plain quartics: blocks of the whole slice and strictly
    below it."""
    gens = GradedGeneratorSet()
    cubics = [list(map(poly_of, gens.add_module(rep.module_span(batch_of(h)))))
              for h in (det_slice_poly("C", 1), f_determinant())]
    quartics = [parse_poly("T_1_1_1^2*T_2_3_1^2"), parse_poly("T_1_1_1*T_2_3_1*T_3_2_2^2")]
    gens.add(4, quartics)
    groups = dict_groups({3: cubics[0] + cubics[1], 4: quartics})
    for d in (3, 4, 5):   # at 5 every generator lies below d, and groups meet several multipliers
        for w, block in slice_rows_by_weight(gens, d, ideal._slice_weights(gens, d)).items():
            assert_same_block(block, dict_rows(groups, d, w, d))
            if d < 5:
                assert_same_block(ideal.rows_in_weight_block(gens, d, w),
                                  dict_rows(groups, d, w, d - 1))


@pytest.mark.slow
def test_packed_blocks_equal_dict_rows_on_discovery6(discovery6):
    """The degree-6 base blocks that the folded sweep ranks, and the f and
    g witness blocks, against the dict rows."""
    gens, groups = discovery6.gens, dict_groups(module_polys(discovery6.modules()))
    weights = ideal._fold(ideal.WEYL, ideal._slice_weights(gens, 6))
    blocks = slice_rows_by_weight(gens, 6, weights)
    for w in weights:
        assert_same_block(blocks[w], dict_rows(groups, 6, w, 6))
    for f in (f_determinant(), witness_g()):
        e, wf = ideal.check_witness(f)
        witness = (e, key_of(wf), integer_terms([f]) + (1,))
        shifted = poly.weight_keys(wf) + poly._monomial_table(6 - e)[1]
        wit = ideal._fold(stabiliser(ideal.WEYL, f), shifted)
        blocks = slice_rows_by_weight(gens, 6, wit)
        for w in wit:
            rest = minus(weight_of(w), wf)
            packed = blocks.get(w, ideal.Block()) + ideal._block(gens, 6, w, 6, witness)
            assert_same_block(packed, dict_rows(groups, 6, w, 6) + [
                {tuple(sorted(m + mult)): c for m, c in f.terms.items()}
                for mult in weight_space_basis(6 - e, rest)])


def test_mono_keys_are_in_tuple_order_without_collisions():
    rng = random.Random(12)
    monos = sorted({tuple(sorted(rng.randrange(27) for _ in range(7))) for _ in range(3000)}
                   | {(0,) * 7, (25,) + (26,) * 6, (26,) * 7})
    keys = poly.mono_keys(np.array(monos, dtype=np.uint8))
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    # every degree-7 monomial that uses variable 26, the largest, in 35 bits
    rows = np.array(list(combinations_with_replacement(range(27), 6)), dtype=np.uint8)
    keys = poly.mono_keys(np.hstack([rows, np.full((len(rows), 1), 26, np.uint8)]))
    assert len(np.unique(keys)) == len(rows) == 906192 and keys.max() < 1 << 35


def test_rational_and_non_primitive_generators_give_the_integer_ranks(m3_set):
    """Each generator is filed as its integer multiple with content 1, so
    f/2, -f/3 and 101 f span what f spans, also at p = 101."""
    cubics = m3_generators("C")
    for c in (Fraction(1, 2), Fraction(-1, 3), 101):
        scaled = plain_set({3: [scale(f, c) for f in cubics]})
        for d in (3, 4):
            assert hilbert_quotient(scaled, d) == hilbert_quotient(m3_set, d)
    x = parse_poly("T_1_1_1")
    xy = parse_poly("T_1_1_1*T_2_2_2")   # one term: 1/2 once truncated to 0
    for d in (3, 4):
        assert (hilbert_with_witnesses(m3_set, [scale(x, Fraction(1, 2))], d)
                == hilbert_with_witnesses(m3_set, [x], d))
        assert (hilbert_quotient(plain_set({2: [scale(xy, Fraction(1, 2))]}), d)
                == hilbert_quotient(plain_set({2: [xy]}), d))


def test_module_set_matches_plain_m3_set(m3_set):
    """The module of one highest weight vector spans the 10 cubics; its
    folded sweeps give the plain set's H(1..6) and NZD values for f, g."""
    module_set = GradedGeneratorSet()
    basis = list(map(poly_of, module_set.add_module(rep.module_span(batch_of(det_slice_poly("C", 1))))))
    assert ideal_dim_in_degree(plain_set({3: basis + m3_generators("C")}), 3) == 10
    assert module_set.symmetry_group(6) is ideal.WEYL
    assert m3_set.symmetry_group(6) is ideal.IDENTITY
    witnesses = [f_determinant(), witness_g()]
    for d in range(1, 7):
        assert (ideal.hilbert_with_witnesses(module_set, witnesses, d)
                == ideal.hilbert_with_witnesses(m3_set, witnesses, d))


def test_plain_generator_turns_folding_off():
    gens = GradedGeneratorSet()
    basis = list(map(poly_of, gens.add_module(rep.module_span(batch_of(det_slice_poly("C", 1))))))
    quartic = parse_poly("T_1_1_1^2*T_2_3_1^2")
    gens.add(4, [quartic])
    assert gens.symmetry_group(3) is ideal.WEYL
    assert gens.symmetry_group(4) is ideal.IDENTITY
    plain = plain_set({3: basis, 4: [quartic]})
    for d in (4, 5):
        assert hilbert_quotient(gens, d) == hilbert_quotient(plain, d)
    # a module added to a degree that already holds plain generators
    late = plain_set({2: [parse_poly("T_1_1_1*T_2_3_1")]})
    late.add_module(rep.module_span(batch_of(parse_poly("T_1_1_1^2"))))
    assert late.symmetry_group(2) is ideal.IDENTITY


def test_witness_stabiliser_orders():
    assert len(stabiliser(ideal.WEYL, f_determinant())) == 72
    assert len(stabiliser(ideal.WEYL, witness_g())) == 8
    assert stabiliser(ideal.IDENTITY, witness_g()) == ideal.IDENTITY


def test_stabiliser_memo_matches_fresh_computation():
    assert ideal._weyl_maps().tolist() == [list(variable_map(s)) + [poly.PAD] for s in ideal.WEYL]
    fresh = ideal._stabiliser.__wrapped__
    f = f_determinant()
    assert stabiliser(ideal.WEYL, f) == fresh(ideal.WEYL, frozenset(f.terms.items()))
    # one coefficient doubled: no longer a multiple of any image of f
    m0, c0 = next(iter(f.terms.items()))
    g = Poly({**f.terms, m0: 2 * c0})
    assert stabiliser(ideal.WEYL, g) == fresh(ideal.WEYL, frozenset(g.terms.items()))
    assert len(stabiliser(ideal.WEYL, g)) < len(stabiliser(ideal.WEYL, f))
    # the packed rows against the permuted term dicts, also for -f images and Fractions
    for h in (f, g, witness_g(), *map(parse_poly, ("a11^2 - a22^2", "-2/3*a11*a22", "a11^2 + a11*a22"))):
        assert stabiliser(ideal.WEYL, h) == dict_stabiliser(ideal.WEYL, h)


def test_stabiliser_of_wide_coefficients_is_exact():
    """Witnesses with coefficients near 2^40, int64 terms below L1 2^62: the
    stabiliser compares products of two of them as objects and matches the
    exact check of whether sigma(f) is a rational multiple of f."""
    b = 2 ** 40   # a11 = T_1_1_1, b22 = T_2_2_2, c33 = T_3_3_3
    polys = [parse_poly(t % c) for t, c in (
        ("%d*a11^2 + %d*b22^2 + c33^2", (b, b)), ("%d*a11^2 + %d*b22^2", (b + 1, b - 1)),
        ("%d*a11*b22 + c33^2", b), ("%d*a11^2 - %d*b22^2 + %d*a11*b22", (3 * b, 3 * b, b + 7)))]
    for h in polys:
        assert integer_terms([h])[2].dtype == np.int64
        assert stabiliser(ideal.WEYL, h) == dict_stabiliser(ideal.WEYL, h)
    assert len(stabiliser(ideal.WEYL, polys[0])) > 1


@pytest.mark.slow
def test_orbit_walk_fold_matches_per_weight_fold(discovery6):
    """The key fold against the tuple orbit walk on discovery6's slices of
    degrees 1-7, under S3^3, {id} and the stabilisers of f and g, for the
    slice and for a subset that is no union of orbits; on the subsets below
    degree 7 the walk also against the largest image of each weight."""
    gens = discovery6.gens
    groups = [ideal.WEYL, ideal.IDENTITY, stabiliser(ideal.WEYL, f_determinant()),
              stabiliser(ideal.WEYL, witness_g())]
    assert [len(g) for g in groups] == [216, 1, 72, 8]
    for d in range(1, 8):
        weights = tuple_slice_weights(gens, d)
        assert ideal._slice_weights(gens, d).tolist() == keys_of(weights).tolist()
        for ws in (weights, set(sorted(weights)[::3])):
            for group in groups:
                fold = {weight_of(w): n for w, n in ideal._fold(group, keys_of(ws)).items()}
                assert fold == tuple_fold(group, ws), (d, len(group))
        for group in groups if d < 7 else ():
            ref = {}
            for w in set(sorted(weights)[::3]):
                r = max(tuple_image(sigma, w) for sigma in group)
                ref[r] = ref.get(r, 0) + 1
            assert tuple_fold(group, set(sorted(weights)[::3])) == ref, (d, len(group))


@pytest.mark.slow
def test_key_filing_matches_per_generator_filing(discovery6):
    """_file's weight tables entry by entry against the per-generator
    grouping, with discovery6's modules filed one at a time: the same terms,
    the coefficients held at the chunk's width, int8."""
    gens, index = GradedGeneratorSet(), {}
    for m in discovery6.modules():
        basis = list(map(poly_of, m.basis))
        gens._file(m.degree, integer_terms(basis))
        index[m.degree] = file_per_generator(index.get(m.degree, {}), basis)
        table, items = weight_table(gens, m.degree)
        assert [w for w, _ in items] == list(index[m.degree])
        assert table.tolist() == [list(sum(w, ())) for w in index[m.degree]]
        for (w, got), want in zip(items, index[m.degree].values()):
            assert got[3] == want[3] and all(map(np.array_equal, got[:3], want[:3]))
            assert [a.dtype for a in got[:3]] == [want[0].dtype, want[1].dtype, np.int8]


@pytest.mark.slow
def test_degree7_base_fold_stays_small(discovery6, traced_peak_mb):
    """The degree-7 fold of discovery6's slice weights: 153 representatives
    of 10368 weights under 4 MB traced (the tuple walk traced about 20 MB)."""
    gens = discovery6.gens
    assert gens.symmetry_group(7) is ideal.WEYL
    peak, fold = traced_peak_mb(lambda: ideal._fold(ideal.WEYL, ideal._slice_weights(gens, 7)))
    assert (len(fold), sum(fold.values())) == (153, 10368) and peak < 4


@pytest.mark.slow
def test_witness_sweep_builds_each_block_when_it_ranks_it(discovery6, traced_peak_mb,
                                                          monkeypatch):
    """A fresh degree-6 sweep with g at p = 32003 traces about 3.8 MB, the
    0.5 MB of kept factors included; with every block built before the
    first was ranked it traced 9.2 MB."""
    gens = discovery6.gens
    monkeypatch.setattr(gens, "_ranks", {})   # no memoised base ranks
    peak, out = traced_peak_mb(ideal.hilbert_with_witnesses, gens, [witness_g()], 6, 32003)
    assert out == (865860, [865482]) and peak < 7


# --- the store: each filed batch one chunk, module bases slices of it -----------

def assert_bases_are_views_of_the_store(disc):
    """Every module basis vector is its term slice of the chunk its module
    was filed as, so its terms are held once."""
    for m in disc.modules():
        index = disc.gens._tables[m.degree]
        for rows, coeffs in m.basis:
            w = int(poly.weight_keys(poly.row_weights(rows[:1]))[0])
            assert any(np.shares_memory(rows, r) and np.shares_memory(coeffs, c) for r, c, _ in index[w])


@pytest.mark.slow
def test_discovery_holds_each_term_once(trifocal_nf, traced_peak_mb):
    """A fresh discover(6) traces about 8.5 MB, its module bases slices of
    its set's int8 chunks (15.9 MB with int64 chunks).  With every term held
    a second time in per-weight tables it traced 27.3 MB."""
    peak, disc = traced_peak_mb(ideal.discover, 6, trifocal_nf, 2024)
    assert disc.counts()[6] == 1980 and peak < 16
    assert_bases_are_views_of_the_store(disc)


@pytest.mark.slow
def test_cold_discovery_peak_and_store_stay_small():
    """A cold discover(6), in a process of its own, traces at most 9.0 MB at
    its peak (8.6 MB; 9.3 MB while evaluate_points kept the layout of the
    partner's proof at nf, and with it the proved batch, through the swap
    of the 640-vector module) and holds at most 6.5 MB once it returns, every chunk
    int8: the coefficients at their width, the partner modules derived in
    bounded runs, one dense array for the independence test (9.9 MB with
    two; 15.1 and 10.0 MB with int64 chunks and full-size swaps)."""
    code = ("import tracemalloc\n"
            "from trifocal import ideal, orbits\n"
            "nf = orbits.trifocal_normal_form()\n"
            "tracemalloc.start()\n"
            "disc = ideal.discover(6, nf, seed=2024)\n"
            "held, peak = tracemalloc.get_traced_memory()\n"
            "print(held / 2 ** 20, peak / 2 ** 20, sorted({str(s[1].dtype) for t in disc.gens._tables.values()\n"
            "                                         for v in t.values() for s in v}))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ideal.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    held, peak, widths = proc.stdout.split(" ", 2)
    assert float(peak) <= 9.0 and float(held) <= 6.5 and widths.strip() == "['int8']"


def test_the_store_holds_no_poly_and_filing_builds_none(discovery5, monkeypatch):
    """Every table, key and memo of a discovered set holds arrays, numbers and
    tuples, no Poly; a module is filed, and its basis returned as slices of
    its chunk, with the name Poly gone from ideal."""
    def polys(x):
        if isinstance(x, dict):
            return sum(polys(k) + polys(v) for k, v in x.items())
        return sum(map(polys, x)) if isinstance(x, (list, tuple)) else isinstance(x, Poly)
    hilbert_quotient(discovery5.gens, 5)   # the memos too
    assert polys(vars(discovery5.gens)) == 0
    gens, span = GradedGeneratorSet(), rep.module_span(batch_of(f_determinant()))
    monkeypatch.setattr(ideal, "Poly", None)
    basis, chunk = gens.add_module(span), next(iter(gens._tables[3].values()))[0][0]
    assert len(basis) == 10 and polys(vars(gens)) == 0
    assert all(np.shares_memory(rows, chunk.base) for rows, _ in basis)


def test_plain_generators_are_filed_as_the_same_integer_terms():
    """A generator with content 1, a fraction and a multiple of one are
    left as the caller made them, and all three are filed as the same
    integer terms."""
    cubics = m3_generators("C")
    plain, half, triple = Poly(cubics[0].terms), scale(cubics[1], Fraction(1, 2)), scale(cubics[2], 3)
    terms = [dict(f.terms) for f in (plain, half, triple)]
    gens = plain_set({3: [plain, half, triple]})
    assert [f.terms for f in (plain, half, triple)] == terms and terms[0] == cubics[0].terms
    want = weight_table(plain_set({3: cubics[:3]}), 3)
    for (w, got), (v, ref) in zip(*(t[1] for t in (weight_table(gens, 3), want))):
        assert w == v and got[3] == ref[3] and all(map(np.array_equal, got[:3], ref[:3]))


def test_filing_takes_id_runs_in_any_order(discovery5):
    """A module batch with its id runs out of order, as module_span leaves
    them, files the same weight tables, chunk order and returned bases as
    the same vectors filed in id order."""
    m = max(discovery5.modules(), key=lambda m: m.dim)
    rows, ids, coeffs = integer_terms(list(map(poly_of, m.basis)))
    bounds = np.searchsorted(ids, np.arange(m.dim + 1))
    take = np.concatenate([np.arange(bounds[i], bounds[i + 1])
                           for i in np.random.default_rng(5).permutation(m.dim)])
    in_order, shuffled = GradedGeneratorSet(), GradedGeneratorSet()
    got = [in_order._file(m.degree, (rows, ids, coeffs)),
           shuffled._file(m.degree, (rows[take], ids[take], coeffs[take]))]
    assert [[ideal._key(*t) for t in b] for b in got] == [[ideal._key(*t) for t in m.basis]] * 2
    index, shuffled_index = in_order._tables[5], shuffled._tables[5]
    assert list(index) == list(shuffled_index)
    for slices, ref in zip(index.values(), shuffled_index.values()):
        assert all(np.array_equal(a, b) for s, r in zip(slices, ref) for a, b in zip(s, r))


def test_rejected_generator_leaves_the_store_unchanged():
    """A weight content above 15 does not fit poly.weight_keys' 4-bit digit:
    add raises, and the set and its tables stay as they were, also for a
    valid generator filed in the same call."""
    gens = plain_set({3: m3_generators("C")})
    table, items = weight_table(gens, 3)
    ok, bad = parse_poly("a11^8*b22^8"), parse_poly("a11^16")
    assert ok.degree() == bad.degree() == 16   # both homogeneous: filing is what refuses bad
    for polys in ([bad], [ok, bad]):
        with pytest.raises(ValueError, match="4-bit"):
            gens.add(16, polys)
        assert gens.degrees() == [3] and list(gens._tables) == [3] and gens._modules == {3: False}
        got_table, got_items = weight_table(gens, 3)
        assert np.array_equal(got_table, table) and len(got_items) == len(items)
        for (w, got), (v, ref) in zip(got_items, items):
            assert w == v and got[3] == ref[3] and all(map(np.array_equal, got[:3], ref[:3]))


def width_rule_generators(c):
    """Three degree-2 generators of two weights, c on the smallest monomial of
    the first and the third, each of content 1 whatever c is."""
    return [parse_poly("%d*T_1_1_1*T_1_2_2 + T_1_1_2*T_1_2_1" % c),
            parse_poly("T_1_1_1*T_1_2_2 - 3*T_1_1_2*T_1_2_1"),
            parse_poly("%d*T_2_1_1*T_3_2_2 + T_2_1_2*T_3_2_1 - T_2_2_1*T_3_1_2" % c)]


@pytest.mark.parametrize("c, width", [(127, np.int8), (128, np.int16), (2 ** 40, np.int64),
                                      (2 ** 70, object)])
def test_chunks_hold_the_narrowest_width(c, width, monkeypatch):
    """A chunk holds its coefficients at the narrowest signed width that holds
    max |c|, objects past int64, and gives the same H(d) and NZD table at
    p = 101 and 32003 as an int64 store of the same generators mod p (NumPy 2
    raises on int8 % 32003).  A narrow slice is widened before its terms are
    summed: c*a11*b12 + a12*b11 is c + 1 where every entry is 1."""
    polys = width_rule_generators(c)
    filed = GradedGeneratorSet()._file(2, integer_terms(polys[:1]))
    assert filed[0][1].dtype == width and poly_of(filed[0]) == normalized(polys[0]) == polys[0]
    ones = Tensor333([[[1] * 3] * 3] * 3)
    assert poly.evaluate_points(filed, [ones]) == [[c + 1]]
    batch = poly.pack_terms(polys[:1])   # the batch dtype rule: int64 below L1 2^62
    assert batch[2].dtype == (object if c >> 62 else np.int64) and merge_terms(batch)[2].dtype == batch[2].dtype
    assert poly.unpack_terms(ideal._swapped(filed), 1) == poly.unpack_terms(
        ideal._swapped(slices(polys[:1])), 1)
    assert integer_terms(polys)[2].dtype == (object if c >> 62 else np.int64)
    gens = plain_set({2: polys})
    assert {sl[1].dtype for index in gens._tables.values() for s in index.values() for sl in s} \
        == {np.dtype(width)}
    for p in (101, 32003):
        got = [hilbert_quotient(gens, d, p) for d in (2, 3)], graded_nonzerodivisor_check(
            gens, parse_poly("T_3_3_3"), 3, p).table
        with monkeypatch.context() as m:
            m.setattr(ideal, "narrow", lambda coeffs: coeffs)   # every chunk as filed: int64
            ref = plain_set({2: width_rule_generators(c % p)})
            assert {sl[1].dtype for index in ref._tables.values() for s in index.values() for sl in s} \
                == {np.dtype(np.int64)}
            assert got == ([hilbert_quotient(ref, d, p) for d in (2, 3)], graded_nonzerodivisor_check(
                ref, parse_poly("T_3_3_3"), 3, p).table)


def test_block_rank_reduces_its_one_dense_array(traced_peak_mb):
    """A wide 300 x 3000 block of rank at most 200: _factor fills its terms
    into one C-ordered array, the 3000 x 300 transpose, and factors it in
    place, its multipliers stored in it, so it traces one int64 copy
    (6.9 MB), the update temporaries and the kept L (1.3 MB at p = 101,
    1.7 MB at p = 32003, as this L is dense), 12.2 and 11.1 MB; reducing a
    copy of the block's matrix traced 17.9 MB."""
    rng = np.random.default_rng(24)
    base = rng.integers(-3, 4, (200, 3000)) * (rng.random((200, 3000)) < 0.05)
    m = np.vstack([base, (rng.integers(-2, 3, (100, 200)) * (rng.random((100, 200)) < 0.05)) @ base])
    at, cols = np.nonzero(m)
    block = ideal.Block(7 * cols, at, m[at, cols], len(m))   # keys need only be increasing
    for p in (101, 32003):
        peak, fac = traced_peak_mb(ideal._factor, block, p)
        assert fac.rank == len(linalg.rref_mod_p(m, p)[1]) <= 200
        assert peak < 2 * m.nbytes / 2 ** 20, peak


def test_mono_keys_refuse_more_than_twelve_columns():
    """Five bits per column: 12 columns fill 60 bits of an int64 key and a
    13th would wrap, so without a lead to widen it mono_keys raises."""
    assert poly.mono_keys(np.full((1, 12), 26, np.uint8))[0] == sum(27 << 5 * i for i in range(12))
    with pytest.raises(ValueError, match="13 variables"):
        poly.mono_keys(np.full((1, 13), 26, np.uint8))
    assert poly.mono_keys(np.full((1, 13), 26, np.uint8), np.zeros(1, object))[0] == sum(
        27 << 5 * i for i in range(13))


def test_weight_keys_are_in_tuple_order_and_reject_a_carry():
    rng = random.Random(3)
    weights = sorted({tuple(tuple(rng.randrange(16) for _ in range(3)) for _ in range(3))
                      for _ in range(2000)} | {((15,) * 3,) * 3, ((0,) * 3,) * 3})
    keys = keys_of(weights)
    assert (np.diff(keys) > 0).all() and list(map(weight_of, keys)) == weights
    for bad in (16, -1):
        with pytest.raises(ValueError, match="4-bit"):
            poly.weight_keys([[0] * 8 + [bad]])


def test_base_fold_memo_is_cleared_with_the_ranks():
    """The folds, with their tau test, and the witness batches are cleared
    by add_module and by add, as the ranks are."""
    gens = GradedGeneratorSet()
    gens.add_module(rep.module_span(batch_of(det_slice_poly("C", 1))))
    for grow in (lambda: gens.add_module(rep.module_span(batch_of(witness_g()))),
                 lambda: gens.add(4, [witness_g()])):
        graded_nonzerodivisor_check(gens, f_determinant(), cap=4)
        assert set(gens._folds) == {(d, gens.symmetry_group(d)) for d in range(1, 5)}
        assert [key[0] for key in gens._batches] == [1, 2, 3, 4]
        grow()
        assert gens._folds == gens._batches == {}


def test_base_rank_memo_matches_fresh_sweeps():
    def fresh(*hws):
        gens = GradedGeneratorSet()
        for h in hws:
            gens.add_module(rep.module_span(batch_of(h)))
        return gens
    cubic = det_slice_poly("C", 1)
    gens = fresh(cubic)
    witnesses = [f_determinant(), witness_g()]
    hs = [hilbert_quotient(gens, d) for d in range(1, 6)]
    memo = dict(gens._ranks)
    assert set(memo) == {(d, 101, ideal.WEYL) for d in range(1, 6)}
    tables = [graded_nonzerodivisor_check(gens, w, cap=5).table for w in witnesses]
    assert gens._ranks == memo  # the NZD sweeps reused the Hilbert ranks
    assert hs == [hilbert_quotient(fresh(cubic), d) for d in range(1, 6)]
    assert tables == [graded_nonzerodivisor_check(fresh(cubic), w, cap=5).table
                      for w in witnesses]
    # a new module keeps the group S3^3 but must not see the old ranks
    gens.add_module(rep.module_span(batch_of(witness_g())))
    assert gens._ranks == {}
    assert hilbert_quotient(gens, 5) == hilbert_quotient(fresh(cubic, witness_g()), 5)
    gens.add(4, [witness_g()])
    assert gens._ranks == {}


def test_progress_counts_memoised_base_ranks():
    gens = GradedGeneratorSet()
    gens.add_module(rep.module_span(batch_of(det_slice_poly("C", 1))))
    lines = []
    for _ in range(2):
        hilbert_with_witnesses(gens, [f_determinant()], 5, progress=lines.append)
    first, second = lines
    assert first.startswith("degree 5: ranked ")
    assert "from the memo" not in first and int(first.split()[3]) > 0
    ranked = int(first.split()[3])
    assert second.startswith("degree 5: ranked 0 of ")
    assert "(%d from the memo)" % ranked in second
    # tau maps the module's hw vector, the C-slice determinant, to itself
    assert first.split("; ")[0].endswith(", G = S3^3 and tau, |G| = 432")
    # both sweeps reduce the same witness blocks against the same kept factors,
    # the second with the witness rows the first built
    nbytes = sum(fac.nbytes for fac in gens._ranks[5, 101, ideal.WEYL].values())
    reduced = "4 witness blocks reduced against kept factors, the rows of %d from the batch memo"
    for line, memo in ((first, 0), (second, 16)):
        assert line.split("; ")[1:] == [
            "witness 1: 16 of 216, |G_w| = 72", reduced % memo, "kept factors %d bytes" % nbytes]
    assert nbytes > 0


def test_factor_memo_keeps_one_prime_in_its_compact_dtype():
    """L is kept in the smallest unsigned dtype that holds p - 1, and a
    sweep at a new prime drops the factors of the old one."""
    gens = GradedGeneratorSet()
    gens.add_module(rep.module_span(batch_of(det_slice_poly("C", 1))))
    for p, dtype in ((101, np.uint8), (32003, np.uint16), (2 ** 31 - 1, np.uint32), (101, np.uint8)):
        assert [hilbert_quotient(gens, d, p=p) for d in (3, 4)] == [3644, 27135]
        assert set(gens._ranks) == {(3, p, ideal.WEYL), (4, p, ideal.WEYL)}
        assert {fac.low[1].dtype for v in gens._ranks.values() for fac in v.values()} == {
            np.dtype(dtype)}


def test_zero_witness_rejected(m3_set):
    for f, message in ((Poly(), "zero polynomial"), (Poly({(): 5}), "nonzero constant 5")):
        with pytest.raises(ValueError, match=message):
            ideal.hilbert_with_witnesses(m3_set, [f], 4)
        with pytest.raises(ValueError, match=message):
            graded_nonzerodivisor_check(m3_set, f, cap=4)


@pytest.mark.parametrize("p", [91, 100])
def test_sweeps_reject_non_prime_modulus(p):
    gens = plain_set({3: m3_generators("A")})
    f = det_slice_poly("A", 1)
    with pytest.raises(ValueError, match="not prime"):
        graded_nonzerodivisor_check(gens, f, cap=4, p=p)
    with pytest.raises(ValueError, match="not prime"):
        ideal.hilbert_with_witnesses(gens, [f], 4, p=p)


@pytest.mark.parametrize("p", [1, 91, 100, 2 ** 31 + 11])
def test_discover_rejects_a_modulus_that_is_not_a_machine_prime(trifocal_nf, p):
    with pytest.raises(ValueError, match="not prime|too large"):
        ideal.discover(3, trifocal_nf, p=p)


@pytest.mark.slow
def test_folded_sweep_matches_unfolded_on_discovery6(discovery6):
    """discovery6's sweep, folded by S3^3 and tau, against every block of
    the same generators filed plain, at both primes."""
    plain = plain_set(module_polys(discovery6.modules()))
    assert discovery6.gens.symmetry_group(6) is ideal.WEYL and ideal._hws_swap_closed(discovery6.gens)
    assert plain.symmetry_group(6) is ideal.IDENTITY
    witnesses = [f_determinant(), witness_g()]
    for p in (101, 32003):
        for d in range(1, 7):
            assert (ideal.hilbert_with_witnesses(discovery6.gens, witnesses, d, p=p)
                    == ideal.hilbert_with_witnesses(plain, witnesses, d, p=p)), (p, d)


def test_store_that_tau_does_not_close_keeps_the_s3_fold():
    """The module of the A-slice determinant alone: tau maps it to the
    B-slice determinant's, which is not filed, so the sweep folds by S3^3
    only and gives the numbers of the same cubics filed plain."""
    gens = GradedGeneratorSet()
    plain = plain_set({3: list(map(poly_of, gens.add_module(rep.module_span(batch_of(
        det_slice_poly("A", 1))))))})
    assert not ideal._hws_swap_closed(gens) and gens.symmetry_group(5) is ideal.WEYL
    witnesses, lines = [f_determinant(), witness_g()], []
    for d in range(1, 6):
        assert (hilbert_with_witnesses(gens, witnesses, d, progress=lines.append)
                == hilbert_with_witnesses(plain, witnesses, d)), d
    assert all(", G = S3^3, |G| = 216;" in line for line in lines)


def rebuilt_joint_ranks(gens, f, d, p):
    """(kept-factor rank, rebuilt joint rank, remapped through tau) of each
    witness block of f in degree d: the rank of its base representative's
    kept factor plus the rank the witness rows add to it, against the rank
    of the block's base rows and witness rows built and eliminated anew."""
    hilbert_with_witnesses(gens, [f], d, p=p)   # the factors of the base representatives
    group = gens.symmetry_group(d)
    e, wf = ideal.check_witness(f)
    wit = ideal._fold(stabiliser(group, f), poly.weight_keys(wf) + poly._monomial_table(d - e)[1])
    ranks = gens._ranks[d, p, group]
    tau = gens._folds[d, group][1]
    batch = ideal._witness_batch(ranks, group, tau, d, f, wit)
    out = []
    for w, (r, *_), (fac, k) in zip(wit, batch, ideal._extension_ranks(ranks, batch, p)):
        joint = slice_rows_by_weight(gens, d, (w,)).get(w, ideal.Block()) + ideal._block(
            gens, d, w, d, (e, key_of(wf), integer_terms([f]) + (1,)))
        out.append((fac.rank + k, len(linalg.rref_mod_p(joint.matrix(p), p)[1]),
                    r not in ideal._fold(group, np.array([w]))))
    return out


@pytest.mark.slow
def test_extension_ranks_match_rebuilt_joint_ranks(discovery6, m3_set):
    """On every witness block of f, g and tau(f), at both primes, in degrees
    5 and 6 of discovery6 (module-built, folded by S3^3 and tau, so some
    blocks are reduced against the factor of tau of their S3^3
    representative: for tau(f) in degree 6 also blocks whose witness rows
    meet the base rows) and in degrees 4 and 5 of the add-built cubics
    (group {id})."""
    for gens, degrees in ((discovery6.gens, (5, 6)), (m3_set, (4, 5))):
        swapped = 0
        for p in (101, 32003):
            for f in (f_determinant(), witness_g(), det_slice_poly("B", 1)):
                for d in degrees:
                    pairs = rebuilt_joint_ranks(gens, f, d, p)
                    assert pairs and all(a == b for a, b, _ in pairs), (d, p, pairs)
                    swapped += sum(tau for _, _, tau in pairs)
        assert swapped > 0 if gens is discovery6.gens else swapped == 0


@pytest.mark.slow
def test_nzd_through_degree7_on_discovery6(discovery6):
    """Degree 7 of both identities at p = 101, as the rebuilt joint ranks
    gave them."""
    for f, want in ((f_determinant(), (3915027, 3915027)), (witness_g(), (3938518, 3938518))):
        report = graded_nonzerodivisor_check(discovery6.gens, f, cap=7, p=101)
        assert report and report.table[7] == want


def test_two_primes_agree(m3_set):
    for d in (3, 4):
        assert (ideal_dim_in_degree(m3_set, d, p=101)
                == ideal_dim_in_degree(m3_set, d, p=32003))


def test_ideal_dim_monotone_in_generators(m3_set, discovery5):
    bigger = discovery5.gens
    for d in (3, 4, 5):
        assert ideal_dim_in_degree(bigger, d) >= ideal_dim_in_degree(m3_set, d)


def test_vanishing_multiplicities_degree3(trifocal_nf):
    hw = rep.hw_space(((1, 1, 1), (1, 1, 1), (3,)))
    report = vanishing_subspace(hw, trifocal_nf, seed=101)
    assert report.multiplicity == 1
    hw2 = rep.hw_space(((3,), (1, 1, 1), (1, 1, 1)))
    report2 = vanishing_subspace(hw2, trifocal_nf, seed=202)
    assert report2.multiplicity == 0


def test_vanishing_kernel_that_does_not_lift_resamples(trifocal_nf, monkeypatch):
    """vanishing_subspace draws once and raises when its kernel does not
    lift; scan_degree draws the label again at seed + 10_000, and re-raises
    after MAX_DRAWS draws.  At degree 3 the zero proof settles every label
    but ((1,1,1),(1,1,1),(3,)), label 11, the only one that draws."""
    hw = rep.hw_space(((1, 1, 1), (1, 1, 1), (3,)))
    lift, calls = linalg.kernel_basis_int, []

    def fails_first(rows, ncols, failures=1):
        calls.append(ncols)
        if len(calls) <= failures:
            raise ArithmeticError("integer kernel did not stabilize over 10 primes")
        return lift(rows, ncols)
    monkeypatch.setattr(linalg, "kernel_basis_int", fails_first)
    with pytest.raises(ArithmeticError, match="did not stabilize"):
        vanishing_subspace(hw, trifocal_nf, seed=101)
    calls.clear()
    seeds, draw = [], ideal.vanishing_subspace
    monkeypatch.setattr(ideal, "vanishing_subspace",
                        lambda h, nf, s: seeds.append(s) or draw(h, nf, s))
    lines = []
    scan = scan_degree(3, GradedGeneratorSet(), trifocal_nf, seed=101, progress=lines.append)
    assert seeds == [79_291, 89_291] and scan.rows[-1] == (hw.label, 1, 1, 1, 1)   # 101 + 7919 * 10
    assert lines[-1] == "degree 3: label 11/11 ((1, 1, 1), (1, 1, 1), (3,)) vanishing 1 new 1; 2 draws"
    assert not any("draws" in line for line in lines[:-1])
    calls.clear()
    monkeypatch.setattr(linalg, "kernel_basis_int",
                        lambda r, n: fails_first(r, n, failures=ideal.MAX_DRAWS))
    with pytest.raises(ArithmeticError, match="did not stabilize"):
        scan_degree(3, GradedGeneratorSet(), trifocal_nf, seed=101)
    assert len(calls) == ideal.MAX_DRAWS


@pytest.mark.parametrize("d", [5, pytest.param(6, marks=pytest.mark.slow)])
def test_zero_proof_holds_on_exactly_the_rows_of_multiplicity_0(d, request, trifocal_nf):
    """_proved_zero at each label's scan seed holds on exactly the rows of
    discover(d) with vanishing multiplicity 0, labels derived by the swap
    included: on no row with a vanishing vector, as the proof is exact."""
    disc = request.getfixturevalue("discovery%d" % d)
    rows = [(e, i, row) for e, scan in sorted(disc.scans.items()) for i, row in enumerate(scan.rows)]
    proved = [row for e, i, row in rows
              if ideal._proved_zero(row[0], trifocal_nf, 2024 + 1000 * e + 7919 * i)]
    assert proved == [row for _, _, row in rows if row[3] == 0]
    assert (len(rows), len(proved)) == {5: (121, 106), 6: (280, 224)}[d]


def test_zero_proof_is_refused_where_the_cubics_vanish(trifocal_nf, monkeypatch):
    """((1,1,1),(1,1,1),(3,)) has m = 1: its module holds the 10 cubics,
    which vanish at the proof's mod-p orbit point, so its value has rank 0;
    the f-determinant's label ((3,),(1,1,1),(1,1,1)) is proved at the same seed."""
    cubics, f = ((1, 1, 1), (1, 1, 1), (3,)), ((3,), (1, 1, 1), (1, 1, 1))
    seen, values = [], rep.tableau_values
    rep.hw_pairs(cubics), rep.hw_pairs(f)   # picked before the proof's values are recorded
    monkeypatch.setattr(rep, "tableau_values", lambda ta, pairs, x: seen.append(x) or values(ta, pairs, x))
    assert not ideal._proved_zero(cubics, trifocal_nf, 35) and ideal._proved_zero(f, trifocal_nf, 35)
    p, (x, y) = linalg.machine_prime(0), seen
    assert x.shape == (1, 27) and (x == y).all() and x.any()
    (vals,) = poly.evaluate_points(slices(m3_generators("C")), [Tensor333._from_flat(x[0].tolist())])
    assert len(vals) == 10 and all(v % p == 0 for v in vals)
    (det,) = poly.evaluate_points(slices([f_determinant()]), [Tensor333._from_flat(x[0].tolist())])
    assert det[0] % p


def test_discovery_keeps_its_polynomials_packed(trifocal_nf, monkeypatch):
    """Tableau expansion, hw-space normalisation, vanishing certificates,
    module spans and their proof at nf all stay on term batches and slices,
    and no Poly is built on the way; every module basis vector is a term
    slice that shares memory with the store chunk it was filed in."""
    monkeypatch.setattr(poly.Poly, "__init__", None)
    monkeypatch.setattr(poly.Poly, "_wrap", None)
    disc = ideal.discover(5, trifocal_nf, seed=2024)
    basis = [t for m in disc.modules() for t in m.basis]
    assert len(basis) == 91 and all(type(t) is tuple and len(t) == 2 for t in basis)
    chunks = [s for index in disc.gens._tables.values() for v in index.values() for s in v]
    assert all(any(np.shares_memory(rows, r) and np.shares_memory(coeffs, c) for r, c, _ in chunks)
               for rows, coeffs in basis)
    assert_bases_are_views_of_the_store(disc)


@pytest.mark.slow
def test_discovered_bases_hash(discovery6):
    """Every basis vector of the 12 degree-6 discovery modules, in order,
    pinned by the sha256 of its sorted terms."""
    h = hashlib.sha256()
    for m in discovery6.modules():
        for t in m.basis:
            h.update(repr(sorted(poly_of(t).terms.items())).encode())
    assert h.hexdigest()[:16] == "1cb987188ddf877c"


def test_certificates_vanish_exactly(discovery5, trifocal_nf):
    certs = [m.basis[0] for m in discovery5.modules()]
    assert certs
    for seed in range(40):
        pt = random_orbit_point(trifocal_nf, 31_000 + seed)
        assert all(v == 0 for v in ideal.evaluate_batch(certs, pt))


def test_discovery_counts_through_degree5(discovery5):
    assert discovery5.counts() == {1: 0, 2: 0, 3: 10, 4: 0, 5: 81}
    labels5 = {m.label: m.dim for m in discovery5.scans[5].modules}
    assert labels5 == {
        ((2, 2, 1), (2, 2, 1), (3, 1, 1)): 54,
        ((2, 2, 1), (2, 2, 1), (2, 2, 1)): 27,
    }
    assert {len(m.basis[0][1]) for m in discovery5.scans[5].modules} == {104, 244}


def test_degree4_certificates_are_members(discovery5, trifocal_nf, m3_set):
    scan4 = discovery5.scans[4]
    assert scan4.new_generator_count == 0
    # every degree-4 vanishing certificate lies in the cubic ideal slice
    seen = 0
    for lab, kron, hwdim, vmult, new in scan4.rows:
        if vmult == 0:
            continue
        hw = rep.hw_space(lab)
        report = vanishing_subspace(hw, trifocal_nf, seed=404)
        for cert in poly.unpack_terms(report.certificates, report.multiplicity):
            assert minimal_generator_test(cert, m3_set) is True
            seen += 1
    assert seen >= 2


def test_minimal_generator_test_trivial_cases(m3_set):
    f = f_determinant()
    assert minimal_generator_test(f, GradedGeneratorSet()) is False
    assert minimal_generator_test(f, m3_set) is False


def test_degree5_certificates_are_new(discovery5, m3_set):
    for m in discovery5.scans[5].modules:
        assert minimal_generator_test(poly_of(m.basis[0]), m3_set) is False


def test_module_dims_27_and_54(discovery5):
    dims = sorted(m.dim for m in discovery5.scans[5].modules)
    assert dims == [27, 54]
    for m in discovery5.scans[5].modules:
        assert len(set(rep.module_span(hw_batch(m))[1].tolist())) == m.dim


def test_m5_does_not_vanish_on_skew(discovery5):
    F = skew_tensor()
    for m in discovery5.scans[5].modules:
        vals = ideal.evaluate_batch(m.basis, F)
        assert any(v != 0 for v in vals)


def test_toy_zero_divisor_detected():
    x = parse_poly("T_1_1_1")
    toy = plain_set({2: [parse_poly("T_1_1_1*T_2_2_2")]})
    report = graded_nonzerodivisor_check(toy, x, cap=4)
    assert not report
    assert report.failing_degree == 2
    expected, actual = report.table[2]
    assert actual > expected  # a zero divisor inflates the quotient


def test_toy_non_zero_divisor():
    z = parse_poly("T_3_3_3")
    toy = plain_set({2: [parse_poly("T_1_1_1*T_2_2_2")]})
    report = graded_nonzerodivisor_check(toy, z, cap=4)
    assert bool(report)
    assert report.failing_degree is None


def test_nzd_requires_weight_homogeneous():
    with pytest.raises(ValueError):
        graded_nonzerodivisor_check(GradedGeneratorSet(), parse_poly("T_1_1_1 + T_2_2_2"), cap=2)


def test_witnesses_are_nzd_for_partial_ideal_low_degrees(discovery5):
    """Degree-capped identity against the part of the ideal known so far;
    full-cap runs live in the acceptance suite."""
    J5 = discovery5.gens
    rf = graded_nonzerodivisor_check(J5, f_determinant(), cap=5)
    rg = graded_nonzerodivisor_check(J5, witness_g(), cap=5)
    assert bool(rf) and bool(rg)


def test_scan_is_deterministic(trifocal_nf):
    a = scan_degree(3, GradedGeneratorSet(), trifocal_nf, seed=77)
    b = scan_degree(3, GradedGeneratorSet(), trifocal_nf, seed=77)
    assert [ideal._key(*m.basis[0]) for m in a.modules] == [ideal._key(*m.basis[0]) for m in b.modules]
    assert a.rows == b.rows


def test_discovery_stable_under_seed_and_prime(trifocal_nf):
    disc = ideal.discover(5, trifocal_nf, seed=777, p=32003)
    assert disc.counts() == {1: 0, 2: 0, 3: 10, 4: 0, 5: 81}
    assert {m.label for m in disc.scans[5].modules} == {
        ((2, 2, 1), (2, 2, 1), (3, 1, 1)),
        ((2, 2, 1), (2, 2, 1), (2, 2, 1))}


def test_discovery_is_the_same_at_seeds_whose_samples_misled_it(discovery5, trifocal_nf):
    """Before modules were proved at nf, random orbit points proposed false
    modules at seeds 18, 21, 29, 57 and 91, and the screen refused both
    draws of a label at seeds 32, 47, 77 and 79.  Each now gives the rows
    and bases of seed 2024."""
    rows = [s.rows for _, s in sorted(discovery5.scans.items())]
    bases = [[ideal._key(*t) for t in m.basis] for m in discovery5.modules()]
    for seed in (18, 21, 29, 32, 47, 57, 77, 79, 91):
        disc = ideal.discover(5, trifocal_nf, seed=seed)
        assert disc.counts() == {1: 0, 2: 0, 3: 10, 4: 0, 5: 81}, seed
        assert [s.rows for _, s in sorted(disc.scans.items())] == rows, seed
        assert [[ideal._key(*t) for t in m.basis] for m in disc.modules()] == bases, seed


def seed18_candidate(nf):
    """hw space, scan_degree's seed and the false certificate of draw 1 of
    the label ((4,1),(2,2,1),(3,1,1)) in discover(5, seed=18)."""
    label = ((4, 1), (2, 2, 1), (3, 1, 1))
    labels = [lab for lab in rep.all_labels(5) if rep.kronecker(*lab)]
    seed, hw = 18 + 1000 * 5 + 7919 * labels.index(label), rep.hw_space(label)
    report = vanishing_subspace(hw, nf, seed + 10_000)
    assert report.multiplicity == 1
    return hw, seed, report.certificates


def test_a_false_candidate_is_refused_at_nf(discovery5, trifocal_nf):
    """At seed 18 the screen refuses draw 0 of ((4,1),(2,2,1),(3,1,1)), and
    draw 1 passes it with a new certificate whose module does not vanish at
    nf; scan_degree takes draw 2, which finds no vanishing vector, as seed
    2024 does."""
    hw, seed, cert = seed18_candidate(trifocal_nf)
    with pytest.raises(ArithmeticError, match="inconsistent vanishing kernel"):
        vanishing_subspace(hw, trifocal_nf, seed)
    w = key_of(hw.weight)
    block = ideal.rows_in_weight_block(discovery5.gens, 5, w)
    assert ideal._independent_of(block, cert + (1,), 5, w, 101) == [True]
    assert any(poly.evaluate_points(poly.term_slices(rep.module_span(cert)), [trifocal_nf])[0])
    assert ideal._new_modules(5, discovery5.gens, hw, trifocal_nf, seed, 101) == (3, 0, [])
    assert (hw.label, 1, 1, 0, 0) in discovery5.scans[5].rows


# --- labels derived from their factor-swapped partner ---------------------------

def counted_scans(monkeypatch):
    """Route ideal._proved_zero, where each label that takes the per-label
    path starts, through a counter; returns its list of labels."""
    labels, prove = [], ideal._proved_zero

    def counted(label, nf, seed):
        labels.append(label)
        return prove(label, nf, seed)
    monkeypatch.setattr(ideal, "_proved_zero", counted)
    return labels


def test_swap_element_is_exact(trifocal_nf):
    """sigma . nf = tau(nf) for the trifocal normal form with sigma the
    transposition (1 2) in every factor, checked by tensor.act on its
    permutation matrices; the sub233 point has no such sigma."""
    sigma = ideal._swap_element(trifocal_nf)
    assert sigma == ((0, 2, 1),) * 3
    g = tuple([[int(p == s[i]) for i in range(3)] for p in range(3)] for s in sigma)
    tau_nf = [[[trifocal_nf.t[j][i][k] for k in range(3)] for j in range(3)] for i in range(3)]
    assert act(g, trifocal_nf) == Tensor333(tau_nf)
    assert ideal._swap_element(catalog()["sub233"].tensor) is None


def test_swapped_polynomials_are_tau_images():
    f = f_determinant()   # weight ((3,0,0),(1,1,1),(1,1,1))
    tau = {var_index(i, j, k): var_index(j, i, k) for i, j, k in product(range(3), repeat=3)}
    want = Poly((sorted(tau[v] for v in mono), c) for mono, c in f.terms.items())
    (got,) = poly.unpack_terms(ideal._swapped(slices([f])), 1)
    assert got == normalized(want) and got.weight() == ((1, 1, 1), (3, 0, 0), (1, 1, 1))


def test_swap_closure_needs_module_built_tau_closed_degrees(discovery5, trifocal_nf):
    assert ideal._swap_closed(discovery5.gens, trifocal_nf, 6)
    assert ideal._swap_closed(GradedGeneratorSet(), trifocal_nf, 1)
    assert not ideal._swap_closed(plain_set(module_polys(discovery5.modules())), trifocal_nf, 6)
    lone = GradedGeneratorSet()
    # tau(f) has weight ((1,1,1),(3,0,0),(1,1,1)): no module
    lone.add_module(rep.module_span(batch_of(f_determinant())))
    assert not ideal._swap_closed(lone, trifocal_nf, 4)
    lone.add_module(rep.module_span(ideal._swapped(slices([f_determinant()]))))
    assert ideal._swap_closed(lone, trifocal_nf, 4)
    assert not ideal._swap_closed(discovery5.gens, catalog()["sub233"].tensor, 6)


def test_discovery_without_a_swap_element_scans_every_label(monkeypatch):
    """The sub233 point has P-rank (2, 3, 3): no sigma maps it to its tau
    image, so every label takes the full per-label path."""
    labels = counted_scans(monkeypatch)
    disc = ideal.discover(3, catalog()["sub233"].tensor, seed=2024)
    assert labels == [row[0] for d in sorted(disc.scans) for row in disc.scans[d].rows]
    assert len(labels) == 16


@pytest.mark.slow
def test_discover6_scans_175_of_280_labels(trifocal_nf, monkeypatch):
    """105 labels are tau images of a label scanned before them in their
    degree; without the swap all 280 were scanned."""
    labels = counted_scans(monkeypatch)
    disc = ideal.discover(6, trifocal_nf, seed=2024)
    assert len(labels) == len(set(labels)) == 175 and sum(len(s.rows) for s in disc.scans.values()) == 280
    assert disc.counts() == {1: 0, 2: 0, 3: 10, 4: 0, 5: 81, 6: 1980}


@pytest.mark.slow
def test_swapped_labels_match_their_own_scan(discovery6, trifocal_nf):
    """Oracle: every label of discover(6) whose partner came before it, run
    through the per-label path (hw space, draws from its own seed, independence
    of the lower-degree block, the modules' proof at nf) gives the same row,
    and each derived module equals rep.module_span of that path's certificate,
    in order."""
    derived = 0
    for d, scan in sorted(discovery6.scans.items()):
        labels = [row[0] for row in scan.rows]
        for idx, (lab, row) in enumerate(zip(labels, scan.rows)):
            if (lab[1], lab[0], lab[2]) not in labels[:idx]:
                continue
            derived += 1
            hw = rep.hw_space(lab)
            _, mult, spans = ideal._new_modules(d, discovery6.gens, hw, trifocal_nf,
                                                2024 + 1000 * d + 7919 * idx, 101)
            assert row == (lab, rep.kronecker(*lab), hw.dim, mult, len(spans))
            mods = [m for m in scan.modules if m.label == lab]
            assert len(mods) == len(spans)
            for m, span in zip(mods, spans):
                assert [ideal._key(*t) for t in m.basis] == list(map(term_key, batch_polys(span)))
    assert derived == 105


@pytest.mark.slow
def test_filing_a_discovery_again_leaves_its_store_alone(discovery6):
    """A second set filed from discovery6's generators copies their terms
    into chunks of its own; the bases stay slices of discovery6's store, and
    both sets give the same H(1..6)."""
    plain = plain_set(module_polys(discovery6.modules()))
    assert_bases_are_views_of_the_store(discovery6)
    for d in range(1, 7):
        assert (ideal.hilbert_quotient(plain, d, p=101)
                == ideal.hilbert_quotient(discovery6.gens, d, p=101))
