import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from trifocal import ideal, linalg, poly, rep
from trifocal.ideal import (DegreeCapError, GradedGeneratorSet,
                            graded_nonzerodivisor_check, hilbert_quotient,
                            hilbert_with_witnesses, ideal_dim_in_degree, scan_degree,
                            slice_rows_by_weight, vanishing_subspace)
from trifocal.orbits import skew_tensor
from trifocal.poly import (Poly, det_slice_poly, f_determinant, integer_terms, m3_generators,
                           parse_poly, weight_space_basis, witness_g)
from trifocal.tensor import random_orbit_point


@pytest.fixture(scope="module")
def m3_set():
    return GradedGeneratorSet({3: m3_generators("C")})


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

def dict_groups(gens):
    """{degree: [(weight, generators)]}, weights in order of filing."""
    out = {}
    for e, polys in gens.by_degree.items():
        groups = {}
        for f in polys:
            groups.setdefault(f.weight(), []).append(f)
        out[e] = list(groups.items())
    return out


def dict_rows(groups, d, weight, top):
    """Degree-d product rows {monomial: coefficient} of the weight from
    generators of degree at most top: by degree, generator weight,
    multiplier, then generator."""
    rows = []
    for e in sorted(groups):
        for wg, polys in groups[e] if e <= min(d, top) else ():
            rest = ideal._minus(weight, wg)
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


def minimal_generator_test(h, gens, p=101):
    """True iff h lies in the degree slice generated by the lower-degree
    part of gens, the test scan_degree makes: True means h is NOT a
    minimal generator."""
    block = ideal.rows_in_weight_block(gens, h.degree(), h.weight())
    return not ideal._independent_of(block, [h], h.degree(), h.weight(), p)[0]


def test_weight_blocking_is_lossless(m3_set):
    """Blocked rank sum equals the rank of the unblocked matrix: all packed
    blocks of a degree stacked into one, over the union of their columns."""
    for d in (3, 4):
        blocks = slice_rows_by_weight(m3_set, d, ideal._slice_weights(m3_set, d))
        whole = sum(blocks.values(), ideal.Block())
        a = whole.matrix(101)
        assert len(linalg.rref_mod_p(a, 101)[1]) == ideal_dim_in_degree(m3_set, d)


def test_short_side_rank_matches_row_elimination(m3_set):
    """_rank eliminates the short side of a block.  Every block of degrees
    3-5 equals the oracle matrix up to a column permutation; it (all wide
    from degree 4) and its transpose, a Block keyed by row index (all tall),
    have the rank of the oracle matrix's row elimination."""
    groups, sides = dict_groups(m3_set), set()
    for d in (3, 4, 5):
        for w, block in slice_rows_by_weight(m3_set, d, ideal._slice_weights(m3_set, d)).items():
            b = assert_same_block(block, dict_rows(groups, d, w, d))
            col_of = np.unique(block.keys, return_inverse=True)[1]
            flipped = ideal.Block(block.rows.astype(np.int64), col_of, block.coeffs, b.shape[1])
            for blk, want in ((block, b), (flipped, b.T)):
                sides.add(np.sign(len(blk) - blk.matrix(101).shape[1]))
                assert ideal._rank(blk, 101) == len(linalg.rref_mod_p(want, 101)[1])
    assert {-1, 1} <= sides   # wide and tall blocks both occur


def test_packed_blocks_equal_dict_rows():
    """Two cubic modules that share weights, so that their weight groups
    merge, and two plain quartics: blocks of the whole slice and strictly
    below it."""
    gens = GradedGeneratorSet()
    gens.add_module(det_slice_poly("C", 1))
    gens.add_module(f_determinant())
    x, y, z = map(parse_poly, ("T_1_1_1", "T_2_3_1", "T_3_2_2"))
    gens.add(4, [x * x * y * y, x * y * z * z])
    groups = dict_groups(gens)
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
    gens, groups = discovery6.gens, dict_groups(discovery6.gens)
    weights = ideal._fold(ideal.WEYL, ideal._slice_weights(gens, 6))
    blocks = slice_rows_by_weight(gens, 6, weights)
    for w in weights:
        assert_same_block(blocks[w], dict_rows(groups, 6, w, 6))
    for f in (f_determinant(), witness_g()):
        e, wf = ideal.check_witness(f)
        witness = (e, wf, integer_terms([f]) + (1,))
        wit = ideal._fold(ideal.stabiliser(ideal.WEYL, f), ideal._shifted_weights(wf, 6 - e))
        blocks = slice_rows_by_weight(gens, 6, wit)
        for w in wit:
            rest = ideal._minus(w, wf)
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
    cubics = m3_set.by_degree[3]
    for c in (Fraction(1, 2), Fraction(-1, 3), 101):
        scaled = GradedGeneratorSet({3: [f.scale(c) for f in cubics]})
        for d in (3, 4):
            assert hilbert_quotient(scaled, d) == hilbert_quotient(m3_set, d)
    x = parse_poly("T_1_1_1")
    xy = x * parse_poly("T_2_2_2")   # one term: 1/2 once truncated to 0
    for d in (3, 4):
        assert (hilbert_with_witnesses(m3_set, [x.scale(Fraction(1, 2))], d)
                == hilbert_with_witnesses(m3_set, [x], d))
        assert (hilbert_quotient(GradedGeneratorSet({2: [xy.scale(Fraction(1, 2))]}), d)
                == hilbert_quotient(GradedGeneratorSet({2: [xy]}), d))


def test_module_set_matches_plain_m3_set(m3_set):
    """The module of one highest weight vector spans the 10 cubics; its
    folded sweeps give the plain set's H(1..6) and NZD values for f, g."""
    module_set = GradedGeneratorSet()
    basis = module_set.add_module(det_slice_poly("C", 1))
    assert ideal_dim_in_degree(GradedGeneratorSet({3: basis + m3_set.by_degree[3]}), 3) == 10
    assert module_set.symmetry_group(6) is ideal.WEYL
    assert m3_set.symmetry_group(6) is ideal.IDENTITY
    witnesses = [f_determinant(), witness_g()]
    for d in range(1, 7):
        assert (ideal.hilbert_with_witnesses(module_set, witnesses, d)
                == ideal.hilbert_with_witnesses(m3_set, witnesses, d))


def test_plain_generator_turns_folding_off():
    gens = GradedGeneratorSet()
    basis = gens.add_module(det_slice_poly("C", 1))
    x = parse_poly("T_1_1_1")
    y = parse_poly("T_2_3_1")
    gens.add(4, [x * x * y * y])
    assert gens.symmetry_group(3) is ideal.WEYL
    assert gens.symmetry_group(4) is ideal.IDENTITY
    plain = GradedGeneratorSet({3: basis, 4: [x * x * y * y]})
    for d in (4, 5):
        assert hilbert_quotient(gens, d) == hilbert_quotient(plain, d)
    # a module added to a degree that already holds plain generators
    late = GradedGeneratorSet({2: [x * y]})
    late.add_module(x * x)
    assert late.symmetry_group(2) is ideal.IDENTITY


def test_witness_stabiliser_orders():
    assert len(ideal.stabiliser(ideal.WEYL, f_determinant())) == 72
    assert len(ideal.stabiliser(ideal.WEYL, witness_g())) == 8
    assert ideal.stabiliser(ideal.IDENTITY, witness_g()) == ideal.IDENTITY


def test_stabiliser_memo_matches_fresh_computation():
    fresh = ideal._stabiliser.__wrapped__
    f = f_determinant()
    assert ideal.stabiliser(ideal.WEYL, f) == fresh(ideal.WEYL, frozenset(f.terms.items()))
    # one coefficient doubled: no longer a multiple of any image of f
    m0, c0 = next(iter(f.terms.items()))
    g = Poly({**f.terms, m0: 2 * c0})
    assert ideal.stabiliser(ideal.WEYL, g) == fresh(ideal.WEYL, frozenset(g.terms.items()))
    assert len(ideal.stabiliser(ideal.WEYL, g)) < len(ideal.stabiliser(ideal.WEYL, f))


def test_orbit_walk_fold_matches_per_weight_fold():
    gens = GradedGeneratorSet()
    gens.add_module(det_slice_poly("C", 1))
    groups = [ideal.WEYL, ideal.IDENTITY, ideal.stabiliser(ideal.WEYL, f_determinant()),
              ideal.stabiliser(ideal.WEYL, witness_g())]
    for d in range(1, 7):
        weights = ideal._slice_weights(gens, d)
        for ws in (weights, set(sorted(weights)[::3])):   # and a subset, not a union of orbits
            for group in groups:
                ref = {}
                for w in ws:
                    r = max(ideal._image(sigma, w) for sigma in group)
                    ref[r] = ref.get(r, 0) + 1
                assert ideal._fold(group, ws) == ref, (d, len(group))


def test_base_fold_memo_is_cleared_with_the_ranks():
    gens = GradedGeneratorSet()
    gens.add_module(det_slice_poly("C", 1))
    hilbert_quotient(gens, 4)
    assert set(gens._folds) == {(4, ideal.WEYL)}
    gens.add_module(witness_g())
    assert gens._folds == {}


def test_base_rank_memo_matches_fresh_sweeps():
    def fresh(*hws):
        gens = GradedGeneratorSet()
        for h in hws:
            gens.add_module(h)
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
    gens.add_module(witness_g())
    assert gens._ranks == {}
    assert hilbert_quotient(gens, 5) == hilbert_quotient(fresh(cubic, witness_g()), 5)
    gens.add(4, [witness_g()])
    assert gens._ranks == {}


def test_progress_counts_memoised_base_ranks():
    gens = GradedGeneratorSet()
    gens.add_module(det_slice_poly("C", 1))
    lines = []
    for _ in range(2):
        hilbert_with_witnesses(gens, [f_determinant()], 4, progress=lines.append)
    first, second = lines
    assert first.startswith("degree 4: ranked ")
    assert "from the memo" not in first and int(first.split()[3]) > 0
    ranked = int(first.split()[3])
    assert second.startswith("degree 4: ranked 0 of ")
    assert "(%d from the memo)" % ranked in second
    # the witness blocks are ranked afresh in both sweeps
    assert first.split("; ")[1] == second.split("; ")[1]


def test_zero_witness_rejected(m3_set):
    with pytest.raises(ValueError, match="zero"):
        ideal.hilbert_with_witnesses(m3_set, [Poly()], 4)
    with pytest.raises(ValueError, match="zero"):
        graded_nonzerodivisor_check(m3_set, Poly(), cap=4)


@pytest.mark.parametrize("p", [91, 100])
def test_sweeps_reject_non_prime_modulus(p):
    gens = GradedGeneratorSet({3: m3_generators("A")})
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
    plain = GradedGeneratorSet(discovery6.gens.by_degree)
    assert discovery6.gens.symmetry_group(6) is ideal.WEYL
    assert plain.symmetry_group(6) is ideal.IDENTITY
    witnesses = [f_determinant(), witness_g()]
    for d in range(1, 7):
        assert (ideal.hilbert_with_witnesses(discovery6.gens, witnesses, d, p=101)
                == ideal.hilbert_with_witnesses(plain, witnesses, d, p=101))


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
    hw = rep.hw_space(((1, 1, 1), (1, 1, 1), (3,)))
    lift, calls = linalg.kernel_basis_int, []

    def fails_first(rows, ncols, failures=1):
        calls.append(ncols)
        if len(calls) <= failures:
            raise ArithmeticError("integer kernel did not stabilize over 10 primes")
        return lift(rows, ncols)
    monkeypatch.setattr(linalg, "kernel_basis_int", fails_first)
    assert vanishing_subspace(hw, trifocal_nf, seed=101).multiplicity == 1
    assert len(calls) == 2
    calls.clear()
    monkeypatch.setattr(linalg, "kernel_basis_int", lambda r, n: fails_first(r, n, failures=2))
    with pytest.raises(ArithmeticError, match="after resampling"):
        vanishing_subspace(hw, trifocal_nf, seed=101)


def test_discovery_keeps_its_polynomials_packed(trifocal_nf):
    """Tableau expansion, hw-space normalisation, vanishing certificates and
    module spans all stay on packs: no basis vector builds a term dict."""
    disc = ideal.discover(5, trifocal_nf, seed=2024)
    basis = [f for m in disc.modules() for f in m.basis]
    assert len(basis) == 91 and all(f._terms is None for f in basis)
    assert all(m.hw_vector._terms is None for m in disc.modules())   # read by module_span
    # fresh hw spaces: the cached ones are read by other tests
    hws = [rep.hw_space.__wrapped__(lab) for d in range(1, 6) for lab in rep.all_labels(d)
           if rep.kronecker(*lab)]
    for i, hw in enumerate(hws):
        vanishing_subspace(hw, trifocal_nf, seed=500 + i)
    vectors = [f for hw in hws for f in hw.basis]
    assert len(vectors) == 127 and all(f._terms is None for f in vectors)


@pytest.mark.slow
def test_discovered_bases_hash(discovery6):
    """Every basis vector of the 12 degree-6 discovery modules, in order,
    pinned by the sha256 of its sorted terms."""
    h = hashlib.sha256()
    for m in discovery6.modules():
        for f in m.basis:
            h.update(repr(sorted(f.terms.items())).encode())
    assert h.hexdigest()[:16] == "1cb987188ddf877c"


def test_certificates_vanish_exactly(discovery5, trifocal_nf):
    certs = [m.hw_vector for m in discovery5.modules()]
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
    assert {len(m.hw_vector) for m in discovery5.scans[5].modules} == {104, 244}


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
        for cert in report.certificates:
            assert minimal_generator_test(cert, m3_set) is True
            seen += 1
    assert seen >= 2


def test_minimal_generator_test_trivial_cases(m3_set):
    f = f_determinant()
    assert minimal_generator_test(f, GradedGeneratorSet()) is False
    assert minimal_generator_test(f, m3_set) is False


def test_degree5_certificates_are_new(discovery5, m3_set):
    for m in discovery5.scans[5].modules:
        assert minimal_generator_test(m.hw_vector, m3_set) is False


def test_module_dims_27_and_54(discovery5):
    dims = sorted(m.dim for m in discovery5.scans[5].modules)
    assert dims == [27, 54]
    for m in discovery5.scans[5].modules:
        assert len(rep.module_span(m.hw_vector)) == m.dim


def test_m5_does_not_vanish_on_skew(discovery5):
    F = skew_tensor()
    for m in discovery5.scans[5].modules:
        vals = ideal.evaluate_batch(m.basis, F)
        assert any(v != 0 for v in vals)


def test_toy_zero_divisor_detected():
    x = parse_poly("T_1_1_1")
    y = parse_poly("T_2_2_2")
    toy = GradedGeneratorSet({2: [x * y]})
    report = graded_nonzerodivisor_check(toy, x, cap=4)
    assert not report
    assert report.failing_degree == 2
    expected, actual = report.table[2]
    assert actual > expected  # a zero divisor inflates the quotient


def test_toy_non_zero_divisor():
    x = parse_poly("T_1_1_1")
    y = parse_poly("T_2_2_2")
    z = parse_poly("T_3_3_3")
    toy = GradedGeneratorSet({2: [x * y]})
    report = graded_nonzerodivisor_check(toy, z, cap=4)
    assert bool(report)
    assert report.failing_degree is None


def test_nzd_requires_weight_homogeneous():
    x = parse_poly("T_1_1_1")
    y = parse_poly("T_2_2_2")
    with pytest.raises(ValueError):
        graded_nonzerodivisor_check(GradedGeneratorSet(), x + y, cap=2)


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
    assert [m.hw_vector for m in a.modules] == [m.hw_vector for m in b.modules]
    assert a.rows == b.rows


def test_discovery_stable_under_seed_and_prime(trifocal_nf):
    disc = ideal.discover(5, trifocal_nf, seed=777, p=32003)
    assert disc.counts() == {1: 0, 2: 0, 3: 10, 4: 0, 5: 81}
    assert {m.label for m in disc.scans[5].modules} == {
        ((2, 2, 1), (2, 2, 1), (3, 1, 1)),
        ((2, 2, 1), (2, 2, 1), (2, 2, 1))}
