import random
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from trifocal import linalg, poly, rep
from trifocal.poly import (RAISING, Poly, det_slice_poly, f_determinant, is_highest_weight,
                           parse_poly, var_index)
from trifocal.rep import (MAX_DEGREE, all_labels, class_size, hw_space, kronecker,
                          lowering_tree, mn_character, module_span, partitions,
                          weyl_dim)
from trifocal.tensor import Tensor333, perm_sign

from helpers import (batch_of, completeness_defect, expanded_hw_basis, independent_ids, span_polys,
                     term_key)


def cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def brute_force_characters(d):
    """Independent oracle: Young-subgroup permutation characters,
    orthogonalized top-down in dominance order."""
    classes = partitions(d)
    perms = list(permutations(range(d)))

    def tabloid_fixed_points(mu, perm):
        # tabloids: ordered rows of sizes mu, unordered within a row
        from itertools import combinations

        def assign(remaining, shape):
            if not shape:
                return 1
            total = 0
            for combo in combinations(remaining, shape[0]):
                if any(perm[x] not in combo for x in combo):
                    continue
                rest = tuple(x for x in remaining if x not in combo)
                total += assign(rest, shape[1:])
            return total

        return assign(tuple(range(d)), list(mu))

    # permutation character values per class
    reps = {}
    for perm in perms:
        reps.setdefault(cycle_type(perm), perm)
    xi = {mu: [tabloid_fixed_points(mu, reps[cls]) for cls in classes]
          for mu in classes}

    def inner(u, v):
        return sum(class_size(cls) * a * b for cls, a, b in zip(classes, u, v)) // factorial(d)

    # dominance-compatible order: lexicographically decreasing partitions
    order = sorted(classes, reverse=True)
    chars = {}
    for mu in order:
        v = list(xi[mu])
        for lam in order:
            if lam == mu or lam not in chars:
                continue
            c = inner(v, chars[lam])
            if c:
                v = [a - c * b for a, b in zip(v, chars[lam])]
        chars[mu] = v
    return classes, chars


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mn_characters_match_brute_force(d):
    classes, chars = brute_force_characters(d)
    for lam in classes:
        expected = chars[lam]
        got = [mn_character(lam, cls) for cls in classes]
        assert got == expected, (lam, got, expected)


def test_trivial_and_sign_characters():
    for d in (3, 5, 7):
        for cls in partitions(d):
            assert mn_character((d,), cls) == 1
            sign = (-1) ** (d - len(cls))
            assert mn_character((1,) * d, cls) == sign


def test_s5_row_orthogonality():
    classes = partitions(5)
    for lam in partitions(5):
        for mu in partitions(5):
            s = sum(class_size(c) * mn_character(lam, c) * mn_character(mu, c)
                    for c in classes)
            assert s == (factorial(5) if lam == mu else 0)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (4,))


def test_kronecker_degree_guard():
    with pytest.raises(ValueError):
        kronecker((10,), (10,), (10,))


def test_kronecker_examples():
    for d in (2, 3, 4, 5):
        assert kronecker((d,), (d,), (d,)) == 1
    assert kronecker((1, 1, 1), (1, 1, 1), (3,)) == 1
    assert kronecker((3,), (1, 1, 1), (1, 1, 1)) == 1


def test_kronecker_symmetric_under_label_permutations():
    rng = random.Random(51)
    labels = all_labels(4)
    for lab in rng.sample(labels, 20):
        vals = {kronecker(*p) for p in permutations(lab)}
        assert len(vals) == 1


def test_completeness_sums():
    for d in range(1, 6):
        assert completeness_defect(d) == 0
    assert rep.ambient_dimension(3) == 3654
    assert rep.ambient_dimension(4) == 27405


def test_weyl_dim_values():
    assert weyl_dim((1,)) == 3
    assert weyl_dim(()) == 1
    assert weyl_dim((2, 2, 1)) == 3
    assert weyl_dim((2, 2, 1)) ** 2 * weyl_dim((3, 1, 1)) == 54
    assert weyl_dim((3, 3)) * weyl_dim((3, 2, 1)) ** 2 == 640
    with pytest.raises(ValueError):
        weyl_dim((1, 1, 1, 1))


def test_hw_space_degree_one():
    hw = hw_space(((1,), (1,), (1,)))
    assert hw.dim == 1
    assert hw.basis[0] == parse_poly("T_1_1_1")


def test_hw_space_cubic_lines():
    hw = hw_space(((1, 1, 1), (1, 1, 1), (3,)))
    assert hw.dim == 1
    det1 = det_slice_poly("C", 1).content_normalized()
    assert hw.basis[0] in (det1, det1.scale(-1).content_normalized())
    hw2 = hw_space(((3,), (1, 1, 1), (1, 1, 1)))
    f = f_determinant().content_normalized()
    assert hw2.dim == 1
    assert hw2.basis[0] in (f, f.scale(-1).content_normalized())


def test_hw_dims_match_kronecker_degree_up_to_4():
    for d in (2, 3, 4):
        for lab in all_labels(d):
            if kronecker(*lab) == 0:
                continue
            hw = hw_space(lab)
            assert hw.dim == kronecker(*lab)
            assert is_highest_weight(hw.terms)


def test_hw_basis_is_weight_homogeneous_and_primitive():
    from math import gcd
    hw = hw_space(((2, 2, 1), (2, 2, 1), (2, 2, 1)))
    for b in hw.basis:
        assert b.weight() == hw.weight
        g = 0
        for c in b.terms.values():
            g = gcd(g, abs(c))
        assert g == 1
        lead = min(b.terms)
        assert b.terms[lead] > 0  # sign convention: leading coefficient positive


def test_module_span_defining_representation():
    rows, ids, coeffs = module_span(batch_of(parse_poly("T_1_1_1")))
    assert sorted(ids.tolist()) == list(range(27)) and (coeffs == 1).all()   # one term each
    assert len(np.unique(rows)) == 27


def test_module_span_needs_dominant_weight():
    with pytest.raises(ValueError):
        module_span(batch_of(parse_poly("T_2_1_1")))


def test_module_span_needs_highest_weight_vector():
    # dominant weight ((1,1,0),(1,1,0),(1,1,0)), but raising T_2_2_2 is nonzero
    t111 = parse_poly("T_1_1_1")
    t222 = parse_poly("T_2_2_2")
    with pytest.raises(ValueError, match="highest weight"):
        module_span(batch_of(t111 * t222))
    with pytest.raises(ValueError):
        module_span(batch_of(Poly()))
    with pytest.raises(ValueError, match="weight-homogeneous"):
        module_span(batch_of(t111 * t222 + t111 * t111))


def test_lowering_tree_sizes():
    for d in range(MAX_DEGREE + 1):
        for lam in [p for p in partitions(d) if len(p) <= 3]:
            tree = lowering_tree(lam)
            assert len(tree) == weyl_dim(lam), lam
            assert tree[0] == (None, None)
            assert all(parent < n for n, (parent, _) in enumerate(tree) if n)


def _leading_minor(k) -> Poly:
    """det of the top-left k x k block of the slice T[i][j][0]."""
    return Poly((sorted(var_index(r, sigma[r], 0) for r in range(k)), perm_sign(sigma))
                for sigma in permutations(range(k)))


def test_lowering_model_is_a_product_of_leading_minors():
    """lowering_tree's model P(T, T, one row), T the column-reading tableau
    of lam, is prod over columns of h! times Delta_1^(l1-l2) Delta_12^(l2-l3)
    Delta_123^l3, term by term, for every partition the trees serve."""
    for d in range(MAX_DEGREE + 1):
        for lam in [p for p in partitions(d) if len(p) <= 3]:
            l1, l2, l3 = rep._pad(lam)
            want = Poly.constant(factorial(3) ** l3 * factorial(2) ** (l2 - l3))
            for k, e in ((1, l1 - l2), (2, l2 - l3), (3, l3)):
                for _ in range(e):
                    want = want * _leading_minor(k)
            ta = rep.standard_tableaux(rep._pad(lam))[-1]
            batch = rep._tableau_terms(ta, [(ta, (0,) * d)])
            assert poly.unpack_terms(batch, 1)[0] == want, lam


def test_degree5_module_spans_are_bases_closed_under_operators(discovery5):
    import numpy as np
    from trifocal.poly import LOWERING, RAISING, apply_shift
    p = linalg.machine_prime(0)
    modules = discovery5.scans[5].modules
    assert sorted(m.dim for m in modules) == [27, 54]
    for m in modules:
        span = m.basis
        cols = {}
        for f in span:
            for mono in f.terms:
                cols.setdefault(mono, len(cols))

        def rank(polys):
            a = np.zeros((len(polys), len(cols)), dtype=np.int64)
            for i, f in enumerate(polys):
                for mono, c in f.terms.items():
                    a[i, cols[mono]] = c % p
            return len(linalg.rref_mod_p(a, p)[1])

        # rank over F_p is a lower bound for the rank over Q
        assert rank(span) == len(span) == rep.label_dim(m.label)
        for ax, to, frm in LOWERING + RAISING:
            images = [apply_shift(ax, to, frm, f) for f in span]
            assert all(mono in cols for g in images for mono in g.terms)
            assert rank(span + images) == len(span), (m.label, ax, to, frm)


def test_module_span_closed_under_operators():
    from trifocal.poly import LOWERING, RAISING, apply_shift
    from trifocal import linalg
    from fractions import Fraction
    span = span_polys(f_determinant().content_normalized())
    monos = sorted({m for p in span for m in p.terms})
    rows = [[Fraction(p.terms.get(m, 0)) for m in monos] for p in span]
    base_rank = linalg.rank(rows)
    assert base_rank == len(span) == 10
    for ax, to, frm in LOWERING + RAISING:
        for p in span[:4]:
            img = apply_shift(ax, to, frm, p)
            if img.is_zero():
                continue
            assert all(m in monos for m in img.terms)
            extra = rows + [[Fraction(img.terms.get(m, 0)) for m in monos]]
            assert linalg.rank(extra) == base_rank


def _hw_kernel(label):
    """The joint kernel of the six raising operators on the label's weight
    space, an integer kernel lifted by linalg.kernel_basis_int: the oracle
    for hw_space."""
    weight = tuple(rep._pad(lam) for lam in label)
    monomials = poly.weight_space_basis(sum(label[0]), weight)
    columns = poly.pack_terms([Poly._wrap({m: 1}) for m in monomials])   # id = column
    rows = []
    for ax, to, frm in RAISING:
        images, cols, coeffs = poly.shift_batch(ax, to, frm, columns)
        _, row_of = np.unique(images, axis=0, return_inverse=True)   # one row per image monomial
        block = [{} for _ in range(row_of.max(initial=-1) + 1)]
        for r, c, v in zip(row_of.ravel().tolist(), cols.tolist(), coeffs.tolist()):
            block[r][c] = v
        rows += block
    # by first column (stable): kernel_basis_int runs about 15% faster
    rows.sort(key=lambda r: next(iter(r)))
    vectors = linalg.kernel_basis_int(rows, len(monomials))
    assert len(vectors) == kronecker(*label)
    return [Poly({monomials[i]: c for i, c in enumerate(v) if c}).content_normalized()
            for v in vectors]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_hw_space_spans_oracle_kernel(d):
    """The tableau basis spans the raising-operator kernel: both have
    Kronecker many vectors, and stacked they still have exact rank k."""
    for lab in all_labels(d):
        k = kronecker(*lab)
        if k == 0:
            continue
        hw, ref = hw_space(lab), _hw_kernel(lab)
        assert hw.label == lab and hw.dim == len(ref) == k, lab
        monos = sorted({m for f in hw.basis + ref for m in f.terms})
        rows = [[f.terms.get(m, 0) for m in monos] for f in hw.basis + ref]
        assert linalg.rank(rows[:k]) == linalg.rank(rows) == k, lab


def test_hw_spaces_degree_7():
    """Every degree-7 label, which no kernel test reaches: Kronecker many
    independent vectors of the label's weight, each of highest weight."""
    labels = [lab for lab in all_labels(7) if kronecker(*lab)]
    assert len(labels) == 308
    for lab in labels:
        hw = hw_space(lab)
        assert hw.dim == kronecker(*lab), lab
        assert hw.weight == tuple(rep._pad(x) for x in lab), lab
        assert independent_ids(hw.terms, hw.dim) == list(range(hw.dim)), lab
        assert all(f.weight() == hw.weight for f in hw.basis) and is_highest_weight(hw.terms), lab


def oracle_tableau_terms(ta, pairs):
    """Oracle: rep._tableau_terms as one run, every pair expanded and merged
    in one batch."""
    (sa, ra), signs, rows = rep._column_group(ta), [], []
    for (sb, rb), (sc, rc) in (map(rep._column_group, pair) for pair in pairs):
        monos = 9 * ra[:, None, None] + 3 * rb[None, :, None] + rc[None, None, :]
        rows.append(np.sort(monos.reshape(-1, ra.shape[1]), axis=1))
        signs.append((sa[:, None, None] * sb[None, :, None] * sc[None, None, :]).ravel())
    ids = np.repeat(np.arange(len(pairs)), list(map(len, signs)))
    return poly.merge_terms((np.concatenate(rows), ids, np.concatenate(signs)))


@pytest.mark.parametrize("run_terms", [1, 700, 1 << 16])
def test_tableau_runs_match_one_batch(monkeypatch, run_terms):
    """Runs of one pair, of a few pairs (700 raw terms) and of all pairs give
    the rows, ids and coefficients of one batch: zero polynomials (ids with
    no term) too, at degrees 2-6."""
    monkeypatch.setattr(rep, "_RUN_TERMS", run_terms)
    labels = [((1, 1), (2,), (1, 1)), ((2, 1), (2, 1), (2, 1)), ((3, 2), (3, 1, 1), (2, 2, 1)),
              ((2, 2, 1), (2, 2, 1), (2, 2, 1)), ((3, 2, 1), (2, 2, 2), (4, 1, 1))]
    zeros = 0
    for label in labels:
        weight = tuple(rep._pad(lam) for lam in label)
        ta = rep.standard_tableaux(weight[0])[-1]
        pairs = list(product(rep.standard_tableaux(weight[1]), rep.standard_tableaux(weight[2])))
        got, want = rep._tableau_terms(ta, pairs[:12]), oracle_tableau_terms(ta, pairs[:12])
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and g.dtype == w.dtype, label
        zeros += len(pairs[:12]) - len(np.unique(got[1]))
    assert zeros


@pytest.mark.parametrize("run_terms", [1, 700, 1 << 16])
def test_tableau_values_equal_the_expanded_polynomials(monkeypatch, run_terms):
    """rep.tableau_values mod p equals poly.evaluate_points of the
    _tableau_terms expansion at seeded integer points (negative entries
    too), for C columns of heights 1, 2 and 3, zero polynomials among them,
    in runs of one pair, of a few pairs and of all pairs."""
    monkeypatch.setattr(rep, "_RUN_TERMS", run_terms)
    p, rng = linalg.machine_prime(0), random.Random(35)
    labels = [((2, 2), (2, 2), (4,)), ((1, 1), (2,), (1, 1)), ((2, 1), (2, 1), (2, 1)),
              ((3, 2), (3, 1, 1), (2, 2, 1)), ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
              ((3, 2, 1), (2, 2, 2), (4, 1, 1)), ((3, 3, 1), (3, 2, 2), (3, 2, 2))]
    heights, zeros = set(), 0
    for label in labels:
        weight = tuple(rep._pad(lam) for lam in label)
        ta = rep.standard_tableaux(weight[0])[-1]
        pairs = list(product(rep.standard_tableaux(weight[1]), rep.standard_tableaux(weight[2])))[:9]
        points = [[rng.randint(-60, 60) for _ in range(27)] for _ in range(3)]
        got = rep.tableau_values(ta, pairs, np.array(points) % p)
        polys = poly.unpack_terms(rep._tableau_terms(ta, pairs), len(pairs))
        want = poly.evaluate_points(polys, [Tensor333._from_flat(x) for x in points])
        assert got.shape == (3, len(pairs)) and got.tolist() == [[v % p for v in row] for row in want]
        heights |= {len(c) for _, tc in pairs for c in rep._columns(tc)}
        zeros += sum(f.is_zero() for f in polys)
    assert heights == {1, 2, 3} and zeros


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_hw_bases_equal_the_expansion_oracle(d):
    """The pairs picked by their values at generic points are the pairs the
    expansion of every candidate keeps: the same basis, vector for vector."""
    for lab in all_labels(d):
        if kronecker(*lab):
            got, want = hw_space(lab).basis, expanded_hw_basis(lab)   # as packs: no term dicts
            assert list(map(term_key, got)) == list(map(term_key, want)), lab


def test_too_few_independent_pairs_raise(monkeypatch):
    label = ((2, 2, 1), (2, 2, 1), (2, 2, 1))
    monkeypatch.setattr(rep, "kronecker", lambda *lab: kronecker(*lab) + (lab == label))
    with pytest.raises(rep.ConsistencyError, match="has dimension 1, expected 2"):
        rep.hw_pairs.__wrapped__(label)


def test_too_many_independent_pairs_raise(monkeypatch):
    """Values at k + 1 points catch a Kronecker coefficient one too low: the
    second chunk of this label holds two independent pairs."""
    label = ((2, 2, 2), (3, 2, 1), (3, 2, 1))
    monkeypatch.setattr(rep, "kronecker", lambda *lab: kronecker(*lab) - (lab == label))
    with pytest.raises(rep.ConsistencyError, match="has dimension 2, expected 1"):
        rep.hw_pairs.__wrapped__(label)


@pytest.mark.slow
def test_module_span_peak_stays_below_two_copies(discovery6, traced_peak_mb):
    """The 640-vector module ((3,3),(3,2,1),(3,2,1)), 136056 terms in a batch
    of about 2.9 MB: each node's ids raised in place and the nodes joined one
    column at a time, its span traces about 5.4 MB, the temporaries of the
    largest shift above the nodes.  With the nodes and their concatenation
    alive at once, and a relabelled copy of the ids, it traced 6.76 MB."""
    m = next(m for m in discovery6.modules() if m.label == ((3, 3), (3, 2, 1), (3, 2, 1)))
    h = batch_of(m.hw_vector)
    rep.module_span(h)   # the lowering trees, cached
    peak, span = traced_peak_mb(rep.module_span, h)
    assert len(span[0]) == 136056 and len(set(span[1].tolist())) == 640 and peak < 6


def test_hw_space_peak_is_one_run(traced_peak_mb):
    """A cold hw_space of ((2,2,2),(2,2,2),(2,2,2)): pairs of 46656 raw terms
    each, expanded one run at a time, peak under 8 MB (about 20 MB as one
    batch)."""
    label = ((2, 2, 2),) * 3
    peak, hw = traced_peak_mb(rep.hw_space, label)
    again = hw_space(label)
    assert hw[:2] == again[:2] and all(map(np.array_equal, hw.terms, again.terms)) and peak < 8


def test_standard_tableaux_counts_and_order():
    # hook length formula: 5 standard tableaux of shape (3, 2), 16 of (3, 2, 1)
    assert rep.standard_tableaux((3, 2, 0)) == (
        (0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 1, 0), (0, 1, 0, 1, 0))
    assert len(rep.standard_tableaux((3, 2, 1))) == 16
    assert len(rep.standard_tableaux((3, 2, 2))) == 21
    assert rep.standard_tableaux((0, 0, 0)) == ((),)
