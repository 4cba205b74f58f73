import random
from itertools import combinations_with_replacement
from fractions import Fraction

import numpy as np
import pytest

from trifocal import linalg, poly, rep
from trifocal.orbits import skew_tensor, trifocal_normal_form
from trifocal.poly import (Poly, apply_shift, det_slice_poly, f_determinant,
                           format_poly, is_highest_weight, parse_poly, row_weights, var_index,
                           weight_space_basis, witness_g)
from trifocal.tensor import Tensor333, random_orbit_point

from helpers import (m3_generators, m3_with_x_monomials, permute_factors, scaled, span_polys,
                     variable_map)


def basis_tensor(i, j, k):
    return Tensor333.from_terms([(1, i, j, k)])


def test_evaluate_single_variable():
    f = parse_poly("T_1_1_1")
    assert f.evaluate(basis_tensor(1, 1, 1)) == 1
    assert f.evaluate(basis_tensor(2, 1, 1)) == 0


def test_m3_generators_shape():
    for ax in "ABC":
        gens = m3_generators(ax)
        assert len(gens) == 10
        assert all(g.degree() == 3 for g in gens)


def test_m3_linearly_independent():
    gens = m3_generators("C")
    monos = sorted({m for g in gens for m in g.terms})
    rows = [[Fraction(g.terms.get(m, 0)) for m in monos] for g in gens]
    assert linalg.rank(rows) == 10


def test_m3_weights_distinct():
    weights = [g.weight() for g in m3_generators("C")]
    assert len(set(weights)) == 10


def test_m3_vanishes_on_trifocal_points():
    nf = trifocal_normal_form()
    gens = m3_generators("C")
    assert all(g.evaluate(nf) == 0 for g in gens)
    for seed in range(20):
        pt = random_orbit_point(nf, seed)
        assert all(g.evaluate(pt) == 0 for g in gens)


def test_all_thirty_cubics_vanish_on_skew():
    F = skew_tensor()
    assert all(g.evaluate(F) == 0 for g in [g for ax in "ABC" for g in m3_generators(ax)])
    F5 = scaled(skew_tensor(), 5)
    assert all(g.evaluate(F5) == 0 for g in [g for ax in "ABC" for g in m3_generators(ax)])


def test_degree_and_weight_read_the_pack():
    f = f_determinant()
    packed = poly.unpack_terms(poly.pack_terms([f, Poly.constant(2), Poly()]), 3)
    assert [(h.degree(), h.weight()) for h in packed] == [
        (3, ((3, 0, 0), (1, 1, 1), (1, 1, 1))), (0, ((0, 0, 0),) * 3), (None, None)]
    assert all(h._terms is None for h in packed)   # no term dict was built
    mixed_weight, mixed_degree = f + parse_poly("T_1_1_1^3"), f + parse_poly("T_1_1_1")
    assert mixed_weight.degree() == 3
    for h in (mixed_weight, mixed_degree, *poly.unpack_terms(poly.pack_terms(
            [mixed_weight, mixed_degree]), 2)):
        with pytest.raises(ValueError, match="not weight-homogeneous"):
            h.weight()
    for h in (mixed_degree, poly.unpack_terms(poly.pack_terms([mixed_degree]), 1)[0]):
        with pytest.raises(ValueError, match="not homogeneous"):
            h.degree()


def test_f_determinant_is_x1_cubed_coefficient_of_a_pencil():
    f = f_determinant()
    coeff = dict(m3_with_x_monomials("A"))[(3, 0, 0)]
    assert f == coeff
    assert f == det_slice_poly("A", 1)
    assert len(f) == 6
    assert f.weight() == ((3, 0, 0), (1, 1, 1), (1, 1, 1))
    nf = trifocal_normal_form()
    # nonzero at a random orbit point certifies nonvanishing on the variety
    assert any(f.evaluate(random_orbit_point(nf, s)) != 0 for s in range(5))


def test_weight_of_monomials():
    m = sorted([var_index(0, 0, 0), var_index(1, 1, 1), var_index(2, 2, 2)])
    rows = np.array([m, [var_index(2, 0, 1), var_index(2, 1, 1), poly.PAD]], np.uint8)
    assert row_weights(rows).tolist() == [[1, 1, 1] * 3, [0, 0, 2, 1, 1, 0, 0, 2, 0]]


def test_weight_space_basis_is_each_weights_monomials_in_tuple_order():
    """Degrees 0-4: every monomial, grouped by its weight, against the
    table slices; a negative content has no monomials."""
    for d in range(5):
        want = {}
        for m in combinations_with_replacement(range(27), d):
            contents = [[0] * 3 for _ in range(3)]
            for v in m:
                for slot, i in zip(contents, poly.var_ijk(v)):
                    slot[i] += 1
            want.setdefault(tuple(map(tuple, contents)), []).append(m)
        assert all(weight_space_basis(d, w) == monos for w, monos in want.items())
    assert weight_space_basis(3, ((4, -1, 0), (1, 1, 1), (1, 1, 1))) == []


def test_term_matrix_follows_the_given_cols_order():
    """Rows in the order of cols, unsorted; the terms of a repeated key
    share its row, a column per row of terms; C-ordered, reduced mod p."""
    keys, at = np.array([7, 3, 7, 9, 3]), np.array([0, 0, 1, 1, 2])
    a = poly.term_matrix(keys, at, np.array([1, -2, 3, 104, 5]), np.array([9, 7, 3, 11]), 3, 101)
    assert a.dtype == np.int64 and a.flags.c_contiguous
    assert a.tolist() == [[0, 3, 0], [1, 3, 0], [99, 0, 5], [0, 0, 0]]


def test_weight_space_basis_examples():
    basis = weight_space_basis(3, ((3, 0, 0), (1, 1, 1), (1, 1, 1)))
    assert len(basis) == 6  # the permutation monomials of the slice determinant
    assert weight_space_basis(1, ((1, 0, 0), (1, 0, 0), (1, 0, 0))) == [(var_index(0, 0, 0),)]
    with pytest.raises(ValueError):
        weight_space_basis(2, ((1, 0, 0), (1, 1, 0), (2, 0, 0)))


def test_raising_annihilates_f():
    assert is_highest_weight(poly.pack_terms([f_determinant(), witness_g()]))


def test_highest_weight_test_agrees_with_apply_shift():
    """is_highest_weight against each raising image built as a Poly: on
    highest weight vectors, their lowering images, sums, Fraction
    multiples and the zero image of g under a C lowering."""
    f, g = f_determinant(), witness_g()
    cases = [f, g, f * Fraction(2, 3), apply_shift("A", 1, 0, f), apply_shift("C", 1, 0, g),
             f + apply_shift("A", 1, 0, f), parse_poly("T_1_1_1"), parse_poly("T_2_1_1"),
             apply_shift("C", 2, 1, g)]
    for h in cases:
        want = all(apply_shift(ax, to, frm, h).is_zero() for ax, to, frm in poly.RAISING)
        assert is_highest_weight(poly.pack_terms([h])) == want
    assert [is_highest_weight(poly.pack_terms([h])) for h in cases] == [
        True, True, True, False, False, False, True, False, True]


def test_lowering_single_variable():
    t111 = parse_poly("T_1_1_1")
    # lowering moves A-content from slot 1 to slot 2, raising moves it back
    assert apply_shift("A", 1, 0, t111) == parse_poly("T_2_1_1")
    assert apply_shift("A", 0, 1, parse_poly("T_2_1_1")) == t111


def test_operator_weight_shift():
    f = f_determinant()
    g = apply_shift("A", 1, 0, f)
    (wa, wb, wc) = g.weight()
    assert wa == (2, 1, 0)
    assert wb == f.weight()[1] and wc == f.weight()[2]


def test_operators_are_derivations():
    rng = random.Random(41)
    def rand_poly(deg, nterms):
        return Poly([(sorted(rng.randrange(27) for _ in range(deg)), rng.randint(-3, 3))
                     for _ in range(nterms)])
    for ax, to, frm in (("A", 1, 0), ("B", 2, 1), ("C", 0, 1)):
        f = rand_poly(2, 4)
        g = rand_poly(3, 4)
        lhs = apply_shift(ax, to, frm, f * g)
        rhs = apply_shift(ax, to, frm, f) * g + f * apply_shift(ax, to, frm, g)
        assert lhs == rhs


def test_calibration_span_of_f_is_m3_of_axis_a():
    span = span_polys(f_determinant().content_normalized())
    m3A = m3_generators("A")
    monos = sorted({m for p in span + m3A for m in p.terms})
    rows = lambda ps: [[Fraction(p.terms.get(m, 0)) for m in monos] for p in ps]
    assert linalg.rank(rows(span)) == 10
    assert linalg.rank(rows(m3A)) == 10
    assert linalg.rank(rows(span + m3A)) == 10


def test_multiply():
    f = f_determinant()
    one = Poly.constant(1)
    assert f * one == f
    t = parse_poly("T_1_1_1")
    assert t * t == Poly({(0, 0): 1}) and t * t * 3 == parse_poly("3*T_1_1_1^2")
    f2 = f * f
    assert f2.degree() == 6
    wa, wb, wc = f.weight()
    assert f2.weight() == (tuple(2 * x for x in wa), tuple(2 * x for x in wb),
                           tuple(2 * x for x in wc))


def test_inexact_coefficients_are_rejected():
    # a float was printed as an exact binary fraction and a bool as 1
    for bad in (0.1, 2.0, True):
        with pytest.raises(TypeError, match="coefficient"):
            Poly({(0,): bad, (1,): 1})
        with pytest.raises(TypeError, match="coefficient"):
            Poly([((0,), bad), ((0,), -bad)])   # even where the sum is zero
    g = parse_poly("T_1_1_1")
    for bad in (0.5, 2.0, True, False):   # True * c is the int c, False * c is 0
        with pytest.raises(TypeError, match="coefficient"):
            g * bad
        with pytest.raises(TypeError, match="coefficient"):
            bad * g
        with pytest.raises(TypeError, match="coefficient"):
            g.scale(bad)
    assert Poly({(0,): Fraction(1, 2), (1,): 3}).terms == {(0,): Fraction(1, 2), (1,): 3}


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(42)
    f = f_determinant()
    g = witness_g()
    for seed in range(5):
        t = Tensor333([[[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                       for _ in range(3)])
        assert (f * g).evaluate(t) == f.evaluate(t) * g.evaluate(t)
        assert (f + g * g).evaluate(t) == f.evaluate(t) + g.evaluate(t) ** 2


def test_witness_g_structure():
    g = witness_g()
    assert len(g) == 36
    assert g.degree() == 4
    assert g.weight() == ((2, 2, 0), (2, 1, 1), (2, 1, 1))
    # g spans the full highest weight space of its label
    hw = rep.hw_space(((2, 2), (2, 1, 1), (2, 1, 1)))
    assert hw.dim == 1
    gg = g.content_normalized()
    assert gg == hw.basis[0] or gg == hw.basis[0].scale(-1).content_normalized()


def test_text_format_roundtrip():
    hw5 = rep.hw_space(((2, 2, 1), (2, 2, 1), (3, 1, 1))).basis[0]
    for f in [f_determinant(), witness_g(), *[g for ax in "ABC" for g in m3_generators(ax)], *span_polys(hw5)[::9]]:
        assert parse_poly(format_poly(f)) == f
    assert parse_poly("2*T_1_1_1^2 - 1/2*T_2_2_2") == Poly({
        (var_index(0, 0, 0), var_index(0, 0, 0)): 2,
        (var_index(1, 1, 1),): Fraction(-1, 2)})
    assert parse_poly("-a11 + 3 * b12^0") == Poly({(var_index(0, 0, 0),): -1, (): 3})
    a11, b12 = (Poly({(var_index(*ijk),): 1}) for ijk in ((0, 0, 0), (0, 1, 1)))
    assert parse_poly("a11 ^ 2") == a11 * a11
    assert parse_poly("  2*a11\n- 1/3 * b12\n\t+ a11 ^ 2\n") == (
        a11.scale(2) - b12.scale(Fraction(1, 3)) + a11 * a11)


# whitespace never joins two tokens, and digits are ASCII only
JOINED = ["1 2*a11", "a11^1 0", "1/2 0*a11", "a1 1*b22", "T_1_ 2_3", "٣*a11", "a11^٢",
          "2 / 3*a11"]


@pytest.mark.parametrize("text", [
    "a11^-1", "a11^1.5", "a11^", "a11 -", "- ", "a11 + - b11", "+", "",
    "a11**b11", "2*", "1/0*a11", "T_4_1_1", "a00", "d11", "2.5*a11", *JOINED])
def test_parse_poly_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def permuted(f, vmap):
    """f with each variable v replaced by vmap[v]; monomials stay sorted."""
    return Poly({tuple(sorted(vmap[v] for v in m)): c for m, c in f.terms.items()})


def test_permuted_factor_map_agrees_with_permute_factors():
    rng = random.Random(5)
    f = Poly({tuple(sorted(rng.randrange(27) for _ in range(3))): rng.randint(-9, 9)
              for _ in range(12)}) + witness_g()
    t = Tensor333([[[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)] for _ in range(3)])
    assert permuted(f, variable_map(((0, 1, 2),) * 3)) == f
    # a Weyl element: swap the first two A-indices, then sigma(f)(T) = f(T o sigma)
    swap = variable_map(((1, 0, 2), (0, 1, 2), (0, 1, 2)))
    t_swapped = Tensor333([t.t[1], t.t[0], t.t[2]])
    assert permuted(f, swap).evaluate(t) == f.evaluate(t_swapped)
    assert all(list(m) == sorted(m) for m in permuted(f, swap).terms)
    # the cyclic factor relabeling: T_ijk -> T_jki, then the image of f at T is f(permuted T)
    cycle = [var_index(j, k, i) for i, j, k in map(poly.var_ijk, range(27))]
    assert permuted(f, cycle).evaluate(t) == f.evaluate(permute_factors(t))
