"""The batch shift kernel against the dict-of-tuples loop it replaced.

dict_apply_shift, dict_module_span and dict_content_normalized are the
former poly.apply_shift, rep.module_span and Poly.content_normalized,
kept here as oracles, with the dict sum that formed the vanishing
certificates.
"""

import random
from bisect import bisect
from fractions import Fraction
from itertools import permutations
from math import gcd

import numpy as np
import pytest

from trifocal import ideal, linalg, poly, rep
from trifocal.poly import (N_VARS, Poly, apply_shift, f_determinant, var_index, var_ijk,
                           witness_g)

from helpers import add, hw_polys, normalized, poly_of, scale, span_polys

SHIFTS = [(ax, to, frm) for ax in "ABC" for to, frm in permutations(range(3), 2)]


def _shift_map(axis, to_idx, from_idx):
    ax = "ABC".index(axis)
    out = []
    for v in range(N_VARS):
        ijk = list(var_ijk(v))
        if ijk[ax] == from_idx:
            ijk[ax] = to_idx
            out.append(var_index(*ijk))
        else:
            out.append(-1)
    return out


def dict_apply_shift(axis, to_idx, from_idx, f):
    vmap = _shift_map(axis, to_idx, from_idx)
    out = {}
    for mono, coeff in f.terms.items():
        prev = -1
        for pos, v in enumerate(mono):
            if v == prev:
                continue
            prev = v
            w = vmap[v]
            if w < 0:
                continue
            rest = mono[:pos] + mono[pos + 1:]
            k = bisect(rest, w)
            new = rest[:k] + (w,) + rest[k:]
            c = out.get(new, 0) + coeff * mono.count(v)
            if c:
                out[new] = c
            else:
                del out[new]
    return Poly(out)


def dict_content_normalized(f):
    if not f.terms:
        return Poly()
    terms = f.terms
    if not all(type(c) is int for c in terms.values()):
        den = 1
        for c in terms.values():
            q = Fraction(c)
            den = den * q.denominator // gcd(den, q.denominator)
        terms = {m: int(Fraction(c) * den) for m, c in terms.items()}
    g = gcd(*terms.values())
    if terms[min(terms)] < 0:
        g = -g
    if g == 1:
        return Poly(terms)
    return Poly({m: c // g for m, c in terms.items()})


def dict_module_span(h):
    parts = tuple(tuple(sorted(c, reverse=True)) for c in h.weight())
    basis = [dict_content_normalized(h)]
    for axis, part in zip("ABC", parts):
        tree = rep.lowering_tree(tuple(x for x in part if x))
        grown = []
        for root in basis:
            span = [root]
            for parent, (to, frm) in tree[1:]:
                span.append(dict_content_normalized(dict_apply_shift(axis, to, frm, span[parent])))
            grown.extend(span)
        basis = grown
    return basis


def _random_poly(rng, degrees, nterms, coeff):
    terms = {}
    for _ in range(nterms):
        mono = tuple(sorted(rng.randrange(N_VARS) for _ in range(rng.choice(degrees))))
        terms[mono] = terms.get(mono, 0) + coeff(rng)
    return Poly(terms)


def _cases():
    rng = random.Random(2718)
    small = lambda r: r.randint(-9, 9)
    cases = [Poly(), Poly({(): 5})]
    cases += [_random_poly(rng, [d], 30, small) for d in range(8)]
    cases += [_random_poly(rng, range(8), 60, small)]                            # mixed degrees
    # 5 * 13 bits: object keys; these two would share an int64 key
    cases += [_random_poly(rng, [13], 20, small), Poly({(0,) + (26,) * 12: 1, (16,) + (26,) * 12: 2})]
    cases += [_random_poly(rng, [3, 5], 30, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7)))]
    cases += [_random_poly(rng, [4], 30, lambda r: r.choice([-1, 1]) * r.getrandbits(70))]
    cases += [_random_poly(rng, [6], 20, lambda r: r.choice([-1, 1]) << 60)]
    cases += [Poly({(0,) * 6: 3 << 60})]   # L1 < 2^62 <= L1 * 6: its image overflows int64
    return cases


@pytest.mark.parametrize("axis, to, frm", SHIFTS)
def test_shift_matches_dict_loop(axis, to, frm):
    for f in _cases():
        assert apply_shift(axis, to, frm, f) == dict_apply_shift(axis, to, frm, f), f


def test_shift_cancels_to_zero():
    # raising operators annihilate highest weight vectors term by term
    for f in (f_determinant(), witness_g()):
        for to, frm in ((0, 1), (1, 2)):
            for axis in "ABC":
                assert dict_apply_shift(axis, to, frm, f).is_zero()
                assert apply_shift(axis, to, frm, f).is_zero()
    # a 2x2 minor: both terms map to T_1_1_1 T_1_1_2 and cancel
    f = Poly({(var_index(0, 0, 0), var_index(1, 0, 1)): 1,
              (var_index(0, 0, 1), var_index(1, 0, 0)): -1})
    assert dict_apply_shift("A", 0, 1, f).is_zero()
    assert apply_shift("A", 0, 1, f).is_zero()


def test_shift_keeps_exact_coefficient_types():
    f = Poly({(0, 9): Fraction(1, 3), (9, 9): 2 ** 80})
    g = apply_shift("A", 0, 1, f)
    assert g == dict_apply_shift("A", 0, 1, f)
    assert g.terms[(0, 0)] == Fraction(1, 3) and g.terms[(0, 9)] == 2 ** 81


def test_chained_shifts_leave_int64_before_it_overflows():
    # L1 * width < 2^62 at the start; the second shift's input is past it
    f = Poly({(0,) * 6: 1 << 58})
    batch, g = poly.pack_terms([f]), f
    for _ in range(4):
        batch, g = poly.shift_batch("A", 1, 0, batch), dict_apply_shift("A", 1, 0, g)
        assert poly.unpack_terms(batch, 1) == [g]
    assert g.terms[(0, 0, 9, 9, 9, 9)] == 360 << 58


def test_unpacked_polys_pack_back_to_their_batch():
    """unpack_terms gives a batch's Polys, and pack_terms reads them back:
    the batch comes back unchanged, int64 or object."""
    cases = [f for f in _cases() if f.terms]
    for group in (cases[:9], cases):
        batch = poly.pack_terms(group)
        assert batch[2].dtype == (np.int64 if group is not cases else object)
        polys = poly.unpack_terms(batch, len(group))
        again = poly.pack_terms(polys)
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(batch, again))
        assert polys == group


def test_normalize_batch_matches_content_normalized():
    """helpers.normalized, and normalize_batch on a batch of several, give
    the dict oracle's polynomials; the sign comes from the smallest
    monomial in tuple order, wherever it sits in the terms."""
    rng = random.Random(31)
    polys = [Poly({(0, 9): -4}), Poly({(3, 4): 6, (1, 2): -9}), Poly({(5,): -(3 << 70)}),
             Poly({(1, 1): 1 << 70, (0, 2): -(1 << 69)}), Poly({(2,): 7}), Poly(),
             Poly({(0, 1): -(1 << 64), (2, 2): 3 << 66, (0, 0): 9 << 63})]
    polys += [_random_poly(rng, [4], 12, lambda r: r.choice([-6, -4, 2, 8, 12])) for _ in range(9)]
    polys += [_random_poly(rng, [3], 8, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7)))
              for _ in range(3)]
    polys += [Poly({(4, 5): Fraction(-3, 4), (4,): Fraction(9, 2), (): 6})]   # not homogeneous
    for f in polys:
        assert normalized(f) == dict_content_normalized(f), f
    integral = [f for f in polys if all(type(c) is int for c in f.terms.values())]
    for group in (integral[:2], integral[2:4], integral):   # int64 and object coefficients
        batch = poly.merge_terms(poly.pack_terms(group))
        assert poly.unpack_terms(poly.normalize_batch(batch), len(group)) == [
            dict_content_normalized(f) for f in group]


def _same_span(h):
    new, old = span_polys(h), dict_module_span(h)
    assert new == old   # the same vectors in the same order


def test_module_span_matches_dict_loop():
    _same_span(f_determinant())
    _same_span(witness_g())


@pytest.mark.slow
def test_module_spans_match_dict_loop_on_discovery6(discovery6):
    modules = discovery6.modules()
    assert len(modules) == 12
    for m in modules:
        _same_span(poly_of(m.basis[0]))


def dict_combination(v, polys):
    return dict_content_normalized(add(*(scale(f, c) for c, f in zip(v, polys))))


def test_certificates_equal_the_dict_sum(trifocal_nf, monkeypatch):
    """The degree-5 vanishing certificates, one packed integer combination
    of the hw basis per kernel vector, are the dict sums."""
    lift, kernels = linalg.kernel_basis_int, []
    monkeypatch.setattr(linalg, "kernel_basis_int", lambda r, n: kernels.append(lift(r, n)) or kernels[-1])
    seen = 0
    for i, lab in enumerate(lab for lab in rep.all_labels(5) if rep.kronecker(*lab)):
        hw = rep.hw_space(lab)
        try:
            report = ideal.vanishing_subspace(hw, trifocal_nf, seed=7000 + 7919 * i)
        except ArithmeticError:   # the screen refused this draw: it returns no certificates
            continue
        certs = poly.unpack_terms(report.certificates, report.multiplicity)
        assert certs == [dict_combination(v, hw_polys(hw)) for v in kernels[-1]], lab
        seen += report.multiplicity
    assert seen >= 3


def test_combinations_leave_int64_before_it_overflows():
    polys = [Poly({(0, 1): 3, (2, 2): -5}), Poly({(0, 1): 1 << 40, (1, 1): 7}),
             Poly({(0, 1): -2, (1, 2): 4})]
    for kernel in ([], [[1, 2, 3]], [[2, 0, -4], [0, 1, 1 << 20]],   # int64
                   [[1 << 21, 0, 0], [0, 1 << 22, 5]],              # L1 just past 2^62
                   [[3 << 70, 1 << 64, -(1 << 80)]], [[1 << 40, -3, 1]]):
        certs = poly.unpack_terms(ideal._combinations(kernel, poly.pack_terms(polys), 3), len(kernel))
        assert certs == [dict_combination(v, polys) for v in kernel], kernel
