"""Integer lattices: Hermite form and LLL reduction."""

import itertools
import random

from wreath_dio.abelian import smith_normal_form
from wreath_dio.lattice import (
    hermite_form,
    is_lll_reduced,
    lattice_basis,
    lll_reduce,
)


def _norm_sq(v):
    return sum(x * x for x in v)


def _independent(basis):
    # square rows are independent iff no Smith diagonal entry is zero
    D, _, _ = smith_normal_form(basis)
    return all(D[i][i] for i in range(len(basis)))


def _lattice_points(basis, coeff_range):
    pts = set()
    if not basis:
        return {()}
    for coeffs in itertools.product(coeff_range, repeat=len(basis)):
        pts.add(tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(basis[0]))))
    return pts


# ---------------------------------------------------------------------------
# Hermite form


def test_hermite_form_identifies_equal_lattices():
    assert hermite_form([(2, 0), (0, 2)]) == hermite_form([(2, 2), (0, 2)])
    assert hermite_form([(1, 0)]) != hermite_form([(2, 0)])


def test_hermite_form_permutation_invariant():
    vecs = [(3, 1, 0), (0, 2, 5), (1, 1, 1)]
    base = hermite_form(vecs)
    for perm in itertools.permutations(vecs):
        assert hermite_form(perm) == base


def test_hermite_form_invariant_under_row_operations():
    rng = random.Random(99)
    for _ in range(60):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(n)]
        base = hermite_form(vecs)
        # add a random integer multiple of one row to another, and negate one
        rewritten = [list(v) for v in vecs]
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-3, 3)
            rewritten[i] = [a + k * b for a, b in zip(rewritten[i], rewritten[j])]
        t = rng.randrange(n)
        rewritten[t] = [-a for a in rewritten[t]]
        assert hermite_form(rewritten) == base


def test_hermite_form_drops_zero_rows():
    assert hermite_form([(0, 0), (2, 1)]) == hermite_form([(2, 1)])
    assert hermite_form([(0, 0, 0)]) == ()


def test_lattice_basis_spans_same_lattice():
    vecs = [(2, 0), (0, 2), (2, 2)]
    basis = lattice_basis(vecs)
    assert len(basis) == 2
    span_a = _lattice_points(vecs, range(-2, 3))
    span_b = _lattice_points(basis, range(-4, 5))
    assert span_a <= span_b
    for v in basis:
        assert v in _lattice_points(vecs, range(-4, 5))


# ---------------------------------------------------------------------------
# LLL


def test_lll_keeps_standard_basis():
    basis = [(1, 0), (0, 1)]
    assert lll_reduce(basis) == [(1, 0), (0, 1)]


def test_lll_example_two_dim():
    red = lll_reduce([(1, 1), (0, 2)])
    assert sorted(_norm_sq(v) for v in red) == [2, 2]
    assert hermite_form(red) == hermite_form([(1, 1), (0, 2)])


def test_lll_shortens_skewed_basis():
    basis = [(4, 1), (9, 2)]
    red = lll_reduce(basis)
    assert hermite_form(red) == hermite_form(basis)
    # lattice contains (1, 0) = (9,2) - 2*(4,1) and (0,1); first vector must be short
    assert min(_norm_sq(v) for v in red) == 1
    assert is_lll_reduced(red)


def test_lll_conditions_hold_on_random_bases():
    rng = random.Random(4242)
    for _ in range(80):
        dim = rng.randint(1, 4)
        while True:
            basis = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            if _independent(basis):
                break
        red = lll_reduce(basis)
        assert is_lll_reduced(red)
        assert hermite_form(red) == hermite_form(basis)


def test_lll_first_vector_bound():
    # |b_1|^2 <= 2^(n-1) * lambda_1^2 ; check against exhaustive shortest vector
    rng = random.Random(777)
    for _ in range(40):
        dim = rng.randint(1, 3)
        while True:
            basis = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
            if _independent(basis):
                break
        red = lll_reduce(basis)
        pts = _lattice_points(red, range(-4, 5)) - {tuple([0] * dim)}
        lam1_sq = min(_norm_sq(p) for p in pts)
        assert _norm_sq(red[0]) <= 2 ** (dim - 1) * lam1_sq
