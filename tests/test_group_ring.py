"""Finitely supported functions B -> A: shifts, sums, pushforwards."""

import itertools
import random

import pytest

from wreath_dio.abelian import GroupPresentation, Subgroup
from wreath_dio.group_ring import (
    SupportedFunction,
    diameter,
    is_zero_mod,
    lambda_map,
    lambda_term,
    pushforward,
    shift,
)

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z4 = GroupPresentation(0, (4,))
ZxZ = GroupPresentation(2)


def atom(A, B, coeff, point):
    return SupportedFunction.atom(A.element(coeff), B.element(point))


def _random_function(rng, A, B, max_terms=3, window=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = tuple(
            rng.randrange(t) for t in A.torsion
        ) + tuple(rng.randint(-window, window) for _ in range(A.free_rank))
        point = tuple(
            rng.randrange(t) for t in B.torsion
        ) + tuple(rng.randint(-window, window) for _ in range(B.free_rank))
        terms.append((B.element(point), A.element(coeff)))
    return SupportedFunction(A, B, tuple(terms))


# ---------------------------------------------------------------------------
# construction and addition


def test_construction_merges_and_prunes():
    f = SupportedFunction(
        Z,
        Z,
        (
            (Z.element((0,)), Z.element((2,))),
            (Z.element((0,)), Z.element((-2,))),
            (Z.element((1,)), Z.element((5,))),
        ),
    )
    assert f.terms == ((Z.element((1,)), Z.element((5,))),)


def test_terms_sorted_by_point():
    f = atom(Z, Z, (1,), (3,)) + atom(Z, Z, (1,), (-2,))
    assert [p.coords for p, _ in f.terms] == [(-2,), (3,)]


def test_add_zero_is_identity():
    f = atom(Z2, Z, (1,), (0,)) + atom(Z2, Z, (1,), (4,))
    assert f + SupportedFunction.zero(Z2, Z) == f


def test_add_cancels_opposite_atoms():
    f = atom(Z, Z, (3,), (5,))
    assert (f + (-f)).is_zero()


def test_add_mod2_example():
    # (1^0 + 1^1) + 1^1 = 1^0 over A=Z_2
    f = atom(Z2, Z, (1,), (0,)) + atom(Z2, Z, (1,), (1,))
    g = atom(Z2, Z, (1,), (1,))
    assert f + g == atom(Z2, Z, (1,), (0,))


def test_group_mismatch_rejected():
    with pytest.raises(ValueError):
        atom(Z, Z, (1,), (0,)) + atom(Z2, Z, (1,), (0,))
    with pytest.raises(ValueError):
        SupportedFunction(Z, Z, ((Z.element((0,)), Z2.element((1,))),))


def test_value_at_and_total():
    f = atom(Z, Z, (3,), (1,)) + atom(Z, Z, (-1,), (2,))
    assert f.value_at(Z.element((1,))).coords == (3,)
    assert f.value_at(Z.element((9,))).is_zero()
    assert f.total_coefficient().coords == (2,)


def test_size_sums_coeff_and_point_lengths():
    f = atom(Z, ZxZ, (3,), (1, -2)) + atom(Z, ZxZ, (-1,), (0, 0))
    assert f.size() == (3 + 3) + (1 + 0)


# ---------------------------------------------------------------------------
# shift


def test_shift_by_zero_is_identity():
    f = atom(Z, Z, (2,), (1,))
    assert shift(f, Z.element((0,))) == f


def test_shift_moves_support_backwards():
    # shifting the origin atom by 1 lands its support on -1
    f = atom(Z, Z, (5,), (0,))
    g = shift(f, Z.element((1,)))
    assert [p.coords for p in g.support()] == [(-1,)]
    assert g.value_at(Z.element((-1,))).coords == (5,)


def test_shift_inverse_law():
    rng = random.Random(3)
    for _ in range(40):
        f = _random_function(rng, Z4, ZxZ)
        d = ZxZ.element((rng.randint(-3, 3), rng.randint(-3, 3)))
        assert shift(shift(f, d), -d) == f


def test_shift_composition_law():
    rng = random.Random(4)
    for _ in range(40):
        f = _random_function(rng, Z, Z)
        u = Z.element((rng.randint(-3, 3),))
        v = Z.element((rng.randint(-3, 3),))
        assert shift(shift(f, u), v) == shift(f, u + v)


def test_shift_preserves_coefficients():
    rng = random.Random(5)
    for _ in range(20):
        f = _random_function(rng, Z, Z)
        d = Z.element((rng.randint(-3, 3),))
        g = shift(f, d)
        assert sorted(a.coords for _, a in g.terms) == sorted(
            a.coords for _, a in f.terms
        )


# ---------------------------------------------------------------------------
# translation as convolution


def ring_multiply(f, g):
    # reference group-ring convolution: support points add, coefficients
    # multiply componentwise
    A = f.coeff_group
    return SupportedFunction(A, f.base_group, tuple(
        (p + q, A.element(tuple(x * y for x, y in zip(a.coords, b.coords))))
        for p, a in f.terms
        for q, b in g.terms
    ))


def test_translate_identity():
    # f * 1^b translates the support forward by b, i.e. equals shift(f, -b)
    rng = random.Random(8)
    for _ in range(30):
        f = _random_function(rng, Z, Z)
        b = Z.element((rng.randint(-3, 3),))
        translate = ring_multiply(f, SupportedFunction.atom(Z.element((1,)), b))
        assert translate == shift(f, -b)
        # f - f*1^b = f * (1^0 - 1^b)
        assert f - translate == ring_multiply(
            f, atom(Z, Z, (1,), (0,)) - SupportedFunction.atom(Z.element((1,)), b)
        )


# ---------------------------------------------------------------------------
# pushforward and is_zero_mod


def test_pushforward_trivial_subgroup_keeps_terms():
    f = atom(Z, Z, (2,), (3,)) + atom(Z, Z, (1,), (-1,))
    g = pushforward(f, Subgroup.trivial(Z))
    assert [(p.coords, a.coords) for p, a in g.terms] == [
        (p.coords, a.coords) for p, a in f.terms
    ]


def test_pushforward_whole_group_totals():
    f = atom(Z, Z, (2,), (3,)) + atom(Z, Z, (5,), (-1,))
    g = pushforward(f, Subgroup.whole(Z))
    assert len(g.terms) == 1
    point, coeff = g.terms[0]
    assert point.is_zero() and coeff.coords == (7,)


def test_pushforward_mod2_collapse():
    # A=Z_2, f = 1^0 + 1^2, N = <2>: both points collapse and 1+1=0
    f = atom(Z2, Z, (1,), (0,)) + atom(Z2, Z, (1,), (2,))
    N = Subgroup(Z, (Z.element((2,)),))
    assert pushforward(f, N).is_zero()
    assert is_zero_mod(f, N)


def test_pushforward_additive():
    rng = random.Random(9)
    N = Subgroup(ZxZ, (ZxZ.element((2, 0)),))
    for _ in range(30):
        f = _random_function(rng, Z4, ZxZ)
        g = _random_function(rng, Z4, ZxZ)
        assert pushforward(f + g, N) == pushforward(f, N) + pushforward(g, N)


def test_is_zero_mod_examples():
    N = Subgroup(Z, (Z.element((5,)),))
    assert is_zero_mod(SupportedFunction.zero(Z, Z), N)
    assert not is_zero_mod(atom(Z, Z, (1,), (0,)), Subgroup.whole(Z))
    b = Z.element((4,))
    f = atom(Z, Z, (1,), (0,)) - SupportedFunction.atom(Z.element((1,)), b)
    assert is_zero_mod(f, Subgroup(Z, (b,)))
    assert not is_zero_mod(f, Subgroup(Z, (Z.element((3,)),)))


def test_is_zero_mod_matches_pushforward():
    rng = random.Random(10)
    for _ in range(40):
        f = _random_function(rng, Z4, Z)
        k = rng.randint(0, 4)
        N = Subgroup(Z, (Z.element((k,)),) if k else ())
        assert is_zero_mod(f, N) == pushforward(f, N).is_zero()


# ---------------------------------------------------------------------------
# lambda maps


def test_lambda_term_is_difference_of_shifts():
    f = atom(Z, Z, (1,), (0,))
    b = Z.element((2,))
    out = lambda_term(f, b)
    assert out == f - shift(f, b)
    assert {p.coords: a.coords for p, a in out.terms} == {(0,): (1,), (-2,): (-1,)}


def test_lambda_map_of_zeros_is_zero():
    zero = SupportedFunction.zero(Z2, Z)
    assert lambda_map([zero, zero], [Z.element((1,)), Z.element((2,))]).is_zero()


def test_lambda_map_unit_example():
    # k=1, f = 1^0: the image is 1^0 - 1^{-b}
    b = Z.element((3,))
    out = lambda_map([atom(Z, Z, (1,), (0,))], [b])
    assert out == atom(Z, Z, (1,), (0,)) - atom(Z, Z, (1,), (-3,))


def test_lambda_map_length_mismatch():
    with pytest.raises(ValueError):
        lambda_map([atom(Z, Z, (1,), (0,))], [])


def test_lambda_image_in_kernel_of_pushforward():
    rng = random.Random(11)
    for _ in range(60):
        A = rng.choice((Z2, Z4, Z))
        B = rng.choice((Z, ZxZ))
        k = rng.randint(1, 3)
        fs = [_random_function(rng, A, B) for _ in range(k)]
        bs = [
            B.element(tuple(rng.randint(-3, 3) for _ in range(B.ncoords)))
            for _ in range(k)
        ]
        out = lambda_map(fs, bs)
        assert is_zero_mod(out, Subgroup(B, tuple(bs)))


def _all_functions(A, B):
    points = list(B.elements())
    coeffs = list(A.elements())
    for assignment in itertools.product(coeffs, repeat=len(points)):
        yield SupportedFunction(A, B, tuple(zip(points, assignment)))


def test_kernel_equals_image_single_shift_z4():
    # every function vanishing mod <b> is a lambda image, and conversely
    B = Z4
    for b in B.elements():
        N = Subgroup(B, (b,))
        kernel = {f for f in _all_functions(Z2, B) if is_zero_mod(f, N)}
        image = {lambda_map([f], [b]) for f in _all_functions(Z2, B)}
        assert image == kernel


# ---------------------------------------------------------------------------
# diameter


def test_diameter_examples():
    assert diameter(SupportedFunction.zero(Z, Z)) == 0
    assert diameter(atom(Z, Z, (1,), (7,))) == 0
    f = atom(Z, Z, (1,), (0,)) + atom(Z, Z, (1,), (3,))
    assert diameter(f) == 3
    g = (
        atom(Z, ZxZ, (1,), (0, 0))
        + atom(Z, ZxZ, (1,), (1, 1))
        + atom(Z, ZxZ, (1,), (2, 0))
    )
    assert diameter(g) == 2


def test_diameter_bounded_by_size():
    rng = random.Random(12)
    for _ in range(50):
        f = _random_function(rng, Z2, ZxZ, max_terms=4)
        assert diameter(f) <= f.size() or f.is_zero()


def test_diameter_shift_invariant():
    rng = random.Random(13)
    for _ in range(30):
        f = _random_function(rng, Z, Z)
        d = Z.element((rng.randint(-5, 5),))
        assert diameter(shift(f, d)) == diameter(f)


# ---------------------------------------------------------------------------
# vanishing forces zero total (the one-way collapse along B -> B/B)


def test_zero_mod_any_subgroup_implies_zero_total():
    rng = random.Random(14)
    for _ in range(60):
        f = _random_function(rng, Z4, Z)
        for k in range(4):
            N = Subgroup(Z, (Z.element((k,)),) if k else ())
            if is_zero_mod(f, N):
                assert f.total_coefficient().is_zero()
