"""Group presentations, Smith normal form, quotients, and Cayley balls."""

import itertools
import random

import pytest

from wreath_dio import abelian
from wreath_dio.abelian import (
    BudgetExceeded,
    GroupElement,
    GroupPresentation,
    IntMatrix,
    Subgroup,
    ball_size,
    enumerate_ball,
    geodesic_length,
    group_rank,
    integer_kernel,
    quotient,
    quotient_maps,
    smith_normal_form,
    solve_rational,
    subgroup_contains,
    subgroup_rank,
)

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z4 = GroupPresentation(0, (4,))
Z2xZ2 = GroupPresentation(0, (2, 2))
ZxZ = GroupPresentation(2)


# ---------------------------------------------------------------------------
# presentations and elements


def test_torsion_factor_one_is_dropped():
    assert GroupPresentation(1, (1, 6)).torsion == (6,)


def test_invalid_divisibility_chain_rejected():
    with pytest.raises(ValueError):
        GroupPresentation(0, (4, 2))


def test_negative_free_rank_rejected():
    with pytest.raises(ValueError):
        GroupPresentation(-1)


def test_trivial_and_finite_predicates():
    assert GroupPresentation(0).is_trivial()
    assert Z2.is_finite() and not Z2.is_trivial()
    assert not Z.is_finite()
    assert Z2xZ2.order() == 4
    assert Z.order() is None


def test_element_canonical_torsion_reduction():
    g = GroupElement(Z4, (7,))
    assert g.coords == (3,)
    mixed = GroupPresentation(1, (3,))
    assert mixed.element((-1, 5)).coords == (2, 5)  # torsion first, then free


def test_element_addition_and_negation():
    g = Z4.element((3,))
    assert (g + g).coords == (2,)
    assert (g + (-g)).is_zero()
    assert g.scale(5).coords == (3,)


def test_mixed_group_operands_rejected():
    with pytest.raises(ValueError):
        Z4.element((1,)) + Z2.element((1,))


def test_symmetric_lift_and_norm():
    g = Z4.element((3,))
    assert g.symmetric_lift() == (-1,)
    assert g.norm_sq() == 1
    h = GroupPresentation(1, (4,)).element((2, -3))
    assert h.symmetric_lift() == (2, -3)
    assert h.norm_sq() == 13


def test_has_infinite_order():
    mixed = GroupPresentation(1, (4,))
    assert mixed.element((0, 1)).has_infinite_order()
    assert not mixed.element((3, 0)).has_infinite_order()


# ---------------------------------------------------------------------------
# Smith normal form


def _random_matrix(rng, rows, cols, lo=-10, hi=10):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def _is_unimodular(M):
    return M.determinant() in (1, -1)


def test_smith_normal_form_random_matrices():
    rng = random.Random(20260816)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = _random_matrix(rng, rows, cols)
        D, U, V = smith_normal_form(M)
        assert U.mul(M).mul(V).entries == D.entries
        assert _is_unimodular(U) and _is_unimodular(V)
        diag = [D.entries[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            for j in range(D.ncols):
                if j != i and i < D.nrows:
                    assert D.entries[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        assert all(d >= 0 for d in diag)


def test_smith_normal_form_known_example():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    D, U, V = smith_normal_form(M)
    assert [D.entries[0][0], D.entries[1][1]] == [2, 4]


def test_integer_kernel():
    M = IntMatrix.from_rows([[1, 2, 3]])
    for v in integer_kernel(M):
        assert sum(a * b for a, b in zip(v, (1, 2, 3))) == 0
    assert len(integer_kernel(M)) == 2
    assert integer_kernel(IntMatrix.from_rows([[1, 0], [0, 1]])) == []


# ---------------------------------------------------------------------------
# subgroup membership / rank


def test_membership_examples():
    S = Subgroup(ZxZ, (ZxZ.element((1, 1)),))
    assert subgroup_contains(S, ZxZ.element((1, 1)))
    assert subgroup_contains(S, ZxZ.element((-3, -3)))
    assert not subgroup_contains(S, ZxZ.element((1, 0)))
    S2 = Subgroup(ZxZ, (ZxZ.element((2, 0)),))
    assert not subgroup_contains(S2, ZxZ.element((1, 0)))


def test_membership_in_torsion_group():
    S = Subgroup(Z4, (Z4.element((2,)),))
    assert subgroup_contains(S, Z4.element((0,)))
    assert subgroup_contains(S, Z4.element((2,)))
    assert not subgroup_contains(S, Z4.element((1,)))


def _closure(B, gens):
    reached = {B.zero()}
    frontier = [B.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def test_membership_agrees_with_closure_small_groups():
    for B in (Z4, Z2xZ2, GroupPresentation(0, (2, 4))):
        elements = list(B.elements())
        for r in range(3):
            for gens in itertools.combinations(elements, r):
                S = Subgroup(B, gens)
                closure = _closure(B, gens)
                for g in elements:
                    assert subgroup_contains(S, g) == (g in closure)


def _brute_subgroup_rank(B, gens):
    # least generating-set size over all subsets of the closure
    closure = _closure(B, gens)
    elements = sorted(closure, key=lambda g: g.coords)
    for r in range(len(elements) + 1):
        for cand in itertools.combinations(elements, r):
            if _closure(B, cand) == closure:
                return r
    raise AssertionError


def test_subgroup_rank_agrees_with_brute_force():
    for B in (Z4, Z2xZ2, GroupPresentation(0, (16,)), GroupPresentation(0, (2, 4))):
        elements = list(B.elements())
        for r in range(3):
            for gens in itertools.combinations(elements, r):
                S = Subgroup(B, gens)
                assert subgroup_rank(S) == _brute_subgroup_rank(B, gens)


def test_group_rank():
    assert group_rank(Z) == 1
    assert group_rank(Z2xZ2) == 2
    assert group_rank(GroupPresentation(2, (2, 6))) == 4
    assert group_rank(GroupPresentation(0)) == 0


# ---------------------------------------------------------------------------
# quotients


def test_quotient_by_trivial_preserves_rank():
    for G in (Z, Z4, ZxZ, GroupPresentation(1, (2,))):
        Q, project = quotient(G, Subgroup.trivial(G))
        assert group_rank(Q) == group_rank(G)


def test_quotient_examples():
    Q, project = quotient(ZxZ, Subgroup(ZxZ, (ZxZ.element((1, 1)),)))
    assert (Q.free_rank, Q.torsion) == (1, ())
    Q2, _ = quotient(ZxZ, Subgroup(ZxZ, (ZxZ.element((2, 0)), ZxZ.element((0, 3)))))
    assert (Q2.free_rank, Q2.torsion) == (0, (6,))
    Q3, _ = quotient(Z, Subgroup(Z, (Z.element((1,)),)))
    assert Q3.is_trivial()


def test_project_is_homomorphism():
    rng = random.Random(7)
    G = GroupPresentation(2, (4,))
    N = Subgroup(G, (G.element((2, 1, -1)),))
    Q, project = quotient(G, N)
    for _ in range(50):
        a = G.element((rng.randrange(4), rng.randint(-9, 9), rng.randint(-9, 9)))
        b = G.element((rng.randrange(4), rng.randint(-9, 9), rng.randint(-9, 9)))
        assert project(a + b) == project(a) + project(b)
    # generators map to zero
    assert project(N.generators[0]).is_zero()


def test_quotient_order_counts_fibers():
    B = Z2xZ2
    N = Subgroup(B, (B.element((1, 0)),))
    Q, project = quotient(B, N)
    assert Q.order() == 2
    images = {project(g).coords for g in B.elements()}
    assert len(images) == 2


def test_quotient_maps_roundtrip():
    cases = [
        (ZxZ, (ZxZ.element((1, 1)),)),
        (ZxZ, (ZxZ.element((2, 0)), ZxZ.element((0, 3)))),
        (GroupPresentation(1, (4,)), (GroupPresentation(1, (4,)).element((2, 0)),)),
        (Z4, ()),
        (GroupPresentation(0, (2, 6)), (GroupPresentation(0, (2, 6)).element((1, 3)),)),
        (GroupPresentation(0), (GroupPresentation(0).zero(),)),
    ]
    for G, gens in cases:
        Q, project, lift = quotient_maps(G, gens)
        if Q.is_finite():
            sample = list(Q.elements())
        else:
            sample = list(enumerate_ball(Q, 2))
        for q in sample:
            assert project(lift(q)) == q


def test_one_smith_form_per_subgroup(monkeypatch):
    """Membership, quotient, lift and rank share one Smith form of the
    preimage matrix; the rank adds one of the relation matrix."""
    G = GroupPresentation(1, (2, 4))
    gens = (G.element((1, 2, 0)), G.element((0, 1, 2)))
    S = Subgroup(G, gens)
    shapes = []

    def counting(M):
        shapes.append((M.nrows, M.ncols))
        return smith_normal_form(M)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    abelian._subgroup_form.cache_clear()
    assert subgroup_contains(S, G.element((1, 2, 0)))
    Q, project = quotient(G, S)
    Q2, project2, lift = quotient_maps(G, gens)
    assert Q2 == Q
    for q in enumerate_ball(Q, 2):
        assert project(lift(q)) == q == project2(lift(q))
    assert subgroup_rank(S) == 2
    assert subgroup_contains(S, G.element((1, 3, 2)))
    # the 3x4 preimage matrix [lifts | relations], then the 2x1 relation
    # matrix of the generators (their one relation is 2 * gens[0] = 0)
    assert shapes == [(3, 4), (2, 1)]


# ---------------------------------------------------------------------------
# Cayley metric and balls


def test_geodesic_length_examples():
    assert geodesic_length(Z, Z.element((-7,))) == 7
    assert geodesic_length(Z4, Z4.element((3,))) == 1  # -1 is shorter
    assert geodesic_length(GroupPresentation(1, (4,)), GroupPresentation(1, (4,)).element((2, -3))) == 5


def test_geodesic_symmetry_and_triangle():
    rng = random.Random(11)
    G = GroupPresentation(1, (6,))
    for _ in range(100):
        g = G.element((rng.randrange(6), rng.randint(-8, 8)))
        h = G.element((rng.randrange(6), rng.randint(-8, 8)))
        assert geodesic_length(G, g) == geodesic_length(G, -g)
        assert geodesic_length(G, g + h) <= geodesic_length(G, g) + geodesic_length(G, h)


def test_ball_z_radius_2():
    got = [g.coords for g in enumerate_ball(Z, 2)]
    assert got == [(-2,), (-1,), (0,), (1,), (2,)]


def test_ball_z2_radius_1_count():
    assert len(list(enumerate_ball(ZxZ, 1))) == 5


def test_ball_z3_whole_group():
    Z3 = GroupPresentation(0, (3,))
    assert len(list(enumerate_ball(Z3, 2))) == 3


def test_ball_monotone_and_counts_match():
    for G in (ZxZ, GroupPresentation(1, (4,)), GroupPresentation(3)):
        prev = set()
        for r in range(4):
            ball = {g.coords for g in enumerate_ball(G, r)}
            assert prev <= ball
            assert len(ball) == ball_size(G, r)
            prev = ball


def test_ball_exact_l1_counts_for_free_groups():
    for n, r in ((1, 5), (2, 3), (3, 2)):
        G = GroupPresentation(n)
        brute = 0
        for coords in itertools.product(range(-r, r + 1), repeat=n):
            if sum(abs(c) for c in coords) <= r:
                brute += 1
        assert ball_size(G, r) == brute
        assert len(list(enumerate_ball(G, r))) == brute


def test_ball_cap_raises():
    with pytest.raises(BudgetExceeded):
        list(enumerate_ball(ZxZ, 100, cap=10))


def test_ball_lazy_iteration_order_is_lexicographic():
    got = [g.coords for g in enumerate_ball(ZxZ, 1)]
    assert got == sorted(got)


# ---------------------------------------------------------------------------
# rational solving


def test_solve_rational():
    # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
    sol = solve_rational([[2, 1], [1, -1]], [5, 1])
    assert sol is not None and [int(x) for x in sol] == [2, 1]
    assert solve_rational([[1, 0], [1, 0]], [0, 1]) is None
