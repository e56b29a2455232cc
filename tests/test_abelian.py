"""Group presentations, Smith normal form, quotients, and Cayley balls."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_dio import abelian
from wreath_dio.abelian import (
    BudgetExceeded,
    GroupElement,
    GroupPresentation,
    Subgroup,
    enumerate_ball,
    geodesic_length,
    group_rank,
    quotient,
    quotient_maps,
    smith_normal_form,
    subgroup_contains,
    subgroup_rank,
    subgroup_rank_at_most,
)
from wreath_dio.lattice import hermite_form

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


TEST_GROUPS = (
    GroupPresentation(0),
    Z,
    Z2,
    Z4,
    Z2xZ2,
    ZxZ,
    GroupPresentation(1, (2,)),
    GroupPresentation(2, (2, 4)),
)


@pytest.mark.parametrize("G", TEST_GROUPS, ids=repr)
def test_zero_and_standard_generators_match_the_constructor(G):
    # both skip the constructor's reduction: their coordinates are 0 and 1,
    # canonical because every torsion order is at least 2
    n = G.ncoords
    assert G.zero() == GroupElement(G, (0,) * n)
    expected = tuple(
        GroupElement(G, tuple(int(i == j) for j in range(n))) for i in range(n)
    )
    assert G.standard_generators() == expected


def test_floats_are_rejected_not_truncated():
    G = GroupPresentation(1, (2,))
    with pytest.raises(ValueError, match="coordinate must be an integer"):
        G.element((1.7, 2.5))
    with pytest.raises(ValueError, match="coordinate must be an integer"):
        G.element((1, 2.0))
    with pytest.raises(ValueError, match="free rank must be an integer"):
        GroupPresentation(1.5)
    for torsion in ((2.0,), (1.0, 2), (2, 4.0)):
        with pytest.raises(ValueError, match="torsion order must be an integer"):
            GroupPresentation(0, torsion)
    # anything with __index__ is an exact integer and still accepted
    assert G.element((True, -3)).coords == (1, -3)
    assert GroupPresentation(True, (True, 6)) == GroupPresentation(1, (6,))


def test_element_addition_and_negation():
    g = Z4.element((3,))
    assert (g + g).coords == (2,)
    assert (g + (-g)).is_zero()
    assert g.scale(5).coords == (3,)


def test_mixed_group_operands_rejected():
    with pytest.raises(ValueError):
        Z4.element((1,)) + Z2.element((1,))


def test_hash_agrees_with_equality():
    # the hashes skip work (the group's is stored, an element's leaves the
    # group out), so equal values must still hash alike and equality must
    # still tell groups apart
    G = GroupPresentation(1, (1, 6))
    assert G == GroupPresentation(1, (6,)) and hash(G) == hash(GroupPresentation(1, (6,)))
    assert G != GroupPresentation(0, (6,)) and G != GroupPresentation(2)
    g = G.element((7, -2))
    assert g == G.element((1, -2)) and hash(g) == hash(G.element((1, -2)))
    assert g != GroupPresentation(1, (2, 6)).element((0, 1, -2))
    assert Z4.element((1,)) != Z2.element((1,))
    key = {(G, (g,)): 1}
    assert key[(GroupPresentation(1, (6,)), (G.element((1, -2)),))] == 1
    assert (Z4, (Z4.element((1,)),)) not in {(Z2, (Z2.element((1,)),))}


def test_has_infinite_order():
    mixed = GroupPresentation(1, (4,))
    assert mixed.element((0, 1)).has_infinite_order()
    assert not mixed.element((3, 0)).has_infinite_order()


# ---------------------------------------------------------------------------
# Smith normal form


def _random_matrix(rng, rows, cols, lo=-10, hi=10):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows)
    )


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(X, Y):
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*Y)) for row in X
    )


def _is_unimodular(M):
    # an integer matrix is unimodular iff its rows span Z^n, that is iff its
    # Hermite form is the n x n identity
    return hermite_form(M) == _identity(len(M))


def test_smith_normal_form_random_matrices():
    rng = random.Random(20260816)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = _random_matrix(rng, rows, cols)
        D, U, V = smith_normal_form(M)
        assert _matmul(_matmul(U, M), V) == D
        assert _is_unimodular(U) and _is_unimodular(V)
        diag = [D[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            for j in range(cols):
                if j != i and i < rows:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        assert all(d >= 0 for d in diag)


def test_smith_normal_form_known_example():
    M = ((2, 4), (6, 8))
    D, U, V = smith_normal_form(M)
    assert [D[0][0], D[1][1]] == [2, 4]


def test_smith_normal_form_on_empty_shapes():
    # 0 x 0 is the preimage matrix of the trivial group, 3 x 0 that of the
    # trivial subgroup of Z^3; U and V are identities of the row and column
    # counts
    assert smith_normal_form(()) == ((), (), ())
    D, U, V = smith_normal_form(((),) * 3)
    assert (D, U, V) == (((),) * 3, _identity(3), ())
    D, U, V = smith_normal_form(((0, 0),))
    assert (D, U, V) == (((0, 0),), _identity(1), _identity(2))
    assert abelian._unimodular_inverse(()) == ()
    assert abelian._preimage_matrix(ZxZ, ()) == ((), ())
    assert abelian._preimage_matrix(GroupPresentation(0), ()) == ()


def test_quotients_with_empty_preimage_matrices():
    S = Subgroup.trivial(ZxZ)
    Q, project, lift = quotient_maps(ZxZ, ())
    assert Q == ZxZ and quotient(ZxZ, S)[0] == ZxZ
    g = ZxZ.element((3, -1))
    assert project(g) == g and lift(g) == g
    assert subgroup_rank(S) == 0 and not subgroup_contains(S, g)
    T = GroupPresentation(0)
    for gens in ((), (T.zero(),)):
        Q, project, lift = quotient_maps(T, gens)
        assert Q == T and project(T.zero()) == T.zero() == lift(T.zero())
        assert subgroup_rank(Subgroup(T, gens)) == 0
        assert subgroup_contains(Subgroup(T, gens), T.zero())


def test_smith_normal_form_fixes_smith_inputs_and_edge_shapes():
    # a matrix already in Smith form comes back with identity transforms:
    # the trivial subgroup's preimage matrix (B's relation columns padded
    # with zero rows) keeps B's coordinates in B/{0}
    smith_inputs = [
        abelian._preimage_matrix(G, ())
        for G in (GroupPresentation(2, (2, 4)), GroupPresentation(1, (3,)), ZxZ)
    ] + [((1, 0, 0), (0, 6, 0)), ((2, 0), (0, 0), (0, 0))]
    for M in smith_inputs:
        assert smith_normal_form(M) == (M, _identity(len(M)), _identity(len(M[0])))
    # n x 0, all zero, 1 x 1 negative
    assert smith_normal_form(((),) * 4) == (((),) * 4, _identity(4), ())
    zero = ((0, 0, 0),) * 2
    assert smith_normal_form(zero) == (zero, _identity(2), _identity(3))
    assert smith_normal_form(((-5,),)) == (((5,),), ((-1,),), ((1,),))
    rng = random.Random(20261019)
    for _ in range(6):
        M = _random_matrix(rng, 7, 7, -10**30, 10**30)
        D, U, V = smith_normal_form(M)
        assert _matmul(_matmul(U, M), V) == D
        assert _is_unimodular(U) and _is_unimodular(V)
        assert all(D[i][j] == 0 for i in range(7) for j in range(7) if i != j)
        diag = [D[i][i] for i in range(7)]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else b == 0


def test_unimodular_inverse_of_smith_transforms():
    rng = random.Random(20261018)
    for _ in range(200):
        M = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        _, U, V = smith_normal_form(M)
        for X in (U, V):
            assert _matmul(abelian._unimodular_inverse(X), X) == _identity(len(X))


def test_unimodular_inverse_rejects_other_matrices():
    # determinant 2, singular, zero 1x1, non-square
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0]], [[1, 0]]):
        with pytest.raises(ValueError):
            abelian._unimodular_inverse(rows)


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


def test_membership_matches_quotient_and_projected_coordinates():
    # subgroup_contains goes through project_coords; it must agree with the
    # quotient map and with the form's own coordinate projection
    rng = random.Random(12)
    groups = (
        ZxZ,
        GroupPresentation(1, (2,)),
        GroupPresentation(1, (3,)),
        GroupPresentation(0, (2, 4)),
    )

    def draw(B):
        t = len(B.torsion)
        return B.element(
            tuple(rng.randrange(a) for a in B.torsion)
            + tuple(rng.randint(-4, 4) for _ in range(B.ncoords - t))
        )

    checked = {True: 0, False: 0}
    for B in groups:
        for _ in range(40):
            S = Subgroup(B, tuple(draw(B) for _ in range(rng.randint(0, 2))))
            Q, project = quotient(B, S)
            form = abelian._subgroup_form(B, S.generators)
            zero = (0,) * Q.ncoords
            candidates = [draw(B) for _ in range(6)]
            candidates += [g + g for g in S.generators] + [B.zero()]
            for g in candidates:
                inside = subgroup_contains(S, g)
                assert inside == project(g).is_zero()
                assert inside == (form.project_coords(g.coords) == zero)
                checked[inside] += 1
    assert checked[True] > 50 and checked[False] > 50


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


SUBGROUP_AMBIENTS = TEST_GROUPS + (GroupPresentation(3), GroupPresentation(1, (6,)))


@st.composite
def subgroups(draw):
    B = draw(st.sampled_from(SUBGROUP_AMBIENTS))
    gens = draw(st.lists(
        st.tuples(*[st.integers(-6, 6)] * B.ncoords).map(B.element), max_size=5
    ))
    return Subgroup(B, tuple(gens))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(subgroups(), st.integers(0, 5))
def test_rank_is_at_most_the_generator_count_and_the_ambient_rank(S, h):
    # the lemma behind subgroup_rank_at_most's shortcut
    rank = subgroup_rank(S)
    assert rank <= min(len(S.generators), group_rank(S.ambient))
    assert subgroup_rank_at_most(S, h) == (rank <= h)


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
        shapes.append((len(M), len(M[0])))
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


def test_trivial_subgroup_form_equals_the_smith_form_route():
    """The form of <> is built without elimination; it must be the one the
    Smith form of the relation matrix gives, on unreduced lifts too."""
    rng = random.Random(20261019)
    groups = [
        GroupPresentation(0),
        Z,
        ZxZ,
        Z2,
        Z2xZ2,
        GroupPresentation(0, (2, 4, 8)),
        GroupPresentation(1, (2, 6)),
        GroupPresentation(2, (3,)),
    ]
    for _ in range(12):
        torsion, a = [], 1
        for _ in range(rng.randint(0, 3)):
            a *= rng.randint(2, 4)
            torsion.append(a)
        groups.append(GroupPresentation(rng.randint(0, 3), tuple(torsion)))
    for G in groups:
        abelian._subgroup_form.cache_clear()
        form = abelian._subgroup_form(G, ())
        D, U, V = smith_normal_form(abelian._preimage_matrix(G, ()))
        factors = [row[i] if i < len(row) else 0 for i, row in enumerate(D)]
        order = [i for i, d in enumerate(factors) if d >= 2]
        order += [i for i, d in enumerate(factors) if d == 0]
        Q = GroupPresentation(
            sum(factors[i] == 0 for i in order),
            tuple(factors[i] for i in order if factors[i]),
        )
        assert (form.Q, form.factors, form.U, form.V) == (Q, factors, U, V)
        assert form.order == order and form.rank == 0
        for _ in range(20):
            lift = tuple(rng.randint(-50, 50) for _ in range(G.ncoords))
            y = [(sum(u * c for u, c in zip(U[i], lift)), factors[i]) for i in order]
            expected = tuple(v % d if d else v for v, d in y)
            assert form.project_coords(lift) == expected
            assert form.project_coords(list(lift)) == expected
            g = G.element(lift)
            assert form.project(g) == Q.element(expected) == g
            assert form.lift(form.project(g)) == g


def test_h0_positive_makes_no_smith_form(monkeypatch):
    # at h = 0 only the trivial subgroup is a candidate; the search, the
    # certificate and its check all project through coord_reducer
    from wreath_dio import solvers
    from wreath_dio.hardness import ThreePartInstance, gen_3part_h0
    from wreath_dio.qsp import verify_certificate

    calls = []

    def counting(M):
        calls.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    monkeypatch.setattr(solvers, "smith_normal_form", counting)
    abelian._subgroup_form.cache_clear()
    T = ThreePartInstance((5, 5, 5, 5, 5, 5), 2)
    I = gen_3part_h0(T, Z.element((1,)), Z.element((1,)))
    result = solvers.dispatch(I)
    assert result.decision == "positive"
    assert result.certificate.subgroup_gens == ()
    assert verify_certificate(I, result.certificate)
    assert calls == []


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


def _brute_ball_size(G, r):
    # every coordinate of a ball element lies in [-r, r]; torsion
    # coordinates repeat modulo alpha, so collect canonical coordinates
    box = itertools.product(range(-r, r + 1), repeat=G.ncoords)
    return len({
        g.coords for g in map(G.element, box) if geodesic_length(G, g) <= r
    })


def test_ball_monotone_and_counts_match():
    for G in (ZxZ, GroupPresentation(1, (4,)), GroupPresentation(3)):
        prev = set()
        for r in range(4):
            ball = {g.coords for g in enumerate_ball(G, r)}
            assert prev <= ball
            assert len(ball) == _brute_ball_size(G, r)
            prev = ball


def test_ball_exact_l1_counts_for_free_groups():
    for n, r in ((1, 5), (2, 3), (3, 2)):
        G = GroupPresentation(n)
        brute = 0
        for coords in itertools.product(range(-r, r + 1), repeat=n):
            if sum(abs(c) for c in coords) <= r:
                brute += 1
        assert len(list(enumerate_ball(G, r))) == brute


def test_ball_cap_raises():
    with pytest.raises(BudgetExceeded):
        list(enumerate_ball(ZxZ, 100, cap=10))


def test_ball_lazy_iteration_order_is_lexicographic():
    got = [g.coords for g in enumerate_ball(ZxZ, 1)]
    assert got == sorted(got)
