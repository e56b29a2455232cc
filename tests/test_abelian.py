"""Group presentations, Smith normal form, quotients, and Cayley balls."""

import copy
import itertools
import operator
import pickle
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
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
from wreath_dio.solvers import _generated_rank

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z4 = GroupPresentation(0, (4,))
Z2xZ2 = GroupPresentation(0, (2, 2))
ZxZ = GroupPresentation(2)


# ---------------------------------------------------------------------------
# presentations and elements


def test_torsion_factor_one_is_dropped():
    assert GroupPresentation(1, (1, 6)).torsion == (6,)


def test_equal_groups_are_one_object():
    G = GroupPresentation(1, (6,))
    assert G is GroupPresentation(1, (1, 6))
    assert copy.copy(G) is G and copy.deepcopy(G) is G
    assert pickle.loads(pickle.dumps(G)) is G
    g = G.element((5, -2))
    assert pickle.loads(pickle.dumps(g)).group is G and copy.deepcopy(g).group is G


def test_clearing_every_cache_keeps_one_object_per_group():
    # the benchmark empties every functools cache in the package between
    # passes; the table of live groups is none of them
    G = GroupPresentation(2, (3,))
    for name, module in list(sys.modules.items()):
        if name.startswith("wreath_dio"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    assert GroupPresentation(2, (3,)) is G


def test_racing_builds_of_one_group_yield_one_object():
    # more threads than cores, switching often, each building the same new
    # groups in the same order
    orders = range(10_007, 10_407)
    results = [[] for _ in range(8)]

    def build(out):
        out.extend(GroupPresentation(0, (a,)) for a in orders)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(out) for out in results] == [len(orders)] * len(results)
    assert all(len(set(map(id, groups))) == 1 for groups in zip(*results))


def test_groups_past_the_coordinate_cap_are_refused():
    # ones are dropped before the coordinates are counted
    assert GroupPresentation(32).ncoords == 32
    assert GroupPresentation(0, (1,) * 8 + (2,) * 32).ncoords == 32
    for free_rank, torsion in [(33, ()), (1, (2,) * 32), (0, (1,) * 8 + (2,) * 33)]:
        with pytest.raises(ValueError, match="33 coordinates, past the cap 32"):
            GroupPresentation(free_rank, torsion)


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
    # anything with __index__ is an exact integer and still accepted; the
    # element constructor's fast path takes a bool as 1, but a presentation
    # rejects one, as the codec does
    assert G.element((True, -3)).coords == (1, -3)
    with pytest.raises(ValueError, match="free rank must be an integer, got bool"):
        GroupPresentation(True, (6,))
    with pytest.raises(ValueError, match="torsion order must be an integer, got bool"):
        GroupPresentation(1, (True, 6))


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


def _clear_form_caches():
    # the cache on generating tuples and the one on Hermite bases behind it
    abelian._subgroup_form.cache_clear()
    abelian._keyed_form.cache_clear()


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
    # 0 x 0 and n x 0 inputs: U and V are identities of the row and column
    # counts
    assert smith_normal_form(()) == ((), (), ())
    D, U, V = smith_normal_form(((),) * 3)
    assert (D, U, V) == (((),) * 3, _identity(3), ())
    D, U, V = smith_normal_form(((0, 0),))
    assert (D, U, V) == (((0, 0),), _identity(1), _identity(2))
    assert abelian._unimodular_inverse(()) == ()
    # a torsion-free group's trivial subgroup has an empty Hermite basis
    assert abelian._subgroup_key(ZxZ, ()) == ()
    assert abelian._subgroup_key(GroupPresentation(0), ()) == ()


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
    # the transposed Hermite basis of a trivial subgroup (B's relation rows)
    # would keep B's coordinates in B/{0}
    smith_inputs = [
        tuple(zip(*abelian._subgroup_key(G, ())))
        for G in (GroupPresentation(2, (2, 4)), GroupPresentation(1, (3,)))
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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(subgroups())
def test_subgroup_rank_agrees_with_the_oracles_rank(S):
    # the oracle reads the rank off the generators' relations, with no
    # Hermite basis of the subgroup
    assert subgroup_rank(S) == _generated_rank(S.ambient, S.generators)


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
    """Membership, quotient and lift share one Smith form of the transposed
    Hermite basis; the rank adds one of the relations in that basis."""
    G = GroupPresentation(1, (2, 4))
    gens = (G.element((1, 2, 0)), G.element((0, 1, 2)))
    S = Subgroup(G, gens)
    shapes = []

    def counting(M):
        shapes.append((len(M), len(M[0])))
        return smith_normal_form(M)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    _clear_form_caches()
    assert subgroup_contains(S, G.element((1, 2, 0)))
    Q, project = quotient(G, S)
    Q2, project2, lift = quotient_maps(G, gens)
    assert Q2 == Q
    for q in enumerate_ball(Q, 2):
        assert project(lift(q)) == q == project2(lift(q))
    assert subgroup_rank(S) == 2
    assert subgroup_contains(S, G.element((1, 3, 2)))
    # the transpose of the 3x3 Hermite basis of the preimage, then G's two
    # relations written in that basis
    assert shapes == [(3, 3), (2, 3)]


def test_two_generating_sets_of_one_subgroup_share_one_form(monkeypatch):
    """A subgroup's form is keyed by its Hermite basis: another generating
    set of it reaches the same form, with no second Smith form, and the
    same coordinates for G/N."""
    G = GroupPresentation(2, (6,))
    gens = (G.element((2, 2, 0)), G.element((3, 0, 0)), G.element((1, 4, 0)))
    relation = abelian._relation_rows(G)[0]
    extra = G.element([a + b + 5 * r for a, b, r in zip(
        gens[0].coords, gens[1].coords, relation)])
    other = gens[::-1] + (extra,)
    calls = []

    def counting(M):
        calls.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    _clear_form_caches()
    form = abelian._subgroup_form(G, gens)
    assert abelian._subgroup_form(G, other) is form
    _, project, _ = quotient_maps(G, gens)
    Q, project_other, _ = quotient_maps(G, other)
    assert Q == form.Q == GroupPresentation(1, (6,))
    for g in enumerate_ball(G, 3):
        assert project(g) == project_other(g) == project_other(g + extra)
    assert len(calls) == 1
    assert subgroup_rank(Subgroup(G, gens)) == subgroup_rank(Subgroup(G, other)) == 2


def test_trivial_subgroup_form_equals_the_smith_form_route():
    """The form of <> is built without elimination; it must be the one the
    Smith form of its transposed Hermite basis, G's relation rows, gives,
    on unreduced lifts too."""
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
        _clear_form_caches()
        form = abelian._subgroup_form(G, ())
        key = abelian._subgroup_key(G, ())
        D, U, _ = smith_normal_form(tuple(zip(*key)) if key else ((),) * G.ncoords)
        factors = [row[i] if i < len(row) else 0 for i, row in enumerate(D)]
        order = [i for i, d in enumerate(factors) if d >= 2]
        order += [i for i, d in enumerate(factors) if d == 0]
        Q = GroupPresentation(
            sum(factors[i] == 0 for i in order),
            tuple(factors[i] for i in order if factors[i]),
        )
        assert (form.Q, form.factors, form.U, form.key) == (Q, factors, U, key)
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
    # certificate and its check all project through coord_ops's reduce
    from wreath_dio import solvers
    from wreath_dio.hardness import ThreePartInstance, gen_3part_h0
    from wreath_dio.qsp import verify_certificate

    calls = []

    def counting(M):
        calls.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    monkeypatch.setattr(solvers, "smith_normal_form", counting)
    _clear_form_caches()
    T = ThreePartInstance((5, 5, 5, 5, 5, 5), 2)
    I = gen_3part_h0(T, Z.element((1,)), Z.element((1,)))
    result = solvers.dispatch(I)
    assert result.decision == "positive"
    assert result.certificate.subgroup_gens == ()
    assert verify_certificate(I, result.certificate)
    assert calls == []


def _random_groups(rng, n):
    """n groups with 0-3 torsion and 0-3 free coordinates."""
    groups = []
    for _ in range(n):
        torsion, a = [], 1
        for _ in range(rng.randint(0, 3)):
            a *= rng.randint(2, 4)
            torsion.append(a)
        groups.append(GroupPresentation(rng.randint(0, 3), tuple(torsion)))
    return groups


def test_whole_group_form_has_unit_factors_and_a_trivial_quotient():
    """The form of G's standard generators: its Hermite basis is I, whose
    Smith form has unit factors and U = I, and it must serve membership,
    rank and the (trivial) quotient with its lift."""
    groups = [Z, ZxZ, Z2, Z2xZ2, GroupPresentation(0, (2, 4, 8))]
    rng = random.Random(20261020)
    for G in groups + _random_groups(rng, 12):
        if not G.ncoords:
            continue
        _clear_form_caches()
        gens = G.standard_generators()
        form = abelian._subgroup_form(G, gens)
        n = G.ncoords
        assert form.key == form.U == _identity(n)
        assert form.factors == [1] * n
        assert form.Q == GroupPresentation(0)
        assert form.rank == n == subgroup_rank(Subgroup(G, gens + gens[:1]))
        lift = tuple(rng.randint(-50, 50) for _ in range(n))
        assert form.project_coords(lift) == ()
        assert subgroup_contains(Subgroup.whole(G), G.element(lift))
        assert form.lift(form.Q.zero()) == G.zero()


def test_big_h_certificate_generators_are_points_minus_the_least():
    # a big-h positive is certified with N = B, whose quotient is trivial
    from wreath_dio.group_ring import SupportedFunction
    from wreath_dio.qsp import Certificate, QspInstance, make_certificate
    from wreath_dio.solvers import dispatch

    one = Z.element((1,))
    fs = (
        SupportedFunction.atom(one, ZxZ.element((0, 0))),
        SupportedFunction.atom(-one, ZxZ.element((3, 1))),
        SupportedFunction.atom(one.scale(2), ZxZ.element((-1, 4)))
        + SupportedFunction.atom(one.scale(-2), ZxZ.element((2, 2))),
    )
    I = QspInstance(Z, ZxZ, fs, 2)
    result = dispatch(I)
    assert (result.decision, result.method) == ("positive", "big-h")
    _clear_form_caches()
    deltas = (ZxZ.zero(),) * 3
    cert = make_certificate(I, deltas, Subgroup.whole(ZxZ))
    # every point minus the least one, (-1, 4)
    gens = tuple(ZxZ.element(g) for g in ((1, -4), (3, -2), (4, -3)))
    assert cert == result.certificate == Certificate(deltas, gens)


# ---------------------------------------------------------------------------
# coordinate kernels


@st.composite
def kernel_operands(draw):
    """A group with 0-3 torsion and 0-3 free coordinates and two integer
    tuples of its length, entries up to 10^30 in absolute value."""
    torsion, a = [], 1
    for _ in range(draw(st.integers(0, 3))):
        a *= draw(st.integers(2, 4))
        torsion.append(a)
    G = GroupPresentation(draw(st.integers(0, 3)), tuple(torsion))
    entries = st.tuples(*[st.integers(-10**30, 10**30)] * G.ncoords)
    return G, draw(entries), draw(entries)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kernel_operands())
@example((GroupPresentation(0), (), ()))
@example((GroupPresentation(0, (2, 4, 8)), (1, -3, 10**30), (-10**30, 5, 7)))
def test_coord_ops_match_a_local_reduction(case):
    # the reduction rule written out here, independent of the kernels:
    # torsion coordinates mod alpha_i, free ones unchanged
    G, u, v = case
    t = len(G.torsion)

    def expected(w):
        return tuple(c % a for c, a in zip(w, G.torsion)) + tuple(w[t:])

    add, sub, reduce = abelian.coord_ops(G)
    assert add(u, v) == expected(list(map(operator.add, u, v)))
    assert sub(u, v) == expected(list(map(operator.sub, u, v)))
    assert reduce(u) == reduce(list(u)) == expected(u)
    assert G.element(u).coords == expected(u)


def test_coord_ops_compiled_once_per_shape():
    # the source depends on the shape alone; the orders are data
    for cache in (abelian.coord_ops, abelian._coord_ops_maker):
        assert callable(cache.cache_clear)
    abelian.coord_ops.cache_clear()
    abelian._coord_ops_maker.cache_clear()
    Z2xZ, Z3xZ = GroupPresentation(1, (2,)), GroupPresentation(1, (3,))
    ops2, ops3 = abelian.coord_ops(Z2xZ), abelian.coord_ops(Z3xZ)
    assert abelian._coord_ops_maker.cache_info().misses == 1
    assert all(f.__code__ is g.__code__ for f, g in zip(ops2, ops3))
    (add2, sub2, red2), (add3, sub3, red3) = ops2, ops3
    assert add2((1, 5), (1, 5)) == (0, 10) and add3((1, 5), (1, 5)) == (2, 10)
    assert sub2((0, 0), (1, 1)) == (1, -1) and sub3((0, 0), (1, 1)) == (2, -1)
    assert red2((-1, 5)) == (1, 5) and red3((-1, 5)) == (2, 5)
    assert abelian.coord_ops(ZxZ)[0].__code__ is not add2.__code__
    x, y = Z2xZ.element((1, 5)), Z2xZ.element((1, -2))
    assert (x + y, x - y) == (Z2xZ.element((0, 3)), Z2xZ.element((0, 7)))
    with pytest.raises(ValueError):
        x + Z3xZ.element((1, 5))


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
