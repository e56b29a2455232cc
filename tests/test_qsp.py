"""Instances, certificates, clusters, and delta normalization."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreath_dio.abelian import (
    GroupPresentation,
    Subgroup,
    geodesic_length,
    subgroup_contains,
    subgroup_rank,
)
from wreath_dio.group_ring import SupportedFunction, is_zero_mod, shift
from wreath_dio.qsp import (
    Certificate,
    QspInstance,
    ShapeMismatch,
    cluster_shift,
    clusters,
    difference_set,
    make_certificate,
    normalize_deltas,
    satisfies_equation,
    shifted_sum,
    shrink_subgroup,
    verify_certificate,
)
from wreath_dio.solvers import dispatch

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z10 = GroupPresentation(0, (10,))


def atom(A, B, coeff, point):
    return SupportedFunction.atom(A.element(coeff), B.element(point))


def _random_function(rng, A, B, max_terms=3, window=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = tuple(rng.randrange(t) for t in A.torsion) + tuple(
            rng.randint(-window, window) for _ in range(A.free_rank)
        )
        point = tuple(rng.randrange(t) for t in B.torsion) + tuple(
            rng.randint(-window, window) for _ in range(B.free_rank)
        )
        terms.append((B.element(point), A.element(coeff)))
    return SupportedFunction(A, B, tuple(terms))


def _solved_pair(rng, A, B):
    """A two-function instance with a known plain solution."""
    f = _random_function(rng, A, B)
    d = B.element(
        tuple(rng.randrange(t) for t in B.torsion)
        + tuple(rng.randint(-3, 3) for _ in range(B.free_rank))
    )
    base = B.element(
        tuple(rng.randrange(t) for t in B.torsion)
        + tuple(rng.randint(-3, 3) for _ in range(B.free_rank))
    )
    fs = (f, -shift(f, d))
    deltas = (base + d, base)
    return fs, deltas


# ---------------------------------------------------------------------------
# instance shape and size


def test_instance_size_breakdown():
    f1 = atom(Z, Z, (2,), (1,))
    f2 = atom(Z, Z, (-1,), (-2,))
    I = QspInstance(Z, Z, (f1, f2), 1)
    assert Z.size() == 1
    assert f1.size() == 3 and f2.size() == 3
    assert I.size() == 1 + 1 + 6 + 1
    assert I.functions_size() == 6


def test_instance_size_counts_torsion_bits():
    assert GroupPresentation(0, (2,)).size() == 2
    assert GroupPresentation(2, (4, 8)).size() == 2 + 3 + 4


def test_instance_rejects_mismatched_functions():
    with pytest.raises(ValueError):
        QspInstance(Z, Z, (atom(Z2, Z, (1,), (0,)),), 0)
    with pytest.raises(ValueError):
        QspInstance(Z, Z, (), -1)


# ---------------------------------------------------------------------------
# shifted sums and the equation


def test_shifted_sum_is_sum_of_translates():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (2,), (1,))
    deltas = (Z.element((1,)), Z.element((-1,)))
    assert shifted_sum((f, g), deltas) == shift(f, deltas[0]) + shift(g, deltas[1])


def test_satisfies_equation_plain_and_modular():
    a = Z2.element((1,))
    fs = (SupportedFunction.atom(a, Z.zero()), -SupportedFunction.atom(a, Z.zero()))
    deltas = (Z.zero(), Z.element((4,)))
    assert not satisfies_equation(fs, deltas, Subgroup.trivial(Z))
    assert satisfies_equation(fs, deltas, Subgroup(Z, (Z.element((4,)),)))
    assert satisfies_equation(fs, (Z.zero(), Z.zero()), Subgroup.trivial(Z))


# ---------------------------------------------------------------------------
# verify_certificate


def test_verify_zero_function_trivial_cert():
    I = QspInstance(Z, Z, (SupportedFunction.zero(Z, Z),), 0)
    assert verify_certificate(I, Certificate((Z.zero(),), ()))


def test_verify_rejects_rank_above_h():
    a = Z2.element((1,))
    f = SupportedFunction.atom(a, Z.zero()) + SupportedFunction.atom(a, Z.element((3,)))
    I = QspInstance(Z2, Z, (f,), 0)
    cert = Certificate((Z.zero(),), (Z.element((3,)),))
    # the subgroup <3> collapses the two lamps, but its rank 1 exceeds h = 0
    assert not verify_certificate(I, cert)
    assert verify_certificate(QspInstance(Z2, Z, (f,), 1), cert)


def test_verify_rejects_wrong_deltas():
    rng = random.Random(21)
    fs, deltas = _solved_pair(rng, Z2, Z)
    I = QspInstance(Z2, Z, fs, 0)
    cert = Certificate(tuple(deltas), ())
    assert verify_certificate(I, cert)
    bad = Certificate((deltas[0] + Z.element((1,)), deltas[1]), ())
    assert not verify_certificate(I, bad)


def test_verify_shape_mismatches():
    f = atom(Z, Z, (1,), (0,))
    I = QspInstance(Z, Z, (f,), 0)
    with pytest.raises(ShapeMismatch):
        verify_certificate(I, Certificate((), ()))  # wrong delta count
    with pytest.raises(ShapeMismatch):
        verify_certificate(
            I, Certificate((Z2.element((1,)),), ())
        )  # delta in the wrong group
    with pytest.raises(ShapeMismatch):
        verify_certificate(
            I, Certificate((Z.zero(),), (Z2.element((1,)),))
        )  # generator outside B


def test_verify_runs_fast_on_large_coordinates():
    big = 10**15
    a = Z2.element((1,))
    f = SupportedFunction.atom(a, Z.element((0,))) + SupportedFunction.atom(
        a, Z.element((big,))
    )
    I = QspInstance(Z2, Z, (f,), 1)
    cert = Certificate((Z.zero(),), (Z.element((big,)),))
    assert verify_certificate(I, cert)


# ---------------------------------------------------------------------------
# clusters


def test_clusters_disjoint_supports_are_singletons():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (5,))
    part = clusters((f, g), (Z.zero(), Z.zero()), Subgroup.trivial(Z))
    assert set(part.blocks) == {frozenset({0}), frozenset({1})}


def test_clusters_shared_point_merges():
    f = atom(Z, Z, (1,), (0,)) + atom(Z, Z, (1,), (2,))
    g = atom(Z, Z, (1,), (2,))
    part = clusters((f, g), (Z.zero(), Z.zero()), Subgroup.trivial(Z))
    assert part.blocks == (frozenset({0, 1}),)


def test_clusters_merge_modulo_subgroup():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (2,))
    trivial = Subgroup.trivial(Z)
    part_plain = clusters((f, g), (Z.zero(), Z.zero()), trivial)
    assert len(part_plain.blocks) == 2
    part_mod = clusters((f, g), (Z.zero(), Z.zero()), Subgroup(Z, (Z.element((2,)),)))
    assert part_mod.blocks == (frozenset({0, 1}),)


def test_clusters_deltas_matter():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (5,))
    part = clusters((f, g), (Z.element((-5,)), Z.zero()), Subgroup.trivial(Z))
    assert part.blocks == (frozenset({0, 1}),)


def test_clusters_empty_support_is_singleton():
    f = SupportedFunction.zero(Z, Z)
    g = atom(Z, Z, (1,), (0,))
    part = clusters((f, g), (Z.zero(), Z.zero()), Subgroup.trivial(Z))
    assert set(part.blocks) == {frozenset({0}), frozenset({1})}


def test_plain_clusters_refine_modular_clusters():
    rng = random.Random(22)
    for _ in range(40):
        fs = tuple(_random_function(rng, Z2, Z) for _ in range(rng.randint(1, 4)))
        deltas = tuple(Z.element((rng.randint(-4, 4),)) for _ in fs)
        k = rng.randint(0, 3)
        N = Subgroup(Z, (Z.element((k,)),) if k else ())
        plain = clusters(fs, deltas, Subgroup.trivial(Z))
        modular = clusters(fs, deltas, N)
        for blk in plain.blocks:
            assert any(blk <= big for big in modular.blocks)


def test_cluster_diameter_bound():
    # a block's support union is no wider than the sum of member diameters
    from wreath_dio.group_ring import diameter

    rng = random.Random(23)
    for _ in range(40):
        fs = tuple(_random_function(rng, Z2, Z) for _ in range(rng.randint(1, 4)))
        deltas = tuple(Z.element((rng.randint(-4, 4),)) for _ in fs)
        part = clusters(fs, deltas, Subgroup.trivial(Z))
        for blk in part.blocks:
            pts = []
            for i in blk:
                pts.extend(shift(fs[i], deltas[i]).support())
            if not pts:
                continue
            width = max(
                geodesic_length(Z, p - q) for p in pts for q in pts
            )
            assert width <= sum(diameter(fs[i]) for i in blk)


# ---------------------------------------------------------------------------
# cluster_shift


def test_cluster_shift_zero_is_identity():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (5,))
    deltas = (Z.zero(), Z.zero())
    out = cluster_shift((f, g), deltas, Subgroup.trivial(Z), {0}, Z.zero())
    assert out == deltas


def test_cluster_shift_preserves_solutions():
    rng = random.Random(24)
    for _ in range(30):
        fs, deltas = _solved_pair(rng, Z2, Z)
        N = Subgroup.trivial(Z)
        part = clusters(fs, deltas, N)
        blk = part.blocks[0]
        moved = cluster_shift(fs, deltas, N, blk, Z.element((rng.randint(-9, 9),)))
        assert satisfies_equation(fs, moved, N)


def test_cluster_shift_renames_only_block_members():
    f = atom(Z, Z, (1,), (0,)) - atom(Z, Z, (1,), (1,))
    g = atom(Z, Z, (1,), (50,)) - atom(Z, Z, (1,), (51,))
    h = atom(Z, Z, (1,), (100,)) - atom(Z, Z, (1,), (101,))
    # each function alone sums to a nonzero function, but mod <1> all vanish
    N = Subgroup(Z, (Z.element((1,)),))
    fs = (f, g, h)
    deltas = (Z.zero(), Z.zero(), Z.zero())
    assert satisfies_equation(fs, deltas, N)
    part = clusters(fs, deltas, N)
    blk = part.block_of(0)
    moved = cluster_shift(fs, deltas, N, blk, Z.element((7,)))
    for i in range(3):
        if i in blk:
            assert moved[i] == deltas[i] + Z.element((7,))
        else:
            assert moved[i] == deltas[i]
    assert satisfies_equation(fs, moved, N)


def test_cluster_shift_rejects_non_blocks():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (5,))
    with pytest.raises(ValueError):
        cluster_shift(
            (f, g), (Z.zero(), Z.zero()), Subgroup.trivial(Z), {0, 1}, Z.zero()
        )


# ---------------------------------------------------------------------------
# difference sets and subgroup shrinking


def test_difference_set_examples():
    assert [d.coords for d in difference_set(atom(Z, Z, (1,), (7,)))] == [(0,)]
    f = atom(Z, Z, (1,), (0,)) + atom(Z, Z, (2,), (3,))
    assert [d.coords for d in difference_set(f)] == [(-3,), (0,), (3,)]
    assert difference_set(SupportedFunction.zero(Z, Z)) == []


def test_difference_set_quadratic_bound():
    rng = random.Random(25)
    for _ in range(30):
        f = _random_function(rng, Z, GroupPresentation(2), max_terms=5)
        k = len(f.support())
        assert len(difference_set(f)) <= k * k or k == 0


def test_shrink_subgroup_trivial_stays_trivial():
    f = atom(Z, Z, (1,), (0,))
    out = shrink_subgroup(f, Subgroup.trivial(Z))
    assert subgroup_rank(out) == 0


def test_shrink_subgroup_whole_group_to_difference():
    a = Z2.element((1,))
    f = SupportedFunction.atom(a, Z.element((0,))) + SupportedFunction.atom(
        a, Z.element((2,))
    )
    out = shrink_subgroup(f, Subgroup.whole(Z))
    assert subgroup_contains(out, Z.element((2,)))
    assert not subgroup_contains(out, Z.element((1,)))


def test_shrink_preserves_vanishing_both_ways():
    rng = random.Random(26)
    for _ in range(60):
        f = _random_function(rng, Z2, Z)
        k = rng.randint(0, 4)
        N = Subgroup(Z, (Z.element((k,)),) if k else ())
        out = shrink_subgroup(f, N)
        assert is_zero_mod(f, N) == is_zero_mod(f, out)
        assert subgroup_rank(out) <= subgroup_rank(N)
        for g in out.generators:
            assert subgroup_contains(N, g)


# ---------------------------------------------------------------------------
# make_certificate


def test_make_certificate_generator_norms_bounded():
    rng = random.Random(27)
    for _ in range(40):
        fs, deltas = _solved_pair(rng, Z2, Z)
        k = rng.randint(0, 3)
        N = Subgroup(Z, (Z.element((k,)),) if k else ())
        I = QspInstance(Z2, Z, fs, 1)
        if not satisfies_equation(fs, deltas, N):
            continue
        cert = make_certificate(I, deltas, N)
        assert verify_certificate(I, cert)
        c = shifted_sum(fs, deltas)
        for g in cert.subgroup_gens:
            assert geodesic_length(Z, g) <= max(c.size(), 0) or c.is_zero()


def test_make_certificate_empty_instance():
    I = QspInstance(Z, Z, (), 0)
    cert = make_certificate(I, (), Subgroup.whole(Z))
    assert cert.deltas == () and cert.subgroup_gens == ()
    assert verify_certificate(I, cert)


# ---------------------------------------------------------------------------
# normalize_deltas


def test_normalize_rejects_non_solutions():
    f = atom(Z, Z, (1,), (0,))
    with pytest.raises(ValueError):
        normalize_deltas((f,), (Z.zero(),), Subgroup.trivial(Z))


def test_normalize_bounds_inflated_shifts():
    a = Z.element((1,))
    f = SupportedFunction.atom(a, Z.element((0,))) - SupportedFunction.atom(
        a, Z.element((1,))
    )
    N = Subgroup.whole(Z)
    huge = Z.element((10**6,))
    assert satisfies_equation((f,), (huge,), N)
    out = normalize_deltas((f,), (huge,), N)
    assert satisfies_equation((f,), out, N)
    assert geodesic_length(Z, out[0]) <= f.size()


def test_normalize_two_function_inflation():
    rng = random.Random(28)
    for _ in range(40):
        fs, deltas = _solved_pair(rng, Z2, Z)
        N = Subgroup.trivial(Z)
        bump = Z.element((10**6,))
        inflated = tuple(d + bump for d in deltas)
        assert satisfies_equation(fs, inflated, N)
        out = normalize_deltas(fs, inflated, N)
        assert satisfies_equation(fs, out, N)
        bound = sum(f.size() for f in fs)
        for d in out:
            assert geodesic_length(Z, d) <= bound


def test_normalize_aligns_plain_and_modular_clusters():
    rng = random.Random(29)
    for _ in range(40):
        fs, deltas = _solved_pair(rng, Z2, Z)
        k = rng.randint(1, 3)
        N = Subgroup(Z, (Z.element((k,)),))
        out = normalize_deltas(fs, deltas, N)
        plain = clusters(fs, out, Subgroup.trivial(Z))
        modular = clusters(fs, out, N)
        assert set(plain.blocks) == set(modular.blocks)


def test_normalize_keeps_empty_functions_at_zero():
    zero = SupportedFunction.zero(Z, Z)
    out = normalize_deltas((zero,), (Z.element((123,)),), Subgroup.trivial(Z))
    assert out[0].is_zero()


# ---------------------------------------------------------------------------
# per-cluster partial sums of a solution vanish


def test_solution_clusters_vanish_blockwise():
    rng = random.Random(30)
    for _ in range(40):
        fs, deltas = _solved_pair(rng, Z2, Z)
        k = rng.randint(0, 3)
        N = Subgroup(Z, (Z.element((k,)),) if k else ())
        if not satisfies_equation(fs, deltas, N):
            continue
        part = clusters(fs, deltas, N)
        for blk in part.blocks:
            partial = shifted_sum([fs[i] for i in blk], [deltas[i] for i in blk])
            assert is_zero_mod(partial, N)


# ---------------------------------------------------------------------------
# mutated certificates against a brute-force check over finite bases


Z3 = GroupPresentation(0, (3,))
Z4 = GroupPresentation(0, (4,))
FINITE_BASES = (
    GroupPresentation(0, (2, 2)),
    Z4,
    GroupPresentation(0, (2, 4)),
    GroupPresentation(0, (3, 3)),
)


def _closure(B, gens):
    """<gens> as a set, grown by adding generators until nothing new appears."""
    reached = {B.zero()}
    frontier = [B.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if x + g not in reached:
                reached.add(x + g)
                frontier.append(x + g)
    return reached


def _brute_verdict(I, cert):
    """rank(N) <= h and every coset of N sums to zero, with N and its rank
    found by search over B.elements() instead of a Smith form."""
    closure = _closure(I.B, cert.subgroup_gens)
    members = [g for g in I.B.elements() if g in closure]
    rank = next(
        r
        for r in range(len(members) + 1)
        if any(
            _closure(I.B, sub) == closure
            for sub in itertools.combinations(members, r)
        )
    )
    if rank > I.h:
        return False
    sums = {}
    for f, d in zip(I.fs, cert.deltas):
        for p, a in f.terms:
            # shift(f, d) carries f's value at p to the point p - d
            coset = min((p - d + n).coords for n in closure)
            sums[coset] = sums.get(coset, I.A.zero()) + a
    return all(v.is_zero() for v in sums.values())


def _mutate(cert, mutation):
    """Add an element to one delta, or to one generator (appending it when
    the index is past the last generator)."""
    kind, index, value = mutation
    if kind == "delta":
        deltas = list(cert.deltas)
        deltas[index % len(deltas)] += value
        return Certificate(tuple(deltas), cert.subgroup_gens)
    gens = list(cert.subgroup_gens)
    if index < len(gens):
        gens[index] += value
    else:
        gens.append(value)
    return Certificate(cert.deltas, tuple(gens))


@st.composite
def _planted_mutations(draw):
    """A positive instance over a finite base, and one certificate mutation.

    f_1 cancels a shift of f_0 exactly; at h = 1 it also carries a lamp pair
    c at p, -c at p + n that cancels only modulo <n>.
    """
    B = draw(st.sampled_from(FINITE_BASES))
    A = draw(st.sampled_from((Z2, Z3)))
    h = draw(st.integers(0, 1))
    point = st.sampled_from(list(B.elements()))
    coeff = st.integers(1, A.torsion[0] - 1).map(lambda c: A.element((c,)))
    terms = draw(st.lists(st.tuples(point, coeff), min_size=1, max_size=3))
    f0 = SupportedFunction(A, B, tuple(terms))
    f1 = shift(-f0, draw(point))
    if h:
        p, n, c = draw(point), draw(point), draw(coeff)
        f1 = f1 + SupportedFunction.atom(c, p) + SupportedFunction.atom(-c, p + n)
    mutation = (
        draw(st.sampled_from(("delta", "gen"))),
        draw(st.integers(0, 2)),
        draw(point),
    )
    return QspInstance(A, B, (f0, f1), h), mutation


def _one_lamp_instance():
    """A lamp at 0 over Z_4, cancelled by the same lamp shifted by 1; h = 0."""
    f0 = atom(Z2, Z4, (1,), (0,))
    return QspInstance(Z2, Z4, (f0, shift(f0, Z4.element((1,)))), 0)


# appending the zero generator keeps N and its rank
ACCEPTED = (_one_lamp_instance(), ("gen", 0, Z4.zero()))
# moving one of the two lamps leaves them on different points
REJECTED = (_one_lamp_instance(), ("delta", 0, Z4.element((1,))))


@example(ACCEPTED)
@example(REJECTED)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_planted_mutations())
def test_mutated_certificate_verdict_matches_brute_force(case):
    I, mutation = case
    result = dispatch(I)
    assert result.decision == "positive"
    assert verify_certificate(I, result.certificate)
    assert _brute_verdict(I, result.certificate)
    mutated = _mutate(result.certificate, mutation)
    assert verify_certificate(I, mutated) == _brute_verdict(I, mutated)


@pytest.mark.parametrize("case, verdict", [(ACCEPTED, True), (REJECTED, False)])
def test_mutated_certificate_examples(case, verdict):
    I, mutation = case
    mutated = _mutate(dispatch(I).certificate, mutation)
    assert verify_certificate(I, mutated) is verdict
