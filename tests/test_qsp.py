"""Instances, certificates, clusters, and delta normalization."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreath_dio import abelian, qsp
from wreath_dio.abelian import (
    GroupPresentation,
    Subgroup,
    geodesic_length,
    subgroup_contains,
    subgroup_rank,
)
from wreath_dio.group_ring import SupportedFunction, is_zero_mod, shift
from wreath_dio.lattice import hermite_form
from wreath_dio.qsp import (
    Certificate,
    QspInstance,
    ShapeMismatch,
    cluster_shift,
    clusters,
    make_certificate,
    normalize_deltas,
    satisfies_equation,
    shifted_sum,
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
    assert sum(f.size() for f in I.fs) == 6


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


def test_verify_reads_a_rank_only_when_the_bound_exceeds_h(monkeypatch):
    # rank(N) <= min(#generators, rank(B)); the rank, read off N's Hermite
    # basis, is read only when that bound exceeds h
    rank = abelian._SubgroupForm.rank
    reads = []

    def spy(form):
        reads.append(form.key)
        return rank.func(form)

    monkeypatch.setattr(abelian._SubgroupForm, "rank", property(spy))
    abelian._subgroup_form.cache_clear()
    abelian._keyed_form.cache_clear()
    B = GroupPresentation(2)
    points = ((0, 0), (1, 0), (0, 1), (2, 3))
    f = SupportedFunction(
        Z, B, tuple((B.element(p), Z.element((c,))) for p, c in zip(points, (1, 2, -4, 1)))
    )
    I = QspInstance(Z, B, (f,), 2)
    result = dispatch(I)
    assert (result.decision, result.method) == ("positive", "big-h")
    # three generators for h = 2: the bound rank(B) = 2 settles it
    assert len(result.certificate.subgroup_gens) == 3
    assert verify_certificate(I, result.certificate)
    assert reads == []
    # at h = 1 the bound is 2, so the rank is read: 2 rejects, 1 accepts
    g = atom(Z, B, (1,), (0, 0)) + atom(Z, B, (-1,), (1, 1))
    whole = (B.element((1, 0)), B.element((0, 1)))
    assert not verify_certificate(QspInstance(Z, B, (g,), 1), Certificate((B.zero(),), whole))
    assert reads == [abelian._subgroup_key(B, whole)]
    line = (B.element((1, 1)), B.element((2, 2)))
    assert verify_certificate(QspInstance(Z, B, (g,), 1), Certificate((B.zero(),), line))
    assert reads == [abelian._subgroup_key(B, gens) for gens in (whole, line)]


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


# with no functions, a shift list must be empty too: every entry point
# compares the lengths before it shortcuts the empty instance
_EMPTY_WITH_SHIFTS = {
    "satisfies_equation": lambda ds, N: satisfies_equation((), ds, N),
    "normalize_deltas": lambda ds, N: normalize_deltas((), ds, N),
    "make_certificate": lambda ds, N: make_certificate(QspInstance(Z, Z, (), 0), ds, N),
    "clusters": lambda ds, N: clusters((), ds, N),
    "verify_certificate": lambda ds, N: verify_certificate(
        QspInstance(Z, Z, (), 0), Certificate(ds, N.generators)
    ),
}


@pytest.mark.parametrize("entry", sorted(_EMPTY_WITH_SHIFTS))
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("N", [Subgroup.trivial(Z), Subgroup.whole(Z)], ids=["0", "B"])
def test_no_functions_with_shifts_is_a_shape_mismatch(entry, count, N):
    run = _EMPTY_WITH_SHIFTS[entry]
    with pytest.raises(ShapeMismatch):
        run((Z.element((5,)),) * count, N)
    run((), N)


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
    assert set(part) == {frozenset({0}), frozenset({1})}


def test_clusters_shared_point_merges():
    f = atom(Z, Z, (1,), (0,)) + atom(Z, Z, (1,), (2,))
    g = atom(Z, Z, (1,), (2,))
    part = clusters((f, g), (Z.zero(), Z.zero()), Subgroup.trivial(Z))
    assert part == (frozenset({0, 1}),)


def test_clusters_merge_modulo_subgroup():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (2,))
    trivial = Subgroup.trivial(Z)
    part_plain = clusters((f, g), (Z.zero(), Z.zero()), trivial)
    assert len(part_plain) == 2
    part_mod = clusters((f, g), (Z.zero(), Z.zero()), Subgroup(Z, (Z.element((2,)),)))
    assert part_mod == (frozenset({0, 1}),)


def test_clusters_deltas_matter():
    f = atom(Z, Z, (1,), (0,))
    g = atom(Z, Z, (1,), (5,))
    part = clusters((f, g), (Z.element((-5,)), Z.zero()), Subgroup.trivial(Z))
    assert part == (frozenset({0, 1}),)


def test_clusters_empty_support_is_singleton():
    f = SupportedFunction.zero(Z, Z)
    g = atom(Z, Z, (1,), (0,))
    part = clusters((f, g), (Z.zero(), Z.zero()), Subgroup.trivial(Z))
    assert set(part) == {frozenset({0}), frozenset({1})}


def test_plain_clusters_refine_modular_clusters():
    rng = random.Random(22)
    for _ in range(40):
        fs = tuple(_random_function(rng, Z2, Z) for _ in range(rng.randint(1, 4)))
        deltas = tuple(Z.element((rng.randint(-4, 4),)) for _ in fs)
        k = rng.randint(0, 3)
        N = Subgroup(Z, (Z.element((k,)),) if k else ())
        plain = clusters(fs, deltas, Subgroup.trivial(Z))
        modular = clusters(fs, deltas, N)
        for part in (plain, modular):
            # disjoint blocks that cover 0..m-1, sorted by least index
            assert sum(len(blk) for blk in part) == len(fs)
            assert frozenset().union(*part) == frozenset(range(len(fs)))
            assert [min(blk) for blk in part] == sorted(min(blk) for blk in part)
        for blk in plain:
            assert any(blk <= big for big in modular)


def test_cluster_diameter_bound():
    # a block's support union is no wider than the sum of member diameters
    from wreath_dio.group_ring import diameter

    rng = random.Random(23)
    for _ in range(40):
        fs = tuple(_random_function(rng, Z2, Z) for _ in range(rng.randint(1, 4)))
        deltas = tuple(Z.element((rng.randint(-4, 4),)) for _ in fs)
        part = clusters(fs, deltas, Subgroup.trivial(Z))
        for blk in part:
            pts = []
            for i in blk:
                pts.extend(shift(fs[i], deltas[i]).support())
            if not pts:
                continue
            width = max(
                geodesic_length(Z, p - q) for p in pts for q in pts
            )
            assert width <= sum(diameter(fs[i]) for i in blk)


def _ref_same_coset(N, p, q):
    """Whether p - q lies in N, by Hermite forms of N's generators and the
    ambient relations, apart from the subgroup form's projection."""
    G = N.ambient
    relations = [
        tuple(a if j == i else 0 for j in range(G.ncoords)) for i, a in enumerate(G.torsion)
    ]
    rows = [g.coords for g in N.generators] + relations
    diff = tuple(x - y for x, y in zip(p.coords, q.coords))
    return hermite_form(rows + [diff]) == hermite_form(rows)


def _ref_clusters(fs, deltas, N):
    """Components of "some shifted points of f_i and f_j share an N-coset",
    grown from each least index not yet covered."""
    supports = [shift(f, d).support() for f, d in zip(fs, deltas)]

    def touch(i, j):
        return any(_ref_same_coset(N, p, q) for p in supports[i] for q in supports[j])

    blocks, left = [], list(range(len(fs)))
    while left:
        block = {left.pop(0)}
        grown = True
        while grown:
            new = {j for j in left if any(touch(i, j) for i in block)}
            left = [j for j in left if j not in new]
            block |= new
            grown = bool(new)
        blocks.append(frozenset(block))
    return tuple(blocks)


_CLUSTER_GROUPS = (
    GroupPresentation(1), GroupPresentation(2), GroupPresentation(1, (2,)),
    GroupPresentation(0, (4,)),
)


@st.composite
def _clustered(draw):
    """(fs, deltas, N) over Z, Z^2, Z x Z_2 or Z_4 with N trivial, given
    only zero generators, or given one or two small generators."""
    B = draw(st.sampled_from(_CLUSTER_GROUPS))

    def element():
        return B.element(tuple(
            draw(st.integers(0, a - 1)) for a in B.torsion
        ) + tuple(draw(st.integers(-2, 2)) for _ in range(B.free_rank)))

    fs = tuple(
        SupportedFunction(Z, B, tuple(
            (element(), Z.element((draw(st.sampled_from((-1, 1, 2))),)))
            for _ in range(draw(st.integers(0, 3)))
        ))
        for _ in range(draw(st.integers(1, 5)))
    )
    deltas = tuple(element() for _ in fs)
    kind = draw(st.sampled_from(("trivial", "zeros", "nonzero")))
    if kind == "trivial":
        gens = ()
    elif kind == "zeros":
        gens = (B.zero(),) * draw(st.integers(1, 2))
    else:
        gens = tuple(element() for _ in range(draw(st.integers(1, 2))))
    return fs, deltas, Subgroup(B, gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_clustered())
def test_clusters_match_a_hermite_form_connectivity(case):
    fs, deltas, N = case
    part = clusters(fs, deltas, N)
    assert part == _ref_clusters(fs, deltas, N)
    if not any(g.coords != N.ambient.zero().coords for g in N.generators):
        assert part == clusters(fs, deltas, Subgroup.trivial(N.ambient))


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
        blk = part[0]
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
    blk = next(b for b in part if 0 in b)
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
# make_certificate


def _pairwise_in(c, N):
    """Reference N' for c: every pairwise support difference that lies in N."""
    pts = [p for p, _ in c.terms]
    return Subgroup(c.base_group, tuple(
        p - q for p in pts for q in pts if p != q and subgroup_contains(N, p - q)
    ))


def _cancel_mod(c, N):
    """A function g with c + g vanishing mod N: minus each N-coset block's
    coefficient sum, put on the block's first point."""
    sums = {}
    for p, a in c.terms:
        q = next((q for q in sums if subgroup_contains(N, p - q)), p)
        sums[q] = sums.get(q, c.coeff_group.zero()) + a
    g = SupportedFunction.zero(c.coeff_group, c.base_group)
    for q, a in sums.items():
        g = g + SupportedFunction.atom(-a, q)
    return g


def test_make_certificate_names_the_pairwise_difference_subgroup():
    rng = random.Random(28)
    bases = (Z, GroupPresentation(1, (2,)), GroupPresentation(2))
    answers = set()
    for trial in range(90):
        A, B = (Z2, Z)[trial % 2], bases[trial % 3]
        fs = tuple(_random_function(rng, A, B) for _ in range(rng.randint(1, 3)))
        deltas = tuple(
            B.element(tuple(rng.randint(-2, 2) for _ in range(B.ncoords)))
            for _ in fs
        )
        N = Subgroup(B, tuple(
            B.element(tuple(rng.randint(-2, 2) for _ in range(B.ncoords)))
            for _ in range(rng.randint(0, 2))
        ))
        if trial % 3:
            # solve mod N with one more function at shift 0
            fs += (_cancel_mod(shifted_sum(fs, deltas), N),)
            deltas += (B.zero(),)
        I = QspInstance(A, B, fs, subgroup_rank(N))
        cert = make_certificate(I, deltas, N)
        assert cert.deltas == deltas
        c = shifted_sum(fs, deltas)
        got, ref = Subgroup(B, cert.subgroup_gens), _pairwise_in(c, N)
        assert all(subgroup_contains(ref, g) for g in got.generators)
        assert all(subgroup_contains(got, g) for g in ref.generators)
        solved = satisfies_equation(fs, deltas, N)
        assert satisfies_equation(fs, deltas, got) == solved
        assert verify_certificate(I, cert) == solved
        answers.add(solved)
        assert subgroup_rank(got) <= subgroup_rank(N)
        coords = [g.coords for g in cert.subgroup_gens]
        assert coords == sorted(set(coords))
        for g in cert.subgroup_gens:
            assert not g.is_zero() and geodesic_length(B, g) <= c.size()
        if not N.generators:
            assert cert.subgroup_gens == ()
    assert answers == {False, True}
    # two points of one Z-coset: the certificate names <2>, not Z
    a = Z2.element((1,))
    f = SupportedFunction.atom(a, Z.element((0,))) + SupportedFunction.atom(
        a, Z.element((2,))
    )
    cert = make_certificate(QspInstance(Z2, Z, (f,), 1), (Z.zero(),), Subgroup.whole(Z))
    assert cert.subgroup_gens == (Z.element((2,)),)


def test_make_certificate_empty_instance():
    I = QspInstance(Z, Z, (), 0)
    cert = make_certificate(I, (), Subgroup.whole(Z))
    assert cert.deltas == () and cert.subgroup_gens == ()
    assert verify_certificate(I, cert)


def _unchecked_instance(A, B, fs, h):
    """A QspInstance that skips __post_init__, so its functions may live over
    different groups: what make_certificate's own checks must catch."""
    I = object.__new__(QspInstance)
    for name, value in (("A", A), ("B", B), ("fs", tuple(fs)), ("h", h)):
        object.__setattr__(I, name, value)
    return I


def test_make_certificate_at_trivial_n_builds_no_shifted_sum(monkeypatch):
    # each N-coset is one point: the given deltas and no generators, for a
    # solution and for shifts that solve nothing alike
    f, g = atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (3,))
    I = QspInstance(Z, Z, (f, g), 0)
    trivial = Subgroup.trivial(Z)
    solved = (Z.zero(), Z.element((3,)))
    unsolved = (Z.zero(), Z.element((1,)))

    def no_sum(*args, **kwargs):
        raise AssertionError("a shifted sum was built at N = 0")

    monkeypatch.setattr(qsp, "_shifted_pairs", no_sum)
    for deltas in (solved, unsolved):
        cert = make_certificate(I, deltas, trivial)
        assert cert == Certificate(deltas, ())
    monkeypatch.undo()
    assert verify_certificate(I, make_certificate(I, solved, trivial))
    assert not verify_certificate(I, make_certificate(I, unsolved, trivial))


def test_a_subgroup_of_zero_generators_is_n_equals_zero(monkeypatch):
    # <0> is the trivial subgroup: the certificate and the equation take the
    # N = 0 path, as they do for Subgroup.trivial
    f, g = atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (3,))
    I = QspInstance(Z, Z, (f, g), 0)
    zeros = Subgroup(Z, (Z.zero(), Z.zero()))
    trivial = Subgroup.trivial(Z)
    shifts = [(Z.zero(), Z.element((k,))) for k in range(-1, 5)]
    for deltas in shifts:
        assert satisfies_equation(I.fs, deltas, zeros) == satisfies_equation(
            I.fs, deltas, trivial
        ) == (deltas[1] == Z.element((3,)))

    def no_sum(*args, **kwargs):
        raise AssertionError("a shifted sum was built at N = 0")

    monkeypatch.setattr(qsp, "_shifted_pairs", no_sum)
    for deltas in shifts:
        assert make_certificate(I, deltas, zeros) == Certificate(deltas, ())


def test_make_certificate_at_trivial_n_still_checks_its_input():
    f = atom(Z, Z, (1,), (0,))
    trivial = Subgroup.trivial(Z)
    I = QspInstance(Z, Z, (f, -f), 0)
    with pytest.raises(ShapeMismatch):
        make_certificate(I, (Z.zero(),), trivial)
    with pytest.raises(ShapeMismatch):
        make_certificate(I, (Z.zero(),) * 3, trivial)
    with pytest.raises(ValueError):
        make_certificate(I, (Z.zero(), Z2.zero()), trivial)
    with pytest.raises(ValueError):
        make_certificate(I, (Z.zero(),) * 2, Subgroup.trivial(Z2))
    for other in (atom(Z2, Z, (1,), (0,)), atom(Z, Z2, (1,), (0,))):
        mixed = _unchecked_instance(Z, Z, (f, other), 0)
        with pytest.raises(ValueError):
            make_certificate(mixed, (Z.zero(),) * 2, trivial)


# Each group check on the certificate path compares identity first; a group
# that is equal but built apart must pass, and a foreign one still raise.
# verify_certificate's own checks raise ShapeMismatch, before Subgroup's
# ValueError could.
_CHECKS = {
    "instance-A": (ValueError, lambda G: QspInstance(
        G, Z, (atom(Z, Z, (1,), (0,)),), 0
    )),
    "instance-B": (ValueError, lambda G: QspInstance(
        Z, G, (atom(Z, Z, (1,), (0,)),), 0
    )),
    "compatible": (ValueError, lambda G: (
        atom(Z, Z, (1,), (0,)) + atom(Z, G, (1,), (0,))
    )),
    "subgroup": (ValueError, lambda G: Subgroup(Z, (G.element((1,)),))),
    "home-delta": (ValueError, lambda G: shifted_sum(
        (atom(Z, Z, (1,), (0,)),), (G.zero(),)
    )),
    "home-function": (ValueError, lambda G: make_certificate(
        _unchecked_instance(Z, Z, (atom(Z, Z, (1,), (0,)), atom(Z, G, (1,), (0,))), 0),
        (Z.zero(), G.zero()),
        Subgroup.trivial(Z),
    )),
    "verify-delta": (ShapeMismatch, lambda G: verify_certificate(
        QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)),), 0), Certificate((G.zero(),), ())
    )),
    "verify-generator": (ShapeMismatch, lambda G: verify_certificate(
        QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)),), 1),
        Certificate((Z.zero(),), (G.element((1,)),)),
    )),
}


@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_group_checks_take_equal_groups_and_reject_foreign_ones(check):
    error, run = _CHECKS[check]
    equal = GroupPresentation(1)
    assert equal is Z
    run(equal)
    with pytest.raises(error):
        run(Z2)


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
        assert set(plain) == set(modular)


def test_normalize_merges_a_chain_of_sub_clusters():
    # over N = <10>: three plain clusters, and the third meets only the
    # second's N-coset (15 = 5 mod 10), so it merges after the second does
    N = Subgroup(Z, (Z.element((10,)),))
    fs = (
        atom(Z, Z, (1,), (0,)),
        atom(Z, Z, (-1,), (10,)) + atom(Z, Z, (1,), (5,)),
        atom(Z, Z, (-1,), (15,)),
    )
    deltas = (Z.zero(),) * 3
    assert satisfies_equation(fs, deltas, N)
    assert len(clusters(fs, deltas, Subgroup.trivial(Z))) == 3
    assert clusters(fs, deltas, N) == (frozenset({0, 1, 2}),)
    out = normalize_deltas(fs, deltas, N)
    assert satisfies_equation(fs, out, N)
    bound = sum(f.size() for f in fs)
    assert all(geodesic_length(Z, d) <= bound for d in out)
    assert clusters(fs, out, Subgroup.trivial(Z)) == clusters(fs, out, N)


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
        for blk in part:
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
