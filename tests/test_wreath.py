"""Wreath-product arithmetic and the equation-to-instance reduction."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreath_dio.abelian import (
    BudgetExceeded,
    GroupPresentation,
    enumerate_ball,
    group_rank,
)
from wreath_dio import codec, wreath
from wreath_dio.group_ring import SupportedFunction
from wreath_dio.qsp import QspInstance
from wreath_dio.solvers import dispatch
from wreath_dio.wreath import (
    EquationAssignment,
    OrientableEquation,
    Unsolvable,
    WreathElement,
    enumerate_window,
    equation_brute_force,
    evaluate,
    gen_solvable,
    reduce_to_qsp,
    residual_function,
    wreath_identity,
    wreath_inverse,
    wreath_multiply,
)

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z3 = GroupPresentation(0, (3,))
ZxZ2 = GroupPresentation(1, (2,))


def w(A, B, delta, terms):
    f = SupportedFunction(
        A, B, tuple((B.element(p), A.element(c)) for p, c in terms)
    )
    return WreathElement(B.element(delta), f)


def _random_wreath(rng, A, B, window=2):
    def elem(G):
        return G.element(
            tuple(rng.randrange(t) for t in G.torsion)
            + tuple(rng.randint(-window, window) for _ in range(G.free_rank))
        )

    terms = tuple((elem(B), elem(A)) for _ in range(rng.randint(0, 3)))
    return WreathElement(elem(B), SupportedFunction(A, B, terms))


# ---------------------------------------------------------------------------
# group laws


def test_identity_and_inverse():
    rng = random.Random(1)
    for A, B in ((Z2, Z), (Z, Z), (Z2, Z2)):
        e = wreath_identity(A, B)
        for _ in range(25):
            u = _random_wreath(rng, A, B)
            assert wreath_multiply(u, e) == u
            assert wreath_multiply(e, u) == u
            assert wreath_multiply(u, wreath_inverse(u)).is_identity()
            assert wreath_multiply(wreath_inverse(u), u).is_identity()


def test_multiplication_associative():
    rng = random.Random(2)
    for _ in range(40):
        u = _random_wreath(rng, Z2, Z)
        v = _random_wreath(rng, Z2, Z)
        x = _random_wreath(rng, Z2, Z)
        assert wreath_multiply(wreath_multiply(u, v), x) == wreath_multiply(
            u, wreath_multiply(v, x)
        )


def test_multiplication_noncommutative_witness():
    # lamp at 0 and a base move do not commute
    a = w(Z2, Z, (0,), [((0,), (1,))])
    t = w(Z2, Z, (1,), [])
    assert wreath_multiply(a, t) != wreath_multiply(t, a)


def test_group_mismatch_rejected():
    with pytest.raises(ValueError):
        wreath_multiply(wreath_identity(Z2, Z), wreath_identity(Z, Z))
    with pytest.raises(ValueError):
        WreathElement(Z.zero(), SupportedFunction.zero(Z, Z2))


# z^-1 c z and [x, y] = x^-1 y^-1 x y, each read off evaluate on the
# smallest equation that holds it


def _conjugate(c, z):
    eq = OrientableEquation(c.coeff_group, c.base_group, 0, (c,))
    return evaluate(eq, EquationAssignment((), (), (z,)))


def _commutator(x, y):
    eq = OrientableEquation(x.coeff_group, x.base_group, 1, ())
    return evaluate(eq, EquationAssignment((x,), (y,), ()))


def test_conjugate_matches_raw_product():
    rng = random.Random(3)
    for A, B in ((Z2, Z), (Z, Z), (Z2, Z2)):
        for _ in range(40):
            c = _random_wreath(rng, A, B)
            z = _random_wreath(rng, A, B)
            raw = wreath_multiply(wreath_multiply(wreath_inverse(z), c), z)
            assert _conjugate(c, z) == raw


def test_conjugate_example_lamp_by_translation():
    # moving the lamplighter by 1 drags the lamp from 0 to -1
    c = w(Z2, Z, (1,), [((0,), (1,))])
    z = w(Z2, Z, (1,), [])
    out = _conjugate(c, z)
    raw = wreath_multiply(wreath_multiply(wreath_inverse(z), c), z)
    assert out == raw
    assert out.delta == Z.element((1,))
    assert [p.coords for p in out.f.support()] == [(-1,)]


def test_conjugation_of_lamp_lands_on_negated_position():
    # b^-1 a b for a lamp a and pure translation b supports -b
    for k in range(-3, 4):
        a = w(Z2, Z, (0,), [((0,), (1,))])
        b = w(Z2, Z, (k,), [])
        out = _conjugate(a, b)
        assert out.delta.is_zero()
        assert [p.coords for p in out.f.support()] == [(-k,)]


def test_commutator_matches_raw_product():
    rng = random.Random(4)
    for _ in range(40):
        x = _random_wreath(rng, Z2, Z)
        y = _random_wreath(rng, Z2, Z)
        raw = wreath_multiply(
            wreath_multiply(wreath_inverse(x), wreath_inverse(y)),
            wreath_multiply(x, y),
        )
        assert _commutator(x, y) == raw


def test_commutator_with_zero_deltas_is_identity():
    x = w(Z2, Z, (0,), [((0,), (1,))])
    y = w(Z2, Z, (0,), [((3,), (1,))])
    assert _commutator(x, y).is_identity()


def test_commutator_base_component_always_zero():
    rng = random.Random(5)
    for _ in range(30):
        x = _random_wreath(rng, Z, Z)
        y = _random_wreath(rng, Z, Z)
        assert _commutator(x, y).delta.is_zero()


# Each group check compares identity first; a group that is equal but built
# apart must pass, and a foreign one still raise.
_CHECKS = {
    "element": lambda G: WreathElement(G.zero(), SupportedFunction.zero(Z, Z)),
    "same-groups-A": lambda G: wreath_multiply(
        wreath_identity(Z, Z), wreath_identity(G, Z)
    ),
    "same-groups-B": lambda G: wreath_multiply(
        wreath_identity(Z, Z), wreath_identity(Z, G)
    ),
    "equation-A": lambda G: OrientableEquation(Z, Z, 0, (wreath_identity(G, Z),)),
    "equation-B": lambda G: OrientableEquation(Z, Z, 0, (wreath_identity(Z, G),)),
    "shape-A": lambda G: evaluate(
        OrientableEquation(Z, Z, 0, (wreath_identity(Z, Z),)),
        EquationAssignment((), (), (wreath_identity(G, Z),)),
    ),
    "shape-B": lambda G: evaluate(
        OrientableEquation(Z, Z, 0, (wreath_identity(Z, Z),)),
        EquationAssignment((), (), (wreath_identity(Z, G),)),
    ),
}


@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_group_checks_take_equal_groups_and_reject_foreign_ones(check):
    run = _CHECKS[check]
    equal = GroupPresentation(1)
    assert equal is Z
    run(equal)
    with pytest.raises(ValueError):
        run(Z2)


# ---------------------------------------------------------------------------
# equations and evaluation


def test_equation_shape_validation():
    c = wreath_identity(Z2, Z)
    with pytest.raises(ValueError):
        OrientableEquation(Z2, Z, 0, ())  # spherical needs a constant
    with pytest.raises(ValueError):
        OrientableEquation(Z2, Z, -1, (c,))
    with pytest.raises(ValueError):
        OrientableEquation(Z2, Z, 0, (wreath_identity(Z, Z),))
    eq = OrientableEquation(Z2, Z, 1, (c,))
    with pytest.raises(ValueError):
        evaluate(eq, EquationAssignment((), (), (c,)))  # missing x, y


def test_evaluate_identity_constant():
    eq = OrientableEquation(Z2, Z, 0, (wreath_identity(Z2, Z),))
    rng = random.Random(6)
    for _ in range(10):
        z = _random_wreath(rng, Z2, Z)
        assert evaluate(eq, EquationAssignment((), (), (z,))).is_identity()


def test_evaluate_commutator_of_equal_elements():
    c = wreath_identity(Z2, Z)
    eq = OrientableEquation(Z2, Z, 1, (c,))
    rng = random.Random(7)
    for _ in range(10):
        x = _random_wreath(rng, Z2, Z)
        z = _random_wreath(rng, Z2, Z)
        out = evaluate(eq, EquationAssignment((x,), (x,), (z,)))
        assert out.is_identity()


def test_evaluate_matches_residual_function():
    rng = random.Random(8)
    for A, B in ((Z2, Z), (Z, Z), (Z2, Z2)):
        for _ in range(30):
            g = rng.randint(0, 2)
            m = rng.randint(0 if g else 1, 2)
            consts = tuple(_random_wreath(rng, A, B) for _ in range(m))
            eq = OrientableEquation(A, B, g, consts)
            asn = EquationAssignment(
                tuple(_random_wreath(rng, A, B) for _ in range(g)),
                tuple(_random_wreath(rng, A, B) for _ in range(g)),
                tuple(_random_wreath(rng, A, B) for _ in range(m)),
            )
            value = evaluate(eq, asn)
            flag, residual = residual_function(eq, asn)
            assert flag == value.delta.is_zero()
            assert (flag and residual.is_zero()) == value.is_identity()


# ---------------------------------------------------------------------------
# reduction


def test_reduce_cancelling_translations():
    c1 = w(Z2, Z, (1,), [])
    c2 = w(Z2, Z, (-1,), [])
    eq = OrientableEquation(Z2, Z, 0, (c1, c2))
    I = reduce_to_qsp(eq)
    assert isinstance(I, QspInstance)
    assert I.h == 0
    assert all(f.is_zero() for f in I.fs)
    assert I.B.is_trivial()  # Z / <1> collapses


def test_reduce_nonzero_delta_sum_is_unsolvable():
    eq = OrientableEquation(Z2, Z, 0, (w(Z2, Z, (1,), []),))
    out = reduce_to_qsp(eq)
    assert isinstance(out, Unsolvable)
    assert "nonzero" in out.reason


def test_reduce_rank_budget_is_twice_genus():
    c = w(Z2, Z, (0,), [((0,), (1,))])
    eq = OrientableEquation(Z2, Z, 2, (c,))
    I = reduce_to_qsp(eq)
    assert isinstance(I, QspInstance)
    assert I.h == 4


def test_reduce_quotients_by_delta_subgroup():
    # constants moving by +2 and -2: base group becomes Z/<2>
    c1 = w(Z2, Z, (2,), [((0,), (1,))])
    c2 = w(Z2, Z, (-2,), [((1,), (1,))])
    eq = OrientableEquation(Z2, Z, 0, (c1, c2))
    I = reduce_to_qsp(eq)
    assert isinstance(I, QspInstance)
    assert I.B.order() == 2
    assert group_rank(I.B) == 1
    # pushforwards keep their coefficients
    assert [f.total_coefficient().coords for f in I.fs] == [(1,), (1,)]


def test_reduce_genus_only_equation():
    eq = OrientableEquation(Z2, Z, 1, ())
    I = reduce_to_qsp(eq)
    assert isinstance(I, QspInstance)
    assert I.fs == () and I.h == 2
    assert I.B.free_rank == 1  # nothing to quotient by


# ---------------------------------------------------------------------------
# generation


def test_gen_solvable_always_evaluates_to_identity():
    for seed in range(25):
        eq, asn = gen_solvable(seed, Z2, Z, genus=1, m=2)
        assert evaluate(eq, asn).is_identity()


@pytest.mark.parametrize(
    "A, B",
    [((33, ()), (1, ())), ((0, (2,)), (1, (2,) * 32))],
    ids=["coefficients", "base"],
)
def test_gen_solvable_groups_are_capped(A, B):
    # neither group may have more than 32 coordinates: gen_solvable walks a
    # radius-3 ball over B and draws elements of A, so such a group is refused
    # when it is built, before gen_solvable is reached
    with pytest.raises(ValueError, match="33 coordinates, past the cap 32"):
        gen_solvable(0, GroupPresentation(*A), GroupPresentation(*B), 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda c: QspInstance(Z, Z, (), 1.5),
        lambda c: QspInstance(Z, Z, (), "1"),
        lambda c: OrientableEquation(Z, Z, 0.5, (c,)),
        lambda c: OrientableEquation(Z, Z, "1", (c,)),
    ],
    ids=["h-float", "h-string", "genus-float", "genus-string"],
)
def test_h_and_genus_must_be_integers(build):
    # a float h once built an instance of size 3.5, and a float genus
    # reduced to h = 1.0, which dispatch decided by the big-h rule
    c = w(Z, Z, (1,), [((0,), (1,))])
    with pytest.raises(ValueError, match="must be an integer"):
        build(c)


def test_gen_solvable_seed_determinism():
    a1 = gen_solvable(42, Z2, Z, 1, 2)
    a2 = gen_solvable(42, Z2, Z, 1, 2)
    assert a1 == a2
    b = gen_solvable(43, Z2, Z, 1, 2)
    assert b != a1


ZxZ = GroupPresentation(2)


@pytest.mark.parametrize("A, B, genus, m, digest", [
    (Z2, Z, 0, 1, "858e13e3cc72e3a7f48d9823e50db857a8d18a269370ed8218e8d57872861af6"),
    (Z2, Z, 1, 2, "2ccea2846eee57fed109d7c35c84ebba8aa6c7d255042493cea4d02a702443be"),
    (Z2, Z, 2, 0, "8949eff5434cd2614c06f1873b818159a456baf37f8e5ea83387c146a6771e8a"),
    (Z, ZxZ2, 0, 2, "f2b2c64e99d762d4722e6d73029a37715126135a8a8c1fe248e7dacc0fea0185"),
    (Z, ZxZ2, 1, 1, "43ab93389431de7334b60d786b8dc85c6a1b6448098819ce480f5401d57254f6"),
    (Z, ZxZ2, 2, 2, "eb769789489c1cd3e6fa65f66fbc29900f62d94b3c6b6b7eb1c0b17cc8f9af65"),
    (Z2, ZxZ, 1, 0, "e767ab7e856e831cabb71fd3e0bd84abcfe7178eb774271fd3d0aeb1fe6249b4"),
    (Z2, ZxZ, 2, 1, "ed10c8f5cbf38c5fe51a02ead38863ac3c0cf5e41b4b468d64cb46667f620e35"),
])
def test_gen_solvable_draws_are_pinned(A, B, genus, m, digest):
    # the equations the seed draws, so that generator rewrites keep the
    # benchmark's inputs
    eq, _ = gen_solvable(11, A, B, genus, m)
    assert codec.digest(codec.canonical_json(codec.encode_equation(eq))) == digest


def test_gen_solvable_spherical_single_constant_is_identity():
    eq, asn = gen_solvable(5, Z2, Z, genus=0, m=1)
    assert eq.constants[0].is_identity()


def test_gen_solvable_no_constants():
    eq, asn = gen_solvable(9, Z2, Z, genus=2, m=0)
    assert eq.m == 0
    assert evaluate(eq, asn).is_identity()


def test_gen_solvable_rejects_empty_shape():
    with pytest.raises(ValueError):
        gen_solvable(0, Z2, Z, genus=0, m=0)


def test_gen_solvable_rejects_negative_shape():
    for genus, m in ((1, -1), (0, -1), (-1, 1)):
        with pytest.raises(ValueError, match="nonnegative"):
            gen_solvable(0, Z2, Z, genus=genus, m=m)


def test_gen_solvable_reduction_is_positive_when_in_budget():
    from wreath_dio.solvers import dispatch

    for seed in range(10):
        eq, _ = gen_solvable(seed, Z2, Z2, genus=1, m=1)
        I = reduce_to_qsp(eq)
        assert isinstance(I, QspInstance)
        assert dispatch(I).decision == "positive"


# ---------------------------------------------------------------------------
# window enumeration and brute force


def test_enumerate_window_lamplighter_count():
    # Z_2 wr Z_2: 2 base shifts x 2^2 functions = 8 elements
    out = enumerate_window(Z2, Z2, 1)
    assert len(out) == 8
    assert len({(e.delta.coords, e.f.terms) for e in out}) == 8
    # (Z x Z_2) wr Z_2 at radius 1: 2 coefficients of Z_2 times 3 of Z per
    # point, 2 x 6^2 = 72 elements, every free coefficient in -1..1 met
    out = enumerate_window(ZxZ2, Z2, 1)
    assert len({(e.delta.coords, e.f.terms) for e in out}) == 72
    coeffs = {c.coords for e in out for _, c in e.f.terms}
    assert coeffs == {(t, v) for t in (0, 1) for v in (-1, 0, 1)} - {(0, 0)}


def test_enumerate_window_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_window(Z, Z, 3)


@pytest.mark.parametrize(
    "A, radius, drawn",
    [
        # 2 coefficients per point: 14 * 2^14 passes 200 000, 13 * 2^13 not
        (Z2, 300_000, 14),
        # 61^3 = 226 981 coefficients per point pass the cap at the first one
        (GroupPresentation(3), 30, 1),
    ],
)
def test_enumerate_window_stops_at_the_cap(monkeypatch, A, radius, drawn):
    # the ball is drawn only until the window count passes the cap
    pulled = []

    def counting_ball(G, r):
        for g in enumerate_ball(G, r):
            pulled.append(g)
            yield g

    monkeypatch.setattr(wreath, "enumerate_ball", counting_ball)
    with pytest.raises(BudgetExceeded, match="window holds more than 200000 wreath"):
        enumerate_window(A, Z, radius)
    assert len(pulled) == drawn


def test_brute_force_finds_generated_solutions():
    for seed in range(5):
        eq, _ = gen_solvable(seed, Z2, Z2, genus=0, m=1)
        assert equation_brute_force(eq, 1)


@pytest.mark.parametrize("genus, m", [(0, 2), (1, 1)])
def test_brute_force_agrees_with_evaluate_on_every_assignment(genus, m):
    # the brute force reads the product's coordinates instead of building
    # it; over the whole window of Z2 wr Z2 that must be evaluate's verdict
    eq, _ = gen_solvable(3, Z2, Z2, genus, m)
    window = enumerate_window(Z2, Z2, 1)
    verdicts = set()
    for values in itertools.product(window, repeat=2 * genus + m):
        asn = EquationAssignment(
            values[:genus], values[genus : 2 * genus], values[2 * genus :]
        )
        verdict = evaluate(eq, asn).is_identity()
        assert wreath._solves(eq, values) == verdict, values
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert equation_brute_force(eq, 1)


def test_brute_force_rejects_delta_sum_violations():
    eq = OrientableEquation(Z2, Z2, 0, (w(Z2, Z2, (1,), []),))
    assert not equation_brute_force(eq, 1)


def test_brute_force_budget():
    eq = OrientableEquation(Z2, Z, 1, (wreath_identity(Z2, Z),))
    with pytest.raises(BudgetExceeded):
        equation_brute_force(eq, 2, max_assignments=10)
    # 160^2000 assignments: more digits than Python formats
    eq = OrientableEquation(Z2, Z, 1000, (wreath_identity(Z2, Z),))
    with pytest.raises(BudgetExceeded, match="more than 2000000 assignments"):
        equation_brute_force(eq, 2)


def test_brute_force_rejects_empty_window_and_budget():
    # radius -1 would search an empty window and report a vacuous negative
    eq = OrientableEquation(Z2, Z2, 0, (w(Z2, Z2, (1,), []),))
    with pytest.raises(ValueError, match="radius"):
        equation_brute_force(eq, -1)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_assignments"):
            equation_brute_force(eq, 1, max_assignments=cap)
    assert not equation_brute_force(eq, 0)


# ---------------------------------------------------------------------------
# the reduction and dispatch against brute force over finite A wr B


def _covering_radius(B):
    """Least radius whose ball is all of the finite group B."""
    r = 0
    while len(list(enumerate_ball(B, r))) < B.order():
        r += 1
    return r


@st.composite
def _finite_equations(draw):
    """Equations over Z2 wr Z2, Z3 wr Z2 and Z2 wr Z3 small enough that the
    brute force over the whole group stays quick: 2*genus + m <= 3 over
    Z2 wr Z2 and <= 2 otherwise.  About half the draws balance the base
    shifts so the reduction yields an instance; the rest may be refuted by
    it."""
    A, B = draw(st.sampled_from(((Z2, Z2), (Z3, Z2), (Z2, Z3))))
    cap = 3 if (A, B) == (Z2, Z2) else 2
    genus = draw(st.sampled_from((0, 1)))
    m = draw(st.integers(1 if genus == 0 else 0, cap - 2 * genus))
    points = list(B.elements())
    coeffs = st.sampled_from(list(A.elements()))
    constants = []
    for _ in range(m):
        delta = draw(st.sampled_from(points))
        lamps = draw(st.lists(coeffs, min_size=len(points), max_size=len(points)))
        f = SupportedFunction(A, B, tuple(zip(points, lamps)))
        constants.append(WreathElement(delta, f))
    if constants and draw(st.booleans()):
        total = sum((c.delta for c in constants[:-1]), B.zero())
        constants[-1] = WreathElement(-total, constants[-1].f)
    return OrientableEquation(A, B, genus, tuple(constants))


# zero total coefficient, yet the reduced instance is negative
@example(OrientableEquation(Z2, Z2, 0, (w(Z2, Z2, (0,), [((0,), (1,)), ((1,), (1,))]),)))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_finite_equations())
def test_dispatch_of_reduction_matches_brute_force(eq):
    reduced = reduce_to_qsp(eq)
    if isinstance(reduced, Unsolvable):
        solvable = False
    else:
        result = dispatch(reduced)
        assert result.decision in ("positive", "negative")
        solvable = result.decision == "positive"
    assert solvable == equation_brute_force(eq, _covering_radius(eq.B))
