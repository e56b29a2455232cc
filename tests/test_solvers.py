"""Decision procedures: the big-h route, the complete search, dispatch
routing, and cross-oracle agreement."""

import itertools
import math
import operator
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wreath_dio
from wreath_dio import abelian, codec, solvers
from wreath_dio.abelian import (
    BudgetExceeded,
    GroupPresentation,
    Subgroup,
    group_rank,
    subgroup_contains,
    subgroup_rank,
)
from wreath_dio.group_ring import SupportedFunction, _coeff_sums, pushforward, shift
from wreath_dio.hardness import (
    ThreePartInstance,
    ZoeInstance,
    gen_3part_h0,
    gen_3part_midh,
    gen_zoe,
    solve_3part_bruteforce,
)
from wreath_dio.qsp import (
    Certificate,
    QspInstance,
    make_certificate,
    normalize_deltas,
    satisfies_equation,
    verify_certificate,
)
from wreath_dio.solvers import (
    _Meter,
    _generated_rank,
    _zero_sum_partitions,
    DEFAULT_BUDGET,
    SolverBudget,
    dispatch,
    oracle_solve,
    solve_general,
)
from wreath_dio.wreath import OrientableEquation

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z4 = GroupPresentation(0, (4,))
Z2xZ2 = GroupPresentation(0, (2, 2))
ZxZ = GroupPresentation(2)


def atom(A, B, coeff, point):
    return SupportedFunction.atom(A.element(coeff), B.element(point))


def _coords(fs):
    """Each function's terms as the search takes them: (point, coeff)
    coordinate pairs."""
    return tuple(tuple((p.coords, c.coords) for p, c in f.terms) for f in fs)


def _assert_positive(I, result):
    assert result.decision == "positive"
    assert result.certificate is not None
    assert verify_certificate(I, result.certificate)


# ---------------------------------------------------------------------------
# big-h route


def test_big_h_cancelling_pair_positive():
    fs = (atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (5,)))
    I = QspInstance(Z, Z, fs, 1)
    result = dispatch(I)
    assert result.method == "big-h"
    _assert_positive(I, result)


def test_big_h_single_nonzero_total_negative():
    I = QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)),), 1)
    result = dispatch(I)
    assert result.method == "big-h"
    assert result.decision == "negative"
    assert result.certificate is None


def test_big_h_all_empty_positive():
    I = QspInstance(Z, Z, (SupportedFunction.zero(Z, Z),) * 3, 1)
    result = dispatch(I)
    assert result.method == "big-h"
    _assert_positive(I, result)


def test_big_h_torsion_total():
    # 1 + 1 = 0 in Z_2, so two unit lamps anywhere cancel modulo B
    fs = (atom(Z2, Z, (1,), (0,)), atom(Z2, Z, (1,), (17,)))
    I = QspInstance(Z2, Z, fs, 1)
    result = dispatch(I)
    assert result.method == "big-h"
    _assert_positive(I, result)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from((GroupPresentation(0), Z, Z2, GroupPresentation(1, (2, 6)))),
    st.lists(st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9)), max_size=4),
             max_size=3),
)
def test_total_sum_check_is_the_sum_of_the_totals(A, raw):
    # column sums reduced once give the total that adding the reduced
    # coefficients gives, zero for an instance with no terms
    fs = tuple(
        SupportedFunction(A, Z, tuple(
            (Z.element((p,)), A.element(((c, -c, 3 * c) * A.ncoords)[: A.ncoords]))
            for p, c in terms
        ))
        for terms in raw
    )
    I = QspInstance(A, Z, fs, 0)
    total = sum((f.total_coefficient() for f in fs), A.zero())
    assert solvers._total_sum_is_zero(I) == total.is_zero()


# ---------------------------------------------------------------------------
# finite base groups, decided through dispatch


def test_finite_base_aligned_lamps_cancel():
    fs = (atom(Z2, Z2, (1,), (0,)), atom(Z2, Z2, (1,), (0,)))
    I = QspInstance(Z2, Z2, fs, 0)
    result = dispatch(I)
    assert result.method == "general"
    _assert_positive(I, result)


def test_finite_base_misaligned_lamps_shift_into_place():
    fs = (atom(Z2, Z2, (1,), (0,)), atom(Z2, Z2, (1,), (1,)))
    I = QspInstance(Z2, Z2, fs, 0)
    _assert_positive(I, dispatch(I))


def test_finite_base_single_odd_lamp_negative():
    I = QspInstance(Z2, Z2, (atom(Z2, Z2, (1,), (0,)),), 0)
    assert dispatch(I).decision == "negative"


def test_finite_base_needs_subgroup_collapse():
    # single function with lamps at both points of Z_2: zero only mod N = B
    f = atom(Z2, Z2, (1,), (0,)) + atom(Z2, Z2, (1,), (1,))
    assert dispatch(QspInstance(Z2, Z2, (f,), 0)).decision == "negative"
    I = QspInstance(Z2, Z2, (f,), 1)
    _assert_positive(I, dispatch(I))


# ---------------------------------------------------------------------------
# one function over a torsion-free base, decided by the growing search


def test_single_f_zero_function_positive():
    I = QspInstance(Z, ZxZ, (SupportedFunction.zero(Z, ZxZ),), 0)
    result = dispatch(I)
    assert result.method == "general"
    _assert_positive(I, result)
    assert result.certificate.subgroup_gens == ()


def test_single_f_difference_pair_positive_with_span():
    f = atom(Z, ZxZ, (1,), (0, 0)) - atom(Z, ZxZ, (1,), (1, 0))
    I = QspInstance(Z, ZxZ, (f,), 1)
    result = dispatch(I)
    assert result.method == "general"
    _assert_positive(I, result)
    N = Subgroup(ZxZ, result.certificate.subgroup_gens)
    assert subgroup_contains(N, ZxZ.element((1, 0)))
    assert not subgroup_contains(N, ZxZ.element((0, 1)))


def test_single_f_nonzero_total_negative():
    # h >= rank(Z) routes this instance to big-h, so call the search itself
    f = atom(Z, Z, (2,), (0,)) + atom(Z, Z, (1,), (3,))
    result = solve_general(QspInstance(Z, Z, (f,), 2))
    assert result.method == "general"
    assert result.decision == "negative"


def test_single_f_needs_full_rank_collapse():
    # no pairing of these four lamps has parallel differences, so no single
    # line can collapse them; the full plane (rank 2) can
    f = (
        atom(Z2, ZxZ, (1,), (0, 0))
        + atom(Z2, ZxZ, (1,), (1, 0))
        + atom(Z2, ZxZ, (1,), (0, 1))
        + atom(Z2, ZxZ, (1,), (2, 2))
    )
    result = dispatch(QspInstance(Z2, ZxZ, (f,), 1))
    assert result.method == "general"
    assert result.decision == "negative"
    I = QspInstance(Z2, ZxZ, (f,), 2)
    _assert_positive(I, dispatch(I))


def test_single_f_rational_span_collapse():
    # lamps at 0, 2, 4 with coefficients 1, -2, 1 vanish mod <2> but not <4>;
    # h >= rank(Z) routes this instance to big-h, so call the search itself
    f = (
        atom(Z, Z, (1,), (0,))
        + atom(Z, Z, (-2,), (2,))
        + atom(Z, Z, (1,), (4,))
    )
    I = QspInstance(Z, Z, (f,), 1)
    result = solve_general(I)
    assert result.method == "general"
    _assert_positive(I, result)


# ---------------------------------------------------------------------------
# few functions over an infinite base, decided through dispatch


def test_rigid_single_function_negative():
    # shifting moves both lamps together; they can never cancel plainly
    f = atom(Z, Z, (1,), (0,)) - atom(Z, Z, (1,), (3,))
    I = QspInstance(Z, Z, (f,), 0)
    assert dispatch(I).decision == "negative"


def test_pair_aligns_and_cancels():
    fs = (atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (3,)))
    I = QspInstance(Z, Z, fs, 0)
    result = dispatch(I)
    assert result.method == "general"
    _assert_positive(I, result)


def test_pair_nonzero_total_negative():
    fs = (atom(Z, Z, (1,), (0,)), atom(Z, Z, (2,), (1,)))
    assert dispatch(QspInstance(Z, Z, fs, 0)).decision == "negative"


def test_pair_uses_subgroup_witness():
    # the pair cancels only after collapsing mod <(1,1)>
    fs = (
        atom(Z2, ZxZ, (1,), (0, 0)),
        atom(Z2, ZxZ, (1,), (1, 1)),
    )
    I = QspInstance(Z2, ZxZ, fs, 1)
    result = dispatch(I)
    _assert_positive(I, result)


# ---------------------------------------------------------------------------
# general route


def test_general_positive_and_negative_examples():
    fs = (atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (3,)))
    I = QspInstance(Z, Z, fs, 0)
    result = solve_general(I)
    assert result.method == "general"
    _assert_positive(I, result)
    bad = QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)),), 0)
    assert solve_general(bad).decision == "negative"


def test_general_finds_subgroup_witnesses():
    f = atom(Z2, Z, (1,), (0,)) + atom(Z2, Z, (1,), (4,))
    I = QspInstance(Z2, Z, (f,), 1)
    result = solve_general(I)
    _assert_positive(I, result)
    N = Subgroup(Z, result.certificate.subgroup_gens)
    assert subgroup_contains(N, Z.element((4,)))


def test_general_respects_budget_with_unknown():
    fs = tuple(
        atom(Z, ZxZ, (1,), (k, -k)) - atom(Z, ZxZ, (1,), (k + 5, k)) for k in range(4)
    )
    I = QspInstance(Z, ZxZ, fs, 2)
    tight = SolverBudget(max_delta_tuples=5, max_seconds=60.0)
    result = solve_general(I, tight)
    assert result.decision == "unknown-budget"
    assert result.certificate is None
    assert result.reason


def test_time_budget_is_read_on_every_charge(monkeypatch):
    # a clock one second on per read: the meter's start, then one read per
    # charge, so a 3 s cap trips at the fourth of the 15 units this search
    # charges
    ticks = itertools.count()
    monkeypatch.setattr(wreath_dio.solvers.time, "monotonic", lambda: float(next(ticks)))
    a = b = Z.element((1,))
    I = gen_3part_h0(ThreePartInstance((5, 5, 6, 6, 7, 7, 7, 7, 7), 3), a, b)
    result = dispatch(I, SolverBudget(max_seconds=3))
    assert result.decision == "unknown-budget"
    assert result.reason.startswith("time exceeded")
    assert result.counters["delta_tuples"] <= 4


_PINNED_K2_NEGATIVES = {
    (4, 4, 4, 4, 4, 6): 12,
    (4, 4, 4, 6, 6, 6): 17,
    (5, 5, 5, 5, 5, 7): 12,
    (5, 5, 5, 5, 6, 8): 25,
    (5, 5, 5, 7, 7, 7): 17,
    (5, 5, 5, 7, 8, 8): 32,
    (6, 6, 6, 6, 6, 8): 12,
    (6, 6, 6, 8, 8, 8): 17,
    (6, 8, 8, 8, 8, 8): 11,
}
# deep 3-PARTITION negatives at h = 0, as (values, k), with the delta tuples
# that decide them: the root and one per placement tried.  Anchoring a short
# block first ran the first two past the default cap of 1 000 000.
_DEEP_H0_NEGATIVES = {
    ((11, 11, 11, 12, 12, 12, 12, 12, 12, 14, 14, 15, 16, 17, 19), 5): 1529,
    ((11, 11, 11, 11, 12, 13, 13, 14, 14, 15, 16, 19), 4): 1084,
    ((11, 11, 11, 11, 11, 11, 12, 12, 14, 14, 15, 15, 16, 17, 19), 5): 1360,
}


@pytest.mark.parametrize("cap", [20, 300, 1200])
def test_delta_cap_trips_at_cap_plus_one(cap):
    # a capped search decides as an uncapped one while its count stays
    # within the cap, and trips with the counter at cap + 1 otherwise.  Cap
    # 20 lies among the k = 2 counts, 300 above them and below the deep
    # negatives', 1200 among the deep negatives'
    a = b = Z.element((1,))
    budget = SolverBudget(max_delta_tuples=cap, max_seconds=math.inf)
    cases = [((values, 2), nodes) for values, nodes in _PINNED_K2_NEGATIVES.items()]
    cases += _DEEP_H0_NEGATIVES.items()
    for (values, k), nodes in cases:
        result = solve_general(gen_3part_h0(ThreePartInstance(values, k), a, b), budget)
        if nodes <= cap:
            assert (result.decision, result.counters["delta_tuples"]) == ("negative", nodes)
        else:
            assert result.decision == "unknown-budget"
            assert result.counters["delta_tuples"] == cap + 1
            assert result.reason == f"delta_tuples exceeded {cap}"


def _h0_instances():
    """The pinned k = 2 and deep 3-PARTITION negatives, and ZERO-ONE-EQUATIONS
    reductions over Z_2 from seeded random 0/1 matrices."""
    a = b = Z.element((1,))
    cases = [(values, 2) for values in _PINNED_K2_NEGATIVES] + list(_DEEP_H0_NEGATIVES)
    out = [gen_3part_h0(ThreePartInstance(values, k), a, b) for values, k in cases]
    # three positives and three negatives, every row nonzero
    rng = random.Random(28)
    for n in (3, 3, 4, 4, 5, 5):
        rows = tuple(tuple(int(rng.random() < 0.5) for _ in range(n)) for _ in range(n))
        out.append(gen_zoe(ZoeInstance(rows)))
    return out


def test_h0_delta_tuples_count_the_root_and_each_placement_tried(monkeypatch):
    # an h = 0 search charges one unit for its root and one for each
    # placement it tries, made in full or stopped early; the placements a
    # window rules out are never made and never charged
    calls = []
    place = solvers._Level.place
    monkeypatch.setattr(
        solvers._Level, "place", lambda *args: calls.append(1) or place(*args)
    )
    for I in _h0_instances():
        calls.clear()
        result = dispatch(I)
        assert (I.h, result.method) == (0, "general")
        assert result.decision in ("positive", "negative")
        assert result.counters["delta_tuples"] == 1 + len(calls)


# ---------------------------------------------------------------------------
# dispatch


def test_dispatch_trivial_coefficients():
    # a trivial A makes every function zero: big-h takes h >= rank(B),
    # general the rest, and both certify zero shifts with no generators
    T = GroupPresentation(0)
    bases = (
        GroupPresentation(0),
        Z,
        ZxZ,
        Z2,
        GroupPresentation(1, (3,)),
        GroupPresentation(0, (2, 4)),
    )
    for B in bases:
        rank = group_rank(B)
        for m in range(4):
            fs = (SupportedFunction.zero(T, B),) * m
            for h in sorted({max(rank - 1, 0), rank, rank + 1}):
                result = dispatch(QspInstance(T, B, fs, h))
                case = (B, m, h)
                assert result.decision == "positive", case
                assert result.method == ("big-h" if h >= rank else "general"), case
                assert result.certificate == Certificate((B.zero(),) * m, ()), case


def test_dispatch_routing_tags():
    big = QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)),), 1)
    assert dispatch(big).method == "big-h"
    fin = QspInstance(Z2, Z4, (atom(Z2, Z4, (1,), (0,)),), 0)
    assert dispatch(fin).method == "general"
    single = QspInstance(Z, ZxZ, (atom(Z, ZxZ, (1,), (0, 0)),), 1)
    assert dispatch(single).method == "general"
    pair = QspInstance(Z, ZxZ, (atom(Z, ZxZ, (1,), (0, 0)),) * 2, 1)
    assert dispatch(pair).method == "general"
    many = QspInstance(Z, ZxZ, (atom(Z, ZxZ, (1,), (0, 0)),) * 4, 1)
    assert dispatch(many).method == "general"


def test_dispatch_torsion_single_function_goes_general():
    I = QspInstance(Z, GroupPresentation(1, (2,)), (SupportedFunction.zero(Z, GroupPresentation(1, (2,))),), 1)
    assert dispatch(I).method == "general"


def test_dispatch_positive_instances_yield_valid_certificates():
    rng = random.Random(77)
    for _ in range(40):
        B = rng.choice((Z2, Z4, Z))
        m = rng.randint(1, 3)
        fs = []
        for _ in range(m):
            terms = tuple(
                (
                    B.element(
                        tuple(rng.randrange(t) for t in B.torsion)
                        + tuple(rng.randint(-2, 2) for _ in range(B.free_rank))
                    ),
                    Z2.element((rng.randrange(2),)),
                )
                for _ in range(rng.randint(0, 2))
            )
            fs.append(SupportedFunction(Z2, B, terms))
        I = QspInstance(Z2, B, tuple(fs), rng.randint(0, 2))
        result = dispatch(I)
        if result.decision == "positive":
            assert verify_certificate(I, result.certificate)
        assert result.decision in ("positive", "negative")


def test_dispatch_monotone_in_h():
    rng = random.Random(78)
    for _ in range(30):
        fs = tuple(
            SupportedFunction(
                Z2,
                Z4,
                tuple(
                    (Z4.element((rng.randrange(4),)), Z2.element((1,)))
                    for _ in range(rng.randint(0, 2))
                ),
            )
            for _ in range(rng.randint(1, 2))
        )
        prev = None
        for h in range(3):
            decision = dispatch(QspInstance(Z2, Z4, fs, h)).decision
            if prev == "positive":
                assert decision == "positive"
            prev = decision


def test_dispatch_deterministic():
    fs = (atom(Z2, Z4, (1,), (0,)), atom(Z2, Z4, (1,), (2,)))
    I = QspInstance(Z2, Z4, fs, 1)
    r1 = dispatch(I)
    r2 = dispatch(I)
    assert r1 == r2


# ---------------------------------------------------------------------------
# oracle agreement


def test_oracle_solve_agrees_with_dispatch_small_family():
    points = list(Z2.elements())
    functions = []
    for coeffs in itertools.product(range(2), repeat=2):
        functions.append(
            SupportedFunction(
                Z2, Z2, tuple((p, Z2.element((c,))) for p, c in zip(points, coeffs))
            )
        )
    for m in (1, 2):
        for fs in itertools.product(functions, repeat=m):
            for h in (0, 1):
                I = QspInstance(Z2, Z2, tuple(fs), h)
                assert oracle_solve(I).decision == dispatch(I).decision


def test_oracle_solve_windowed_z():
    cases = [
        (QspInstance(Z2, Z, (atom(Z2, Z, (1,), (0,)),), 0), "negative"),
        (
            QspInstance(
                Z2, Z, (atom(Z2, Z, (1,), (0,)), atom(Z2, Z, (1,), (2,))), 0
            ),
            "positive",
        ),
        (
            QspInstance(
                Z2,
                Z,
                (atom(Z2, Z, (1,), (0,)) + atom(Z2, Z, (1,), (1,)),),
                1,
            ),
            "positive",
        ),
    ]
    for I, expected in cases:
        assert oracle_solve(I).decision == expected
        assert dispatch(I).decision == expected


# ---------------------------------------------------------------------------
# result plumbing


def test_budget_validation():
    with pytest.raises(ValueError):
        SolverBudget(max_delta_tuples=0)
    with pytest.raises(ValueError):
        SolverBudget(max_seconds=-1)
    with pytest.raises(ValueError):
        SolverBudget(max_seconds=float("nan"))
    # any real number of seconds above 0 is a budget, infinity included
    for seconds in (0.5, 3, math.inf):
        assert SolverBudget(max_seconds=seconds).max_seconds == seconds


# operator.index reads True as 1, so each of these once built Z x Z_2, an
# instance with h = 1 or a budget; the codec rejects a boolean as FORMATS.md
# says, and the library now does too wherever it reads an integer
@pytest.mark.parametrize(
    "build",
    [
        lambda: GroupPresentation(True),
        lambda: GroupPresentation(1, (True, 2)),
        lambda: QspInstance(Z, Z, (), True),
        lambda: OrientableEquation(Z, Z, True, ()),
        lambda: ThreePartInstance((1, 1, True), 1),
        lambda: ThreePartInstance((1, 1, 1), True),
        lambda: ZoeInstance(((True, 0), (0, 1))),
        lambda: SolverBudget(max_delta_tuples=True),
        lambda: SolverBudget(max_delta_tuples=1.5),
        lambda: SolverBudget(max_subgroup_tuples=True),
        lambda: SolverBudget(max_seconds=True),
    ],
    ids=[
        "free-rank", "torsion", "h", "genus", "3part-value", "3part-k",
        "zoe-entry", "delta-cap", "delta-cap-float", "subgroup-cap", "seconds",
    ],
)
def test_a_bool_is_no_integer(build):
    with pytest.raises(ValueError, match="got bool|got float"):
        build()


def test_counters_present():
    I = QspInstance(Z2, Z2, (atom(Z2, Z2, (1,), (0,)),), 0)
    for result in (dispatch(I), oracle_solve(I)):
        assert set(result.counters) == {"delta_tuples", "subgroup_tuples"}
        assert all(isinstance(v, int) for v in result.counters.values())


def test_oracle_ball_past_the_tuple_cap_is_unknown():
    # with m >= 2 functions a ball of more than max_delta_tuples elements
    # means more tuples of the m - 1 free shifts than that, so the oracle
    # gives up before it; the ball's radius is 2 * sum size(f_i)
    fs = (atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (5,)))
    I = QspInstance(Z, Z, fs, 0)
    ball = 2 * (2 * sum(f.size() for f in fs)) + 1
    assert oracle_solve(I, SolverBudget(max_delta_tuples=ball)).decision == "positive"
    result = oracle_solve(I, SolverBudget(max_delta_tuples=ball - 1))
    assert result.decision == "unknown-budget"
    assert result.certificate is None
    assert result.reason == f"ball enumeration exceeded cap {ball - 1}"
    assert result.counters == {"delta_tuples": 0, "subgroup_tuples": 0}


@pytest.mark.parametrize("h, decision", [(0, "negative"), (1, "positive")])
def test_oracle_single_function_builds_no_ball(h, decision):
    # with m = 1 the anchored shift is the only tuple, whatever the cap
    f = atom(Z, Z, (1,), (0,)) + atom(Z, Z, (-1,), (3,))
    I = QspInstance(Z, Z, (f,), h)
    result = oracle_solve(I, SolverBudget(max_delta_tuples=1))
    assert result.decision == decision
    assert result.counters["delta_tuples"] == 1
    if decision == "positive":
        assert result.certificate.deltas == (Z.zero(),)
        assert verify_certificate(I, result.certificate)


def _set_partitions(items):
    """Every partition of items into blocks, each exactly once."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first, *part[i]]] + part[i + 1 :]
        yield [[first], *part]


def test_zero_sum_partitions_match_every_set_partition():
    # the oracle's generator against all set partitions of up to 6 points,
    # kept when every block sums to zero; each kept partition gives its
    # differences to the first point of each block, blocks by first point
    rng = random.Random(1507)
    for trial in range(120):
        A = (Z, Z2, Z4, ZxZ2)[trial % 4]
        points = rng.sample(range(-4, 5), rng.randint(1, 6))
        terms = []
        for p in sorted(points):
            c = A.zero()
            while c.is_zero():
                free = tuple(rng.randint(-2, 2) for _ in range(A.free_rank))
                c = A.element(tuple(rng.randrange(t) for t in A.torsion) + free)
            terms.append((Z.element((p,)), c))
        expected = []
        for part in _set_partitions(list(range(len(terms)))):
            blocks = sorted(sorted(b) for b in part)
            sums = [sum((terms[j][1] for j in b), A.zero()) for b in blocks]
            if all(c.is_zero() for c in sums):
                expected.append(tuple(
                    (terms[j][0] - terms[b[0]][0]).coords for b in blocks for j in b[1:]
                ))
        found = [
            tuple(d.coords for d in gens)
            for gens in _zero_sum_partitions(tuple(terms), _Meter(DEFAULT_BUDGET))
        ]
        assert sorted(found) == sorted(expected), terms
        assert len(set(found)) == len(found)


def test_oracle_charges_each_candidate_block():
    # unit atoms at 0..14 and -15 at 15: the only zero-sum block is the
    # whole support, so the first shift tuple tries 2^15 - 1 blocks, and the
    # budget trips on the 1001st
    f = sum(
        (atom(Z, Z, (1,), (p,)) for p in range(15)), atom(Z, Z, (-15,), (15,))
    )
    I = QspInstance(Z, Z, (f,), 1)
    result = oracle_solve(I, SolverBudget(max_subgroup_tuples=1000))
    assert result.decision == "unknown-budget"
    assert result.reason == "subgroup_tuples exceeded 1000"
    assert result.counters == {"delta_tuples": 1, "subgroup_tuples": 1001}


def test_generated_rank_matches_subgroup_rank():
    # the oracle's rank, from the relations among the generators, against
    # the one the search reads off the subgroup's cached Smith form
    rng = random.Random(1808)
    bases = (ZxZ, GroupPresentation(1, (2,)), GroupPresentation(1, (4,)),
             GroupPresentation(0, (2, 4)))
    ranks = set()
    for trial in range(300):
        B = bases[trial % 4]
        gens = tuple(
            B.element([rng.randint(-3, 3) for _ in range(B.ncoords)])
            for _ in range(rng.randint(0, 4))
        )
        rank = _generated_rank(B, gens)
        assert rank == subgroup_rank(Subgroup(B, gens)), (B, gens)
        ranks.add(rank)
    assert ranks == {0, 1, 2}


# ---------------------------------------------------------------------------
# the anchored search on coordinate tuples


ZxZ2 = GroupPresentation(1, (2,))
ZxZ3 = GroupPresentation(1, (3,))
Z3 = GroupPresentation(0, (3,))


@st.composite
def _torsion_instances(draw):
    """Tiny zero-sum instances whose quotient and coefficients carry torsion.

    Two unit terms go into one or two functions, and a third term at a
    drawn point cancels their total, so negatives are not decided by the
    total sum alone.
    """
    A = draw(st.sampled_from((Z2, Z3, Z)))
    B = draw(st.sampled_from((ZxZ2, ZxZ3)))
    h = draw(st.sampled_from((0, 1)))
    point = st.tuples(st.integers(0, 1), st.integers(0, 1)).map(B.element)
    coeff = st.sampled_from((-1, 1)).map(lambda c: A.element((c,)))
    terms = draw(st.lists(st.tuples(point, coeff), min_size=2, max_size=2))
    split = draw(st.sampled_from((1, 2)))
    groups = [terms] if split == 1 else [terms[:1], terms[1:]]
    fs = [SupportedFunction(A, B, tuple(g)) for g in groups]
    total = sum((f.total_coefficient() for f in fs), A.zero())
    fs[-1] = fs[-1] + SupportedFunction.atom(-total, draw(point))
    return QspInstance(A, B, tuple(fs), h)


# criterion 06's oracle budget: DEFAULT_BUDGET leaves some draws of size
# 10 to 12 undecided
_ORACLE_BUDGET = SolverBudget(
    max_delta_tuples=10**8, max_subgroup_tuples=10**8, max_seconds=600.0
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_torsion_instances())
def test_general_agrees_with_oracle_over_torsion_groups(I):
    ref = oracle_solve(I, _ORACLE_BUDGET)
    assert ref.decision in ("positive", "negative")
    result = solve_general(I)
    assert result.decision == ref.decision
    if result.decision == "positive":
        assert verify_certificate(I, result.certificate)


# Pinned from solve_general once the search anchored the function with the
# most lamps (the 3-PARTITION target) and tried placements in decreasing
# order of lamps: every windowed k = 2 negative over 1..8 and three k = 3
# positives over 4..7.  The same node count and the same certificate mean
# the same search order.  Each row keeps the id it had when the search
# anchored functions in index order; the count in the id is that order's.
@pytest.mark.parametrize(
    "values, k, decision, nodes, deltas",
    [
        pytest.param((4, 4, 4, 4, 4, 6), 2, "negative", 12, None,
                     id="values0-2-negative-714-None"),
        pytest.param((4, 4, 4, 4, 5, 5, 6, 6, 7), 3, "positive", 26,
                     (-7, -11, -27, -43, -22, -38, -16, -32, 0, 0),
                     id="values1-3-positive-170-deltas1"),
        pytest.param((4, 4, 4, 6, 6, 6), 2, "negative", 17, None,
                     id="values2-2-negative-1090-None"),
        pytest.param((5, 5, 5, 5, 5, 7), 2, "negative", 12, None,
                     id="values3-2-negative-1019-None"),
        pytest.param((5, 5, 5, 5, 6, 8), 2, "negative", 25, None,
                     id="values4-2-negative-2464-None"),
        pytest.param((5, 5, 5, 7, 7, 7), 2, "negative", 17, None,
                     id="values5-2-negative-1498-None"),
        pytest.param((5, 5, 5, 7, 8, 8), 2, "negative", 32, None,
                     id="values6-2-negative-3493-None"),
        pytest.param((6, 6, 6, 6, 6, 8), 2, "negative", 12, None,
                     id="values7-2-negative-1378-None"),
        pytest.param((6, 6, 6, 8, 8, 8), 2, "negative", 17, None,
                     id="values8-2-negative-1970-None"),
        pytest.param((6, 8, 8, 8, 8, 8), 2, "negative", 11, None,
                     id="values9-2-negative-728-None"),
        pytest.param((5, 5, 5, 6, 6, 6, 7, 7, 7), 3, "positive", 22,
                     (-13, -32, -51, -7, -26, -45, 0, -19, -38, 0),
                     id="values10-3-positive-197-deltas10"),
        pytest.param((5, 5, 6, 6, 7, 7, 7, 7, 7), 3, "positive", 15,
                     (-14, -34, -47, -53, 0, -7, -20, -27, -40, 0),
                     id="values11-3-positive-183-deltas11"),
    ],
)
def test_general_search_order_pinned_on_3part_h0(values, k, decision, nodes, deltas):
    a = b = Z.element((1,))
    I = gen_3part_h0(ThreePartInstance(values, k), a, b)
    result = solve_general(I)
    assert result.decision == decision
    assert result.counters["delta_tuples"] == nodes
    if deltas is None:
        assert result.certificate is None
    else:
        assert result.certificate.deltas == tuple(Z.element((d,)) for d in deltas)
        assert result.certificate.subgroup_gens == ()


# Placements made, pinned: without the window that rules out, in one step,
# every placement past a function's first unreachable lamp, there would be
# 49, 200 and 88.  Each placement made costs one delta tuple and the root one
# more, so the nodes are the pinned ones above.  The ids name the nodes and
# placements of the index-order anchor.
@pytest.mark.parametrize(
    "values, k, nodes, placements",
    [
        pytest.param((4, 4, 4, 4, 4, 6), 2, 12, 11, id="values0-2-714-177"),
        pytest.param((5, 5, 5, 7, 8, 8), 2, 32, 31, id="values1-2-3493-568"),
        pytest.param((4, 4, 4, 4, 5, 5, 6, 6, 7), 3, 26, 25, id="values2-3-170-58"),
    ],
)
def test_h0_search_places_only_inside_the_window(monkeypatch, values, k, nodes, placements):
    calls = []
    place = solvers._Level.place
    monkeypatch.setattr(
        solvers._Level, "place", lambda *args: calls.append(1) or place(*args)
    )
    a = b = Z.element((1,))
    result = solve_general(gen_3part_h0(ThreePartInstance(values, k), a, b))
    assert (result.counters["delta_tuples"], len(calls)) == (nodes, placements)


# ---------------------------------------------------------------------------
# seeded draws that the search over a Euclidean ball of candidate subgroups
# left undecided or slow: one function over Z^3 built as perfbench's
# _planted_single builds it, zero-sum instances over Z^3, and zero-sum
# negatives over Z^2 whose decisions were computed once by that search
# (0.3-1.2 s each).  A budget of counters only keeps the wall clock out.


COUNTER_BUDGET = SolverBudget(
    max_delta_tuples=10_000, max_subgroup_tuples=10_000, max_seconds=math.inf
)
Z3_FREE = GroupPresentation(3)


def _small(rng, B, r):
    return B.element(tuple(rng.randint(-r, r) for _ in range(B.ncoords)))


def _unit(rng):
    return Z.element((rng.choice((-1, 1)),))


def _planted_single(rng, h):
    """One function over Z^3 that vanishes modulo h planted directions."""
    B = Z3_FREE
    f = SupportedFunction.zero(Z, B)
    for _ in range(h):
        g = SupportedFunction(Z, B, tuple(
            (_small(rng, B, 2), _unit(rng)) for _ in range(3 - h)
        ))
        f = f + g - shift(g, _small(rng, B, 2))
    return QspInstance(Z, B, (shift(f, _small(rng, B, 2)),), h)


def _zero_sum(rng, B, m, h, r=2):
    """m two-atom functions, the last with an atom cancelling the total."""
    fs = [
        SupportedFunction(Z, B, tuple((_small(rng, B, r), _unit(rng)) for _ in range(2)))
        for _ in range(m)
    ]
    total = sum((f.total_coefficient() for f in fs), Z.zero())
    fs[-1] = fs[-1] + SupportedFunction.atom(-total, _small(rng, B, r))
    return QspInstance(Z, B, tuple(fs), h)


def _ball_search_draws():
    """(name, instance, expected decision or None) for the three families."""
    draws = []
    rng = random.Random(3)
    for h, count in ((1, 3), (2, 2)):
        for j in range(count):
            draws.append((f"single-Z3-h{h}-{j}", _planted_single(rng, h), "positive"))
    rng = random.Random(33)
    for j, (m, h) in enumerate(((2, 1), (2, 2), (3, 1), (3, 2), (2, 1), (3, 1))):
        draws.append((f"zero-sum-Z3-m{m}-h{h}-{j}", _zero_sum(rng, Z3_FREE, m, h), None))
    rng = random.Random(22)
    for j in range(12):
        m = 2 + j % 2
        instance = _zero_sum(rng, ZxZ, m, 1)
        if j in (0, 3, 4, 11):
            draws.append((f"negative-Z2-m{m}-h1-{j}", instance, "negative"))
    return draws


@pytest.mark.parametrize(
    "I, expected",
    [pytest.param(I, expected, id=name) for name, I, expected in _ball_search_draws()],
)
def test_ball_search_draws_are_decided(I, expected):
    result = dispatch(I, COUNTER_BUDGET)
    assert result.method == "general"
    assert result.decision in ("positive", "negative"), result.reason
    if expected is not None:
        assert result.decision == expected
    if result.decision == "positive":
        assert verify_certificate(I, result.certificate)


# ---------------------------------------------------------------------------
# the function order: the search anchors the function with the most lamps


@pytest.mark.parametrize("values, k", _DEEP_H0_NEGATIVES)
def test_deep_h0_negatives_are_decided(values, k):
    T = ThreePartInstance(values, k)
    a = b = Z.element((1,))
    result = dispatch(gen_3part_h0(T, a, b), DEFAULT_BUDGET)
    assert result.method == "general"
    assert result.decision == ("positive" if solve_3part_bruteforce(T) else "negative")
    assert result.counters["delta_tuples"] == _DEEP_H0_NEGATIVES[values, k]


def _mixed_sizes(rng, B, m, h):
    """m functions of one to three atoms each, the last one also cancelling
    the total, so that the functions differ in their number of lamps."""
    fs = [
        SupportedFunction(
            Z, B, tuple((_small(rng, B, 2), _unit(rng)) for _ in range(rng.randint(1, 3)))
        )
        for _ in range(m)
    ]
    total = sum((f.total_coefficient() for f in fs), Z.zero())
    fs[-1] = fs[-1] + SupportedFunction.atom(-total, _small(rng, B, 2))
    return QspInstance(Z, B, tuple(fs), h)


@pytest.mark.parametrize(
    "B", [Z, ZxZ, GroupPresentation(1, (2,))], ids=["Z", "ZxZ", "ZxZ2"]
)
def test_function_order_does_not_change_the_decision(B):
    # any function may be anchored, so a permutation of fs may change the
    # search order and the certificate, but not the decision
    rng = random.Random(26)
    decisions = set()
    for j in range(8):
        I = _mixed_sizes(rng, B, 3 + j % 2, j % 2)
        outcomes = set()
        for perm in itertools.permutations(range(len(I.fs))):
            J = QspInstance(I.A, I.B, tuple(I.fs[i] for i in perm), I.h)
            result = dispatch(J, COUNTER_BUDGET)
            assert result.decision in ("positive", "negative"), result.reason
            if result.decision == "positive":
                assert verify_certificate(J, result.certificate)
            outcomes.add(result.decision)
        assert len(outcomes) == 1, (j, outcomes)
        decisions |= outcomes
    assert decisions == {"positive", "negative"}


# ---------------------------------------------------------------------------
# the growth pass against a reference that never grows N: at h = 1 a witness
# subgroup has rank <= 1, so it is cyclic, <d>, and I is positive exactly
# when the pushforward of I to B/<d> is positive at h = 0 for some d.


def _free_diameter(f):
    """Largest sup-norm distance between two points of f, free coordinates
    only."""
    t = len(f.base_group.torsion)
    points = [p.coords[t:] for p, _ in f.terms]
    return max(
        (abs(a - b) for p in points for q in points for a, b in zip(p, q)), default=0
    )


def _cyclic_reference(I):
    """Decide I (h = 1) by the h = 0 search over B/<d> for each d in a box.

    The box holds every torsion value and free coordinates in [-R, R], for R
    the sum of the functions' free diameters, which is at most size(I).  A
    witness over B/<d> whose d has a free coordinate beyond R lifts to B:
    lift each class of functions linked by shared points along a spanning
    tree; two lifted points over the same point of B/<d> then differ by a
    multiple of d whose free part is at most R in sup norm, so by zero.
    Such a d therefore adds nothing to d = 0, which the box holds.
    """
    B = I.B
    R = sum(map(_free_diameter, I.fs))
    assert R <= I.size()
    box = [range(a) for a in B.torsion] + [range(-R, R + 1)] * B.free_rank
    for d in itertools.product(*box):
        N = Subgroup(B, (B.element(d),))
        pushed = tuple(pushforward(f, N) for f in I.fs)
        Q = pushed[0].base_group
        result = solve_general(QspInstance(I.A, Q, pushed, 0), COUNTER_BUDGET)
        assert result.decision in ("positive", "negative"), result.reason
        if result.decision == "positive":
            return "positive"
    return "negative"


def test_growth_pass_agrees_with_cyclic_reference():
    rng = random.Random(5)
    bases = (ZxZ, GroupPresentation(1, (2,)), GroupPresentation(1, (3,)))
    decisions = []
    for j in range(36):
        I = _zero_sum(rng, bases[j % 3], 2 + (j // 3) % 2, 1, r=1)
        result = dispatch(I, COUNTER_BUDGET)
        assert result.method == "general"
        assert result.decision == _cyclic_reference(I), j
        if result.decision == "positive":
            assert verify_certificate(I, result.certificate)
        decisions.append(result.decision)
    assert decisions.count("negative") >= 6


# ---------------------------------------------------------------------------
# the box at every h: after qsp.normalize_deltas, every generator that
# make_certificate reads off the shifted sum has each free coordinate j
# within R_j, the sum of the functions' diameters in coordinate j (the
# lemma in normalize_deltas's docstring), whatever the rank of N


def _free_diameters(f):
    """Per free coordinate j, the largest |a_j - b_j| over two points of f."""
    B = f.base_group
    t = len(B.torsion)
    columns = list(zip(*(p.coords[t:] for p, _ in f.terms)))
    return tuple(max(c) - min(c) for c in columns) if columns else (0,) * B.free_rank


def _outside_box(I, cert):
    """The generators of cert with a free coordinate j beyond R_j."""
    R = [sum(column) for column in zip(*map(_free_diameters, I.fs))]
    t = len(I.B.torsion)
    return [
        g for g in cert.subgroup_gens
        if any(abs(c) > r for c, r in zip(g.coords[t:], R))
    ]


def _box_draws():
    rng = random.Random(5)
    for j in range(180):
        B = (ZxZ, ZxZ2, ZxZ3)[j % 3]
        yield _zero_sum(rng, B, 2 + (j // 3) % 2, 1, r=1)
    for values in ((1, 1, 1), (2, 2, 3)):
        for rank in (2, 3):
            yield gen_3part_midh(ThreePartInstance(values, 1), rank)
    for j in range(12):
        yield _planted_single(rng, 1 + j % 2)


def test_normalized_certificates_lie_in_the_box_at_every_h():
    rng = random.Random(5)
    positives = with_gens = spread_outside = 0
    for I in _box_draws():
        result = dispatch(I, COUNTER_BUDGET)
        if result.decision != "positive":
            continue
        positives += 1
        gens = result.certificate.subgroup_gens
        N = Subgroup(I.B, gens)
        deltas = result.certificate.deltas
        if gens:
            # a multiple of a generator of N keeps the equation
            with_gens += 1
            deltas = tuple(
                d + rng.choice(gens).scale(rng.choice((-1, 1)) * rng.randint(50, 500))
                for d in deltas
            )
            assert satisfies_equation(I.fs, deltas, N)
            spread_outside += len(_outside_box(I, make_certificate(I, deltas, N)))
        out = normalize_deltas(I.fs, deltas, N)
        cert = make_certificate(I, out, N)
        assert verify_certificate(I, cert)
        assert _outside_box(I, cert) == []
        bound = sum(f.size() for f in I.fs)
        assert all(abelian.geodesic_length(I.B, d) <= bound for d in out)
    assert positives >= 150 and with_gens >= 140
    # the spread put generators outside the box, which normalization undid
    assert spread_outside > 100


# ---------------------------------------------------------------------------
# the growth pass on the mid-h 3-PARTITION reduction, pinned: decision,
# counters and certificate.  The isolator prune cuts both counters below
# the bounds, which were the counters before it; (2, 2, 3) at rank 3 ended
# unknown-budget then, at 100 001 subgroup tuples.  The counters also hang on
# the coordinates the Smith form picks for each B/N, which order the search,
# and on the function order: the largest function is anchored first.

MIDH_BUDGET = SolverBudget(
    max_delta_tuples=DEFAULT_BUDGET.max_delta_tuples,
    max_subgroup_tuples=DEFAULT_BUDGET.max_subgroup_tuples,
    max_seconds=math.inf,
)
# the subgroup every rank-3 certificate names: its generators as coordinates
_MIDH_R3_GENS = ((1, 0, 0), (2, -2, 0), (2, -1, 0), (2, 0, 0))
_MIDH_R2_GENS = ((1, 0), (2, 0))
# the same subgroups as named by every pairwise support difference in N
_MIDH_PAIRWISE_GENS = {
    _MIDH_R3_GENS: (
        (-2, 0, 0), (-2, 1, 0), (-2, 2, 0), (-1, 0, 0), (-1, 1, 0), (-1, 2, 0),
        (0, -2, 0), (0, -1, 0), (0, 1, 0), (0, 2, 0), (1, -2, 0), (1, -1, 0),
        (1, 0, 0), (2, -2, 0), (2, -1, 0), (2, 0, 0),
    ),
    _MIDH_R2_GENS: ((-2, 0), (-1, 0), (1, 0), (2, 0)),
}


@pytest.mark.parametrize(
    "values, rank, counters, bound, deltas, gens",
    [
        ((1, 1, 1), 2, (18, 9), (120, 188), ((2, 0), (0, -1), (0, -2), (0, 0)),
         _MIDH_R2_GENS),
        ((2, 2, 2), 2, (68, 55), (1065, 3755), ((2, 0), (0, -2), (0, -4), (0, 0)),
         _MIDH_R2_GENS),
        ((2, 2, 3), 2, (81, 68), (3730, 15351),
         ((0, -3), (0, -5), (2, 0), (0, 0)), _MIDH_R2_GENS),
        ((3, 3, 4), 2, (212, 193), (12972, 78097),
         ((0, -4), (0, -7), (2, 0), (0, 0)), _MIDH_R2_GENS),
        ((1, 1, 1), 3, (113, 96), (1147, 2229),
         ((2, 0, 0), (0, 0, -1), (0, 0, -2), (0, 0, 0)), _MIDH_R3_GENS),
        ((2, 2, 3), 3, (1099, 1039), None,
         ((0, 0, -3), (0, 0, -5), (2, 0, 0), (0, 0, 0)), _MIDH_R3_GENS),
    ],
)
def test_growth_pass_pinned_on_3part_midh(values, rank, counters, bound, deltas, gens):
    I = gen_3part_midh(ThreePartInstance(values, 1), rank)
    result = dispatch(I, MIDH_BUDGET)
    assert (result.decision, result.method) == ("positive", "general"), result.reason
    got = (result.counters["delta_tuples"], result.counters["subgroup_tuples"])
    assert got == counters
    if bound is not None:
        assert got[0] < bound[0] and got[1] < bound[1]
    cert = result.certificate
    assert tuple(d.coords for d in cert.deltas) == deltas
    assert tuple(g.coords for g in cert.subgroup_gens) == gens
    assert verify_certificate(I, cert)
    pairwise = tuple(map(I.B.element, _MIDH_PAIRWISE_GENS[gens]))
    assert abelian._subgroup_key(I.B, cert.subgroup_gens) == abelian._subgroup_key(
        I.B, pairwise
    )


# ---------------------------------------------------------------------------
# the search over a quotient: coordinate terms projected into B/<v> are an
# h = 0 instance of their own


def test_h0_search_over_a_quotient_decides_the_midh_positive():
    I = gen_3part_midh(ThreePartInstance((4, 4, 5, 5, 5, 7), 2), 2)
    v = I.B.element((1, 0))
    form = abelian._subgroup_form(I.B, (v,))
    terms = []
    for f in I.fs:
        pairs = ((form.project_coords(p.coords), c.coords) for p, c in f.terms)
        sums = _coeff_sums(I.A, pairs)
        terms.append(tuple(sorted((q, c) for q, c in sums.items() if any(c))))
    meter = _Meter(DEFAULT_BUDGET)
    found = solvers._anchored_search(I.A, form.Q, terms, 0, meter)
    assert found is not None
    assert meter.counters == {"delta_tuples": 12, "subgroup_tuples": 0}
    deltas, N = found
    assert N.generators == ()
    cert = make_certificate(I, [form.lift(d) for d in deltas], Subgroup(I.B, (v,)))
    assert verify_certificate(I, cert)
    # the growth pass still runs out of subgroup tuples on it
    result = dispatch(I, MIDH_BUDGET)
    assert result.decision == "unknown-budget"
    assert result.counters == {"delta_tuples": 102_636, "subgroup_tuples": 100_001}


# ---------------------------------------------------------------------------
# a grown N of torsion-free rank h = free rank of B has finite index, so
# B/I(N) is trivial: the reachability test there could only compare the
# total, which is zero, and no grown level runs it


def test_grown_levels_of_finite_index_run_no_reachability_test(monkeypatch):
    grown, tested = [], []

    class Level(solvers._Level):
        def __init__(self, *args):
            super().__init__(*args)
            if self.gens:
                grown.append(self)

        def cancellable(self, ids, sum_d):
            if self.gens:
                tested.append(self)
            return super().cancellable(ids, sum_d)

    monkeypatch.setattr(solvers, "_Level", Level)
    rng = random.Random(34)
    decisions = set()
    for j in range(40):
        # two functions keep the oracle fast
        I = _zero_sum(rng, (ZxZ2, ZxZ3)[j % 2], 2, 1, r=1)
        result = dispatch(I, COUNTER_BUDGET)
        assert result.decision == oracle_solve(I, _ORACLE_BUDGET).decision
        decisions.add(result.decision)
    # levels where B/N is finite, which the test would otherwise visit
    assert any(not lvl.form.Q.free_rank for lvl in grown) and not tested
    assert decisions == {"positive", "negative"}


# ---------------------------------------------------------------------------
# certificate checks under python -O


def test_certificate_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        import sys
        from wreath_dio import solvers
        from wreath_dio.abelian import GroupPresentation
        from wreath_dio.group_ring import SupportedFunction, shift
        from wreath_dio.qsp import QspInstance

        if __debug__:
            sys.exit("the child runs without -O")
        solvers.verify_certificate = lambda I, cert: False
        Z = GroupPresentation(1)
        trivial_a = QspInstance(GroupPresentation(0), Z, (), 0)
        pair = QspInstance(Z, Z, (
            SupportedFunction.atom(Z.element((1,)), Z.element((0,))),
            SupportedFunction.atom(Z.element((-1,)), Z.element((5,))),
        ), 0)
        big_h = QspInstance(Z, Z, pair.fs, 1)
        cases = (("trivial A", trivial_a), ("positive", pair), ("big-h", big_h))
        for name, I in cases:
            try:
                solvers.dispatch(I)
            except AssertionError:
                continue
            sys.exit(f"{name}: a failed verification went unnoticed")
        print("ok")
        """
    )
    package_root = pathlib.Path(wreath_dio.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# no derived data memoized on the objects a caller keeps


def _kept_objects(I, cert):
    objs = [I, I.A, I.B, *I.fs]
    for f in I.fs:
        for p, a in f.terms:
            objs += [p, a]
    if cert is not None:
        objs += [cert, *cert.deltas, *cert.subgroup_gens]
    return objs


def _fields(o):
    """o's attributes: its __dict__, or its slot values if it has none."""
    if hasattr(o, "__dict__"):
        return dict(vars(o))
    return {s: getattr(o, s) for s in type(o).__slots__}


def _snapshot(objs):
    return [(o, _fields(o)) for o in objs]


def _assert_unchanged(snapshot):
    for o, before in snapshot:
        after = _fields(o)
        assert after.keys() == before.keys(), (type(o).__name__, after.keys())
        assert all(after[k] is before[k] for k in before), type(o).__name__


@pytest.mark.parametrize(
    "I",
    [
        gen_3part_h0(ThreePartInstance((4, 4, 4, 4, 5, 5, 6, 6, 7), 3),
                     Z.element((1,)), Z.element((1,))),
        QspInstance(Z2, ZxZ, (atom(Z2, ZxZ, (1,), (0, 0)), atom(Z2, ZxZ, (1,), (1, 1))), 1),
        QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (3,))), 1),
        QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)), atom(Z, Z, (2,), (1,))), 0),
    ],
    ids=["3part-h0", "z2-over-zxz-h1", "big-h", "negative"],
)
def test_solve_and_verify_leave_kept_objects_unchanged(I):
    # the instance, its functions, the certificate and their elements outlive
    # a call; derived data memoized on them (a cached_property, say) would
    # make a repeated call cheaper than a cold one and survive cache clearing
    before = _snapshot(_kept_objects(I, None))
    result = dispatch(I)
    cert = result.certificate
    after_dispatch = _snapshot(_kept_objects(I, cert))
    if cert is not None:
        assert verify_certificate(I, cert)
        make_certificate(I, cert.deltas, Subgroup(I.B, cert.subgroup_gens))
    assert dispatch(I).certificate == cert
    _assert_unchanged(before)
    _assert_unchanged(after_dispatch)


def test_oracle_repeats_counters_and_budget_outcome():
    # a repeated oracle call reports the counters and the unknown-budget
    # outcome of the first one; at h = 0 every shift tuple before the
    # aligned one tries a block
    fs = (atom(Z2, ZxZ, (1,), (0, 0)), atom(Z2, ZxZ, (1,), (1, 2)))
    I = QspInstance(Z2, ZxZ, fs, 0)
    first = oracle_solve(I)
    assert first.decision == "positive"
    assert oracle_solve(I).counters == first.counters
    assert first.counters["subgroup_tuples"] > 0
    tight = SolverBudget(max_subgroup_tuples=first.counters["subgroup_tuples"] - 1)
    for _ in range(2):
        result = oracle_solve(I, tight)
        assert result.decision == "unknown-budget"
        assert result.reason.startswith("subgroup_tuples exceeded")


# ---------------------------------------------------------------------------
# _Level.place with a reach set, which stops at the first unreachable
# coefficient, against a full placement followed by _Level.cancellable


def _reducer(G):
    """G's reduction of integer coordinates, written out here: torsion
    coordinates mod alpha_i, free ones unchanged."""
    t = len(G.torsion)

    def reduce(coords):
        v = tuple(coords)
        return tuple(c % a for c, a in zip(v, G.torsion)) + v[t:]

    return reduce


def _level_reducers(B, lvl):
    """The reductions of B/N, for the level's N, and of A."""
    Q = solvers._subgroup_form(B, lvl.gens).Q
    return _reducer(Q), _reducer(lvl.A)


def _full_place(reducers, sum_d, terms, delta):
    """Add every lamp, shifted by delta, into sum_d; return an undo log."""
    red_q, red_a = reducers
    undo = []
    for point, coeff in terms:
        p = red_q(map(operator.sub, point, delta))
        old = sum_d.get(p)
        undo.append((p, old))
        if old is None:
            sum_d[p] = coeff
            continue
        new = red_a(map(operator.add, old, coeff))
        if any(new):
            sum_d[p] = new
        else:
            del sum_d[p]
    return undo


def test_place_with_reach_matches_full_placement_then_prune(monkeypatch):
    rng = random.Random(20)
    Z3 = GroupPresentation(0, (3,))
    bases = (Z, Z2, GroupPresentation(1, (2,)), ZxZ)
    cases = ("stopped", "vanished", "no-reach", "kept")
    seen = dict.fromkeys(cases, 0)
    for _ in range(300):
        B = rng.choice(bases)
        A = rng.choice((Z, Z3))

        def lamps(count):
            return tuple(
                (_small(rng, B, 2), A.element((rng.choice((-2, -1, 1, 2)),)))
                for _ in range(count)
            )

        fs = tuple(
            SupportedFunction(A, B, lamps(rng.randint(1, 3)))
            for _ in range(rng.randint(2, 4))
        )
        gens = ()
        if rng.random() < 0.5:
            gens = (_small(rng, B, 2),)
            if not any(gens[0].coords):
                gens = ()
        # h = 0 keeps drop = 0: the prune compares coefficients in B/N itself
        new, ref = (solvers._Level(A, B, _coords(fs), gens, 0) for _ in range(2))
        if not new.gs:
            continue
        reducers = _level_reducers(B, new)
        red_q = reducers[0]
        cap = rng.choice((solvers._REACH_CAP, 2))
        monkeypatch.setattr(solvers, "_REACH_CAP", cap)
        vids = sorted(set(new.vids.values()))
        for _ in range(4):
            # a partial sum that function j, shifted by s, cancels, plus up
            # to two more lamps; half the time j is placed, shifted by s
            j = rng.randrange(len(fs))
            s = _small(rng, B, 2)
            pairs = [((b + s).coords, (-c).coords) for b, c in fs[j].terms]
            pairs += [(b.coords, c.coords) for b, c in lamps(rng.randint(0, 2))]
            sum_new, sum_ref = new.push(pairs), ref.push(pairs)
            if not sum_new:
                continue
            if j in new.gs and rng.random() < 0.5:
                i, b = j, fs[j].terms[0][0]
                point, p = new.coset(b.coords), new.coset((b + s).coords)
                ref.coset(b.coords), ref.coset((b + s).coords)
            else:
                i = rng.choice(sorted(new.gs))
                point = rng.choice(new.gs[i])[0]
                p = rng.choice(sorted(sum_new))
            terms = new.gs[i]
            delta = red_q(map(operator.sub, point, p))
            ids = tuple(sorted(rng.choice(vids) for _ in range(rng.randint(0, 3))))

            # the search passes a reach set only where the level tests in place
            reach = new.reach(ids) if new.in_place else None
            undo = new.place(sum_new, terms, delta, reach)
            kept = undo is not None and (not sum_new or new.cancellable(ids, sum_new))
            undo_ref = _full_place(reducers, sum_ref, terms, delta)
            expected = not sum_ref or ref.cancellable(ids, sum_ref)
            assert kept == expected
            seen["vanished"] += not sum_ref
            if undo is not None:
                assert sum_new == sum_ref
                new.unplace(sum_new, undo)
            ref.unplace(sum_ref, undo_ref)
            assert sum_new == sum_ref

            seen["stopped"] += undo is None
            seen["no-reach"] += reach is None and bool(ids) and new.in_place
            seen["kept"] += kept
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# the placement window: at N = 0 over a free B, a function's placements stop
# at its first lamp outside the reach set, and the rest are never made


def _placement_groups(B, calls):
    """The place calls grouped by node and function, as (level, partial sum,
    terms, reach set, indices of the lamps put on p); the indices of one
    group rise, since a node places a function's lamps in order."""
    groups, open_groups = [], {}
    for lvl, items, terms, delta, reach, _stopped in calls:
        red_q = _level_reducers(B, lvl)[0]
        p = items[0][0]
        t = next(
            t for t, (point, _c) in enumerate(terms)
            if red_q(map(operator.sub, point, p)) == delta
        )
        key = (id(lvl), items, terms, id(reach))
        group = open_groups.get(key)
        if group is None or t <= group[-1][-1]:
            group = open_groups[key] = (lvl, items, terms, reach, [])
            groups.append(group)
        group[-1].append(t)
    return groups


def test_window_skips_only_placements_the_full_prune_rejects(monkeypatch):
    rng = random.Random(21)
    Z3 = GroupPresentation(0, (3,))
    bases = (Z, ZxZ, GroupPresentation(1, (2,)), Z2)
    seen = dict.fromkeys(
        ("skipped", "torsion", "negatives", "grown stopped", "grown skipped"), 0
    )
    calls = []
    place = solvers._Level.place

    def spy(lvl, sum_d, terms, delta, reach=None):
        items = tuple(sorted(sum_d.items()))
        undo = place(lvl, sum_d, terms, delta, reach)
        if items:  # the anchor places one lamp on an empty sum
            calls.append((lvl, items, terms, delta, reach, undo is None))
        return undo

    monkeypatch.setattr(solvers._Level, "place", spy)
    for _ in range(240):
        B = rng.choice(bases)
        A = rng.choice((Z, Z3))
        h = rng.choice((0, 1)) if B is ZxZ else 0
        fs = [
            SupportedFunction(A, B, tuple(
                (_small(rng, B, 2), A.element((rng.choice((-2, -1, 1, 2)),)))
                for _ in range(rng.randint(1, 3))
            ))
            for _ in range(rng.randint(3, 5))
        ]
        total = sum((f.total_coefficient() for f in fs), A.zero())
        fs[-1] = fs[-1] + SupportedFunction.atom(-total, _small(rng, B, 2))
        if any(f.is_zero() for f in fs):
            continue
        calls.clear()
        meter = _Meter(COUNTER_BUDGET)
        # a positive ends with placements not yet made; a negative makes or
        # skips every one
        try:
            if solvers._anchored_search(A, B, _coords(fs), h, meter) is not None:
                continue
        except BudgetExceeded:
            continue
        seen["negatives"] += 1

        def rejected(lvl, items, terms, delta, reach):
            """Whether the full placement fails the full prune."""
            ids = next(ids for ids, r in lvl._reach.items() if r is reach)
            sum_d = dict(items)
            _full_place(_level_reducers(B, lvl), sum_d, terms, delta)
            return sum_d and not lvl.cancellable(ids, sum_d)

        for lvl, items, terms, delta, reach, stopped in calls:
            # placements test in place only where the level says so
            assert reach is None or lvl.in_place
            if stopped:
                assert rejected(lvl, items, terms, delta, reach)
                seen["grown stopped"] += bool(lvl.gens)
        for lvl, items, terms, reach, tried in _placement_groups(B, calls):
            assert tried == list(range(len(tried)))
            if reach is None or not lvl.free:
                # no window: translation wraps modulo the torsion of B/N
                assert len(tried) == len(terms)
                seen["torsion"] += reach is not None
                continue
            red_q = _level_reducers(B, lvl)[0]
            p = items[0][0]
            for point, _coeff in terms[len(tried):]:
                delta = red_q(map(operator.sub, point, p))
                assert rejected(lvl, items, terms, delta, reach)
                seen["skipped"] += 1
                seen["grown skipped"] += bool(lvl.gens)
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# the root level, N = 0, takes each function's own terms: they must be what
# a push of every term through B's projection, merged, would give


def _pushed_root(fs, B, A):
    """(gs, vids) of N = 0 as a plain push builds them: project every term
    point, merge coefficients per point in a dict, drop zeros, sort."""
    project = solvers._subgroup_form(B, ()).project_coords
    red_a = _reducer(A)
    gs = {}
    for i, f in enumerate(fs):
        sums = {}
        for p, c in f.terms:
            q = project(p.coords)
            old = sums.get(q, (0,) * A.ncoords)
            sums[q] = red_a(map(operator.add, old, c.coords))
        terms = sorted((q, c) for q, c in sums.items() if any(c))
        if terms:
            gs[i] = tuple(terms)
    value_id = {}
    vids = {i: value_id.setdefault(t, len(value_id)) for i, t in gs.items()}
    return gs, vids


def _root_functions(rng, A, B):
    """Functions over (A, B) built by every route that makes one: the
    constructor on unsorted, repeated and zero-coefficient terms, +, -,
    shift, and the codec."""

    def element(G, window=3):
        return G.element(tuple(rng.randint(-window, window) for _ in range(G.ncoords)))

    def raw_terms():
        terms = [(element(B), element(A)) for _ in range(rng.randint(0, 5))]
        terms += [(p, element(A)) for p, _ in terms[: rng.randint(0, 2)]]
        terms += [(element(B), A.zero()) for _ in range(rng.randint(0, 1))]
        rng.shuffle(terms)
        return terms

    f = SupportedFunction(A, B, tuple(raw_terms()))
    g = SupportedFunction(A, B, tuple(raw_terms()))
    decoded = codec.decode_function(A, B, {"terms": [
        {"point": [rng.randint(-9, 9) for _ in range(B.ncoords)],
         "coeff": [rng.randint(-9, 9) for _ in range(A.ncoords)]}
        for _ in range(rng.randint(0, 5))
    ]})
    return [f, g, f + g, f - g, g - g, shift(f, element(B)), -g, decoded, f]


@pytest.mark.parametrize("B", [Z, ZxZ, GroupPresentation(1, (2,)),
                               GroupPresentation(0, (2, 4))])
@pytest.mark.parametrize("A", [Z, Z2, GroupPresentation(1, (2,))])
def test_root_level_takes_the_terms_a_push_would_give(A, B):
    rng = random.Random(f"root:{A}:{B}")
    red_a = _reducer(A)
    for _ in range(40):
        fs = _root_functions(rng, A, B)
        rng.shuffle(fs)
        gs, vids = _pushed_root(fs, B, A)
        for h in (0, 1):
            lvl = solvers._Level(A, B, _coords(fs), (), h)
            assert lvl.gs == gs
            assert lvl.vids == vids
            if not lvl.drop:
                # the lamp sets read the distinct points' values directly
                assert lvl._lamps() == {
                    vids[i]: {red_a(-x for x in c) for _p, c in terms}
                    for i, terms in gs.items()
                }


# ---------------------------------------------------------------------------
# _Level.lift: a B-point of a point of B/N, asked for only by a growth, its
# push and the witness's shifts


_LIFT_BASES = (GroupPresentation(0, (2, 4)), ZxZ3, ZxZ2, ZxZ)


@st.composite
def _lift_draws(draw):
    """A base, one or two generators of N, zero-sum functions over it, and
    B-points whose cosets no level has met."""
    B = draw(st.sampled_from(_LIFT_BASES))
    point = st.tuples(*[st.integers(-3, 3)] * B.ncoords).map(B.element)
    unit = st.sampled_from((-1, 1)).map(lambda c: Z.element((c,)))
    gens = tuple(draw(st.lists(point, min_size=1, max_size=2)))
    terms = st.lists(st.tuples(point, unit), min_size=1, max_size=3)
    fs = [
        SupportedFunction(Z, B, tuple(draw(terms))) for _ in range(draw(st.integers(2, 3)))
    ]
    total = sum((f.total_coefficient() for f in fs), Z.zero())
    fs[-1] = fs[-1] + SupportedFunction.atom(-total, draw(point))
    return B, gens, tuple(fs), draw(st.lists(point, max_size=4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_lift_draws())
def test_lift_is_a_section_of_the_projection(draw):
    B, gens, fs, points = draw
    terms = _coords(fs)
    assert solvers._Level(Z, B, terms, (), 1).lift((0,) * B.ncoords) == (0,) * B.ncoords
    # points whose B-point coset() kept, then points lifted through the
    # Smith form
    lvl = solvers._Level(Z, B, terms, gens, 1)
    qs = [q for terms in lvl.gs.values() for q, _c in terms]
    qs += [lvl.project(b.coords) for b in points]
    for q in qs:
        assert lvl.project(lvl.lift(q)) == q
    # every point the growth pass lifts, at levels of one or two generators
    # and more
    lifted = []
    lift = solvers._Level.lift

    def spy(level, q):
        b = lift(level, q)
        lifted.append((level, q, b))
        return b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers._Level, "lift", spy)
        try:
            solvers._anchored_search(Z, B, terms, 1, _Meter(COUNTER_BUDGET))
        except BudgetExceeded:
            pass
    for level, q, b in lifted:
        assert level.project(b) == q


def test_witness_placed_at_a_grown_level_verifies_and_the_oracle_agrees(monkeypatch):
    # the placements still applied when the search returns are the
    # witness's; one at a level with generators has its shift lifted there
    applied = {}
    place, unplace = solvers._Level.place, solvers._Level.unplace

    def spy_place(lvl, sum_d, terms, delta, reach=None):
        undo = place(lvl, sum_d, terms, delta, reach)
        if undo is not None:
            applied[id(undo)] = lvl
        return undo

    def spy_unplace(sum_d, undo):
        applied.pop(id(undo), None)
        unplace(sum_d, undo)

    monkeypatch.setattr(solvers._Level, "place", spy_place)
    monkeypatch.setattr(solvers._Level, "unplace", staticmethod(spy_unplace))
    rng = random.Random(0)
    bases = (ZxZ, ZxZ2, ZxZ3, GroupPresentation(0, (2, 4)))
    found = 0
    for j in range(60):
        I = _zero_sum(rng, bases[j % 4], 2 + (j // 4) % 2, 1, r=1)
        applied.clear()
        result = dispatch(I, COUNTER_BUDGET)
        if result.decision != "positive" or not any(lvl.gens for lvl in applied.values()):
            continue
        found += 1
        assert verify_certificate(I, result.certificate)
        assert oracle_solve(I, _ORACLE_BUDGET).decision == "positive"
    assert found


def test_h0_solves_lift_nothing_through_a_smith_form(monkeypatch):
    # at N = 0 each point is its own B-point: no U^-1 is ever built
    calls = []
    inverse = abelian._unimodular_inverse
    monkeypatch.setattr(
        abelian, "_unimodular_inverse", lambda M: calls.append(M) or inverse(M)
    )
    abelian._subgroup_form.cache_clear()
    abelian._keyed_form.cache_clear()
    for I in _h0_instances():
        assert dispatch(I).decision in ("positive", "negative")
    assert calls == []


# ---------------------------------------------------------------------------
# the memo builds a node's translated partial sum only when a failed state
# with the same value ids exists, or when the node itself fails


class _CountingMemo(dict):
    """A level's memo that counts its lookups, and those that find a failed
    state with the same value ids."""

    lookups = matched = 0

    def get(self, ids, default=None):
        found = super().get(ids, default)
        self.lookups += 1
        self.matched += bool(found)
        return found


@pytest.mark.parametrize(
    "values, k, decision, lookups, failed, matched",
    [
        ((4, 4, 4, 5, 6, 7), 2, "positive", 10, 2, 0),
        ((5, 5, 5, 7, 8, 8), 2, "negative", 18, 13, 5),
        ((11, 11, 11, 11, 12, 13, 13, 14, 14, 15, 16, 19), 4, "negative", 479, 237, 242),
    ],
)
def test_memo_builds_a_body_per_failed_state_and_matched_lookup(
    monkeypatch, values, k, decision, lookups, failed, matched
):
    # a memo keyed on the whole state builds a body at every lookup; here
    # each lookup whose ids match a failed state is a hit, so a body is
    # built once per failed state and once per hit
    levels, bodies = [], []
    body = solvers._state_body
    monkeypatch.setattr(
        solvers, "_state_body", lambda *args: bodies.append(1) or body(*args)
    )

    class Level(solvers._Level):
        def __init__(self, *args):
            super().__init__(*args)
            self.memo = _CountingMemo()
            levels.append(self)

    monkeypatch.setattr(solvers, "_Level", Level)
    a = b = Z.element((1,))
    result = solve_general(gen_3part_h0(ThreePartInstance(values, k), a, b))
    assert result.decision == decision
    got = (
        sum(lvl.memo.lookups for lvl in levels),
        sum(len(states) for lvl in levels for states in lvl.memo.values()),
        sum(lvl.memo.matched for lvl in levels),
    )
    assert got == (lookups, failed, matched)
    assert len(bodies) == failed + matched
