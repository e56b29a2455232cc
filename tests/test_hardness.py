"""Reductions from numeric partition problems into the quotient sum setting."""

import itertools
import json

import pytest

from wreath_dio.abelian import GroupPresentation, Subgroup, subgroup_contains
from wreath_dio.codec import canonical_json, decode_instance, encode_instance
from wreath_dio.hardness import (
    ThreePartInstance,
    ZoeInstance,
    gen_3part_h0,
    gen_3part_midh,
    gen_zoe,
    solve_3part_bruteforce,
    solve_zoe_bruteforce,
)
from wreath_dio.qsp import QspInstance
from wreath_dio.solvers import dispatch

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
Z4 = GroupPresentation(0, (4,))

A_UNIT = Z.element((1,))
B_UNIT = Z.element((1,))


# ---------------------------------------------------------------------------
# source-problem containers


def test_3part_target_and_scale():
    T = ThreePartInstance((1, 1, 1), 1)
    assert T.target == 3
    assert T.scale == 4  # k * (L + 1)
    T2 = ThreePartInstance((4, 4, 4, 6, 6, 6), 2)
    assert T2.target == 15
    assert T2.scale == 32


def test_3part_values_sorted():
    T = ThreePartInstance((6, 4, 6, 4, 6, 4), 2)
    assert T.values == (4, 4, 4, 6, 6, 6)


def test_3part_validation():
    with pytest.raises(ValueError):
        ThreePartInstance((1, 2, 3), 1)  # L = 6: 1 and 3 fall outside (1.5, 3)
    with pytest.raises(ValueError):
        ThreePartInstance((1, 1), 1)  # not 3k values
    with pytest.raises(ValueError):
        ThreePartInstance((4, 4, 4, 6, 6, 7), 2)  # sum 31 not divisible by k
    with pytest.raises(ValueError):
        ThreePartInstance((0, 1, 2), 1)  # nonpositive value
    with pytest.raises(ValueError):
        ThreePartInstance((1, 1, 1), 0)


def test_3part_window_is_strict():
    # values exactly at the quarter boundary are rejected: t = L/4 not allowed
    with pytest.raises(ValueError):
        ThreePartInstance((2, 3, 3), 1)  # L = 8, window (2, 4) excludes 2


def test_zoe_validation():
    ZoeInstance(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        ZoeInstance(((1, 2), (0, 1)))  # entry outside {0,1}
    with pytest.raises(ValueError):
        ZoeInstance(((1, 0),))  # not square
    with pytest.raises(ValueError):
        ZoeInstance(())


# int() would truncate 4.9 to 4 and read "4" as 4; both are rejected, as
# GroupPresentation rejects a float rank
@pytest.mark.parametrize(
    "build",
    [
        lambda: ThreePartInstance((4.9, 4, 4, 6, 6, 6), 2),
        lambda: ThreePartInstance((4.0, 4, 4, 6, 6, 6), 2),
        lambda: ThreePartInstance(("4", "4", "4", "6", "6", "6"), 2),
        lambda: ThreePartInstance((1, 1, 1), 1.0),
        lambda: ThreePartInstance((1, 1, 1), "1"),
        lambda: ZoeInstance(((0.5, 1), (1, 0.9))),
        lambda: ZoeInstance(((1.0, 0), (0, 1))),
        lambda: ZoeInstance((("1", 0), (0, 1))),
    ],
    ids=[
        "3part-float", "3part-integral-float", "3part-string", "3part-float-k",
        "3part-string-k", "zoe-float", "zoe-integral-float", "zoe-string",
    ],
)
def test_non_integer_inputs_are_rejected(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_zoe_columns():
    M = ZoeInstance(((1, 0), (1, 1)))
    assert M.n == 2
    assert M.column(0) == (1, 1)
    assert M.column(1) == (0, 1)


# ---------------------------------------------------------------------------
# brute-force ground truth


def test_3part_bruteforce_examples():
    assert solve_3part_bruteforce(ThreePartInstance((1, 1, 1), 1))
    assert solve_3part_bruteforce(ThreePartInstance((5, 5, 5, 5, 5, 5), 2))
    assert not solve_3part_bruteforce(ThreePartInstance((4, 4, 4, 6, 6, 6), 2))
    assert solve_3part_bruteforce(ThreePartInstance((4, 5, 6, 4, 5, 6), 2))


def test_3part_bruteforce_cap():
    values = tuple([10] * 21)  # k = 7 exceeds the default cap
    with pytest.raises(ValueError):
        solve_3part_bruteforce(ThreePartInstance(values, 7))


def test_zoe_bruteforce_examples():
    assert solve_zoe_bruteforce(ZoeInstance(((1, 0), (0, 1))))
    assert not solve_zoe_bruteforce(ZoeInstance(((1, 1), (0, 0))))
    assert solve_zoe_bruteforce(ZoeInstance(((1, 1), (1, 1))))


def test_zoe_bruteforce_cap():
    n = 21
    M = ZoeInstance(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
    with pytest.raises(ValueError):
        solve_zoe_bruteforce(M)


# ---------------------------------------------------------------------------
# rank-0 construction


def test_h0_shape_and_layout():
    T = ThreePartInstance((1, 1, 1), 1)
    I = gen_3part_h0(T, A_UNIT, B_UNIT)
    assert isinstance(I, QspInstance)
    assert I.h == 0
    assert len(I.fs) == 4  # one block per value plus the negated target
    for f, y in zip(I.fs[:-1], T.values):
        assert [p.coords for p in f.support()] == [(i,) for i in range(y)]
        assert all(a.coords == (1,) for _, a in f.terms)
    target = I.fs[-1]
    assert all(a.coords == (-1,) for _, a in target.terms)


def test_h0_target_leaves_one_unlit_gap_between_clusters():
    T = ThreePartInstance((4, 4, 4, 6, 6, 6), 2)
    I = gen_3part_h0(T, A_UNIT, B_UNIT)
    pts = sorted(p.coords[0] for p in I.fs[-1].support())
    L = T.target
    assert pts == list(range(L)) + list(range(L + 1, 2 * L + 1))


def test_h0_roundtrip_examples():
    T_pos = ThreePartInstance((1, 1, 1), 1)
    assert dispatch(gen_3part_h0(T_pos, A_UNIT, B_UNIT)).decision == "positive"
    T_neg = ThreePartInstance((4, 4, 4, 6, 6, 6), 2)
    assert dispatch(gen_3part_h0(T_neg, A_UNIT, B_UNIT)).decision == "negative"
    T_pos2 = ThreePartInstance((5, 5, 5, 5, 5, 5), 2)
    assert dispatch(gen_3part_h0(T_pos2, A_UNIT, B_UNIT)).decision == "positive"


def test_h0_torsion_coefficients_still_positive():
    # order-2 coefficients keep the yes-direction intact
    T = ThreePartInstance((1, 1, 1), 1)
    I = gen_3part_h0(T, Z2.element((1,)), B_UNIT)
    assert dispatch(I).decision == "positive"


def test_h0_alternative_groups():
    # lamps along the second axis of Z^2
    B = GroupPresentation(2)
    T = ThreePartInstance((1, 1, 1), 1)
    I = gen_3part_h0(T, A_UNIT, B.element((0, 1)))
    assert dispatch(I).decision == "positive"


def test_h0_rejects_bad_generators():
    T = ThreePartInstance((1, 1, 1), 1)
    with pytest.raises(ValueError):
        gen_3part_h0(T, Z.element((0,)), B_UNIT)  # zero coefficient atom
    with pytest.raises(ValueError):
        gen_3part_h0(T, A_UNIT, Z4.element((1,)))  # finite-order lamp step
    mixed = GroupPresentation(1, (2,))
    with pytest.raises(ValueError):
        gen_3part_h0(T, A_UNIT, mixed.element((1, 0)))  # torsion move


def test_h0_unary_cap():
    T = ThreePartInstance((1500, 1500, 1502), 1)
    with pytest.raises(ValueError):
        gen_3part_h0(T, A_UNIT, B_UNIT)


# ---------------------------------------------------------------------------
# mid-rank construction


def test_midh_rank_one_matches_h0():
    for values, k in (((1, 1, 1), 1), ((4, 4, 4, 6, 6, 6), 2)):
        T = ThreePartInstance(values, k)
        mid = gen_3part_midh(T, 1)
        flat = gen_3part_h0(T, A_UNIT, B_UNIT)
        assert mid.h == 0
        assert dispatch(mid).decision == dispatch(flat).decision


def test_midh_shape_and_sentinels():
    T = ThreePartInstance((1, 1, 1), 1)
    I = gen_3part_midh(T, 3)
    assert I.A == Z
    assert I.B == GroupPresentation(3)
    assert I.h == 2
    target = I.fs[-1]
    M = T.scale
    # blocks march along the last axis; the negated target carries, for each
    # i in 1..h-1, -2^i*M at -b_i and +2^i*M at -2*b_i
    for i in (1, 2):
        b_i = tuple(1 if j == i - 1 else 0 for j in range(3))
        minus = tuple(-x for x in b_i)
        double = tuple(-2 * x for x in b_i)
        assert target.value_at(I.B.element(minus)).coords == (-(2**i) * M,)
        assert target.value_at(I.B.element(double)).coords == ((2**i) * M,)


def test_midh_rejects_bad_rank():
    T = ThreePartInstance((1, 1, 1), 1)
    with pytest.raises(ValueError):
        gen_3part_midh(T, 0)


def test_midh_tiny_positive_with_sentinel_subgroup():
    T = ThreePartInstance((1, 1, 1), 1)
    I = gen_3part_midh(T, 2)
    result = dispatch(I)
    assert result.decision == "positive"
    N = Subgroup(I.B, result.certificate.subgroup_gens)
    assert subgroup_contains(N, I.B.element((1, 0)))  # sentinel axis collapses
    assert not subgroup_contains(N, I.B.element((0, 1)))  # block axis survives


def test_midh_negative_instance_construction():
    # ground truth by exhaustive partition search; the reduction preserves it,
    # so the generated instance is pinned structurally instead of re-solved
    T = ThreePartInstance((4, 4, 4, 6, 6, 6), 2)
    assert not solve_3part_bruteforce(T)
    I = gen_3part_midh(T, 2)
    assert I.h == 1
    assert len(I.fs) == 7
    assert I.B == GroupPresentation(2)
    for f, y in zip(I.fs[:-1], T.values):
        assert [p.coords for p in f.support()] == [(0, i) for i in range(y)]
    # target: 2L+1 block positions minus the gap, plus one sentinel pair
    target = I.fs[-1]
    block_pts = [p for p in target.support() if p.coords[0] == 0]
    assert len(block_pts) == 2 * T.target
    assert target.value_at(I.B.element((-1, 0))).coords == (-2 * T.scale,)
    assert target.value_at(I.B.element((-2, 0))).coords == (2 * T.scale,)


def test_midh_unary_cap():
    T = ThreePartInstance((1500, 1500, 1502), 1)
    with pytest.raises(ValueError):
        gen_3part_midh(T, 2)


# ---------------------------------------------------------------------------
# zero-one equations


def test_zoe_shape():
    M = ZoeInstance(((1, 0), (1, 1)))
    I = gen_zoe(M)
    assert I.A == GroupPresentation(2)
    assert I.B == Z2
    assert I.h == 0
    assert len(I.fs) == 3
    # column functions sit at the origin of Z_2
    assert I.fs[0].value_at(Z2.element((0,))).coords == (1, 1)
    assert I.fs[1].value_at(Z2.element((0,))).coords == (0, 1)
    f = I.fs[2]
    assert f.value_at(Z2.element((0,))).coords == (-1, -1)
    # 1_n - sum of columns = (0, -1)
    assert f.value_at(Z2.element((1,))).coords == (0, -1)


def test_zoe_roundtrip_examples():
    identity = ZoeInstance(((1, 0), (0, 1)))
    assert dispatch(gen_zoe(identity)).decision == "positive"
    zero_row = ZoeInstance(((1, 1), (0, 0)))
    assert dispatch(gen_zoe(zero_row)).decision == "negative"
    ones = ZoeInstance(((1, 1), (1, 1)))
    assert dispatch(gen_zoe(ones)).decision == "positive"


def test_zoe_roundtrip_all_2x2():
    for bits in itertools.product((0, 1), repeat=4):
        M = ZoeInstance(((bits[0], bits[1]), (bits[2], bits[3])))
        expected = solve_zoe_bruteforce(M)
        got = dispatch(gen_zoe(M)).decision
        assert got == ("positive" if expected else "negative")


# ---------------------------------------------------------------------------
# serialization of generated instances


def test_generated_instances_roundtrip_codec():
    instances = [
        gen_3part_h0(ThreePartInstance((1, 1, 1), 1), A_UNIT, B_UNIT),
        gen_3part_midh(ThreePartInstance((1, 1, 1), 1), 2),
        gen_zoe(ZoeInstance(((1, 0), (0, 1)))),
    ]
    for I in instances:
        blob = canonical_json(encode_instance(I))
        decoded, _ = decode_instance(json.loads(blob))
        assert decoded == I
        assert canonical_json(encode_instance(decoded)) == blob
