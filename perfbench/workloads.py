"""Seeded inputs and their known answers for the three benchmark workloads.

Every workload is a fixed recipe: the seed chooses the random draws inside
it, never how many instances of each family it holds, so the mix of work is
the same on every seed.  Known answers never come from the solver under test:
they come from the source problem's brute force (3-PARTITION,
ZERO-ONE-EQUATIONS) or hold by construction (planted witnesses, solvable
equations, unbalanced base shifts).

The library is reached only through public names: the generators,
``reduce_to_qsp`` and the codec.  Recipe constants were sized so every
instance decides under the default counter budget; the README lists what was
left out and why.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Optional

from wreath_dio import codec, hardness, wreath
from wreath_dio.abelian import GroupPresentation, group_rank
from wreath_dio.group_ring import SupportedFunction, shift
from wreath_dio.qsp import QspInstance, shifted_sum

POSITIVE = "positive"
NEGATIVE = "negative"

Z = GroupPresentation(1)
Z_2 = GroupPresentation(0, (2,))

WORKLOADS = ("h0-reductions", "rank-search", "equation-cli")


@dataclass
class Case:
    """One input with its known answer.

    QSP workloads carry ``instance``; ``equation-cli`` carries ``equation``
    and the file paths the CLI reads.  ``tampered`` is a copy of the (reduced)
    instance whose total coefficient sum is nonzero, so no certificate can be
    valid for it.
    """

    cid: str
    family: str
    expected: str
    instance: Optional[QspInstance] = None
    equation: Optional[wreath.OrientableEquation] = None
    tampered: Optional[QspInstance] = None
    paths: dict = field(default_factory=dict)

    def encoded(self) -> dict:
        out = {"id": self.cid, "family": self.family, "expected": self.expected}
        if self.equation is not None:
            out["equation"] = codec.encode_equation(self.equation)
        else:
            out["instance"] = codec.encode_instance(self.instance)
        return out


def tamper(I: QspInstance) -> QspInstance:
    """Add one unit coefficient to the first function.

    Taking a quotient keeps the total coefficient sum, so an instance whose
    sum is nonzero has no valid certificate: checking any certificate against
    this copy must fail.
    """
    a = I.A.standard_generators()[0]
    f0 = I.fs[0] + SupportedFunction.atom(a, I.B.zero())
    return QspInstance(I.A, I.B, (f0,) + I.fs[1:], I.h)


def _with_tampered(cases: list[Case]) -> list[Case]:
    for c in cases:
        if c.expected == POSITIVE and c.instance is not None:
            c.tampered = tamper(c.instance)
    return cases


# ---------------------------------------------------------------------------
# h0-reductions: 3-PARTITION at h = 0 and ZERO-ONE-EQUATIONS

# Every windowed k = 2 multiset over 1..8 (55: 46 positive, 9 negative) and
# every positive windowed k = 3 multiset over 4..7 (31).  The 9 negatives
# take most of the solve time (0.3 to 1.6 s each), so which of them a seed
# drew would set decided_per_s; every seed has all of them, and the seed
# draws the reduction's generators a and b instead (they change coordinates,
# not the search: node counts are equal).  The 5 negative k = 3 multisets
# are left out: each takes about 3 s.
H0_K2_VALUES = range(1, 9)
H0_K3_VALUES = range(4, 8)
H0_ZOE_PER_N = 12  # n = 3, 4, 5, 6
# each n x n matrix has exactly round(0.4 n^2) ones and every n has 6
# positives and 6 negatives, so that the seed moves where the ones are but
# not how many, nor the mix of answers: with each entry drawn on its own,
# zoe-n6 medians were 8.6 and 14.1 ms on two seeds, and n = 3 had 2
# positives on one seed and 9 on the next
H0_ZOE_DENSITY = 0.4


def _windowed_multisets(k: int, values: range):
    for vals in itertools.combinations_with_replacement(values, 3 * k):
        try:
            yield hardness.ThreePartInstance(vals, k)
        except ValueError:
            continue


def _h0_generators(rng: random.Random):
    a = Z.element((rng.choice((1, -1, 2, -2, 3, -3)),))
    b = Z.element((rng.choice((1, -1, 2, -2)),))
    return a, b


def h0_reductions(seed: int) -> list[Case]:
    rng = random.Random(f"h0-reductions:{seed}")
    cases = []
    for k, values in ((2, H0_K2_VALUES), (3, H0_K3_VALUES)):
        for T in _windowed_multisets(k, values):
            truth = hardness.solve_3part_bruteforce(T)
            if k == 3 and not truth:
                continue
            a, b = _h0_generators(rng)
            cases.append(Case(
                f"3part-k{k}-{','.join(map(str, T.values))}",
                f"3part-h0-k{k}",
                POSITIVE if truth else NEGATIVE,
                instance=hardness.gen_3part_h0(T, a, b),
            ))
    for n in (3, 4, 5, 6):
        for j in range(H0_ZOE_PER_N):
            expected = POSITIVE if j % 2 == 0 else NEGATIVE
            cases.append(Case(
                f"zoe-n{n}-{j}", f"zoe-n{n}", expected,
                instance=hardness.gen_zoe(_zoe(rng, n, expected == POSITIVE)),
            ))
    return _with_tampered(cases)


def _zoe(rng: random.Random, n: int, solvable: bool) -> hardness.ZoeInstance:
    """An n x n 0/1 matrix with round(H0_ZOE_DENSITY n^2) ones, redrawn until
    solve_zoe_bruteforce gives the wanted answer."""
    while True:
        ones = set(rng.sample(range(n * n), round(H0_ZOE_DENSITY * n * n)))
        Zi = hardness.ZoeInstance(tuple(
            tuple(int(r * n + c in ones) for c in range(n)) for r in range(n)
        ))
        if hardness.solve_zoe_bruteforce(Zi) == solvable:
            return Zi


# ---------------------------------------------------------------------------
# rank-search: 1 <= h < rank(B), every instance positive by construction

# (base group B, number of functions m, instances per seed, size(I)).  Every
# draw is redrawn until size(I) is the family's most common size: solve time
# grows with size (Z^2, m = 2 took 16 ms at size 6 and 95 ms at size 15, and
# 47 to 49 ms at size 10), so a fixed size keeps each family's spread, and
# the benchmark's, from depending on the seed.  m <= 3 goes to the bounded-m
# solver at the parent commit, m >= 4 to general.  m = 3 is left out: over
# Z^2 it ranges from 0.7 s to past the budget, and over Z x Z_2 and Z x Z_3
# single draws took up to 0.65 s.  Z^2 with m = 2 is the slowest family
# kept; it holds the upper decile, so solve_p90_ms falls inside it.
RANK_PLANTED = (
    (GroupPresentation(2), 2, 40, 10),
    (GroupPresentation(2), 4, 20, 23),
    (GroupPresentation(2), 5, 20, 29),
    (GroupPresentation(1, (2,)), 2, 20, 10),
    (GroupPresentation(1, (2,)), 4, 20, 21),
    (GroupPresentation(1, (2,)), 5, 20, 25),
    (GroupPresentation(1, (3,)), 2, 20, 10),
    (GroupPresentation(1, (3,)), 4, 20, 21),
    (GroupPresentation(1, (3,)), 5, 20, 26),
)
# gen_3part_midh at rank 2, k = 1; (3, 3, 3) already takes 2.3 s
RANK_MIDH_VALUES = ((1, 1, 1), (2, 2, 2))
# one function over Z^3: (h, instances per seed, size(I))
RANK_SINGLE = ((1, 20, 29), (2, 20, 31))


def _small_element(rng: random.Random, B: GroupPresentation, r: int):
    return B.element(tuple(rng.randint(-r, r) for _ in range(B.ncoords)))


def _unit_coeff(rng: random.Random):
    return Z.element((rng.choice((-1, 1)),))


def _planted(rng: random.Random, B: GroupPresentation, m: int) -> QspInstance:
    """m functions whose shifted sum vanishes modulo a rank-1 subgroup <n>.

    The first m - 1 functions are single atoms; the last cancels their
    shifted sum with every point moved by +n or -n, so the planted witness
    uses the subgroup.
    """
    n = B.zero()
    while n.is_zero():
        n = _small_element(rng, B, 2)
    fs = [SupportedFunction.atom(_unit_coeff(rng), _small_element(rng, B, 1))
          for _ in range(m - 1)]
    deltas = [_small_element(rng, B, 1) for _ in range(m)]
    s = shifted_sum(fs, deltas[:-1])
    last = tuple(
        (p + n.scale(rng.choice((-1, 1))) + deltas[-1], -a) for p, a in s.terms
    )
    fs.append(SupportedFunction(Z, B, last))
    return QspInstance(Z, B, tuple(fs), 1)


def _planted_single(rng: random.Random, h: int) -> QspInstance:
    """One function over Z^3 that vanishes modulo h planted directions.

    For h = 1 it is g - shift(g, n) with g of two points; for h = 2 the sum of
    two such terms with one-point g.
    """
    B = GroupPresentation(3)
    f = SupportedFunction.zero(Z, B)
    for _ in range(h):
        g = SupportedFunction(Z, B, tuple(
            (_small_element(rng, B, 2), _unit_coeff(rng)) for _ in range(3 - h)
        ))
        f = f + g - shift(g, _small_element(rng, B, 2))
    return QspInstance(Z, B, (shift(f, _small_element(rng, B, 2)),), h)


def _sized(draw, size: int) -> QspInstance:
    while True:
        instance = draw()
        if instance.size() == size:
            return instance


def rank_search(seed: int) -> list[Case]:
    rng = random.Random(f"rank-search:{seed}")
    cases = []
    for B, m, count, size in RANK_PLANTED:
        tag = f"planted-{'x'.join(_group_name(B))}-m{m}"
        for j in range(count):
            instance = _sized(lambda: _planted(rng, B, m), size)
            cases.append(Case(f"{tag}-{j}", tag, POSITIVE, instance=instance))
    for vals in RANK_MIDH_VALUES:
        T = hardness.ThreePartInstance(vals, 1)
        cases.append(Case(
            f"3part-midh-{','.join(map(str, vals))}", "3part-midh-r2", POSITIVE,
            instance=hardness.gen_3part_midh(T, 2),
        ))
    for h, count, size in RANK_SINGLE:
        for j in range(count):
            instance = _sized(lambda: _planted_single(rng, h), size)
            cases.append(Case(f"single-Z3-h{h}-{j}", f"single-Z3-h{h}", POSITIVE,
                              instance=instance))
    return _with_tampered(cases)


def _group_name(G: GroupPresentation) -> list[str]:
    return ["Z"] * G.free_rank + [f"Z{a}" for a in G.torsion]


# ---------------------------------------------------------------------------
# equation-cli: equation files through the CLI

EQ_BASES = (
    GroupPresentation(1),
    GroupPresentation(2),
    GroupPresentation(1, (2,)),
    GroupPresentation(3),
)
EQ_COEFFS = (Z_2, Z)
EQ_PER_CELL = 10  # per (base, genus, m), see _cells
EQ_NEGATIVES = 24
EQ_MAX_POINTS = 5


def _reduction_is_sized(I) -> bool:
    """Keep equations whose reduced instance has at most EQ_MAX_POINTS
    support points and is one function, has h >= rank(Q), or has a finite
    quotient Q.

    Several functions with h < rank(Q) over an infinite Q took from 0.04 s
    to 8.7 s per call or ran past the counter budget.  Past about 12 points
    the certificate's subgroup has hundreds of generators and its Smith form
    takes 0.4 to 2 s.  One such draw would set decided_per_s for the whole
    run, so they are redrawn.  Calls on 6 to 8 points took 3.5 ms or more
    (on 6 points about half of them, on 8 nearly all), against 2 to 3 ms
    below, and how many such draws a seed made set where solve_p90_ms fell:
    3.3 to 4.3 ms over five seeds with 8 points allowed, 3.4 to 4.2 ms with
    6.  With 5, three seeds gave 3.09 to 3.12 ms.
    """
    if sum(len(f.terms) for f in I.fs) > EQ_MAX_POINTS:
        return False
    return len(I.fs) == 1 or I.h >= group_rank(I.B) or I.B.is_finite()


def _solvable(rng: random.Random, B, genus: int, m: int):
    for _ in range(1000):
        A = rng.choice(EQ_COEFFS)
        eq, _ = wreath.gen_solvable(rng.randrange(2**31), A, B, genus, m)
        if _reduction_is_sized(wreath.reduce_to_qsp(eq)):
            return eq
    raise RuntimeError(f"no sized draw over {B} with genus {genus}, m = {m}")


def _cells():
    """(base, genus, m) for genus 0..2 and m 1..3, less two kinds of cell.

    At genus 0 with several constants the quotient is finite only over a
    base of free rank 1, so Z^2 and Z^3 have m = 1 alone there.  Genus 1
    with one constant over Z^3 reduces to one function over Z^3 with h = 2,
    whose search over pairs of support differences took up to 1.5 s on
    8 points; rank-search covers that family.
    """
    for B in EQ_BASES:
        for genus in (0, 1, 2):
            for m in (1, 2, 3):
                if genus == 0 and m > 1 and B.free_rank > 1:
                    continue
                if (genus, m, B.free_rank) == (1, 1, 3):
                    continue
                yield B, genus, m


def _unbalance(eq, rng: random.Random):
    """Move one constant's base shift by a free generator: total shift != 0."""
    e = eq.B.standard_generators()[len(eq.B.torsion)].scale(rng.choice((1, -1)))
    consts = list(eq.constants)
    j = rng.randrange(len(consts))
    c = consts[j]
    consts[j] = wreath.WreathElement(c.delta + e, c.f)
    return wreath.OrientableEquation(eq.A, eq.B, eq.genus, tuple(consts))


def equation_cli(seed: int) -> list[Case]:
    rng = random.Random(f"equation-cli:{seed}")
    cases = []
    cells = list(_cells())
    for B, genus, m in cells:
        bname = "x".join(_group_name(B))
        for j in range(EQ_PER_CELL):
            eq = _solvable(rng, B, genus, m)
            reduced = wreath.reduce_to_qsp(eq)
            cases.append(Case(
                f"solvable-{bname}-g{genus}-m{m}-{j}",
                f"solvable-{bname}", POSITIVE,
                equation=eq, instance=reduced, tampered=tamper(reduced),
            ))
    for j in range(EQ_NEGATIVES):
        eq = _unbalance(_solvable(rng, *rng.choice(cells)), rng)
        if not isinstance(wreath.reduce_to_qsp(eq), wreath.Unsolvable):
            raise RuntimeError("unbalanced equation still reduces to an instance")
        cases.append(Case(f"unbalanced-{j}", "unbalanced", NEGATIVE, equation=eq))
    return cases


GENERATORS = {
    "h0-reductions": h0_reductions,
    "rank-search": rank_search,
    "equation-cli": equation_cli,
}


def input_digest(cases: list[Case]) -> str:
    """codec.digest over the canonical JSON of every input and known answer."""
    return codec.digest(codec.canonical_json([c.encoded() for c in cases]))


def write_inputs(cases: list[Case], directory: str) -> None:
    """Write the input set, and for equation-cli the files the CLI reads."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "inputs.json"), "w", encoding="utf-8") as fh:
        fh.write(codec.canonical_json([c.encoded() for c in cases]))
    for i, c in enumerate(cases):
        if c.equation is None:
            continue
        c.paths["equation"] = _write(directory, f"eq-{i:04d}.json",
                                     codec.encode_equation(c.equation))
        if c.expected == POSITIVE:
            c.paths["instance"] = _write(directory, f"qsp-{i:04d}.json",
                                         codec.encode_instance(c.instance))
            c.paths["tampered"] = _write(directory, f"qsp-{i:04d}-tampered.json",
                                         codec.encode_instance(c.tampered))
            c.paths["certificate"] = os.path.join(directory, f"cert-{i:04d}.json")


def _write(directory: str, name: str, payload: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(codec.canonical_json(payload))
    return path

