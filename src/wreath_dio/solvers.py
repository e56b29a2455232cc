"""Decision procedures for the Quotient Sum Problem.

Two polynomial special cases (large rank budget, a single function over a
torsion-free base) plus a complete search that decides everything else,
behind a dispatcher that settles a trivial coefficient group itself and
routes every other instance to the first applicable method.  Every positive
answer carries a certificate that passes verify_certificate; exhausted
budgets surface as an explicit "unknown-budget" outcome, never as a wrong
answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from operator import add, neg, sub
from typing import Iterator, Optional, Sequence

from .abelian import (
    BudgetExceeded,
    GroupElement,
    GroupPresentation,
    Subgroup,
    _relation_columns,
    coord_reducer,
    enumerate_ball,
    group_rank,
    quotient_maps,
    subgroup_rank,
)
from .group_ring import SupportedFunction, is_zero_mod, pushforward
from .lattice import lattice_basis, saturation, span_membership
from .qsp import (
    Certificate,
    QspInstance,
    difference_set,
    make_certificate,
    shifted_sum,
    verify_certificate,
)

POSITIVE = "positive"
NEGATIVE = "negative"
UNKNOWN = "unknown-budget"


@dataclass(frozen=True)
class SolverBudget:
    """Hard enumeration and wall-time caps for a single solve call."""

    max_delta_tuples: int = 1_000_000
    max_subgroup_tuples: int = 100_000
    max_ball_elements: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in (
            "max_delta_tuples",
            "max_subgroup_tuples",
            "max_ball_elements",
            "max_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_BUDGET = SolverBudget()


class MethodPreconditionError(ValueError):
    """A solver was invoked on an instance outside its precondition."""


@dataclass(frozen=True)
class SolveResult:
    decision: str
    method: str
    certificate: Optional[Certificate]
    counters: dict = field(default_factory=dict)
    reason: Optional[str] = None


class _Meter:
    """Counts enumeration work and enforces the budget."""

    def __init__(self, budget: SolverBudget) -> None:
        self.budget = budget
        self.start = time.monotonic()
        self.counters = {
            "delta_tuples": 0,
            "subgroup_tuples": 0,
            "ball_elements": 0,
        }
        self._ticks = 0

    def charge(self, key: str, n: int = 1) -> None:
        self.counters[key] += n
        limit = getattr(self.budget, "max_" + key)
        if self.counters[key] > limit:
            raise BudgetExceeded(f"{key} exceeded {limit}")
        self._ticks += 1
        if self._ticks % 1024 == 0:
            if time.monotonic() - self.start > self.budget.max_seconds:
                raise BudgetExceeded(
                    f"time exceeded {self.budget.max_seconds}s"
                )


def _positive(
    I: QspInstance,
    method: str,
    meter: _Meter,
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> SolveResult:
    cert = make_certificate(I, deltas, N)
    if not verify_certificate(I, cert):
        raise AssertionError(f"{method} produced a certificate that fails to verify")
    return SolveResult(POSITIVE, method, cert, dict(meter.counters))


def _negative(I: QspInstance, method: str, meter: _Meter) -> SolveResult:
    return SolveResult(NEGATIVE, method, None, dict(meter.counters))


def _unknown(
    I: QspInstance, method: str, meter: _Meter, exc: BudgetExceeded
) -> SolveResult:
    return SolveResult(UNKNOWN, method, None, dict(meter.counters), str(exc))


def _total_sum_is_zero(I: QspInstance) -> bool:
    """Necessary for any positive answer: quotients preserve the total sum."""
    total = I.A.zero()
    for f in I.fs:
        total = total + f.total_coefficient()
    return total.is_zero()


def _zero_deltas(I: QspInstance) -> tuple[GroupElement, ...]:
    return tuple(I.B.zero() for _ in I.fs)


# ---------------------------------------------------------------------------
# big h


def solve_big_h(I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET) -> SolveResult:
    """h >= rank(B): take N = B, so only the total coefficient sum matters."""
    meter = _Meter(budget)
    if I.h < group_rank(I.B):
        raise MethodPreconditionError("requires h >= rank(B)")
    if _total_sum_is_zero(I):
        return _positive(I, "big-h", meter, _zero_deltas(I), Subgroup.whole(I.B))
    return _negative(I, "big-h", meter)


# ---------------------------------------------------------------------------
# single function over a torsion-free base


def solve_single_f(
    I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> SolveResult:
    """One function, B torsion-free: search rational spans of difference sets.

    The shift is irrelevant (translation moves the pushforward), so decide
    whether f vanishes modulo Span_Q(T) cap Z^n for some subset T of the
    difference set with |T| <= h; the integral certificate subgroup is the
    saturation of T.
    """
    meter = _Meter(budget)
    if len(I.fs) != 1:
        raise MethodPreconditionError("requires exactly one function")
    if I.B.torsion:
        raise MethodPreconditionError("requires a torsion-free base group")
    f = I.fs[0]
    deltas = (I.B.zero(),)
    if f.is_zero():
        return _positive(I, "single-f", meter, deltas, Subgroup.trivial(I.B))
    if not f.total_coefficient().is_zero():
        return _negative(I, "single-f", meter)
    n = I.B.free_rank
    S = [d for d in difference_set(f) if not d.is_zero()]
    try:
        for size in range(0, min(I.h, len(S), n) + 1):
            for T in itertools.combinations(S, size):
                meter.charge("subgroup_tuples")
                vecs = [list(t.coords) for t in T]
                if _vanishes_mod_rational_span(f, vecs):
                    basis = saturation(vecs, n)
                    N = Subgroup(I.B, tuple(I.B.element(b) for b in basis))
                    return _positive(I, "single-f", meter, deltas, N)
        return _negative(I, "single-f", meter)
    except BudgetExceeded as exc:
        return _unknown(I, "single-f", meter, exc)


def _vanishes_mod_rational_span(f: SupportedFunction, vecs: list[list[int]]) -> bool:
    # group support points into rational-span fibers and sum each fiber
    reps: list[tuple[GroupElement, GroupElement]] = []
    for point, coeff in f.terms:
        for k, (rep, acc) in enumerate(reps):
            diff = [a - b for a, b in zip(point.coords, rep.coords)]
            if span_membership(vecs, diff):
                reps[k] = (rep, acc + coeff)
                break
        else:
            reps.append((point, coeff))
    return all(acc.is_zero() for _, acc in reps)


# ---------------------------------------------------------------------------
# complete fallback


def _euclid_pool(
    B: GroupPresentation, bound_sq: int, meter: _Meter
) -> list[GroupElement]:
    """Nonzero elements whose symmetric-lift Euclidean norm fits the bound."""
    n = B.ncoords
    if n == 0 or bound_sq <= 0:
        return []
    r1 = isqrt(n * bound_sq)
    pool = []
    for g in enumerate_ball(B, r1, cap=meter.budget.max_ball_elements):
        meter.charge("ball_elements")
        if not g.is_zero() and g.norm_sq() <= bound_sq:
            pool.append(g)
    pool.sort(key=lambda g: (g.norm_sq(), g.coords))
    return pool


def _subgroup_key(S: Subgroup) -> tuple:
    """Canonical form of <gens>: Hermite basis of lifts plus relations."""
    rows = [g.canonical_lift() for g in S.generators]
    return tuple(lattice_basis(rows + _relation_columns(S.ambient)))


def _candidate_subgroups(
    B: GroupPresentation, h: int, size_i: int, meter: _Meter
) -> Iterator[Subgroup]:
    """Deduplicated subgroups generated by <= h short vectors, trivial first.

    Any witness subgroup can be replaced by one generated by within-cluster
    support differences (geodesic length <= size of the instance), which in
    turn has a reduced generating tuple of Euclidean norm at most
    2^(rank(B)/2) * size(I); enumerating that ball is therefore complete.
    Lazy: small-norm candidates come first, so early witnesses stay cheap.
    """
    trivial = Subgroup.trivial(B)
    yield trivial
    if h <= 0:
        return
    bound_sq = (2 ** group_rank(B)) * size_i * size_i
    pool = _euclid_pool(B, bound_sq, meter)
    seen = {_subgroup_key(trivial)}
    for y in range(1, h + 1):
        for combo in itertools.combinations(pool, y):
            meter.charge("subgroup_tuples")
            S = Subgroup(B, combo)
            key = _subgroup_key(S)
            if key not in seen:
                seen.add(key)
                yield S


_REACH_CAP = 4096


def _anchored_search(
    fs: Sequence[SupportedFunction],
    B: GroupPresentation,
    N: Subgroup,
    meter: _Meter,
) -> Optional[tuple[GroupElement, ...]]:
    """Find shifts making the sum vanish exactly in A^(B/N), or None.

    Works in the quotient: anchor the first nonzero function at shift 0
    (the total sum is translation-invariant), then repeatedly branch on which
    unplaced function covers the least nonzero point of the partial sum —
    any completion must cancel that point, so the branching is exhaustive.
    Failed (remaining functions, translated partial sum) states are memoized,
    and a node dies early if some point's coefficient cannot be canceled by
    any subset of the remaining functions' lamp values (each placement lands
    at most one lamp on a fixed point).

    The search runs on canonical coordinate tuples: points of B/N and
    coefficients of A, kept canonical by each group's coord_reducer.  Tuples
    order as their GroupElements do, so nodes are visited in coordinate
    order.  GroupElement appears at entry only, in the pushforwards, and at
    exit, where the found shifts are lifted back to B.
    """
    Q, _, lift_map = quotient_maps(B, N.generators)
    pushed = [pushforward(f, N) for f in fs]
    active = [i for i, g in enumerate(pushed) if not g.is_zero()]
    result = [B.zero() for _ in fs]
    if not active:
        return tuple(result)

    A = pushed[active[0]].coeff_group
    red_q = coord_reducer(Q)
    red_a = coord_reducer(A)
    # each function as ((point, coeff), ...) coordinate pairs, sorted by point
    gs = {
        i: tuple((p.coords, c.coords) for p, c in pushed[i].terms)
        for i in active
    }
    value_id: dict[tuple, int] = {}
    for i in active:
        value_id.setdefault(gs[i], len(value_id))
    vids = {i: value_id[gs[i]] for i in active}
    lamp_values = {i: tuple(sorted({c for _, c in gs[i]})) for i in active}

    assignment: dict[int, tuple[int, ...]] = {}
    memo: set = set()
    reach_cache: dict[tuple[int, ...], Optional[frozenset]] = {}

    def place(sum_d: dict, terms: tuple, delta: tuple[int, ...]) -> list:
        """Add the function with these terms, shifted by delta, into sum_d;
        return an undo log."""
        undo = []
        for point, coeff in terms:
            p = red_q(map(sub, point, delta))
            old = sum_d.get(p)
            undo.append((p, old))
            new = coeff if old is None else red_a(map(add, old, coeff))
            if any(new):
                sum_d[p] = new
            elif old is not None:
                del sum_d[p]
        return undo

    def unplace(sum_d: dict, undo: list) -> None:
        for p, old in reversed(undo):
            if old is None:
                sum_d.pop(p, None)
            else:
                sum_d[p] = old

    def reachable(unplaced: tuple[int, ...]) -> Optional[frozenset]:
        # all values sum_i x_i with x_i in {0} + lamp_values[i]; None = too big
        key = tuple(sorted(vids[i] for i in unplaced))
        if key in reach_cache:
            return reach_cache[key]
        reach = {(0,) * A.ncoords}
        for i in unplaced:
            grown = set(reach)
            for r in reach:
                for v in lamp_values[i]:
                    grown.add(red_a(map(add, r, v)))
            reach = grown
            if len(reach) > _REACH_CAP:
                reach_cache[key] = None
                return None
        out = frozenset(reach)
        reach_cache[key] = out
        return out

    def state_key(unplaced: tuple[int, ...], sum_d: dict) -> tuple:
        ids = tuple(sorted(vids[i] for i in unplaced))
        if not sum_d:
            return ids, ()
        items = sorted(sum_d.items())  # points are distinct: sorted by point
        base = items[0][0]
        # translation-normalized: failure is invariant under joint shifts
        body = tuple([(red_q(map(sub, p, base)), c) for p, c in items])
        return ids, body

    def dfs(unplaced: tuple[int, ...], sum_d: dict) -> bool:
        meter.charge("delta_tuples")
        key = state_key(unplaced, sum_d)
        if key in memo:
            return False
        if not sum_d:
            if not unplaced:
                return True
            i0 = unplaced[0]
            delta = (0,) * Q.ncoords  # anchor: sums are translation-invariant
            undo = place(sum_d, gs[i0], delta)
            assignment[i0] = delta
            if dfs(unplaced[1:], sum_d):
                return True
            del assignment[i0]
            unplace(sum_d, undo)
            memo.add(key)
            return False
        if not unplaced:
            memo.add(key)
            return False
        reach = reachable(unplaced)
        if reach is not None:
            for coeff in sum_d.values():
                if red_a(map(neg, coeff)) not in reach:
                    memo.add(key)
                    return False
        p = min(sum_d)
        tried = set()
        for pos, i in enumerate(unplaced):
            vid = vids[i]
            if vid in tried:
                continue
            tried.add(vid)
            rest = unplaced[:pos] + unplaced[pos + 1 :]
            for point, _coeff in gs[i]:
                delta = red_q(map(sub, point, p))
                undo = place(sum_d, gs[i], delta)
                assignment[i] = delta
                if dfs(rest, sum_d):
                    return True
                del assignment[i]
                unplace(sum_d, undo)
        memo.add(key)
        return False

    if dfs(tuple(active), {}):
        for i in active:
            result[i] = lift_map(Q.element(assignment[i]))
        return tuple(result)
    return None


def solve_general(
    I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> SolveResult:
    """Complete search: every candidate subgroup, then an anchored cover search.

    Candidate subgroups come from the short-vector ball (complete by the
    normalization and reduced-basis bounds); for each one the quotient
    problem is solved exactly by the anchored placement search, which needs
    no shift ball at all.
    """
    meter = _Meter(budget)
    if not I.fs:
        return _positive(I, "general", meter, (), Subgroup.trivial(I.B))
    if not _total_sum_is_zero(I):
        return _negative(I, "general", meter)
    try:
        for N in _candidate_subgroups(I.B, I.h, I.size(), meter):
            found = _anchored_search(I.fs, I.B, N, meter)
            if found is not None:
                return _positive(I, "general", meter, found, N)
        return _negative(I, "general", meter)
    except BudgetExceeded as exc:
        return _unknown(I, "general", meter, exc)


# ---------------------------------------------------------------------------
# dispatcher


def dispatch(I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET) -> SolveResult:
    """Route to the first applicable method.

    Order: trivial coefficient group, large rank budget, single function over
    a torsion-free base, then the complete search for everything else,
    finite base groups and few functions included.
    """
    meter = _Meter(budget)
    if I.A.is_trivial():
        cert = make_certificate(I, _zero_deltas(I), Subgroup.trivial(I.B))
        if not verify_certificate(I, cert):
            raise AssertionError("trivial-a certificate fails to verify")
        return SolveResult(POSITIVE, "trivial-a", cert, dict(meter.counters))
    if I.h >= group_rank(I.B):
        return solve_big_h(I, budget)
    if len(I.fs) == 1 and not I.B.torsion:
        return solve_single_f(I, budget)
    return solve_general(I, budget)


METHODS = {
    "big-h": solve_big_h,
    "single-f": solve_single_f,
    "general": solve_general,
}


# ---------------------------------------------------------------------------
# literal double-exhaustion oracle (test reference, deliberately naive)


def _subset_generated_subgroups(
    B: GroupPresentation, points: list[GroupElement], meter: _Meter
) -> list[Subgroup]:
    """Every subgroup of the form <T> for T a subset of points, deduplicated.

    The search is _subset_subgroups, memoized on B, the point set and the
    budget's subgroup_tuples limit.  Its tuple count is charged in one
    charge, on a miss and on a hit alike, so the oracle's counters and its
    unknown-budget outcomes are those of a search charged tuple by tuple;
    only the counter's value at the moment the budget trips can be larger.
    A search that passes the limit stores nothing.
    """
    limit = meter.budget.max_subgroup_tuples
    try:
        subgroups, tuples = _subset_subgroups(B, frozenset(points), limit)
    except BudgetExceeded:
        subgroups, tuples = (), limit + 1
    meter.charge("subgroup_tuples", tuples)
    return list(subgroups)


@lru_cache(maxsize=4096)
def _subset_subgroups(
    B: GroupPresentation, points: frozenset[GroupElement], limit: int
) -> tuple[tuple[Subgroup, ...], int]:
    """(the subgroups <T> for T a subset of points, tuples tried).

    Breadth-first from the trivial subgroup, adding each point in turn to
    each subgroup found; raises BudgetExceeded once more than limit tuples
    were tried.
    """
    ordered = sorted(points, key=lambda g: g.coords)
    trivial = Subgroup.trivial(B)
    found: dict[tuple, Subgroup] = {_subgroup_key(trivial): trivial}
    queue = [trivial]
    tuples = 0
    while queue:
        S = queue.pop(0)
        for s in ordered:
            tuples += 1
            if tuples > limit:
                raise BudgetExceeded(f"subgroup_tuples exceeded {limit}")
            S2 = Subgroup(B, S.generators + (s,))
            key = _subgroup_key(S2)
            if key not in found:
                found[key] = S2
                queue.append(S2)
    return tuple(found[k] for k in sorted(found)), tuples


def oracle_solve(
    I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> SolveResult:
    """Reference decision by double exhaustion; tiny instances only.

    Enumerates every shift tuple over the size(I) ball and, for each shifted
    sum, every subgroup generated by a subset of its difference set, keeping
    those of rank <= h.  Complete for the same reason the fallback is: a
    normalized witness fits the ball and its shrunk subgroup is generated by
    difference-set elements.
    """
    meter = _Meter(budget)
    if not I.fs:
        return _positive(I, "oracle", meter, (), Subgroup.trivial(I.B))
    try:
        ball = []
        for g in enumerate_ball(I.B, I.size(), cap=meter.budget.max_ball_elements):
            meter.charge("ball_elements")
            ball.append(g)
        for deltas in itertools.product(ball, repeat=len(I.fs)):
            meter.charge("delta_tuples")
            c = shifted_sum(I.fs, deltas)
            nonzero = [d for d in difference_set(c) if not d.is_zero()]
            for S in _subset_generated_subgroups(I.B, nonzero, meter):
                if subgroup_rank(S) <= I.h and is_zero_mod(c, S):
                    return _positive(I, "oracle", meter, deltas, S)
        return _negative(I, "oracle", meter)
    except BudgetExceeded as exc:
        return _unknown(I, "oracle", meter, exc)
