"""Decision procedures for the Quotient Sum Problem.

dispatch is the one solve entry.  The instance alone picks its rule: with
rank budget at least rank(B) only the total coefficient sum matters (the
polynomial case, tagged big-h); below that, the complete search
solve_general decides.  The search places shifted functions on the least
uncancelled point and, when h >= 1, grows the witness subgroup from
differences of support points as it goes.  Every positive answer
carries a certificate that passes verify_certificate; exhausted budgets
surface as an explicit "unknown-budget" outcome, never as a wrong answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .abelian import (
    BudgetExceeded,
    GroupElement,
    GroupPresentation,
    Subgroup,
    _element,
    _identity,
    _relation_rows,
    _subgroup_form,
    coord_ops,
    enumerate_ball,
    group_rank,
    smith_normal_form,
    subgroup_rank_at_most,
)
from .group_ring import _coeff_sums, _vanishes
from .lattice import hermite_form
from .qsp import (
    Certificate,
    QspInstance,
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
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in ("max_delta_tuples", "max_subgroup_tuples", "max_seconds"):
            # `not > 0` also rejects NaN, which compares false to everything
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_BUDGET = SolverBudget()


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
        self.caps = {
            "delta_tuples": budget.max_delta_tuples,
            "subgroup_tuples": budget.max_subgroup_tuples,
        }
        self.counters = dict.fromkeys(self.caps, 0)

    def charge(self, key: str) -> None:
        """Count one unit of key; the charge past its cap trips the budget,
        so the counter then reads cap + 1."""
        count = self.counters[key] = self.counters[key] + 1
        if count > self.caps[key]:
            raise BudgetExceeded(f"{key} exceeded {self.caps[key]}")
        if time.monotonic() - self.start > self.budget.max_seconds:
            raise BudgetExceeded(f"time exceeded {self.budget.max_seconds}s")


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


def _negative(method: str, meter: _Meter) -> SolveResult:
    return SolveResult(NEGATIVE, method, None, dict(meter.counters))


def _unknown(method: str, meter: _Meter, exc: BudgetExceeded) -> SolveResult:
    return SolveResult(UNKNOWN, method, None, dict(meter.counters), str(exc))


def _total_sum_is_zero(I: QspInstance) -> bool:
    """Necessary for any positive answer: quotients preserve the total sum.
    The coefficients' coordinates are summed column by column and reduced
    once, which gives the reduced total since reduction is a homomorphism;
    with no terms the total is zero."""
    coeffs = [c.coords for f in I.fs for _, c in f.terms]
    if not coeffs:
        return True
    return not any(coord_ops(I.A)[2](list(map(sum, zip(*coeffs)))))


# ---------------------------------------------------------------------------
# complete search


_REACH_CAP = 4096


class _Level:
    """The anchored search's view of Q = B/N for one subgroup N = <gens>.

    terms[i] is function i's (point, coeff) coordinate pairs, canonical in
    B and A, sorted by point, with distinct points and nonzero coefficients:
    a SupportedFunction's terms, unwrapped.  gs holds each function that is
    nonzero in Q as such pairs in Q and A, and vids numbers the functions up
    to equality in Q.  cosets memoises the projection of each B-point
    met, and lifts a B-point of each point of Q that lift has answered
    or coset has met; memo holds the failed states met at N, each as its
    _state_body in the set under its sorted value ids, and children the
    keys of the subgroups N + <d> tried so far, by d in Q: each is its
    form's key, the Hermite basis abelian._subgroup_key gives.

    At the root, N = 0 and Q is B: gs holds the terms as given, each point
    is its own B-point, nothing is projected, merged or lifted, and cosets
    stays empty.  A level with generators pushes every term into Q.

    The level reads its prune rule off Q once.  tested: the reachability
    test runs in B/I(N), Q with its first drop coordinates dropped (all of
    Q's torsion when h >= 1, none when h = 0), and only where it can fail:
    at N = 0 when h = 0, and where N has torsion-free rank h < B.free_rank.
    With h >= B.free_rank such an N has finite index, B/I(N) is trivial, and
    the test compares one total, the partial sum's, with sums of at most
    one negated total per remaining function; the negated sum of all of
    them is the partial sum's total, as the instance's total sum is zero.
    in_place = tested and not drop: the test runs on Q itself, so a
    placement may stop at its first unreachable coefficient.  free =
    in_place and Q torsion-free: the lamps before the one put on p land
    below p.  The test's lamp sets and its cache are built on first use.
    """

    def __init__(
        self,
        A: GroupPresentation,
        B: GroupPresentation,
        terms: Sequence[tuple],
        gens: tuple[GroupElement, ...],
        h: int,
    ) -> None:
        form = self.form = _subgroup_form(B, gens)
        Q = form.Q
        self.gens = gens
        self.project = form.project_coords
        self.sub_b = coord_ops(B)[1]
        self.sub_q = coord_ops(Q)[1]
        self.A = A
        self.add_a, self.sub_a, _ = coord_ops(A)
        self.tested = B.free_rank - Q.free_rank == h and (not h or h < B.free_rank)
        self.drop = len(Q.torsion) if h else 0
        self.in_place = self.tested and not self.drop
        self.free = self.in_place and not Q.torsion
        self.lifts: dict[tuple, tuple] = {}
        self.cosets: dict[tuple, tuple] = {}
        self.memo: dict[tuple, set] = {}
        self.children: dict[tuple, tuple] = {}
        if gens:
            pushed = enumerate(map(self.push, terms))
            self.gs = {i: tuple(sorted(s.items())) for i, s in pushed if s}
        else:
            self.gs = {i: t for i, t in enumerate(terms) if t}
        value_id: dict[tuple, int] = {}
        self.vids = {
            i: value_id.setdefault(t, len(value_id)) for i, t in self.gs.items()
        }
        self._neg_lamps: Optional[dict[int, set]] = None
        self._reach: dict[tuple[int, ...], Optional[frozenset]] = {}

    def push(self, pairs) -> dict:
        """Coefficient sums per coset of (B-point, coeff) pairs, zeros dropped."""
        sums = _coeff_sums(self.A, ((self.coset(b), c) for b, c in pairs))
        return {q: c for q, c in sums.items() if any(c)}

    def coset(self, b: tuple) -> tuple:
        cosets = self.cosets
        if b in cosets:
            # the miss that stored b already offered it to lifts
            return cosets[b]
        q = cosets[b] = self.project(b)
        self.lifts.setdefault(q, b)
        return q

    def lift(self, q: tuple) -> tuple:
        """A B-point of the point q of B/N: q itself at the root; else the
        one lifts holds, or, on a miss, one lifted through N's Smith form."""
        if not self.gens:
            return q
        b = self.lifts.get(q)
        if b is None:
            b = self.lifts[q] = self.form.lift(_element(self.form.Q, q)).coords
        return b

    def place(
        self,
        sum_d: dict,
        terms: tuple,
        delta: tuple,
        reach: Optional[frozenset] = None,
    ) -> Optional[list]:
        """Add the function with these terms, shifted by delta, into sum_d;
        return an undo log.  Given a reach set, stop at the first new
        nonzero coefficient outside it instead: undo, and return None."""
        sub_q, add_a = self.sub_q, self.add_a
        undo = []
        for point, coeff in terms:
            p = sub_q(point, delta)
            old = sum_d.get(p)
            if old is None:
                new = coeff
            else:
                new = add_a(old, coeff)
                if not any(new):
                    undo.append((p, old))
                    del sum_d[p]
                    continue
            if reach is not None and new not in reach:
                self.unplace(sum_d, undo)
                return None
            undo.append((p, old))
            sum_d[p] = new
        return undo

    @staticmethod
    def unplace(sum_d: dict, undo: list) -> None:
        for p, old in reversed(undo):
            if old is None:
                sum_d.pop(p, None)
            else:
                sum_d[p] = old

    def reach(self, ids: tuple[int, ...]) -> Optional[frozenset]:
        """_reachable(ids), built once per ids."""
        reach_cache = self._reach
        if ids in reach_cache:
            return reach_cache[ids]
        reach = reach_cache[ids] = self._reachable(ids)
        return reach

    def cancellable(self, ids: tuple[int, ...], sum_d: dict) -> bool:
        """Whether every coefficient of sum_d, pushed past the first drop
        coordinates, is a sum of at most one negated lamp value of each
        function in ids, pushed the same way.  True when that set of sums
        is too big to build."""
        reach = self.reach(ids)
        if reach is None:
            return True
        drop = self.drop
        if drop:
            # zero sums stay: zero is always reachable
            sum_d = _coeff_sums(self.A, ((p[drop:], c) for p, c in sum_d.items()))
        return reach.issuperset(sum_d.values())

    def _reachable(self, ids: tuple[int, ...]) -> Optional[frozenset]:
        """Every sum of at most one negated lamp value per id; None = too
        big.  The lamp sets are built on the first call."""
        if self._neg_lamps is None:
            self._neg_lamps = self._lamps()
        add_a = self.add_a
        reach = {(0,) * self.A.ncoords}
        for vid in ids:
            grown = set(reach)
            for r in reach:
                for v in self._neg_lamps[vid]:
                    grown.add(add_a(r, v))
            reach = grown
            if len(reach) > _REACH_CAP:
                return None
        return frozenset(reach)

    def _lamps(self) -> dict[int, set]:
        """The negated nonzero lamp values of each function, by value id,
        with points pushed past the first drop coordinates."""
        sub_a, zero = self.sub_a, (0,) * self.A.ncoords
        drop = self.drop
        lamps = {}
        for i, terms in self.gs.items():
            if drop:
                sums = _coeff_sums(self.A, ((p[drop:], c) for p, c in terms))
                values = [c for c in sums.values() if any(c)]
            else:
                # the points of terms are distinct and its values nonzero
                values = [c for _p, c in terms]
            lamps[self.vids[i]] = {sub_a(zero, c) for c in values}
        return lamps


def _state_body(sub_q, sum_d: dict) -> tuple:
    """The partial sum as sorted (point, coeff) pairs, translated so that
    its least point is zero; sub_q subtracts points of B/N."""
    if not sum_d:
        return ()
    items = sorted(sum_d.items())  # points are distinct: sorted by point
    base = items[0][0]
    return tuple([(sub_q(p, base), c) for p, c in items])


def _anchored_search(
    A: GroupPresentation,
    B: GroupPresentation,
    terms: Sequence[tuple],
    h: int,
    meter: _Meter,
) -> Optional[tuple[tuple[GroupElement, ...], Subgroup]]:
    """Shifts and a subgroup N of rank <= h that make the sum of the
    functions with these terms vanish in A^(B/N), as (deltas, N), or None.
    With h = 0, N stays trivial.  terms are as _Level takes them, and their
    total sum must be zero.

    The search starts at N = 0.  The root lists the functions by decreasing
    number of lamps in B, ties by index, and every node keeps that order
    for its unplaced functions, at every level: it is the order in which
    placements are tried.  So the anchor is the largest function, and no
    node branches over its lamps; anchored later, every node before it is
    placed could try each of them (the fail-first rule of backtracking
    search).  At each node the search takes p, the least point of the
    partial sum in B/N that is not yet cancelled, or, when the partial sum
    is empty, the first lamp of the first unplaced function, and branches:

    - placement: an unplaced function is shifted so that one of its lamps
      lands on p; with an empty partial sum only the first unplaced
      function in that order on its own first lamp, which is shift 0 (the
      anchor);
    - growth (h >= 1): N becomes N' = N + <p~ - q~> for another point q of
      the partial sum, where p~ and q~ are B-points of the two cosets.  An
      N' of rank above h, or one already tried at the node, is skipped;
      otherwise the partial sum is pushed forward into B/N'.

    Completeness.  Take a witness (delta*, N*) that agrees with the node:
    N <= N*, rank(N*) <= h, and each placed shift is delta*_i modulo N*.
    The witness sum vanishes on every coset of N*, p + N* among them.
    Either some unplaced function, shifted by delta*_i, has a lamp in
    p + N*: moving its shift by an element of N* keeps the witness and puts
    that lamp exactly on p, which is a placement branch.  Or the rest of
    p's N*-coset is already placed: the partial sum alone vanishes on it
    and is nonzero at p, so some other point q of it has p - q in N*.  Then
    N + <p~ - q~> lies inside N*, so its rank is at most h (no subgroup of
    a finitely generated abelian group needs more generators than the group
    itself), which is a growth branch.  When the partial sum is empty, the
    unplaced functions cancel among themselves, which no joint translation
    changes, so any one of them may be anchored at 0 and the agreement
    kept: the order above costs no completeness.  The search ends because
    placements shrink the unplaced set and growth branches shrink the
    support of the partial sum.

    The search is depth-first on an explicit stack of child generators,
    one per node that survived the prune and the memo, so memory bounds
    its depth, not Python's recursion limit.  Each child made costs one
    delta_tuples unit, charged as it is made: the root, once per pass;
    each placement tried, before it is placed, whether it then stops
    early, is pruned, meets the memo or becomes a node; and each growth
    child pushed into its level.

    Failed (N, remaining functions, translated partial sum) states are
    memoized: levels are keyed by their form's key (abelian._subgroup_key),
    and each keeps its own memo, a set of translated partial sums
    (_state_body) per sorted tuple of the remaining functions' value ids.
    Failure is invariant under a joint shift, so a state that is a
    translate of a failed one fails too.  A node looks up its ids first and
    builds its body only when some state with those ids has already failed;
    otherwise the body is built once, after the node's last child, as the
    node's own failure goes into the memo.  By then sum_d is back at the
    node's state: every placement is undone, and growth children push into
    dicts of their own.  So the memo answers every lookup as one keyed on
    (ids, body) at every node would, and no node builds more than one body.

    Reachability prune.  At a level that tests (_Level.tested), a node
    with a nonempty partial sum dies if some coefficient of the partial
    sum, pushed into B/I, is not a sum of at most one negated lamp value of
    each remaining function's pushforward to B/I.  I is N itself when
    h = 0, where N stays trivial, and the isolator I(N), the preimage of
    the torsion of Q = B/N, when h >= 1.  Completeness: take a witness
    (delta*, N*) that agrees with the node.  With h = 0, N* = N.  With
    h >= 1 the level's N has torsion-free rank h, which is additive along
    N <= N* and at most the rank, so N*/N has torsion-free rank 0; it is
    finitely generated, so finite, every element of N* has a multiple in N,
    and N* lies in I(N).  Either way the witness sum vanishes in B/N*, and
    so in its quotient B/I.  Q's torsion coordinates come first, and the
    torsion of Q is exactly its points with free coordinates zero, so
    B/I(N) = Q/torsion(Q) is Q with its leading torsion coordinates
    dropped.  In B/I the pushforward of the partial sum and those of the
    remaining functions, each shifted, add up to zero.  A shifted function
    pushes forward to a translate of its own pushforward, which takes one
    value on each point, so it lands at most one lamp on each point of B/I,
    and every coefficient there must be cancelled by at most one lamp per
    remaining function.  (Where Q has torsion the test in Q itself would be
    wrong once h >= 1: growth merges points of Q, but never points of
    B/I(N), since N* stays inside I(N).)  Where B/I(N) is trivial the test
    cannot fail, and _Level skips it.

    The prune runs on each child as it is made, before the memo: a pruned
    child is never yielded, builds no body and leaves no memo entry.  That
    is sound because the prune reads only the multiset of the remaining
    functions' value ids and the coefficients of the partial sum pushed
    into B/I, and a memo entry, ids and body, fixes both.  Value ids number
    the functions up to equality in B/N, and functions equal in B/N push to
    equal functions in B/I; a translate of the partial sum in B/N pushes to
    a translate in B/I, with the same coefficients.  So a revisit of the
    state, or of a translate of it, is pruned again.

    At a level that tests in place (_Level.in_place), B/I is Q itself: N =
    0 at h = 0, or a torsion-free Q.  A placement that leaves a point of the
    partial sum untouched, because the function has fewer lamps than the
    partial sum has points, gives a child that cannot vanish.  Its reach
    set is then fetched before placing, and the placement stops at its
    first new coefficient outside that set: the full prune would reject
    that coefficient too, so the verdict is the same.  A child that passes
    still gets the full prune, for the points the placement did not touch.

    Where Q is torsion-free (_Level.free), Q = Z^r, whose lexicographic
    order is unchanged by translation, so that test also rules out
    placements before they are made.  A placement that puts lamp t on
    p = min(sum_d) puts each earlier lamp s < t on p + (s - t), below p, on
    a point that sum_d does not hold: the child's coefficient there is lamp
    s's own value, whatever the shift.  So if j is the function's first lamp
    whose value lies outside the reach set, every placement of a later lamp
    stops at lamp j, and only lamps up to j are tried.  With torsion in Q
    translation wraps around, so the earlier lamps may land above p, on
    points of sum_d, and no placement is skipped.

    The search runs on canonical coordinate tuples: points of B/N and
    coefficients of A, added and subtracted by each group's coord_ops
    kernels, which keep them canonical.  Tuples order as their GroupElements
    do, so nodes are visited in coordinate order.  Only a growth's
    generator, a push into B/N' and the witness's shifts, kept in B/N until
    the search ends, need B-points; _Level.lift gives any, as two differ by
    an element of N, and N only grows along a path.
    """
    root = _Level(A, B, terms, (), h)
    levels: dict[tuple, Optional[_Level]] = {}
    assignment: dict[int, tuple[_Level, tuple]] = {}

    def grow(lvl: _Level, p: tuple, q: tuple, seen: set) -> Optional[_Level]:
        """The level of N + <p~ - q~>, or None if seen at this node or too
        big.  That subgroup depends only on p - q in B/N, so its key is
        kept per level under p - q."""
        meter.charge("subgroup_tuples")
        diff = lvl.sub_q(p, q)
        key = lvl.children.get(diff)
        if key is None:
            gen = _element(B, lvl.sub_b(lvl.lift(p), lvl.lift(q)))
            S = Subgroup(B, lvl.gens + (gen,))
            key = lvl.children[diff] = _subgroup_form(B, S.generators).key
            if key not in levels:
                fits = subgroup_rank_at_most(S, h)
                levels[key] = _Level(A, B, terms, S.generators, h) if fits else None
        if key in seen:
            return None
        seen.add(key)
        return levels[key]

    def children(
        lvl: _Level, unplaced: tuple, ids: tuple, sum_d: dict, body: Optional[tuple]
    ):
        """The children of a node that passed the prune and the memo, in
        visit order, as (level, unplaced, sorted value ids, partial sum);
        ids are the node's own, sorted.  Each placement tried and each
        growth child is charged one delta_tuples unit.  A child that fails
        the reachability prune is never yielded; where lvl.in_place a
        placement stops at its first unreachable coefficient, and where
        lvl.free the placements of lamps past the first unreachable one are
        never made.  A placement stays in sum_d and assignment while its
        child is out.  After the last child, when every placement is undone
        and sum_d holds the node's own state again, the state goes into the
        memo under ids, with body, the lookup's translated partial sum, or
        one built then if the lookup built none."""
        sub_q = lvl.sub_q
        # anchor: sums are translation-invariant, so with nothing placed the
        # first function goes with its first lamp on its own point, shift 0
        anchor = not sum_d
        p = lvl.gs[unplaced[0]][0][0] if anchor else min(sum_d)
        tried = set()
        for pos, i in enumerate(unplaced[:1] if anchor else unplaced):
            vid = lvl.vids[i]
            if vid in tried:
                continue
            tried.add(vid)
            rest = unplaced[:pos] + unplaced[pos + 1 :]
            k = ids.index(vid)
            rest_ids = ids[:k] + ids[k + 1 :]
            lamps = lvl.gs[i]
            window = lamps[:1] if anchor else lamps
            reach = None
            if lvl.in_place and len(lamps) < len(sum_d):
                reach = lvl.reach(rest_ids)
                if lvl.free and reach is not None:
                    # a placement of any later lamp stops at the first
                    # unreachable one
                    for j, (_point, coeff) in enumerate(lamps):
                        if coeff not in reach:
                            window = lamps[: j + 1]
                            break
            for point, _coeff in window:
                meter.charge("delta_tuples")
                delta = sub_q(point, p)
                undo = lvl.place(sum_d, lamps, delta, reach)
                if undo is None:
                    continue
                if not (sum_d and lvl.tested) or lvl.cancellable(rest_ids, sum_d):
                    assignment[i] = lvl, delta
                    yield lvl, rest, rest_ids, sum_d
                    del assignment[i]
                lvl.unplace(sum_d, undo)
        if h > 0:
            seen: set = set()
            # sum_d, back at the node's state, lifted once for every push
            lifted = [(lvl.lift(x), c) for x, c in sum_d.items()]
            for q in sorted(sum_d)[1:]:
                nxt = grow(lvl, p, q, seen)
                if nxt is None:
                    continue
                meter.charge("delta_tuples")
                pushed = nxt.push(lifted)
                kept = tuple(i for i in unplaced if i in nxt.gs)
                kept_ids = tuple(sorted(map(nxt.vids.__getitem__, kept)))
                if not (pushed and nxt.tested) or nxt.cancellable(kept_ids, pushed):
                    yield nxt, kept, kept_ids, pushed
        if body is None:
            body = _state_body(sub_q, sum_d)
        lvl.memo.setdefault(ids, set()).add(body)

    # the top generator yields the next node; break descends into its children
    ids = tuple(sorted(root.vids.values()))
    order = tuple(sorted(root.gs, key=lambda i: (-len(root.gs[i]), i)))
    meter.charge("delta_tuples")
    stack = [iter([(root, order, ids, {})])]
    while stack:
        for lvl, unplaced, ids, sum_d in stack[-1]:
            body = None
            failed = lvl.memo.get(ids)
            if failed:
                body = _state_body(lvl.sub_q, sum_d)
                if body in failed:
                    continue
            if not sum_d and not unplaced:
                placed = {i: at.lift(delta) for i, (at, delta) in assignment.items()}
                shifts = (placed.get(i, B.zero().coords) for i in range(len(terms)))
                return tuple(map(B.element, shifts)), Subgroup(B, lvl.gens)
            stack.append(children(lvl, unplaced, ids, sum_d, body))
            break
        else:
            stack.pop()
    return None


def solve_general(
    I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> SolveResult:
    """Complete search: the anchored search, first with N = 0, then growing N.

    The total sum is checked first; then the functions' terms are unwrapped
    to coordinate pairs once, for both passes.  An instance with no
    functions is positive at the root.  The first pass holds N trivial, so
    it runs the reachability prune in place at every node with a nonempty
    partial sum, before the memo; only if it fails and h >= 1 does a second
    pass let N grow from differences of support points, up to rank h.  Each
    level there reads its rule off Q = B/N (_Level): the prune runs where N
    has torsion-free rank h < B.free_rank, in Q with its torsion dropped,
    and in place where Q is torsion-free; where N has finite index it could
    not fail, so it is skipped.
    """
    meter = _Meter(budget)
    if not _total_sum_is_zero(I):
        return _negative("general", meter)
    terms = [tuple([(p.coords, c.coords) for p, c in f.terms]) for f in I.fs]
    try:
        found = _anchored_search(I.A, I.B, terms, 0, meter)
        if found is None and I.h > 0:
            found = _anchored_search(I.A, I.B, terms, I.h, meter)
        if found is None:
            return _negative("general", meter)
        return _positive(I, "general", meter, *found)
    except BudgetExceeded as exc:
        return _unknown("general", meter, exc)


# ---------------------------------------------------------------------------
# dispatcher


def dispatch(I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET) -> SolveResult:
    """Decide I; the one solve entry.  The instance picks the rule:

    - big-h, when the rank budget covers B (h >= rank(B)): N = B is allowed,
      so I is positive exactly when the total coefficient sum is zero, with
      zero shifts and N = B as the certificate;
    - general otherwise: the complete search, solve_general.

    A trivial coefficient group needs no rule of its own: every function is
    zero, so both return (zero shifts, no generators), general at its first
    node.
    """
    if I.h >= group_rank(I.B):
        meter = _Meter(budget)
        if _total_sum_is_zero(I):
            deltas = (I.B.zero(),) * len(I.fs)
            return _positive(I, "big-h", meter, deltas, Subgroup.whole(I.B))
        return _negative("big-h", meter)
    return solve_general(I, budget)


# ---------------------------------------------------------------------------
# literal double-exhaustion oracle (test reference, deliberately naive)


def _zero_sum_partitions(
    terms: Sequence[tuple], meter: _Meter
) -> Iterator[tuple[GroupElement, ...]]:
    """For each partition of terms, (point, coeff) pairs, into blocks whose
    coefficients sum to zero, the differences p - (first point of its block)
    over every point p of every block.

    The first pair's block is tried as the first pair with each nonempty
    subset of the remaining pairs, smallest first, and a block that sums to
    zero is followed by every partition of what is left.  Each candidate
    block is one subgroup_tuples charge, so the budget's tuple and time caps
    bound this step.
    """
    if not terms:
        yield ()
        return
    (first, coeff), rest = terms[0], terms[1:]
    # one point alone never cancels: terms carry no zero coefficient
    for k in range(1, len(rest) + 1):
        for picked in itertools.combinations(range(len(rest)), k):
            meter.charge("subgroup_tuples")
            block = (coeff, *(rest[j][1] for j in picked))
            if not _vanishes(_coeff_sums(coeff.group, (((), c.coords) for c in block))):
                continue
            diffs = tuple(rest[j][0] - first for j in picked)
            left = [t for j, t in enumerate(rest) if j not in picked]
            for tail in _zero_sum_partitions(left, meter):
                yield diffs + tail


def _generated_rank(B: GroupPresentation, gens: Sequence[GroupElement]) -> int:
    """Minimum number of generators of <gens> <= B: k less the invariant
    factors equal to 1 of the relations among the k gens, which are the
    right blocks of the Hermite rows of [g_i | e_i] and [B's relations | 0]
    whose left block is zero."""
    n, k = B.ncoords, len(gens)
    rows = [g.coords + e for g, e in zip(gens, _identity(k))]
    rows += [r + (0,) * k for r in _relation_rows(B)]
    relations = [r[n:] for r in hermite_form(rows) if not any(r[:n])]
    D, _, _ = smith_normal_form(relations)
    return k - sum(row[i] == 1 for i, row in enumerate(D))


def oracle_solve(
    I: QspInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> SolveResult:
    """Reference decision by double exhaustion; tiny instances only.

    Fixes delta_1 = 0 and enumerates the other m - 1 shifts over the ball of
    radius 2 * sum size(f_i), built only when m >= 2; for each shifted sum c
    it tries every partition of supp(c) into zero-sum blocks, asking whether
    the subgroup N_pi generated by the differences p - (first point of its
    block) has rank <= h: at once when there are at most h differences,
    else by _generated_rank, which reads the rank off a Smith form of their
    relations, not off any cached subgroup form.  The ball suffices:
    qsp.normalize_deltas gives a witness with every |delta_i| <= sum
    size(f_i), and the joint translation by -delta_1, which moves c and its
    N-cosets alike, keeps it a witness with |delta_i - delta_1| <= 2 * sum
    size(f_i).  The subgroup half rests on this lemma:
    c vanishes modulo some N of rank <= h exactly when supp(c) splits into
    blocks whose coefficients each sum to zero and whose differences to
    their first points generate an N_pi of rank <= h.

    (=>) Take the partition of supp(c) by N-cosets.  c vanishes in B/N, so
    each block sums to zero, and its differences lie in N, so N_pi <= N; no
    subgroup of a finitely generated abelian group needs more generators
    than the group itself, so rank(N_pi) <= rank(N) <= h.
    (<=) Two points of one block differ by an element of N_pi, so each
    N_pi-coset meets supp(c) in a union of blocks; its coefficients sum to
    zero, and c vanishes modulo N_pi.

    The cost is exponential in the size of each shifted sum's support, not
    in the number of subgroups its differences generate.
    """
    meter = _Meter(budget)
    if not I.fs:
        return _positive(I, "oracle", meter, (), Subgroup.trivial(I.B))
    try:
        free = len(I.fs) - 1
        radius = 2 * sum(f.size() for f in I.fs)
        # with free >= 1, a ball past the tuple cap means more tuples than it
        cap = meter.budget.max_delta_tuples
        ball = list(enumerate_ball(I.B, radius, cap=cap)) if free else []
        ranks: dict[tuple, int] = {}  # the same tuples recur across shifts
        for deltas in itertools.product([I.B.zero()], *[ball] * free):
            meter.charge("delta_tuples")
            c = shifted_sum(I.fs, deltas)
            for gens in _zero_sum_partitions(c.terms, meter):
                if len(gens) > I.h and gens not in ranks:
                    ranks[gens] = _generated_rank(I.B, gens)
                if len(gens) <= I.h or ranks[gens] <= I.h:
                    return _positive(I, "oracle", meter, deltas, Subgroup(I.B, gens))
        return _negative("oracle", meter)
    except BudgetExceeded as exc:
        return _unknown("oracle", meter, exc)
