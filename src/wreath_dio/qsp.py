"""Quotient Sum Problem instances, certificates, and cluster machinery.

An instance (A, B, fs, h) asks whether shifts deltas and a subgroup N <= B of
rank at most h make sum_i shift(f_i, delta_i) vanish in A^{B/N} (the
quotient-sum equation).
A certificate is the witnessing pair (deltas, generators of N); verification
is polynomial in the sizes of instance and certificate.

Clusters group function indices whose shifted supports touch modulo N; one
walk (_walk) finds each along a spanning tree of shared N-cosets, and
normalize_deltas applies its moves, so at every h a witness's shifts fit the
instance size and its generators a per-coordinate box.

shifted_sum, satisfies_equation and make_certificate run on canonical
coordinate tuples: each shifted point p - delta_i comes from B's sub kernel
(abelian.coord_ops), and every shifted term goes into one dict keyed by its
point (or, for the equation, by its coset, group_ring._coset_sums), summed by
A's add kernel, so the work is linear in the number of terms.  GroupElement
and SupportedFunction appear only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    _element,
    _integer,
    _quotient_form,
    coord_ops,
    geodesic_length,
    subgroup_rank_at_most,
)
from .group_ring import (
    SupportedFunction,
    _coeff_sums,
    _coset_sums,
    _from_sums,
    _vanishes,
)


@dataclass(frozen=True)
class QspInstance:
    """(A, B, fs, h): can the shifted sum vanish modulo a rank <= h subgroup?"""

    A: GroupPresentation
    B: GroupPresentation
    fs: tuple[SupportedFunction, ...]
    h: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "fs", tuple(self.fs))
        object.__setattr__(self, "h", _integer(self.h, "h"))
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        A, B = self.A, self.B
        for f in self.fs:
            if f.coeff_group is not A or f.base_group is not B:
                raise ValueError("instance functions must share (A, B)")

    def size(self) -> int:
        """size(A) + size(B) + sum of size(f_i) + h."""
        return (
            self.A.size()
            + self.B.size()
            + sum(f.size() for f in self.fs)
            + self.h
        )


@dataclass(frozen=True)
class Certificate:
    """(deltas, subgroup generators) witnessing a positive instance."""

    deltas: tuple[GroupElement, ...]
    subgroup_gens: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(self.deltas))
        object.__setattr__(self, "subgroup_gens", tuple(self.subgroup_gens))


class ShapeMismatch(ValueError):
    """Certificate data does not fit the instance's shape."""


def _home_groups(
    fs: Sequence[SupportedFunction], deltas: Sequence[GroupElement]
) -> tuple[GroupPresentation, GroupPresentation]:
    """(A, B) shared by every function and shift; raises on a mismatch."""
    if len(fs) != len(deltas):
        raise ShapeMismatch("delta list length differs from function list")
    if not fs:
        raise ShapeMismatch("empty function list has no home groups")
    f0 = fs[0]
    for f, d in zip(fs, deltas):
        if d.group is not f.base_group:
            raise ValueError("shift by an element of a different group")
        f0._check_compatible(f)
    return f0.coeff_group, f0.base_group


def _shifted_pairs(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    B: GroupPresentation,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(coordinates of p - delta_i in B, coefficient coordinates) for every
    term (p, a) of every f_i: the terms of the shifted sum, unmerged."""
    sub = coord_ops(B)[1]
    for f, d in zip(fs, deltas):
        dc = d.coords
        for p, a in f.terms:
            yield sub(p.coords, dc), a.coords


def shifted_sum(
    fs: Sequence[SupportedFunction], deltas: Sequence[GroupElement]
) -> SupportedFunction:
    """sum_i shift(f_i, delta_i); the left side of the quotient-sum equation."""
    A, B = _home_groups(fs, deltas)
    return _from_sums(A, B, _coeff_sums(A, _shifted_pairs(fs, deltas, B)))


def satisfies_equation(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> bool:
    """The quotient-sum equation without the rank constraint.

    Sums the coefficients of every shifted term p - delta_i per coset of N
    (group_ring._coset_sums); the shifted sum itself is never built.
    """
    if not fs and not deltas:
        return True
    A, B = _home_groups(fs, deltas)
    return _vanishes(_coset_sums(A, _quotient_form(B, N), _shifted_pairs(fs, deltas, B)))


def verify_certificate(instance: QspInstance, cert: Certificate) -> bool:
    """Check the quotient-sum equation and rank(N) <= h; polynomial in both sizes.

    The rank is bounded first by min(#generators, rank(B)): when that bound
    is at most h the rank needs no Smith form, and only a certificate whose
    bound exceeds h has its rank read off the Smith form of its generators'
    relations (abelian.subgroup_rank_at_most).  The equation is checked on
    coordinate tuples by satisfies_equation.
    """
    if len(cert.deltas) != len(instance.fs):
        raise ShapeMismatch("certificate delta count differs from fs count")
    B = instance.B
    for d in cert.deltas:
        if d.group is not B:
            raise ShapeMismatch("certificate delta outside the base group")
    for g in cert.subgroup_gens:
        if g.group is not B:
            raise ShapeMismatch("certificate generator outside the base group")
    N = Subgroup(instance.B, cert.subgroup_gens)
    if not subgroup_rank_at_most(N, instance.h):
        return False
    return satisfies_equation(instance.fs, cert.deltas, N)


# ---------------------------------------------------------------------------
# clusters


def _walk(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> Iterator[dict[int, tuple[int, ...]]]:
    """The mod-N walk: per block, each member's index mapped to its move,
    in placement order.  A block starts at the least unplaced index, with
    move 0.  While some unplaced function has a shifted point p in the
    N-coset of a placed point q, the first such function by index, at its
    first such p, is placed with move p - q, in N: its points, moved back
    by it, become the placed points of their cosets."""
    if not fs and not deltas:
        return
    B = _home_groups(fs, deltas)[1]
    sub, project = coord_ops(B)[1], _quotient_form(B, N).project_coords
    shifted = ([sub(p.coords, d.coords) for p, _ in f.terms] for f, d in zip(fs, deltas))
    points = [[(project(x), x) for x in xs] for xs in shifted]  # with coset keys
    unplaced, zero = list(range(len(fs))), B.zero().coords
    while unplaced:
        i, offset, placed, moves = unplaced[0], zero, {}, {}
        while i is not None:
            unplaced.remove(i)
            moves[i] = offset
            for k, x in points[i]:
                placed[k] = sub(x, offset)
            hits = ((j, sub(x, placed[k])) for j in unplaced
                    for k, x in points[j] if k in placed)
            i, offset = next(hits, (None, None))
        yield moves


def clusters(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> tuple[frozenset[int], ...]:
    """Connected components of the projected-support intersection graph.

    Indices i, j are joined whenever phi(supp(f_i^{delta_i})) meets
    phi(supp(f_j^{delta_j})) for phi: B -> B/N.  With N trivial this is the
    plain cluster partition; functions with empty support sit in singleton
    blocks.  The blocks are disjoint, cover 0..m-1 and are sorted by least
    index: they are the blocks of the mod-N walk (_walk).
    """
    return tuple(frozenset(moves) for moves in _walk(fs, deltas, N))


def cluster_shift(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
    block: Iterable[int],
    shift_by: GroupElement,
) -> tuple[GroupElement, ...]:
    """Add shift_by to every delta of one cluster block.

    The block must be a block of clusters(fs, deltas, N); shifting a whole
    cluster preserves solution status (the other clusters' pushforward
    contributions are untouched and the shifted cluster's own sum moves as a
    translate).
    """
    blk = frozenset(block)
    if blk not in clusters(fs, deltas, N):
        raise ValueError("not a block of the cluster partition")
    return tuple(
        d + shift_by if i in blk else d for i, d in enumerate(deltas)
    )


# ---------------------------------------------------------------------------
# certificates


def make_certificate(
    instance: QspInstance,
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> Certificate:
    """Package deltas with generators of N' <= N read off the shifted sum c.

    One pass over supp(c), in sorted order and on coordinate tuples, keeps
    the first point q of each N-coset and takes p - q for every later point
    p of it; the certificate lists these differences distinct and sorted by
    coordinates.  Only they become elements.  At N = 0 every N-coset is a
    single point, so no difference arises: the groups are still checked,
    but no shifted sum is built and the certificate has no generators,
    whatever the deltas.  All solvers emit certificates here.  What a
    verifier relies on:

    - N' <= N, as each p - q joins two points of one N-coset; so
      rank(N') <= rank(N), a subgroup needing no more generators than N.
    - An N'-coset lies in one N-coset, whose support points are its first
      point plus generators, so it meets supp(c) in that whole block or not
      at all, and c vanishes mod N' exactly when it vanishes mod N.
    - Each generator p - q is a support difference of c, so its geodesic
      length is at most |p| + |q| <= size(c).
    """
    if not instance.fs and not deltas:
        return Certificate((), ())
    form = _quotient_form(instance.B, N)
    A, B = _home_groups(instance.fs, deltas)
    if form.trivial:
        # each N-coset is one point, so no difference p - q arises
        return Certificate(tuple(deltas), ())
    project, sub = form.project_coords, coord_ops(B)[1]
    sums = _coeff_sums(A, _shifted_pairs(instance.fs, deltas, B))
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    gens: set[tuple[int, ...]] = set()
    for p in sorted(p for p, c in sums.items() if any(c)):
        q = first.setdefault(project(p), p)
        if q is not p:
            gens.add(sub(p, q))
    return Certificate(tuple(deltas), tuple([_element(B, g) for g in sorted(gens)]))


# ---------------------------------------------------------------------------
# delta normalization


def normalize_deltas(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> tuple[GroupElement, ...]:
    """Replace a solution's shifts by small ones: |delta_i'| <= sum size(f_i).

    The spanning-tree lift: each block of the mod-N walk (_walk) has every
    shift moved by its move, in N, so that each placed function's point p
    lands on the point q of the block it was placed at.  Then the block is
    translated so that the least point of its union is the origin.  Shifts
    in N keep the equation and the mod-N clusters, and a block's own sum
    vanishes mod N, so its translate does too.  The lift makes each block
    one plain cluster and every block with support holds the origin, so the
    plain clusters equal the mod-N ones; a function with empty support gets 0.

    The bounds, at every h.  Two shifted points of a block are joined by a
    path through shared points that crosses each support at most once, so
    in a free coordinate j they differ by at most the block's sum of
    diam_j(f_i) = max |a_j - b_j| over a, b in supp(f_i).  Every block holds
    the origin, so two points of one N-coset, in one block or two, have
    |p_j - q_j| <= R_j = sum_i diam_j(f_i): make_certificate's generators
    lie in that box.  A path from 0 to x - delta_i', x in supp(f_i), gives
    |delta_i'| <= |x| + sum_{k != i} diam(f_k) <= sum_k size(f_k).
    """
    if not satisfies_equation(fs, deltas, N):
        raise ValueError("input shifts do not solve the instance")
    B = N.ambient
    add, sub, _ = coord_ops(B)
    work = [d.coords for d in deltas]
    for moves in _walk(fs, deltas, N):
        for i, move in moves.items():
            work[i] = add(work[i], move)
        union = [sub(p.coords, work[i]) for i in moves for p, _ in fs[i].terms]
        least = min(union, default=None)
        for i in moves:
            work[i] = B.zero().coords if least is None else add(work[i], least)
    out = tuple(_element(B, d) for d in work)
    if not satisfies_equation(fs, out, N):
        raise AssertionError("normalization broke the equation")
    bound = sum(f.size() for f in fs)
    if any(geodesic_length(B, d) > bound for d in out):
        raise AssertionError("normalized shift exceeds the size bound")
    return out
