"""Quotient Sum Problem instances, certificates, and cluster machinery.

An instance (A, B, fs, h) asks whether shifts deltas and a subgroup N <= B of
rank at most h make sum_i shift(f_i, delta_i) vanish in A^{B/N} (the
quotient-sum equation).
A certificate is the witnessing pair (deltas, generators of N); verification
is polynomial in the sizes of instance and certificate.

Clusters group function indices whose (projected) shifted supports touch; they
drive the delta-normalization that bounds witness shifts by the instance size.
clusters is the one connectivity routine; normalization reruns it after each
shift in N that merges a plain sub-cluster into its mod-N cluster's anchor.

shifted_sum, satisfies_equation and make_certificate run on canonical
coordinate tuples: each shifted point p - delta_i comes from B's sub kernel
(abelian.coord_ops), and every shifted term goes into one dict keyed by its
point (or, for the equation, by the point's coordinates in B/N), summed by
A's add kernel, so the work is linear in the number of terms.  GroupElement
and SupportedFunction appear only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    _element,
    _quotient_form,
    coord_ops,
    geodesic_length,
    subgroup_rank_at_most,
)
from .group_ring import (
    SupportedFunction,
    _coeff_sums,
    _from_sums,
    _vanishes,
    shift,
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
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        A, B = self.A, self.B
        for f in self.fs:
            # identity first: the dataclass == compares field by field
            if (f.coeff_group is not A and f.coeff_group != A) or (
                f.base_group is not B and f.base_group != B
            ):
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
        if d.group is not f.base_group and d.group != f.base_group:
            raise ValueError("shift by an element of a different group")
        f0._check_compatible(f)
    return f0.coeff_group, f0.base_group


def _shifted_pairs(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    B: GroupPresentation,
    key: Optional[Callable[[tuple[int, ...]], tuple]] = None,
) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """(coordinates of p - delta_i in B, or their key, coefficient
    coordinates) for every term (p, a) of every f_i: the terms of the
    shifted sum, unmerged."""
    sub = coord_ops(B)[1]
    for f, d in zip(fs, deltas):
        dc = d.coords
        if key is None:
            for p, a in f.terms:
                yield sub(p.coords, dc), a.coords
        else:
            for p, a in f.terms:
                yield key(sub(p.coords, dc)), a.coords


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

    Sums the coefficients of every shifted term per coset of N, keyed by the
    projection of p - delta_i; the shifted sum itself is never built.
    """
    if not fs:
        return True
    A, B = _home_groups(fs, deltas)
    form = _quotient_form(B, N)
    # at N = 0 the projection is B's own reduction, which sub has done
    key = form.project_coords if N.generators else None
    return _vanishes(_coeff_sums(A, _shifted_pairs(fs, deltas, B, key)))


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
        if d.group is not B and d.group != B:
            raise ShapeMismatch("certificate delta outside the base group")
    for g in cert.subgroup_gens:
        if g.group is not B and g.group != B:
            raise ShapeMismatch("certificate generator outside the base group")
    N = Subgroup(instance.B, cert.subgroup_gens)
    if not subgroup_rank_at_most(N, instance.h):
        return False
    return satisfies_equation(instance.fs, cert.deltas, N)


# ---------------------------------------------------------------------------
# clusters


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
    index.
    """
    m = len(fs)
    if len(deltas) != m:
        raise ShapeMismatch("delta list length differs from function list")
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    if m:
        project = _quotient_form(fs[0].base_group, N).project_coords
        owner: dict[tuple[int, ...], int] = {}
        for i, (f, d) in enumerate(zip(fs, deltas)):
            for p in shift(f, d).support():
                key = project(p.coords)
                if key in owner:
                    union(owner[key], i)
                else:
                    owner[key] = i
    # every root is its block's least index, so blocks appear in that order
    groups: dict[int, set[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), set()).add(i)
    return tuple(frozenset(v) for v in groups.values())


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
    if not instance.fs:
        return Certificate((), ())
    project = _quotient_form(instance.B, N).project_coords
    A, B = _home_groups(instance.fs, deltas)
    if not N.generators:
        # each N-coset is one point, so no difference p - q arises
        return Certificate(tuple(deltas), ())
    sub = coord_ops(B)[1]
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


def _support_union(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    block: Iterable[int],
) -> list[GroupElement]:
    pts: dict[tuple[int, ...], GroupElement] = {}
    for i in block:
        for p in shift(fs[i], deltas[i]).support():
            pts.setdefault(p.coords, p)
    return [pts[k] for k in sorted(pts)]


def _realign_block(
    fs: Sequence[SupportedFunction],
    deltas: list[GroupElement],
    N: Subgroup,
    phi_block: frozenset[int],
) -> None:
    """Shift sub-clusters by elements of N until the phi-block is one plain cluster.

    The plain sub-cluster holding the block's least index is the anchor.
    While another sub-cluster remains, the first one by least index with a
    support point p in the N-coset of an anchor point q is shifted by p - q:
    p lands on q, so it merges with the anchor.  One always qualifies, as the
    phi-block is connected modulo N.  Every shift lies in N, so the mod-N
    clusters and the quotient-sum equation are untouched.
    """
    B = fs[0].base_group
    project = _quotient_form(B, N).project_coords
    trivial = Subgroup.trivial(B)
    idx = sorted(phi_block)
    while True:
        part = clusters([fs[i] for i in idx], [deltas[i] for i in idx], trivial)
        if len(part) == 1:
            return
        subs = [[idx[j] for j in b] for b in part]
        anchor: dict[tuple[int, ...], GroupElement] = {}
        for q in _support_union(fs, deltas, subs[0]):
            anchor.setdefault(project(q.coords), q)
        moves = (
            (blk, p - anchor[key])
            for blk in subs[1:]
            for p in _support_union(fs, deltas, blk)
            if (key := project(p.coords)) in anchor
        )
        blk, offset = next(moves, ((), None))
        if offset is None:
            raise AssertionError("phi-adjacent clusters share no N-coset point")
        for i in blk:
            deltas[i] = deltas[i] + offset


def normalize_deltas(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> tuple[GroupElement, ...]:
    """Replace a solution's shifts by small ones: |delta_i'| <= sum size(f_i).

    Two phases, both preserving the quotient-sum equation: first realign
    plain clusters to the mod-N clusters by shifting sub-clusters with
    elements of N (_realign_block), then translate every cluster so that 0
    is in its support union (the lexicographically least union point is
    moved to the origin).  Functions with empty support get delta 0.
    """
    if not satisfies_equation(fs, deltas, N):
        raise ValueError("input shifts do not solve the instance")
    work = list(deltas)
    if not fs:
        return tuple(work)
    B = fs[0].base_group

    for blk in clusters(fs, work, N):
        _realign_block(fs, work, N, blk)

    for blk in clusters(fs, work, Subgroup.trivial(B)):
        union = _support_union(fs, work, blk)
        if not union:
            for i in blk:
                work[i] = B.zero()
            continue
        least = union[0]
        for i in blk:
            work[i] = work[i] + least
    if not satisfies_equation(fs, work, N):
        raise AssertionError("normalization broke the equation")
    bound = sum(f.size() for f in fs)
    for d in work:
        if geodesic_length(B, d) > bound:
            raise AssertionError("normalized shift exceeds the size bound")
    return tuple(work)
