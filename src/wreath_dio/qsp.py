"""Quotient Sum Problem instances, certificates, and cluster machinery.

An instance (A, B, fs, h) asks whether shifts deltas and a subgroup N <= B of
rank at most h make sum_i shift(f_i, delta_i) vanish in A^{B/N} (the
quotient-sum equation).
A certificate is the witnessing pair (deltas, generators of N); verification
is polynomial in the sizes of instance and certificate.

Clusters group function indices whose (projected) shifted supports touch; they
drive the delta-normalization that bounds witness shifts by the instance size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    geodesic_length,
    quotient,
    subgroup_contains,
    subgroup_rank,
)
from .group_ring import SupportedFunction, is_zero_mod, shift


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
        for f in self.fs:
            if f.coeff_group != self.A or f.base_group != self.B:
                raise ValueError("instance functions must share (A, B)")

    def size(self) -> int:
        """size(A) + size(B) + sum of size(f_i) + h."""
        return (
            self.A.size()
            + self.B.size()
            + sum(f.size() for f in self.fs)
            + self.h
        )

    def functions_size(self) -> int:
        return sum(f.size() for f in self.fs)


@dataclass(frozen=True)
class Certificate:
    """(deltas, subgroup generators) witnessing a positive instance."""

    deltas: tuple[GroupElement, ...]
    subgroup_gens: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(self.deltas))
        object.__setattr__(self, "subgroup_gens", tuple(self.subgroup_gens))


@dataclass(frozen=True)
class ClusterPartition:
    """A partition of the function index set {0..m-1} into blocks."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "blocks",
            tuple(sorted((frozenset(b) for b in self.blocks), key=min)),
        )
        seen: set[int] = set()
        for b in self.blocks:
            if b & seen:
                raise ValueError("cluster blocks overlap")
            seen |= b

    def block_of(self, i: int) -> frozenset[int]:
        for b in self.blocks:
            if i in b:
                return b
        raise KeyError(i)


class ShapeMismatch(ValueError):
    """Certificate data does not fit the instance's shape."""


def shifted_sum(
    fs: Sequence[SupportedFunction], deltas: Sequence[GroupElement]
) -> SupportedFunction:
    """sum_i shift(f_i, delta_i); the left side of the quotient-sum equation."""
    if len(fs) != len(deltas):
        raise ShapeMismatch("delta list length differs from function list")
    if not fs:
        raise ShapeMismatch("empty function list has no home groups")
    out = SupportedFunction.zero(fs[0].coeff_group, fs[0].base_group)
    for f, d in zip(fs, deltas):
        out = out + shift(f, d)
    return out


def satisfies_equation(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> bool:
    """The quotient-sum equation without the rank constraint."""
    if not fs:
        return True
    return is_zero_mod(shifted_sum(fs, deltas), N)


def verify_certificate(instance: QspInstance, cert: Certificate) -> bool:
    """Check the quotient-sum equation and rank(N) <= h; polynomial in both sizes."""
    if len(cert.deltas) != len(instance.fs):
        raise ShapeMismatch("certificate delta count differs from fs count")
    for d in cert.deltas:
        if d.group != instance.B:
            raise ShapeMismatch("certificate delta outside the base group")
    for g in cert.subgroup_gens:
        if g.group != instance.B:
            raise ShapeMismatch("certificate generator outside the base group")
    N = Subgroup(instance.B, cert.subgroup_gens)
    if subgroup_rank(N) > instance.h:
        return False
    return satisfies_equation(instance.fs, cert.deltas, N)


# ---------------------------------------------------------------------------
# clusters


def clusters(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> ClusterPartition:
    """Connected components of the projected-support intersection graph.

    Indices i, j are joined whenever phi(supp(f_i^{delta_i})) meets
    phi(supp(f_j^{delta_j})) for phi: B -> B/N.  With N trivial this is the
    plain cluster partition; functions with empty support sit in singleton
    blocks.
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
        _, project = quotient(fs[0].base_group, N)
        owner: dict[tuple[int, ...], int] = {}
        for i, (f, d) in enumerate(zip(fs, deltas)):
            for p in shift(f, d).support():
                key = project(p).coords
                if key in owner:
                    union(owner[key], i)
                else:
                    owner[key] = i
    groups: dict[int, set[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), set()).add(i)
    return ClusterPartition(tuple(frozenset(v) for v in groups.values()))


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
    part = clusters(fs, deltas, N)
    if blk not in part.blocks:
        raise ValueError("not a block of the cluster partition")
    return tuple(
        d + shift_by if i in blk else d for i, d in enumerate(deltas)
    )


# ---------------------------------------------------------------------------
# difference sets and the good-subgroup shrink


def difference_set(f: SupportedFunction) -> list[GroupElement]:
    """All pairwise support-point differences, deduplicated, sorted.

    Includes 0 whenever the support is nonempty.
    """
    points = f.support()
    seen: dict[tuple[int, ...], GroupElement] = {}
    for p in points:
        for q in points:
            d = p - q
            seen.setdefault(d.coords, d)
    return [seen[k] for k in sorted(seen)]


def shrink_subgroup(f: SupportedFunction, N: Subgroup) -> Subgroup:
    """N' = <difference_set(f) restricted to N>; vanishing mod N' iff mod N.

    Two support points of f lie in the same N-coset exactly when their
    difference is a difference-set element of N, so the fiber partitions of
    supp(f) under N and N' coincide and the pushforward vanishing transfers
    both ways.  rank(N') <= rank(N) and every generator has geodesic length at
    most size(f).
    """
    gens = tuple(
        d for d in difference_set(f) if not d.is_zero() and subgroup_contains(N, d)
    )
    return Subgroup(f.base_group, gens)


def make_certificate(
    instance: QspInstance,
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> Certificate:
    """Shrink N through the shifted sum's difference set and package.

    All solvers emit certificates through this helper, which keeps the
    generator-norm invariant (every generator is a support difference of the
    sum function, hence of geodesic length at most its size) and can only
    lower the subgroup rank.
    """
    if not instance.fs:
        return Certificate((), ())
    c = shifted_sum(instance.fs, deltas)
    shrunk = shrink_subgroup(c, N)
    return Certificate(tuple(deltas), shrunk.generators)


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

    Peels non-cut vertices off the sub-cluster adjacency graph (highest index
    first, per the fixed tie-break), then re-attaches each by translating it
    so one of its support points lands on the merged component's matching
    point.  All shifts are by elements of N, so the mod-N picture and
    the quotient-sum equation are untouched.
    """
    _, project = quotient(fs[0].base_group, N)

    def plain_subblocks() -> list[frozenset[int]]:
        sub = [i for i in sorted(phi_block)]
        part = clusters(
            [fs[i] for i in sub],
            [deltas[i] for i in sub],
            Subgroup.trivial(fs[0].base_group),
        )
        return [frozenset(sub[j] for j in b) for b in part.blocks]

    while True:
        blocks = plain_subblocks()
        if len(blocks) == 1:
            return
        unions = {b: _support_union(fs, deltas, b) for b in blocks}
        proj_unions = {
            b: {project(p).coords for p in unions[b]} for b in blocks
        }

        def adjacent(x: frozenset[int], y: frozenset[int]) -> bool:
            return bool(proj_unions[x] & proj_unions[y])

        def connected(verts: list[frozenset[int]]) -> bool:
            if not verts:
                return True
            seen = {0}
            stack = [0]
            while stack:
                i = stack.pop()
                for j in range(len(verts)):
                    if j not in seen and adjacent(verts[i], verts[j]):
                        seen.add(j)
                        stack.append(j)
            return len(seen) == len(verts)

        # highest-indexed vertex whose removal keeps the graph connected;
        # ordering by max function index for reproducibility
        order = sorted(blocks, key=max)
        victim = None
        for v in reversed(order):
            rest = [b for b in blocks if b != v]
            if connected(rest):
                victim = v
                break
        if victim is None:  # pragma: no cover - connected graphs always have one
            victim = order[-1]

        rest_indices = sorted(set().union(*(b for b in blocks if b != victim)))
        rest_union = _support_union(fs, deltas, rest_indices)
        offset = None
        for p_v in unions[victim]:
            for p_k in rest_union:
                if subgroup_contains(N, p_v - p_k):
                    offset = p_v - p_k
                    break
            if offset is not None:
                break
        if offset is None:
            raise AssertionError("phi-adjacent clusters share no N-coset point")
        for i in victim:
            deltas[i] = deltas[i] + offset


def normalize_deltas(
    fs: Sequence[SupportedFunction],
    deltas: Sequence[GroupElement],
    N: Subgroup,
) -> tuple[GroupElement, ...]:
    """Replace a solution's shifts by small ones: |delta_i'| <= sum size(f_i).

    Two phases, both preserving the quotient-sum equation: first realign
    plain clusters to the mod-N clusters by shifting sub-clusters with
    elements of N, then
    translate every cluster so that 0 is in its support union (the
    lexicographically least union point is moved to the origin).  Functions
    with empty support get delta 0.
    """
    if not satisfies_equation(fs, deltas, N):
        raise ValueError("input shifts do not solve the instance")
    work = list(deltas)
    if not fs:
        return tuple(work)
    B = fs[0].base_group

    phi_part = clusters(fs, work, N)
    for blk in phi_part.blocks:
        _realign_block(fs, work, N, blk)

    plain = clusters(fs, work, Subgroup.trivial(B))
    for blk in plain.blocks:
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
