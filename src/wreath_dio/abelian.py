"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor form: a free rank plus a chain of torsion
orders alpha_1 | alpha_2 | ... (each >= 2).  Elements are integer coordinate
vectors, torsion coordinates first (stored canonically in [0, alpha_i)), then
free coordinates.  Everything is immutable and computed with arbitrary
precision integers; no floating point enters this module.  Groups are
interned and capped: one object per group, of at most COORD_CAP
coordinates, so every module compares groups with `is`.

The workhorse is the Smith normal form.  A subgroup is its Hermite basis
K, that of its preimage lattice (_subgroup_key), whichever generating set
names it.  One cached form per K diagonalises K's transpose once, and that
Smith form serves membership, the quotient with its projection map, and
the lift back, which the anchored search in solvers calls; the rank reads
G's relations written in the basis K.  All elimination, K included, is
lattice.hermite_form's.  The trivial subgroup alone needs no Smith form,
G/{0} projecting by coord_ops's reduce; its form's trivial flag, set by K
whichever generators (zeros too) name it, is the library's one N = 0 test.
A rank budget is checked against min(#generators, rank G) first, so the
rank is read only when that bound exceeds it (subgroup_rank_at_most).

coord_ops(G) holds the kernels on coordinate tuples: add, sub and reduce,
one lambda each, compiled once per shape (torsion count, length) and bound
to G's torsion orders.  Its reduce is the one reduction rule: the
GroupElement constructor, the trivial subgroup's projection and the codec
all run on it, and GroupElement's own + and - on its add and sub.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, index, mul
from typing import Callable, Iterable, Iterator, Sequence

from .lattice import hermite_form


class BudgetExceeded(Exception):
    """An enumeration outgrew its configured cap."""


DEFAULT_BALL_CAP = 10**7


# ---------------------------------------------------------------------------
# presentations and elements


# the most coordinates a group may have.  Past it, measured: the trivial
# subgroup's form over Z^10000 (an n x n identity) took 6.7 s and 1.1 GB,
# coord_ops(Z^100000) 2.65 s and 868 MB, and a one-generator form 0.73 s
# over Z^256 and 34 s over Z^1024, where the verifier has no budget
COORD_CAP = 32

# the live group of each (free rank, torsion), in no functools cache, which
# may be cleared; the lock makes setdefault, Python code here, one step
_groups = weakref.WeakValueDictionary()
_groups_lock = threading.Lock()


@dataclass(frozen=True, init=False, eq=False)
class GroupPresentation:
    """A finitely generated abelian group Z^free_rank x Z_a1 x ... x Z_at.

    The torsion orders must form a divisibility chain a1 | a2 | ... with every
    a_i >= 2; factors equal to 1 are dropped at construction.  There is one
    object per group, of at most COORD_CAP coordinates.

    >>> GroupPresentation(1, (1, 6)).torsion
    (6,)
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __new__(cls, free_rank: int, torsion: Iterable[int] = ()) -> GroupPresentation:
        free_rank = _integer(free_rank, "free rank")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        orders = tuple(_integer(a, "torsion order") for a in torsion)
        cleaned = tuple(a for a in orders if a != 1)
        if any(a < 1 for a in cleaned):
            raise ValueError("torsion orders must be positive")
        for prev, nxt in zip(cleaned, cleaned[1:]):
            if nxt % prev != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        n = free_rank + len(cleaned)
        if n > COORD_CAP:
            raise ValueError(f"the group has {n} coordinates, past the cap {COORD_CAP}")
        G = _groups.get((free_rank, cleaned))
        if G is None:
            G = object.__new__(cls)
            object.__setattr__(G, "free_rank", free_rank)
            object.__setattr__(G, "torsion", cleaned)
            with _groups_lock:
                G = _groups.setdefault((free_rank, cleaned), G)
        return G

    def __reduce__(self):
        return GroupPresentation, (self.free_rank, self.torsion)

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.ncoords == 0

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if not self.is_finite():
            return None
        n = 1
        for a in self.torsion:
            n *= a
        return n

    def size(self) -> int:
        """Additive size of the presentation data (binary digit lengths)."""
        return self.free_rank + sum(a.bit_length() for a in self.torsion)

    # every torsion order is at least 2, so 0 and 1 are canonical
    # coordinates and zero() and standard_generators() skip the reduction

    def zero(self) -> "GroupElement":
        return _element(self, (0,) * self.ncoords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def standard_generators(self) -> tuple["GroupElement", ...]:
        return tuple([_element(self, e) for e in _identity(self.ncoords)])

    def elements(self) -> Iterator["GroupElement"]:
        """All elements of a finite group, in lexicographic coordinate order."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(a) for a in self.torsion)):
            yield GroupElement(self, coords)


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of a GroupPresentation, as a canonical coordinate vector.

    Coordinates are ordered torsion-first then free; torsion coordinates are
    reduced into [0, alpha_i) after every operation, so equality of elements
    is equality of coordinate tuples.
    """

    group: GroupPresentation
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.group
        if len(self.coords) != g.ncoords:
            raise ValueError(
                f"expected {g.ncoords} coordinates, got {len(self.coords)}"
            )
        try:
            coords = tuple(map(index, self.coords))
        except TypeError:
            # the first coordinate that is not an integer raises ValueError
            coords = tuple([_integer(c, "coordinate") for c in self.coords])
        object.__setattr__(self, "coords", coord_ops(g)[2](coords))

    def __hash__(self) -> int:
        # equal elements have equal coordinates; leaving the group out keeps
        # cache keys such as (G, generators) from hashing G once per element
        return hash(self.coords)

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group is not other.group:
            raise ValueError("elements belong to different groups")

    # the kernels keep canonical operands canonical, so the results skip the
    # constructor's reduction

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        G = self.group
        return _element(G, coord_ops(G)[0](self.coords, other.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        G = self.group
        return _element(G, coord_ops(G)[1](self.coords, other.coords))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def has_infinite_order(self) -> bool:
        return any(c != 0 for c in self.coords[len(self.group.torsion):])


def _integer(x: object, what: str) -> int:
    """x as an exact int; a bool, a float or any other non-integer is a
    ValueError.  operator.index alone reads True as 1."""
    if isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got bool")
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {type(x).__name__}") from None


def _element(G: GroupPresentation, coords: tuple[int, ...]) -> GroupElement:
    """A GroupElement from coordinates that are already canonical in G.

    Skips the reduction of the constructor, so it is only for kernels whose
    tuples come out of coord_ops or _SubgroupForm.project_coords.
    """
    e = object.__new__(GroupElement)
    object.__setattr__(e, "group", G)
    object.__setattr__(e, "coords", coords)
    return e


Coords = tuple[int, ...]


@lru_cache(maxsize=256)
def _coord_ops_maker(t: int, n: int) -> Callable[..., tuple]:
    """A function of t torsion orders that returns (add, sub, reduce) for
    tuples of n coordinates, the first t of them torsion.  Its source is
    built from t and n alone; the orders are bound as closure cells when it
    is called."""
    orders = [f"a{i}" for i in range(t)]

    def body(args: str, cell: str) -> str:
        cells = [f"({cell.format(i)}) % a{i}," for i in range(t)]
        cells += [f"{cell.format(i)}," for i in range(t, n)]
        return f"lambda {args}: ({' '.join(cells)})"

    ops = [body("u, v", "u[{0}] + v[{0}]"), body("u, v", "u[{0}] - v[{0}]"),
           body("u", "u[{0}]")]
    source = f"def make({', '.join(orders)}):\n    return {', '.join(ops)}\n"
    namespace: dict = {}
    exec(compile(source, f"<coord_ops t={t} n={n}>", "exec"), namespace)
    return namespace["make"]


@lru_cache(maxsize=4096)
def coord_ops(G: GroupPresentation) -> tuple[
    Callable[[Coords, Coords], Coords],
    Callable[[Coords, Coords], Coords],
    Callable[[Sequence[int]], Coords],
]:
    """(add, sub, reduce) on coordinate tuples of G, for inner loops.

    reduce(u) is the canonical tuple a GroupElement stores for integer
    coordinates u of G's length: torsion coordinates mod alpha_i, free ones
    unchanged.  add(u, v) and sub(u, v) are reduce of the coordinatewise
    sum and difference.  Each is one lambda that names every coordinate,
    compiled once per shape (torsion count, length) with G's torsion orders
    bound as data.

    >>> add, sub, reduce = coord_ops(GroupPresentation(1, (2,)))
    >>> add((1, 3), (1, 4)), sub((0, 3), (1, 4)), reduce([-3, 5])
    ((0, 7), (1, -1), (1, 5))
    """
    return _coord_ops_maker(len(G.torsion), G.ncoords)(*G.torsion)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an ambient group, given by a finite list of generators."""

    ambient: GroupPresentation
    generators: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        G = self.ambient
        for g in self.generators:
            if g.group is not G:
                raise ValueError("generator outside the ambient group")

    @staticmethod
    def trivial(ambient: GroupPresentation) -> "Subgroup":
        return Subgroup(ambient, ())

    @staticmethod
    def whole(ambient: GroupPresentation) -> "Subgroup":
        return Subgroup(ambient, ambient.standard_generators())


# ---------------------------------------------------------------------------
# integer matrices (tuples of row tuples) and Smith normal form

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> Matrix:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def _hermite_pair(left: Iterable, right: Iterable, n: int) -> tuple[Matrix, Matrix]:
    """The Hermite form of the rows [left | right], cut after column n."""
    H = hermite_form(map(add, left, right))
    return tuple([r[:n] for r in H]), tuple([r[n:] for r in H])


def _is_diagonal(a: Matrix) -> bool:
    return not any(any(r[:i]) or any(r[i + 1:]) for i, r in enumerate(a))


def smith_normal_form(M: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize the rows M as D = U * M * V with U, V unimodular.

    The diagonal entries are nonnegative and form a divisibility chain
    d_1 | d_2 | ... .  An n x 0 matrix is n empty rows.  As Kannan and
    Bachem (1979) do, row steps (the Hermite form of [M | U]) and column
    steps (that of [M^T | V^T]) alternate, a row step first, until M is
    diagonal; [M | U] has full row rank, so no row is dropped.  This ends:
    each pass strictly lowers the first pivot not yet alone in its row and
    column, or leaves it dividing both, and then the next step clears them.
    Where d_(i-1) does not divide d_i, column i is added into column i - 1,
    and the next row step puts their gcd at (i - 1, i - 1), which lowers
    the diagonal lexicographically.  An input already in Smith form comes
    back with U and V the identities.

    >>> D, U, V = smith_normal_form(((2, 4), (6, 8)))
    >>> D
    ((2, 0), (0, 4))
    """
    a = tuple(map(tuple, M))
    nr, nc = len(a), len(a[0]) if a else 0
    u, v = _identity(nr), _identity(nc)
    while True:
        a, u = _hermite_pair(a, u, nc)
        if not _is_diagonal(a):
            at, vt = _hermite_pair(zip(*a), zip(*v), nr)
            a, v = tuple(zip(*at)), tuple(zip(*vt))
            if not _is_diagonal(a):
                continue
        d = [a[i][i] for i in range(min(nr, nc))]
        i = next((i for i in range(1, len(d)) if d[i - 1] and d[i] % d[i - 1]), 0)
        if not i:
            return a, u, v
        a, v = (tuple(r[:i - 1] + (r[i - 1] + r[i],) + r[i:] for r in x)
                for x in (a, v))


# ---------------------------------------------------------------------------
# relation lattices: the bridge between subgroups and integer matrices


def _relation_rows(G: GroupPresentation) -> list[tuple[int, ...]]:
    """Rows spanning the kernel of Z^ncoords -> G (torsion relations)."""
    return [tuple(a * x for x in e) for a, e in zip(G.torsion, _identity(G.ncoords))]


def _subgroup_key(G: GroupPresentation, gens: Iterable[GroupElement]) -> Matrix:
    """The Hermite basis K of the preimage of <gens> in Z^ncoords, spanned
    by the generators' coordinates and G's relations.  Hermite forms are
    canonical, so K depends only on the subgroup: it is its identity."""
    return hermite_form([g.coords for g in gens] + _relation_rows(G))


class _SubgroupForm:
    """The Smith form D = U * K^T * V of the Hermite basis K of N <= G.

    K is the form's one input, so every generating set of N gets its
    coordinates for G/N.  K's rows span the preimage of N, so in the
    coordinates y = U x of Z^ncoords it is spanned by the d_i * e_i, and
    G/N is the product of the Z/d_i: coordinates with d_i = 1 vanish,
    d_i >= 2 become torsion and d_i = 0 stay free.  That one
    diagonalisation serves membership (project to zero), the quotient
    (project) and its section (lift, through U^-1; the search's
    _Level.lift calls it).  U^-1 and the rank, read off K alone, are
    computed on first use.  The trivial subgroup needs no Smith form: its
    K is G's relation rows, whose transpose is in Smith form with U = I,
    so Q = G and project_coords is coord_ops(G)'s reduce.  trivial marks
    that case, the one N = 0 test callers read.
    """

    def __init__(self, G: GroupPresentation, key: Matrix):
        self.G = G
        self.key = key
        self.trivial = key == tuple(_relation_rows(G))
        if self.trivial:
            self.U = _identity(G.ncoords)
            self.factors = [*G.torsion, *(0,) * G.free_rank]
            self.project_coords = coord_ops(G)[2]
        else:
            D, self.U, _ = smith_normal_form(tuple(zip(*key)))
            # factor of coordinate i in the new basis: d_i (0 = free, 1 = dropped)
            self.factors = [row[i] if i < len(row) else 0 for i, row in enumerate(D)]
        self.torsion_pos = [i for i, d in enumerate(self.factors) if d >= 2]
        self.free_pos = [i for i, d in enumerate(self.factors) if d == 0]
        self.Q = GroupPresentation(
            len(self.free_pos), tuple(self.factors[i] for i in self.torsion_pos)
        )
        # the positions of U x that are Q's coordinates, in Q's order, and
        # the rows of U there with their factor (0 for a free coordinate)
        self.order = self.torsion_pos + self.free_pos
        self._rows = [(self.U[i], self.factors[i]) for i in self.order]

    def project_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates in Q of the element with these coordinates.

        Any integer lift of an element of G will do (torsion coordinates
        need not be reduced): the lift is mapped through U, torsion positions
        are reduced mod d_i and free positions are kept.

        >>> G = GroupPresentation(2)
        >>> form = _subgroup_form(G, (G.element((2, 0)), G.element((0, 3))))
        >>> form.Q
        GroupPresentation(free_rank=0, torsion=(6,))
        >>> form.project_coords((2, 3)), any(form.project_coords((1, 0)))
        ((0,), True)
        """
        return tuple([
            sum(map(mul, row, coords)) % d if d else sum(map(mul, row, coords))
            for row, d in self._rows
        ])

    def project(self, g: GroupElement) -> GroupElement:
        if g.group is not self.G:
            raise ValueError("element outside the quotient's source group")
        return _element(self.Q, self.project_coords(g.coords))

    @cached_property
    def _u_inverse(self) -> Matrix:
        return _unimodular_inverse(self.U)

    def lift(self, q: GroupElement) -> GroupElement:
        if q.group is not self.Q:
            raise ValueError("element outside the quotient group")
        y = [0] * self.G.ncoords
        for pos, c in zip(self.order, q.coords):
            y[pos] = c
        return self.G.element([sum(map(mul, row, y)) for row in self._u_inverse])

    @cached_property
    def rank(self) -> int:
        """K's row count less the unit invariant factors of G's relations
        written in the basis K, found by substitution on K's pivots."""
        key = self.key
        pivots = [next(j for j, x in enumerate(row) if x) for row in key]
        relations = []
        for v in _relation_rows(self.G):
            coeffs = []
            for row, p in zip(key, pivots):
                coeffs.append(v[p] // row[p])
                v = [a - coeffs[-1] * b for a, b in zip(v, row)]
            relations.append(coeffs)
        D = smith_normal_form(relations)[0] if relations else ()
        return len(key) - sum(row[i] == 1 for i, row in enumerate(D))


# one form per (G, Hermite basis), behind the cache on generating tuples
_keyed_form = lru_cache(maxsize=4096)(_SubgroupForm)


@lru_cache(maxsize=4096)
def _subgroup_form(G: GroupPresentation, gens: tuple[GroupElement, ...]) -> _SubgroupForm:
    """The form of <gens> <= G: the one form of its Hermite basis."""
    return _keyed_form(G, _subgroup_key(G, gens))


def subgroup_contains(S: Subgroup, g: GroupElement) -> bool:
    """Whether g lies in <S.generators>, by Smith-form solvability.

    g is in S iff its coordinates lie in the lattice spanned by the rows of
    S's Hermite basis K, that is, iff g projects to zero in the quotient by S.
    """
    if g.group is not S.ambient:
        raise ValueError("element outside the quotient's source group")
    return not any(_subgroup_form(S.ambient, S.generators).project_coords(g.coords))


def group_rank(G: GroupPresentation) -> int:
    """Minimum number of generators: free rank plus torsion factor count."""
    return G.ncoords


def subgroup_rank(S: Subgroup) -> int:
    """Minimum number of generators of <S.generators>.

    The subgroup is L / R for L its preimage lattice, with Hermite basis K
    of r rows, and R the ambient relations; written in the basis K, R's
    rows present it on r generators, so rank = r - #(their unit invariant
    factors).
    """
    return _subgroup_form(S.ambient, S.generators).rank


def subgroup_rank_at_most(S: Subgroup, h: int) -> bool:
    """Whether rank<S.generators> <= h, reading a rank only when needed.

    No subgroup of a finitely generated abelian group needs more generators
    than the group itself, and <gens> needs at most len(gens), so the rank
    is at most min(len(gens), rank(ambient)).  When that bound is at most h
    the answer is yes with no Smith form; only otherwise is the rank read,
    from the ambient relations written in the subgroup's Hermite basis
    (subgroup_rank).
    """
    if min(len(S.generators), group_rank(S.ambient)) <= h:
        return True
    return subgroup_rank(S) <= h


def quotient(
    G: GroupPresentation, N: Subgroup
) -> tuple[GroupPresentation, Callable[[GroupElement], GroupElement]]:
    """The invariant-factor presentation of G/N and its projection map.

    The projection is total and surjective, kills every generator of N, and is
    computed through the Smith change of basis: with D = U * K^T * V for K
    the Hermite basis of N's preimage, the coordinates y = U x of a lift are
    reduced modulo the diagonal entries (1-entries dropped, 0-entries free).
    """
    form = _quotient_form(G, N)
    return form.Q, form.project


def _quotient_form(G: GroupPresentation, N: Subgroup) -> _SubgroupForm:
    """The cached Smith form of N <= G, for kernels that project coordinates."""
    if N.ambient is not G:
        raise ValueError("subgroup of a different group")
    return _subgroup_form(G, N.generators)


def _unimodular_inverse(U: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix, from a Hermite form.

    The rows of [U | I] span the same lattice as those of [I | U^-1], and
    the latter is already in Hermite form; the left block is I exactly when
    U is unimodular.
    """
    n = len(U)
    if any(len(row) != n for row in U):
        raise ValueError("matrix is not square")
    left, right = _hermite_pair(map(tuple, U), _identity(n), n)
    if left != _identity(n):
        raise ValueError("matrix is not unimodular")
    return right


def quotient_maps(
    G: GroupPresentation, gens: tuple[GroupElement, ...]
) -> tuple[
    GroupPresentation,
    Callable[[GroupElement], GroupElement],
    Callable[[GroupElement], GroupElement],
]:
    """(Q, project, lift) for G/<gens>, with project(lift(q)) = q.

    The lift embeds a quotient element's canonical coordinates back through
    the inverse Smith change of basis; adding generators of <gens> or ambient
    relations never changes the projection, so any lift choice is valid.

    >>> Z2 = GroupPresentation(2)
    >>> Q, project, lift = quotient_maps(Z2, (Z2.element((2, 0)), Z2.element((0, 3))))
    >>> Q
    GroupPresentation(free_rank=0, torsion=(6,))
    >>> project(lift(Q.element((5,)))).coords
    (5,)
    """
    form = _subgroup_form(G, gens)
    return form.Q, form.project, form.lift


# ---------------------------------------------------------------------------
# Cayley metric


def geodesic_length(G: GroupPresentation, g: GroupElement) -> int:
    """Word length in the standard generators.

    Free coordinates contribute |x_i|; torsion coordinates contribute the
    symmetric representative min(x_i, alpha_i - x_i).
    """
    if g.group is not G:
        raise ValueError("element outside the group")
    t = len(G.torsion)
    total = sum(min(c, a - c) for c, a in zip(g.coords, G.torsion))
    total += sum(abs(c) for c in g.coords[t:])
    return total


def enumerate_ball(
    G: GroupPresentation, r: int, cap: int = DEFAULT_BALL_CAP
) -> Iterator[GroupElement]:
    """All elements of geodesic length <= r, lexicographically by coordinates.

    Lazy, down to each coordinate's values, so a huge r costs nothing before
    the first element; raises BudgetExceeded once more than `cap` elements
    were yielded.
    """
    if r < 0:
        return
    t = len(G.torsion)
    n = G.ncoords

    def extend(prefix: tuple[int, ...], budget: int) -> Iterator[tuple[int, ...]]:
        # the elements that start with prefix, within budget, ascending
        i = len(prefix)
        if i == n:
            yield prefix
            return
        if i < t:
            alpha = G.torsion[i]
            choices = ((v, min(v, alpha - v)) for v in range(alpha))
        else:
            choices = ((v, abs(v)) for v in range(-budget, budget + 1))
        for v, cost in choices:
            if cost <= budget:
                yield from extend((*prefix, v), budget - cost)

    for count, coords in enumerate(extend((), r), 1):
        if count > cap:
            raise BudgetExceeded(f"ball enumeration exceeded cap {cap}")
        yield GroupElement(G, coords)
