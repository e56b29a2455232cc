"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor form: a free rank plus a chain of torsion
orders alpha_1 | alpha_2 | ... (each >= 2).  Elements are integer coordinate
vectors, torsion coordinates first (stored canonically in [0, alpha_i)), then
free coordinates.  Everything is immutable and computed with arbitrary
precision integers; no floating point enters this module.

The workhorse is the Smith normal form.  Each subgroup's preimage matrix is
diagonalised once, in one cached form, and that one Smith form serves
membership, rank, the quotient with its projection map, and the lift back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence


class BudgetExceeded(Exception):
    """An enumeration outgrew its configured cap."""


DEFAULT_BALL_CAP = 10**7


# ---------------------------------------------------------------------------
# presentations and elements


@dataclass(frozen=True)
class GroupPresentation:
    """A finitely generated abelian group Z^free_rank x Z_a1 x ... x Z_at.

    The torsion orders must form a divisibility chain a1 | a2 | ... with every
    a_i >= 2; factors equal to 1 are dropped at construction.

    >>> GroupPresentation(1, (1, 6)).torsion
    (6,)
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        cleaned = tuple(int(a) for a in self.torsion if a != 1)
        if any(a < 1 for a in cleaned):
            raise ValueError("torsion orders must be positive")
        for prev, nxt in zip(cleaned, cleaned[1:]):
            if nxt % prev != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        object.__setattr__(self, "torsion", cleaned)
        object.__setattr__(self, "free_rank", int(self.free_rank))

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def rank(self) -> int:
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

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ncoords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def standard_generators(self) -> tuple["GroupElement", ...]:
        gens = []
        for i in range(self.ncoords):
            coords = [0] * self.ncoords
            coords[i] = 1
            gens.append(GroupElement(self, tuple(coords)))
        return tuple(gens)

    def elements(self) -> Iterator["GroupElement"]:
        """All elements of a finite group, in lexicographic coordinate order."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(a) for a in self.torsion)):
            yield GroupElement(self, coords)


@dataclass(frozen=True)
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
        reduced = tuple(
            int(c) % a for c, a in zip(self.coords, g.torsion)
        ) + tuple(int(c) for c in self.coords[len(g.torsion):])
        object.__setattr__(self, "coords", reduced)

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise ValueError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def canonical_lift(self) -> tuple[int, ...]:
        """Integer lift with torsion coordinates as stored, in [0, alpha)."""
        return self.coords

    def symmetric_lift(self) -> tuple[int, ...]:
        """Integer lift with torsion coordinates in (-alpha/2, alpha/2].

        This is the minimal-absolute-value representative per coordinate, the
        right lift whenever a Euclidean norm is taken.
        """
        g = self.group
        lift = []
        for c, a in zip(self.coords, g.torsion):
            lift.append(c - a if c * 2 > a else c)
        lift.extend(self.coords[len(g.torsion):])
        return tuple(lift)

    def norm_sq(self) -> int:
        """Squared Euclidean norm of the symmetric lift."""
        return sum(c * c for c in self.symmetric_lift())

    def has_infinite_order(self) -> bool:
        return any(c != 0 for c in self.coords[len(self.group.torsion):])


def coord_reducer(
    G: GroupPresentation,
) -> Callable[[Iterable[int]], tuple[int, ...]]:
    """GroupElement's reduction rule on bare coordinates, for inner loops.

    The returned function takes integer coordinates of G to the canonical
    tuple a GroupElement would store: torsion coordinates mod alpha_i, free
    ones unchanged.  For a torsion-free G it is plain ``tuple``.
    """
    torsion = G.torsion
    if not torsion:
        return tuple
    t = len(torsion)

    def reduce(coords: Iterable[int]) -> tuple[int, ...]:
        v = tuple(coords)
        return tuple([c % a for c, a in zip(v, torsion)]) + v[t:]

    return reduce


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an ambient group, given by a finite list of generators."""

    ambient: GroupPresentation
    generators: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.group != self.ambient:
                raise ValueError("generator outside the ambient group")

    @staticmethod
    def trivial(ambient: GroupPresentation) -> "Subgroup":
        return Subgroup(ambient, ())

    @staticmethod
    def whole(ambient: GroupPresentation) -> "Subgroup":
        return Subgroup(ambient, ambient.standard_generators())

    def contains(self, g: GroupElement) -> bool:
        return subgroup_contains(self, g)


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


@dataclass(frozen=True)
class IntMatrix:
    """An immutable exact integer matrix (tuple of row tuples)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def from_columns(cols: Iterable[Iterable[int]]) -> "IntMatrix":
        cols = [list(c) for c in cols]
        if not cols:
            return IntMatrix(())
        return IntMatrix(tuple(zip(*cols)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return self
        return IntMatrix(tuple(zip(*self.entries)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def determinant(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize M as D = U * M * V with U, V unimodular.

    The diagonal entries are nonnegative and form a divisibility chain
    d_1 | d_2 | ... .  Pivoting picks the smallest nonzero absolute value with
    a deterministic (row, col) tie-break, which keeps intermediate growth tame
    and output reproducible.

    >>> D, U, V = smith_normal_form(IntMatrix(((2, 4), (6, 8))))
    >>> D.entries
    ((2, 0), (0, 4))
    """
    a = [list(row) for row in M.entries]
    nr, nc = M.nrows, M.ncols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_addmul(dst: int, src: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = find_pivot(t)
        if pos is None:
            break
        if pos != (t, t):
            if pos[0] != t:
                row_swap(t, pos[0])
            if pos[1] != t:
                col_swap(t, pos[1])
        # clear below and to the right of the pivot, restarting after any
        # remainder improves the pivot
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // pivot
                    row_addmul(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // pivot
                    col_addmul(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            pivot = a[t][t]
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    return IntMatrix.from_rows(a), IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def integer_kernel(M: IntMatrix) -> list[tuple[int, ...]]:
    """A basis of {x in Z^ncols : M x = 0} (columns of V at zero pivots)."""
    D, _, V = smith_normal_form(M)
    diag = [D.entries[i][i] for i in range(min(D.nrows, D.ncols))]
    basis = []
    for j in range(M.ncols):
        if j >= len(diag) or diag[j] == 0:
            basis.append(V.column(j))
    return basis


# ---------------------------------------------------------------------------
# relation lattices: the bridge between subgroups and integer matrices


def _relation_columns(G: GroupPresentation) -> list[tuple[int, ...]]:
    """Columns spanning the kernel of Z^ncoords -> G (torsion relations)."""
    cols = []
    n = G.ncoords
    for i, alpha in enumerate(G.torsion):
        col = [0] * n
        col[i] = alpha
        cols.append(tuple(col))
    return cols


def _preimage_matrix(
    G: GroupPresentation, gens: tuple[GroupElement, ...]
) -> IntMatrix:
    """Columns generating the full preimage of <gens> in Z^ncoords."""
    cols = [g.canonical_lift() for g in gens] + _relation_columns(G)
    if not cols:
        n = G.ncoords
        return IntMatrix.from_rows([()] * n) if n else IntMatrix(())
    return IntMatrix.from_columns(cols)


class _SubgroupForm:
    """The Smith form D = U * M * V of the preimage matrix M of <gens> <= G.

    In the coordinates y = U x of Z^ncoords the preimage is spanned by the
    d_i * e_i, so G/<gens> is the product of the Z/d_i: coordinates with
    d_i = 1 vanish, d_i >= 2 become torsion and d_i = 0 stay free.  That one
    diagonalisation serves membership (project to zero), the quotient
    (project), its section (lift, through U^-1) and the rank (the columns of
    V at zero pivots span the relations among the generators).  U^-1 and the
    rank are computed on first use.
    """

    def __init__(self, G: GroupPresentation, gens: tuple[GroupElement, ...]):
        self.G = G
        self.gens = gens
        D, self.U, self.V = smith_normal_form(_preimage_matrix(G, gens))
        # factor of coordinate i in the new basis: d_i (0 = free, 1 = dropped)
        self.factors = [
            D.entries[i][i] if i < D.ncols else 0 for i in range(G.ncoords)
        ]
        self.torsion_pos = [i for i, d in enumerate(self.factors) if d >= 2]
        self.free_pos = [i for i, d in enumerate(self.factors) if d == 0]
        self.Q = GroupPresentation(
            len(self.free_pos), tuple(self.factors[i] for i in self.torsion_pos)
        )

    def project(self, g: GroupElement) -> GroupElement:
        if g.group != self.G:
            raise ValueError("element outside the quotient's source group")
        y = self.U.apply(g.canonical_lift())
        coords = [y[i] % self.factors[i] for i in self.torsion_pos]
        coords.extend(y[i] for i in self.free_pos)
        return GroupElement(self.Q, tuple(coords))

    @cached_property
    def _u_inverse(self) -> IntMatrix:
        return _unimodular_inverse(self.U)

    def lift(self, q: GroupElement) -> GroupElement:
        if q.group != self.Q:
            raise ValueError("element outside the quotient group")
        y = [0] * self.G.ncoords
        for pos, c in zip(self.torsion_pos + self.free_pos, q.coords):
            y[pos] = c
        return self.G.element(self._u_inverse.apply(y))

    @cached_property
    def rank(self) -> int:
        k = len(self.gens)
        if k == 0 or self.G.ncoords == 0:
            return 0
        # relations among the generators (x with sum x_i g_i = 0 in G): the
        # first k coordinates of the kernel of M, spanned by V's columns at
        # zero pivots
        relation_cols = [
            self.V.column(j)[:k]
            for j in range(self.V.ncols)
            if j >= len(self.factors) or self.factors[j] == 0
        ]
        if not relation_cols:
            return k
        D, _, _ = smith_normal_form(IntMatrix.from_columns(relation_cols))
        return k - sum(D.entries[i][i] == 1 for i in range(min(D.nrows, D.ncols)))


# the module's one cache: _subgroup_form(G, gens) is the form of <gens> <= G
_subgroup_form = lru_cache(maxsize=4096)(_SubgroupForm)


def subgroup_contains(S: Subgroup, g: GroupElement) -> bool:
    """Whether g lies in <S.generators>, by Smith-form solvability.

    g is in S iff the system  M z = lift(g)  has an integer solution, where
    M's columns are the generator lifts plus the ambient torsion relations;
    that is, iff g projects to zero in the quotient by S.
    """
    return _subgroup_form(S.ambient, S.generators).project(g).is_zero()


def group_rank(G: GroupPresentation) -> int:
    """Minimum number of generators: free rank plus torsion factor count."""
    return G.rank()


def subgroup_rank(S: Subgroup) -> int:
    """Minimum number of generators of <S.generators>.

    Takes the relation space of the generating tuple (all integer
    combinations that vanish in the ambient group) from the subgroup's Smith
    form and reads the rank off the Smith form of those relations:
    rank = k - #(invariant factors equal to 1).
    """
    return _subgroup_form(S.ambient, S.generators).rank


def quotient(
    G: GroupPresentation, N: Subgroup
) -> tuple[GroupPresentation, Callable[[GroupElement], GroupElement]]:
    """The invariant-factor presentation of G/N and its projection map.

    The projection is total and surjective, kills every generator of N, and is
    computed through the Smith change of basis: with D = U * M * V for M the
    preimage matrix of N, the coordinates y = U x of a lift are reduced modulo
    the diagonal entries (1-entries dropped, 0-entries free).
    """
    if N.ambient != G:
        raise ValueError("subgroup of a different group")
    form = _subgroup_form(G, N.generators)
    return form.Q, form.project


def _unimodular_inverse(U: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = U.nrows
    cols = []
    for j in range(n):
        rhs = [1 if i == j else 0 for i in range(n)]
        sol = solve_rational(list(U.entries), rhs)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("matrix is not unimodular")
        cols.append([int(x) for x in sol])
    return IntMatrix.from_columns(cols)


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
    if g.group != G:
        raise ValueError("element outside the group")
    t = len(G.torsion)
    total = sum(min(c, a - c) for c, a in zip(g.coords, G.torsion))
    total += sum(abs(c) for c in g.coords[t:])
    return total


def enumerate_ball(
    G: GroupPresentation, r: int, cap: int = DEFAULT_BALL_CAP
) -> Iterator[GroupElement]:
    """All elements of geodesic length <= r, lexicographically by coordinates.

    Lazy; raises BudgetExceeded once more than `cap` elements were yielded.
    """
    if r < 0:
        return
    t = len(G.torsion)
    n = G.ncoords

    def coord_choices(i: int, budget: int) -> list[tuple[int, int]]:
        # (value, cost) pairs for coordinate i, ascending by value
        if i < t:
            alpha = G.torsion[i]
            out = []
            for v in range(alpha):
                cost = min(v, alpha - v)
                if cost <= budget:
                    out.append((v, cost))
            return out
        return [(v, abs(v)) for v in range(-budget, budget + 1)]

    count = 0
    stack: list[tuple[list[int], int]] = [([], r)]
    # depth-first with explicit stack, children pushed in reverse for
    # ascending yield order
    while stack:
        prefix, budget = stack.pop()
        if len(prefix) == n:
            count += 1
            if count > cap:
                raise BudgetExceeded(f"ball enumeration exceeded cap {cap}")
            yield GroupElement(G, tuple(prefix))
            continue
        for v, cost in reversed(coord_choices(len(prefix), budget)):
            stack.append((prefix + [v], budget - cost))


def ball_size(G: GroupPresentation, r: int) -> int:
    """|ball(r)| computed coordinatewise (no enumeration)."""
    if r < 0:
        return 0
    t = len(G.torsion)
    # counts[c] = number of elements with total cost exactly c, built one
    # coordinate at a time
    counts = [0] * (r + 1)
    counts[0] = 1
    for i in range(G.ncoords):
        if i < t:
            alpha = G.torsion[i]
            costs: dict[int, int] = {}
            for v in range(alpha):
                c = min(v, alpha - v)
                costs[c] = costs.get(c, 0) + 1
        else:
            costs = {0: 1}
            for c in range(1, r + 1):
                costs[c] = 2
        new = [0] * (r + 1)
        for c0, cnt0 in enumerate(counts):
            if cnt0 == 0:
                continue
            for c1, cnt1 in costs.items():
                if c0 + c1 <= r:
                    new[c0 + c1] += cnt0 * cnt1
        counts = new
    return sum(counts)


# ---------------------------------------------------------------------------
# rational span helpers shared with the lattice module


def solve_rational(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact solution of rows * x = rhs over Q, or None."""
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    nr = len(m)
    nc = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(nc):
        pivot_row = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if m[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in pivots:
        x[c] = m[i][nc]
    return x
