"""Finitely supported functions B -> A: the group-ring view of A^B.

A function is stored as a sorted association from support points (elements of
B) to nonzero coefficients (elements of A).  The shift action is pinned to one
convention throughout the codebase:

    shift(f, delta)(x) = f(delta + x),  so  supp(shift(f, delta)) = supp(f) - delta.

shift, pushforward and is_zero_mod run on canonical coordinate tuples:
each gathers (point, coefficient) coordinates in one dict, kept canonical by
coord_reducer and the subgroup form's project_coords, and builds its result
once.  GroupElement and SupportedFunction appear only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add as _add, neg, sub
from typing import Iterable, Sequence

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    _SubgroupForm,
    _element,
    _quotient_form,
    coord_reducer,
    geodesic_length,
)


@dataclass(frozen=True)
class SupportedFunction:
    """An element of A^B with finite support.

    terms is a tuple of (point, coeff) pairs with distinct canonical points,
    no zero coefficients, sorted lexicographically by point coordinates.
    Construction merges duplicates and prunes zeros, so equality of functions
    is equality of the terms tuple.
    """

    coeff_group: GroupPresentation
    base_group: GroupPresentation
    terms: tuple[tuple[GroupElement, GroupElement], ...]

    def __post_init__(self) -> None:
        merged: dict[tuple[int, ...], GroupElement] = {}
        order: dict[tuple[int, ...], GroupElement] = {}
        for point, coeff in self.terms:
            if point.group != self.base_group:
                raise ValueError("support point outside the base group")
            if coeff.group != self.coeff_group:
                raise ValueError("coefficient outside the coefficient group")
            key = point.coords
            if key in merged:
                merged[key] = merged[key] + coeff
            else:
                merged[key] = coeff
                order[key] = point
        cleaned = tuple(
            (order[key], merged[key])
            for key in sorted(merged)
            if not merged[key].is_zero()
        )
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(A: GroupPresentation, B: GroupPresentation) -> "SupportedFunction":
        return SupportedFunction(A, B, ())

    @staticmethod
    def atom(coeff: GroupElement, point: GroupElement) -> "SupportedFunction":
        """The function sending `point` to `coeff` and everything else to 0."""
        return SupportedFunction(coeff.group, point.group, ((point, coeff),))

    # -- queries -----------------------------------------------------------

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(p for p, _ in self.terms)

    def value_at(self, point: GroupElement) -> GroupElement:
        for p, a in self.terms:
            if p == point:
                return a
        return self.coeff_group.zero()

    def is_zero(self) -> bool:
        return not self.terms

    def total_coefficient(self) -> GroupElement:
        """Sum of all coefficients in A (the image under pushforward to B/B)."""
        total = self.coeff_group.zero()
        for _, a in self.terms:
            total = total + a
        return total

    def size(self) -> int:
        """sum over terms of |coeff| + |point| in the respective Cayley metrics."""
        return sum(
            geodesic_length(self.coeff_group, a) + geodesic_length(self.base_group, p)
            for p, a in self.terms
        )

    def _check_compatible(self, other: "SupportedFunction") -> None:
        if (
            self.coeff_group != other.coeff_group
            or self.base_group != other.base_group
        ):
            raise ValueError("functions live over different groups")

    # -- abelian-group structure --------------------------------------------

    # both operands are canonical, so the results skip the constructor

    def __add__(self, other: "SupportedFunction") -> "SupportedFunction":
        # merge the sorted terms: only a point of both gets a new coefficient
        self._check_compatible(other)
        A, x, y = self.coeff_group, self.terms, other.terms
        red_a, out, i, j = coord_reducer(A), [], 0, 0
        while i < len(x) and j < len(y):
            p, q = x[i][0].coords, y[j][0].coords
            if p != q:
                out.append(x[i] if p < q else y[j])
                i, j = (i + 1, j) if p < q else (i, j + 1)
                continue
            c = red_a(map(_add, x[i][1].coords, y[j][1].coords))
            if any(c):
                out.append((x[i][0], _element(A, c)))
            i, j = i + 1, j + 1
        return _function(A, self.base_group, (*out, *x[i:], *y[j:]))

    def __neg__(self) -> "SupportedFunction":
        A = self.coeff_group
        red_a = coord_reducer(A)
        return _function(
            A,
            self.base_group,
            tuple((p, _element(A, red_a(map(neg, a.coords)))) for p, a in self.terms),
        )

    def __sub__(self, other: "SupportedFunction") -> "SupportedFunction":
        return self + (-other)


# -- coordinate-tuple kernel ---------------------------------------------------


def _coeff_sums(
    A: GroupPresentation, pairs: Iterable[tuple[tuple, tuple[int, ...]]]
) -> dict[tuple, tuple[int, ...]]:
    """Sum coefficient coordinates per key, canonical in A; zeros are kept."""
    red_a = coord_reducer(A)
    sums: dict[tuple, tuple[int, ...]] = {}
    for key, c in pairs:
        old = sums.get(key)
        sums[key] = c if old is None else red_a(map(_add, old, c))
    return sums


def _function(
    A: GroupPresentation,
    B: GroupPresentation,
    terms: tuple[tuple[GroupElement, GroupElement], ...],
) -> SupportedFunction:
    """A SupportedFunction from terms that are already canonical: distinct
    points of B in sorted order, nonzero coefficients of A.  The kernels
    produce such terms, so the constructor's merge and checks are skipped."""
    f = object.__new__(SupportedFunction)
    object.__setattr__(f, "coeff_group", A)
    object.__setattr__(f, "base_group", B)
    object.__setattr__(f, "terms", terms)
    return f


def _from_sums(
    A: GroupPresentation, B: GroupPresentation, sums: dict[tuple, tuple[int, ...]]
) -> SupportedFunction:
    """The function sending each point of sums to its coefficient sum;
    points and sums are canonical coordinates, zero sums are dropped."""
    return _function(
        A,
        B,
        tuple(
            (_element(B, p), _element(A, c))
            for p, c in sorted(sums.items())
            if any(c)
        ),
    )


def shift(f: SupportedFunction, delta: GroupElement) -> SupportedFunction:
    """The translate f^delta with f^delta(x) = f(delta + x).

    Moves every support point b to b - delta; coefficients (and hence their
    lengths) are untouched.
    """
    B = f.base_group
    if delta.group != B:
        raise ValueError("shift by an element of a different group")
    red_b = coord_reducer(B)
    d = delta.coords
    # translation keeps points distinct; sorting compares points only
    moved = sorted((red_b(map(sub, p.coords, d)), a) for p, a in f.terms)
    return _function(f.coeff_group, B, tuple((_element(B, q), a) for q, a in moved))


def pushforward(f: SupportedFunction, N: Subgroup) -> SupportedFunction:
    """phi_*(f) over B/N: each coset's coefficients are summed.

    phi_*(f)(x) = sum of f over the fiber of the canonical map phi at x.
    """
    form = _quotient_form(f.base_group, N)
    return _from_sums(f.coeff_group, form.Q, _projected_sums(f, form))


def _vanishes(sums: dict[tuple, tuple[int, ...]]) -> bool:
    """Whether every coefficient sum is zero."""
    return not any(map(any, sums.values()))


def is_zero_mod(f: SupportedFunction, N: Subgroup) -> bool:
    """Whether f vanishes in A^{B/N} (empty pushforward support)."""
    return _vanishes(_projected_sums(f, _quotient_form(f.base_group, N)))


def _projected_sums(
    f: SupportedFunction, form: _SubgroupForm
) -> dict[tuple, tuple[int, ...]]:
    """f's coefficient sums per coset, keyed by the coset's coordinates."""
    project = form.project_coords
    return _coeff_sums(
        f.coeff_group, ((project(p.coords), a.coords) for p, a in f.terms)
    )


def lambda_term(f: SupportedFunction, b: GroupElement) -> SupportedFunction:
    """f * (1^0 - 1^b) = f - f^b, one summand of the lambda map."""
    return f - shift(f, b)


def lambda_map(
    fs: Sequence[SupportedFunction], bs: Sequence[GroupElement]
) -> SupportedFunction:
    """lambda_{b_1..b_k}(f_1..f_k) = sum of f_i * (1^0 - 1^{b_i}).

    The image always lies in the kernel of the pushforward along B -> B/<bs>.
    """
    if len(fs) != len(bs):
        raise ValueError("function list and shift list differ in length")
    if not fs:
        raise ValueError("empty lambda map has no home groups")
    for f in fs:
        fs[0]._check_compatible(f)
    return SupportedFunction(
        fs[0].coeff_group,
        fs[0].base_group,
        tuple(chain.from_iterable(lambda_term(f, b).terms for f, b in zip(fs, bs))),
    )


def diameter(f: SupportedFunction) -> int:
    """Max pairwise Cayley distance over the support (0 for size <= 1)."""
    points = f.support()
    best = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(
                best, geodesic_length(f.base_group, points[i] - points[j])
            )
    return best
