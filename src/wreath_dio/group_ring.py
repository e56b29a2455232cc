"""Finitely supported functions B -> A: the group-ring view of A^B.

A function is stored as a sorted association from support points (elements of
B) to nonzero coefficients (elements of A).  The shift action is pinned to one
convention throughout the codebase:

    shift(f, delta)(x) = f(delta + x),  so  supp(shift(f, delta)) = supp(f) - delta.

Ring multiplication treats A as the direct product of cyclic rings given by
its invariant factors (componentwise coefficient multiplication) and convolves
support points; the function with the ring unity of A at the origin is the
multiplicative unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    geodesic_length,
    quotient,
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

    def __add__(self, other: "SupportedFunction") -> "SupportedFunction":
        self._check_compatible(other)
        return SupportedFunction(
            self.coeff_group, self.base_group, self.terms + other.terms
        )

    def __neg__(self) -> "SupportedFunction":
        return SupportedFunction(
            self.coeff_group,
            self.base_group,
            tuple((p, -a) for p, a in self.terms),
        )

    def __sub__(self, other: "SupportedFunction") -> "SupportedFunction":
        return self + (-other)


def add(f: SupportedFunction, g: SupportedFunction) -> SupportedFunction:
    """Pointwise sum (pruned)."""
    return f + g


def shift(f: SupportedFunction, delta: GroupElement) -> SupportedFunction:
    """The translate f^delta with f^delta(x) = f(delta + x).

    Moves every support point b to b - delta; coefficients (and hence their
    lengths) are untouched.
    """
    if delta.group != f.base_group:
        raise ValueError("shift by an element of a different group")
    return SupportedFunction(
        f.coeff_group,
        f.base_group,
        tuple((p - delta, a) for p, a in f.terms),
    )


def _ring_unity(A: GroupPresentation) -> GroupElement:
    # unity of the product-of-cyclic-rings structure: 1 in every coordinate
    return GroupElement(A, (1,) * A.ncoords)


def unity(A: GroupPresentation, B: GroupPresentation) -> SupportedFunction:
    """The multiplicative unit of A^B: ring unity of A at the origin."""
    return SupportedFunction.atom(_ring_unity(A), B.zero())


def _coeff_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(a.group, tuple(x * y for x, y in zip(a.coords, b.coords)))


def ring_multiply(f: SupportedFunction, g: SupportedFunction) -> SupportedFunction:
    """Group-ring convolution: support points add, coefficients multiply.

    Coefficient multiplication is componentwise in A's invariant-factor
    decomposition (a direct product of cyclic rings).
    """
    f._check_compatible(g)
    terms = []
    for p, a in f.terms:
        for q, b in g.terms:
            terms.append((p + q, _coeff_mul(a, b)))
    return SupportedFunction(f.coeff_group, f.base_group, tuple(terms))


def pushforward(f: SupportedFunction, N: Subgroup) -> SupportedFunction:
    """phi_*(f) over B/N: each coset's coefficients are summed.

    phi_*(f)(x) = sum of f over the fiber of the canonical map phi at x.
    """
    Q, project = quotient(f.base_group, N)
    return SupportedFunction(
        f.coeff_group, Q, tuple((project(p), a) for p, a in f.terms)
    )


def is_zero_mod(f: SupportedFunction, N: Subgroup) -> bool:
    """Whether f vanishes in A^{B/N} (empty pushforward support)."""
    _, project = quotient(f.base_group, N)
    sums: dict[tuple[int, ...], GroupElement] = {}
    for p, a in f.terms:
        key = project(p).coords
        sums[key] = sums[key] + a if key in sums else a
    return all(v.is_zero() for v in sums.values())


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
    out = SupportedFunction.zero(fs[0].coeff_group, fs[0].base_group)
    for f, b in zip(fs, bs):
        out = out + lambda_term(f, b)
    return out


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
