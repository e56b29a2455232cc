"""Finitely supported functions B -> A: the group-ring view of A^B.

A function is stored as a sorted association from support points (elements of
B) to nonzero coefficients (elements of A).  The shift action is pinned to one
convention throughout the codebase:

    shift(f, delta)(x) = f(delta + x),  so  supp(shift(f, delta)) = supp(f) - delta.

Every function is built one way.  The constructor, + and unary -, and shift
each gather (point, coefficient) coordinates in one dict, kept canonical by
coord_ops (add and sub on tuples), and _from_sums builds the result from it.
Sums per coset of N have one kernel, _coset_sums, projecting by the subgroup
form unless N = 0: pushforward builds from its dict, and is_zero_mod and
qsp.satisfies_equation only read it.  GroupElement and SupportedFunction
appear only at the API boundary, and coordinates are reduced only by
coord_ops, whose reduce is the one reduction rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    _SubgroupForm,
    _element,
    _quotient_form,
    coord_ops,
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
        A, B = self.coeff_group, self.base_group

        def pairs():
            for point, coeff in self.terms:
                if point.group is not B:
                    raise ValueError("support point outside the base group")
                if coeff.group is not A:
                    raise ValueError("coefficient outside the coefficient group")
                yield point.coords, coeff.coords

        terms = _from_sums(A, B, _coeff_sums(A, pairs())).terms
        object.__setattr__(self, "terms", terms)

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
        if (self.coeff_group is not other.coeff_group
                or self.base_group is not other.base_group):
            raise ValueError("functions live over different groups")

    # -- abelian-group structure --------------------------------------------

    def __add__(self, other: "SupportedFunction") -> "SupportedFunction":
        self._check_compatible(other)
        A = self.coeff_group
        pairs = ((p.coords, a.coords) for p, a in chain(self.terms, other.terms))
        return _from_sums(A, self.base_group, _coeff_sums(A, pairs))

    def __neg__(self) -> "SupportedFunction":
        A = self.coeff_group
        sub, zero = coord_ops(A)[1], (0,) * A.ncoords
        return _from_sums(
            A, self.base_group, {p.coords: sub(zero, a.coords) for p, a in self.terms}
        )

    def __sub__(self, other: "SupportedFunction") -> "SupportedFunction":
        return self + (-other)


# -- coordinate-tuple kernel ---------------------------------------------------


def _coeff_sums(
    A: GroupPresentation, pairs: Iterable[tuple[tuple, tuple[int, ...]]]
) -> dict[tuple, tuple[int, ...]]:
    """Sum coefficient coordinates per key, canonical in A; zeros are kept."""
    add = coord_ops(A)[0]
    sums: dict[tuple, tuple[int, ...]] = {}
    for key, c in pairs:
        old = sums.get(key)
        sums[key] = c if old is None else add(old, c)
    return sums


def _from_sums(
    A: GroupPresentation, B: GroupPresentation, sums: dict[tuple, tuple[int, ...]]
) -> SupportedFunction:
    """The function sending each point of sums to its coefficient sum;
    points and sums are canonical coordinates, zero sums are dropped.
    Such sums are already merged, so the constructor's merge and checks
    are skipped."""
    f = object.__new__(SupportedFunction)
    object.__setattr__(f, "coeff_group", A)
    object.__setattr__(f, "base_group", B)
    terms = tuple(
        (_element(B, p), _element(A, c)) for p, c in sorted(sums.items()) if any(c)
    )
    object.__setattr__(f, "terms", terms)
    return f


def shift(f: SupportedFunction, delta: GroupElement) -> SupportedFunction:
    """The translate f^delta with f^delta(x) = f(delta + x).

    Moves every support point b to b - delta; coefficients (and hence their
    lengths) are untouched.
    """
    B = f.base_group
    if delta.group is not B:
        raise ValueError("shift by an element of a different group")
    sub = coord_ops(B)[1]
    d = delta.coords
    # translation keeps points distinct, so no two terms merge
    return _from_sums(
        f.coeff_group, B, {sub(p.coords, d): a.coords for p, a in f.terms}
    )


def pushforward(f: SupportedFunction, N: Subgroup) -> SupportedFunction:
    """phi_*(f) over B/N: each coset's coefficients are summed.

    phi_*(f)(x) = sum of f over the fiber of the canonical map phi at x.
    """
    form = _quotient_form(f.base_group, N)
    pairs = ((p.coords, a.coords) for p, a in f.terms)
    return _from_sums(f.coeff_group, form.Q, _coset_sums(f.coeff_group, form, pairs))


def _vanishes(sums: dict[tuple, tuple[int, ...]]) -> bool:
    """Whether every coefficient sum is zero."""
    return not any(map(any, sums.values()))


def is_zero_mod(f: SupportedFunction, N: Subgroup) -> bool:
    """Whether f vanishes in A^{B/N} (empty pushforward support)."""
    form = _quotient_form(f.base_group, N)
    pairs = ((p.coords, a.coords) for p, a in f.terms)
    return _vanishes(_coset_sums(f.coeff_group, form, pairs))


def _coset_sums(
    A: GroupPresentation, form: _SubgroupForm, pairs: Iterable[tuple[tuple, tuple]]
) -> dict[tuple, tuple[int, ...]]:
    """Coefficient sums per coset of form's subgroup N, keyed by the coset's
    coordinates in B/N, over (point, coeff) pairs canonical in B and A;
    zeros are kept.  At N = 0 a canonical point is its own coset's key, so
    nothing is projected."""
    if not form.trivial:
        project = form.project_coords
        pairs = ((project(p), c) for p, c in pairs)
    return _coeff_sums(A, pairs)


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
