"""Exact integer-lattice utilities.

LLL reduction runs entirely over rationals with factor 3/4 (size-reduction
|mu_ij| <= 1/2 plus the Lovasz condition), and Hermite normal form provides
the canonical-form oracle for lattice equality.  hermite_form is the
package's one exact elimination routine: abelian.smith_normal_form, the
inverse of a unimodular matrix, the subgroup keys and the oracle's
relation lattices are all computed through it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[int, ...]

LLL_DELTA = Fraction(3, 4)


def _dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _gram_schmidt(
    basis: Sequence[Sequence[int]],
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Orthogonalization with the mu coefficient table."""
    ortho: list[list[Fraction]] = []
    mus: list[list[Fraction]] = []
    for i, vec in enumerate(basis):
        v = [Fraction(x) for x in vec]
        row = []
        for j in range(i):
            denom = _dot(ortho[j], ortho[j])
            mu = _dot(basis[i], ortho[j]) / denom
            row.append(mu)
            v = [x - mu * y for x, y in zip(v, ortho[j])]
        ortho.append(v)
        mus.append(row)
    return ortho, mus


def is_lll_reduced(basis: Sequence[Sequence[int]]) -> bool:
    """Check both LLL conditions exactly, with factor LLL_DELTA."""
    ortho, mus = _gram_schmidt(basis)
    for i in range(len(basis)):
        for j in range(i):
            if abs(mus[i][j]) > Fraction(1, 2):
                return False
    for i in range(len(basis) - 1):
        lhs = LLL_DELTA * _dot(ortho[i], ortho[i])
        # ||pi_i(v_{i+1})||^2 = ||v*_{i+1}||^2 + mu^2 ||v*_i||^2
        rhs = _dot(ortho[i + 1], ortho[i + 1]) + mus[i + 1][i] ** 2 * _dot(
            ortho[i], ortho[i]
        )
        if lhs > rhs:
            return False
    return True


def lll_reduce(basis: Sequence[Sequence[int]]) -> list[Vector]:
    """LLL-reduce an independent integer basis with exact rational arithmetic.

    The output generates the same lattice and satisfies size-reduction and the
    Lovasz condition with factor LLL_DELTA = 3/4.  Dependent input is
    rejected.
    """
    vecs = [tuple(int(x) for x in v) for v in basis]
    if vecs and len(vecs) > len(vecs[0]):
        raise ValueError("more vectors than dimensions cannot be independent")
    n = len(vecs)
    if n <= 1:
        if n == 1 and all(x == 0 for x in vecs[0]):
            raise ValueError("dependent input basis (zero vector)")
        return list(vecs)

    ortho, mus = _gram_schmidt(vecs)
    if any(all(x == 0 for x in o) for o in ortho):
        raise ValueError("dependent input basis")

    k = 1
    while k < n:
        for j in reversed(range(k)):
            if abs(mus[k][j]) > Fraction(1, 2):
                q = round(mus[k][j])
                vecs[k] = tuple(x - q * y for x, y in zip(vecs[k], vecs[j]))
                ortho, mus = _gram_schmidt(vecs)
        lovasz_rhs = _dot(ortho[k], ortho[k]) + mus[k][k - 1] ** 2 * _dot(
            ortho[k - 1], ortho[k - 1]
        )
        if LLL_DELTA * _dot(ortho[k - 1], ortho[k - 1]) <= lovasz_rhs:
            k += 1
        else:
            vecs[k], vecs[k - 1] = vecs[k - 1], vecs[k]
            ortho, mus = _gram_schmidt(vecs)
            k = max(k - 1, 1)
    return vecs


def hermite_form(vectors: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Canonical: two generating sets span the same lattice iff their forms are
    equal.  Pivots are positive, entries above a pivot are reduced into
    [0, pivot), and zero rows are dropped.  Each column is one Euclid sweep:
    the rows still nonzero in it are reduced by the smallest until one pivot
    is left, and the rows above are reduced by that pivot at once.
    """
    work = [list(map(int, v)) for v in vectors]
    out: list[list[int]] = []
    for col in range(len(work[0]) if work else 0):
        live = [r for r in work if r[col]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[col:] = [x - q * y for x, y in zip(r[col:], p[col:])]
            live = [r for r in live if r[col]]
        if live:
            p = live[0]
            work = [r for r in work if r is not p]
            if p[col] < 0:
                p[col:] = [-x for x in p[col:]]
            for r in out:
                q = r[col] // p[col]
                if q:
                    r[col:] = [x - q * y for x, y in zip(r[col:], p[col:])]
            out.append(p)
    return tuple(map(tuple, out))


def lattice_basis(vectors: Iterable[Sequence[int]]) -> list[Vector]:
    """An independent basis of the integer lattice spanned by the inputs."""
    return list(hermite_form(vectors))
