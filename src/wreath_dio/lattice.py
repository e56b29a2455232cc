"""Exact integer-lattice utilities.

LLL reduction runs entirely over rationals with factor 3/4 (size-reduction
|mu_ij| <= 1/2 plus the Lovasz condition), and Hermite normal form provides
the canonical-form oracle for lattice equality.
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


def is_lll_reduced(basis: Sequence[Sequence[int]], delta: Fraction = LLL_DELTA) -> bool:
    """Check both LLL conditions exactly."""
    ortho, mus = _gram_schmidt(basis)
    for i in range(len(basis)):
        for j in range(i):
            if abs(mus[i][j]) > Fraction(1, 2):
                return False
    for i in range(len(basis) - 1):
        lhs = delta * _dot(ortho[i], ortho[i])
        # ||pi_i(v_{i+1})||^2 = ||v*_{i+1}||^2 + mu^2 ||v*_i||^2
        rhs = _dot(ortho[i + 1], ortho[i + 1]) + mus[i + 1][i] ** 2 * _dot(
            ortho[i], ortho[i]
        )
        if lhs > rhs:
            return False
    return True


def lll_reduce(
    basis: Sequence[Sequence[int]], delta: Fraction = LLL_DELTA
) -> list[Vector]:
    """LLL-reduce an independent integer basis with exact rational arithmetic.

    The output generates the same lattice and satisfies size-reduction and the
    Lovasz condition with the given factor (default 3/4).  Dependent input is
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

    def refresh() -> None:
        nonlocal ortho, mus
        ortho, mus = _gram_schmidt(vecs)

    k = 1
    while k < n:
        for j in reversed(range(k)):
            if abs(mus[k][j]) > Fraction(1, 2):
                q = round(mus[k][j])
                vecs[k] = tuple(x - q * y for x, y in zip(vecs[k], vecs[j]))
                refresh()
        lovasz_rhs = _dot(ortho[k], ortho[k]) + mus[k][k - 1] ** 2 * _dot(
            ortho[k - 1], ortho[k - 1]
        )
        if delta * _dot(ortho[k - 1], ortho[k - 1]) <= lovasz_rhs:
            k += 1
        else:
            vecs[k], vecs[k - 1] = vecs[k - 1], vecs[k]
            refresh()
            k = max(k - 1, 1)
    return vecs


def hermite_form(vectors: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Canonical: two generating sets span the same lattice iff their forms are
    equal.  Pivots are positive, entries above a pivot are reduced into
    [0, pivot), and zero rows are dropped.
    """
    work = [list(int(x) for x in v) for v in vectors]
    if not work:
        return ()
    ncols = len(work[0])
    out: list[list[int]] = []
    for col in range(ncols):
        # combine rows by gcd steps until one pivot remains in this column
        while True:
            nz = sorted(
                (r for r in work if r[col] != 0), key=lambda r: abs(r[col])
            )
            if len(nz) <= 1:
                break
            a, b = nz[0], nz[1]
            q = b[col] // a[col]
            for i in range(ncols):
                b[i] -= q * a[i]
        pivot_row = next((r for r in work if r[col] != 0), None)
        if pivot_row is not None:
            work = [r for r in work if r is not pivot_row]
            if pivot_row[col] < 0:
                pivot_row[:] = [-x for x in pivot_row]
            out.append(pivot_row)

    # reduce entries above each pivot, ascending so later columns stay clean
    pivots = [(next(i for i, x in enumerate(r) if x != 0), r) for r in out]
    for idx in range(len(pivots)):
        pcol, prow = pivots[idx]
        for jdx in range(idx):
            row = pivots[jdx][1]
            q = row[pcol] // prow[pcol]
            if q:
                for i in range(len(row)):
                    row[i] -= q * prow[i]
    return tuple(tuple(r) for r in out)


def lattice_basis(vectors: Iterable[Sequence[int]]) -> list[Vector]:
    """An independent basis of the integer lattice spanned by the inputs."""
    return [v for v in hermite_form(vectors)]
