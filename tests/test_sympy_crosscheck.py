"""Smith and Hermite forms checked against sympy on random integer matrices.

sympy is a test-only dependency; the module is skipped when it is absent.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from wreath_dio.abelian import smith_normal_form
from wreath_dio.lattice import hermite_form


def _random_rows(rng):
    """Up to 5x5 entries in [-6, 6]; some rows are combinations of others so
    that rank-deficient matrices and zero invariant factors occur."""
    nrows = rng.randint(1, 5)
    ncols = rng.randint(1, 5)
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([p * x + q * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-6, 6) for _ in range(ncols)])
    return rows


def _in_integer_span(basis, v):
    """Whether v is an integer combination of the independent vectors in basis."""
    if not basis:
        return not any(v)
    try:
        x, params = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(v))
    except ValueError:  # v is outside the rational span
        return False
    assert params.shape[0] == 0, "basis vectors must be independent"
    return all(c.is_integer for c in x)


def test_smith_invariant_factors_match_sympy():
    rng = random.Random(51)
    for _ in range(200):
        rows = _random_rows(rng)
        D, _, _ = smith_normal_form(rows)
        ours = [D[i][i] for i in range(min(len(rows), len(rows[0])))]
        theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert ours == [int(d) for d in theirs], rows


def test_hermite_row_lattice_matches_sympy():
    # sympy's Hermite form is column-style: its columns for M^T span the row
    # lattice of M, with a different triangular layout, so compare lattices
    rng = random.Random(52)
    for _ in range(200):
        rows = _random_rows(rng)
        ours = [list(v) for v in hermite_form(rows)]
        H = hermite_normal_form(sympy.Matrix(rows).T)
        theirs = [list(map(int, H.col(j))) for j in range(H.cols)]
        rank = sympy.Matrix(rows).rank()
        assert len(ours) == len(theirs) == rank, rows
        assert all(_in_integer_span(theirs, v) for v in ours), rows
        assert all(_in_integer_span(ours, v) for v in theirs), rows
