"""Exact decision procedures for orientable quadratic equations over wreath
products of finitely generated abelian groups, via the quotient sum problem."""

from .abelian import (
    BudgetExceeded,
    GroupElement,
    GroupPresentation,
    Subgroup,
)
from .group_ring import SupportedFunction
from .qsp import Certificate, QspInstance, ShapeMismatch, verify_certificate
from .solvers import SolveResult, SolverBudget, dispatch, oracle_solve
from .wreath import (
    EquationAssignment,
    OrientableEquation,
    Unsolvable,
    WreathElement,
    gen_solvable,
    reduce_to_qsp,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Certificate",
    "EquationAssignment",
    "GroupElement",
    "GroupPresentation",
    "OrientableEquation",
    "QspInstance",
    "ShapeMismatch",
    "SolveResult",
    "SolverBudget",
    "Subgroup",
    "SupportedFunction",
    "Unsolvable",
    "WreathElement",
    "dispatch",
    "gen_solvable",
    "oracle_solve",
    "reduce_to_qsp",
    "verify_certificate",
    "__version__",
]
