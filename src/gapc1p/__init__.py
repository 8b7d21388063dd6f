"""Gapped consecutive-ones toolchain.

Decide whether a binary matrix admits a column ordering with at most k
blocks of ones per row and no zero-gap wider than delta, generate the
column-rigidity gadget and the 3SAT hardness instances built on it, and
verify every construction against exhaustive oracles at small scale.
"""

from .bitmatrix import (
    GAP_TOO_LARGE,
    TOO_MANY_BLOCKS,
    BinaryMatrix,
    CheckReport,
    ColumnOrdering,
    GapSpec,
    MatrixFormatError,
    Violation,
    check_ordering,
    parse_matrix,
    parse_ordering,
    serialize_matrix,
    serialize_ordering,
)
from .gadget import RigidityReport, build_gadget, gadget_row_count, verify_rigidity
from .reduction import (
    Cnf,
    ColumnRole,
    ConstructionError,
    DimacsFormatError,
    EquivalenceReport,
    ReductionOutput,
    ReductionParams,
    parse_dimacs,
    reduce_formula,
    reduce_theorem2,
    reduce_theorem3,
    satisfying_assignments,
    to_exact3,
    verify_reduction,
    witness_from_assignment,
)
from .solver import (
    EXHAUSTED,
    SATISFIED,
    TIMED_OUT,
    ExhaustiveReport,
    SearchConfig,
    SearchStats,
    SolveOutcome,
    brute_force,
    classic_c1p,
    decide,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CheckReport",
    "Cnf",
    "ColumnOrdering",
    "ColumnRole",
    "ConstructionError",
    "DimacsFormatError",
    "EXHAUSTED",
    "EquivalenceReport",
    "ExhaustiveReport",
    "GAP_TOO_LARGE",
    "GapSpec",
    "MatrixFormatError",
    "ReductionOutput",
    "ReductionParams",
    "RigidityReport",
    "SATISFIED",
    "SearchConfig",
    "SearchStats",
    "SolveOutcome",
    "TIMED_OUT",
    "TOO_MANY_BLOCKS",
    "Violation",
    "brute_force",
    "build_gadget",
    "check_ordering",
    "classic_c1p",
    "decide",
    "gadget_row_count",
    "parse_dimacs",
    "parse_matrix",
    "parse_ordering",
    "reduce_formula",
    "reduce_theorem2",
    "reduce_theorem3",
    "satisfying_assignments",
    "serialize_matrix",
    "serialize_ordering",
    "to_exact3",
    "verify_reduction",
    "verify_rigidity",
    "witness_from_assignment",
]
