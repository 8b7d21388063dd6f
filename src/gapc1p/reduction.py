"""3SAT-to-matrix reduction generator and its equivalence harness.

``reduce_formula(cnf, spec)`` builds the hardness instance of any CNF,
normalized to exactly three literals per clause, in one of two families that
the spec picks.  Over ``n`` variables and ``m`` clauses both share one layout:

* columns ``2i-1, 2i`` form the two-column block of variable ``i``;
* a *separator* of ``d = max(2k, 2*delta + 3)`` columns follows (``max(2k, 5)``
  at delta = 1), carrying a rigidity gadget that pins its internal order
  (``build_gadget`` checks ``d >= 2*delta + 3``);
* one *clause block* of ``w`` columns per clause closes the matrix
  (``w = 4`` for the block-count family, ``w = 5`` for the gapped family).

Variable rows tie each variable block against the separator's left end,
nesting rows tie the clause blocks in order against its right end, and three
literal rows per clause play the satisfiability game: orienting a variable
block against a literal costs that literal's row an extra block, which is
affordable only if the row's two target columns sit at the head of their
clause block -- and four distinct columns cannot all do that.

The printed templates this follows contain several arithmetic glitches; the
deviations adopted here are listed in ``DEVIATIONS`` and documented in
REPAIRS.md, and the generated instances are validated empirically by
``verify_reduction`` against exhaustive oracles on both sides.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bitmatrix import (
    BinaryMatrix, ColumnOrdering, GapSpec, check_ordering, strict_int,
)
from .gadget import build_gadget
from .solver import SATISFIED, SolveOutcome, decide

ROLE_VARIABLE = "variable"
ROLE_SEPARATOR = "separator"
ROLE_CLAUSE = "clause"

# The exhaustive SAT oracle enumerates 2**num_vars assignments; it refuses more.
VAR_CAP = 20


class DimacsFormatError(ValueError):
    """Raised when a DIMACS CNF stream cannot be parsed."""


class ConstructionError(RuntimeError):
    """A generated matrix failed its own witness construction.

    This signals a defect in the construction, not in the caller's input.
    """


class Cnf(NamedTuple("Cnf", [("num_vars", int), ("clauses", tuple)])):
    """A CNF formula; literals are DIMACS-style signed variable indices."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: Iterable[Sequence[int]]) -> Cnf:
        if isinstance(num_vars, bool) or not isinstance(num_vars, int):
            raise ValueError(f"num_vars must be an int, got {num_vars!r}")
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        clauses = tuple(map(tuple, clauses))
        for i, clause in enumerate(clauses, start=1):
            if not clause:
                raise ValueError(f"clause {i} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"clause {i}: literal {lit} out of range")
        return super().__new__(cls, num_vars, clauses)


class ColumnRole(NamedTuple):
    kind: str  # ROLE_VARIABLE, ROLE_SEPARATOR, or ROLE_CLAUSE
    index: int  # variable index, separator position, or clause index
    slot: int | None = None  # slot within a variable (1..2) or clause block


class ReductionParams(NamedTuple):
    theorem: int
    k: int
    delta: int
    d: int
    num_vars: int
    num_clauses: int


class ReductionOutput(NamedTuple):
    """A generated instance and the layout it was built with.

    ``clause_blocks[j-1]`` holds the columns of clause j's block; the three
    literal rows of clause j are rows ``first_literal_row + 3*(j-1)`` through
    ``first_literal_row + 3*j - 1`` (0-based), after every other row.
    """

    matrix: BinaryMatrix
    cnf: Cnf
    params: ReductionParams
    clause_blocks: tuple[tuple[int, ...], ...]
    first_literal_row: int

    @property
    def legend(self) -> dict[int, ColumnRole]:
        """Each column's role, in column order, as a new dict on each read."""
        n = self.params.num_vars
        legend = {c: ColumnRole(ROLE_VARIABLE, (c + 1) // 2, 2 - c % 2) for c in range(1, 2 * n + 1)}
        for t in range(1, self.params.d + 1):
            legend[2 * n + t] = ColumnRole(ROLE_SEPARATOR, t)
        for j, block in enumerate(self.clause_blocks, start=1):
            for s, c in enumerate(block, start=1):
                legend[c] = ColumnRole(ROLE_CLAUSE, j, s)
        return legend

    def separator_column(self, t: int) -> int:
        return 2 * self.params.num_vars + t


class EquivalenceReport(NamedTuple):
    formula_satisfiable: bool
    agree: bool
    outcome: SolveOutcome


# Points where the generated rows deviate from the printed construction,
# mirrored in REPAIRS.md (checked by the verification suite).
DEVIATIONS: tuple[tuple[str, str, str], ...] = (
    ("R1", "separator gadget row count is the delta-parameterized closed form, "
           "not the delta=1 value 2d-3", "criteria 1 and 7"),
    ("R2", "the block-count family reads its separator width as max{2k, 5}", "criterion 6"),
    ("R3", "clause blocks of the block-count family use 4 disjoint columns "
           "instead of the printed overlapping 5-index ranges", "criterion 6"),
    ("R4", "a per-clause nesting row is added to the block-count family to "
           "meet its stated row total and order the clause blocks", "criterion 6"),
    ("R5", "literal rows of the block-count family merge the separator tail "
           "into one run from offset 2k-5 through d", "criterion 6"),
    ("R6", "negative literals use the left column of the variable block and "
           "omit the right one", "criteria 6 and 7"),
    ("R7", "the gapped family widens the printed separator width max{2k, 5} "
           "to max{2k, 2*delta+3} so the rigidity hypothesis holds", "criterion 7"),
    ("R8", "printed index sequences are clamped to the separator range and "
           "emptied when their bounds cross", "criteria 6 and 7"),
    ("R9", "the gapped family emits 4 rows per clause (nesting plus three "
           "literal rows); actual row totals are reported", "criterion 7"),
    ("R10", "truth orientation: variable block ordered (2a-1, 2a) encodes "
            "true, reversed encodes false", "criteria 6 and 7"),
)


# ---------------------------------------------------------------------------
# CNF plumbing.


def parse_dimacs(text: str) -> Cnf:
    num_vars = num_clauses = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsFormatError(f"line {lineno}: duplicate problem line")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsFormatError(f"line {lineno}: malformed problem line")
            try:
                num_vars, num_clauses = strict_int(parts[2]), strict_int(parts[3])
            except ValueError:
                raise DimacsFormatError(f"line {lineno}: malformed problem line") from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsFormatError(f"line {lineno}: negative counts")
            continue
        if num_vars is None:
            raise DimacsFormatError(f"line {lineno}: clause before problem line")
        for token in stripped.split():
            try:
                lit = strict_int(token)
            except ValueError:
                raise DimacsFormatError(f"line {lineno}: bad literal {token!r}") from None
            if lit == 0:
                if not literals:
                    raise DimacsFormatError(f"line {lineno}: zero-length clause")
                clauses.append(tuple(literals))
                literals.clear()
            else:
                if abs(lit) > num_vars:
                    raise DimacsFormatError(
                        f"line {lineno}: variable {abs(lit)} out of range 1..{num_vars}"
                    )
                literals.append(lit)
    if num_vars is None:
        raise DimacsFormatError("missing problem line")
    if literals:
        raise DimacsFormatError("last clause is missing its terminating 0")
    if len(clauses) != num_clauses:
        raise DimacsFormatError(
            f"header announces {num_clauses} clauses, found {len(clauses)}"
        )
    return Cnf(num_vars, clauses)


def to_exact3(cnf: Cnf) -> Cnf:
    """Equisatisfiable formula in which every clause has exactly 3 literals.

    Short clauses repeat their first literal; long clauses are split by the
    standard chaining transformation with fresh variables.
    """
    next_var = cnf.num_vars + 1
    clauses: list[tuple[int, int, int]] = []
    for clause in cnf.clauses:
        if len(clause) <= 3:
            padded = list(clause)
            while len(padded) < 3:
                padded.insert(0, clause[0])
            clauses.append(tuple(padded))
            continue
        fresh = next_var
        next_var += 1
        clauses.append((clause[0], clause[1], fresh))
        remaining = list(clause[2:])
        while len(remaining) > 2:
            nxt = next_var
            next_var += 1
            clauses.append((-fresh, remaining.pop(0), nxt))
            fresh = nxt
        clauses.append((-fresh, remaining[0], remaining[1]))
    return Cnf(next_var - 1, clauses)


def satisfying_assignments(cnf: Cnf):
    """The exhaustive SAT oracle: every satisfying assignment, in binary counting order."""
    if cnf.num_vars > VAR_CAP:
        raise ValueError(f"{cnf.num_vars} variables exceeds the cap of {VAR_CAP}")
    for values in itertools.product((False, True), repeat=cnf.num_vars):
        assignment = {i + 1: values[i] for i in range(cnf.num_vars)}
        if formula_value(cnf, assignment):
            yield assignment


def formula_value(cnf: Cnf, assignment: Mapping[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause)
        for clause in cnf.clauses
    )


# ---------------------------------------------------------------------------
# Matrix generators.


def reduce_formula(cnf: Cnf, spec: GapSpec) -> ReductionOutput:
    """The hardness instance for ``spec`` of any CNF, normalized by ``to_exact3``.

    delta = 1 picks the block-count family (k >= 3) and delta >= 2 the
    gapped family (k >= 2); (2,1) and the classical specs have none.  Both
    widen the printed separator to max{2k, 2*delta+3} (REPAIRS.md R2, R7).

    Every row is joined from increasing runs of the column layout, so it is
    built sorted, with no per-row set or sort, in time linear in its ones:
    variable columns, then separator offsets, then the clause blocks before
    j, block j's head and the literal's target.  A variable row holds blocks
    i..n and the odd offsets 1..2k-1; a nesting row the offsets d-2k+2,
    d-2k+4, ..., d and blocks 1..j.  A literal row on variable a starts at
    2a when positive and at 2a-1, omitting 2a, when negative (REPAIRS.md
    R6), runs through the variable region, takes the odd offsets below the
    tail and the solid tail through d (R5), bridges blocks 1..j-1 and ends
    at block j's head and the column of its slot.
    """
    if spec.classical:
        raise ValueError(f"{spec} is the classical C1P, polynomial, no hardness family")
    k, delta = spec.k, spec.delta
    if k is None or delta is None:
        raise ValueError(f"the hardness families need a finite k and delta, got {spec}")
    if delta == 1 and k < 3:
        raise ValueError("the block-count family requires k >= 3; (2,1) is the "
                         "paper's open case and has no hardness family")
    cnf = to_exact3(cnf)
    theorem, width, tail_start = (3, 4, 2 * k - 5) if delta == 1 else (2, 5, 2 * k - 3)
    d = max(2 * k, 2 * delta + 3)
    n, m = cnf.num_vars, len(cnf.clauses)
    sep = 2 * n  # the last variable column; separator offset t is column sep + t
    base = sep + d  # the last separator column; clause blocks follow it
    blocks = tuple(tuple(range(base + width * j + 1, base + width * (j + 1) + 1)) for j in range(m))
    variable_sep = tuple(range(sep + 1, sep + 2 * k, 2))
    nesting_sep = tuple(range(base - 2 * k + 2, base + 1, 2))
    literal_sep = (*range(sep + 1, sep + tail_start, 2), *range(sep + tail_start, base + 1))
    rows: list[tuple[int, ...]] = list(build_gadget(tuple(range(sep + 1, base + 1)), delta))
    rows += [(*range(2 * i - 1, sep + 1), *variable_sep) for i in range(1, n + 1)]
    rows += [(*nesting_sep, *range(base + 1, base + width * j + 1)) for j in range(1, m + 1)]
    first_literal_row = len(rows)
    for block, clause in zip(blocks, cnf.clauses):
        upto_head = range(base + 1, block[0] + 1)  # blocks 1..j-1, then block j's head
        for target, lit in zip(block[1:], clause):
            a = abs(lit)
            rows.append((2 * a if lit > 0 else 2 * a - 1, *range(2 * a + 1, sep + 1),
                         *literal_sep, *upto_head, target))
    matrix = BinaryMatrix(base + width * m, rows)
    params = ReductionParams(theorem, k, delta, d, n, m)
    return ReductionOutput(matrix, cnf, params, blocks, first_literal_row)


# Shorthands for reduce_formula, outside the public API.  They keep their
# names, as ``pqtree`` keeps its own, because the benchmark harness calls and
# traces them by name.
def reduce_theorem3(cnf: Cnf, k: int) -> ReductionOutput:
    return reduce_formula(cnf, GapSpec(k, 1))


def reduce_theorem2(cnf: Cnf, k: int, delta: int) -> ReductionOutput:
    return reduce_formula(cnf, GapSpec(k, delta))


# ---------------------------------------------------------------------------
# Witness construction and the two-sided equivalence check.


def witness_from_assignment(
    output: ReductionOutput,
    assignment: Mapping[int, bool],
) -> ColumnOrdering:
    """Build a valid ordering from a satisfying assignment.

    Layout: variable blocks in index order, each oriented by its truth value
    (true puts the odd column first), the separator in gadget order, then
    clause blocks in index order, each laid out by the rule in REPAIRS.md R9:
    the head column ``block[0]`` sits beside the target ``block[i]`` of each
    falsified i-th literal.  In the gapped family the head has one neighbour,
    so a clause with two falsified literals raises ``ConstructionError``.
    """
    cnf = output.cnf
    params = output.params
    missing = next((i for i in range(1, params.num_vars + 1) if i not in assignment), None)
    if missing is not None:
        raise ValueError(f"assignment has no value for variable {missing}")
    if not formula_value(cnf, assignment):
        raise ValueError("assignment does not satisfy the recorded formula")
    forward: list[int] = []
    for i in range(1, params.num_vars + 1):
        if assignment[i]:
            forward.extend((2 * i - 1, 2 * i))
        else:
            forward.extend((2 * i, 2 * i - 1))
    forward.extend(output.separator_column(t) for t in range(1, params.d + 1))
    for j, (block, clause) in enumerate(zip(output.clause_blocks, cnf.clauses), start=1):
        targets = block[1:4]
        falsified = [c for c, lit in zip(targets, clause) if assignment[abs(lit)] != (lit > 0)]
        ranked = falsified + [c for c in targets if c not in falsified]
        if params.delta == 1:
            left, right = sorted(ranked[:2])
            forward.extend((left, block[0], right, ranked[2]))
        elif len(falsified) > 1:
            raise ConstructionError(
                f"no internal arrangement of clause block {j} satisfies its rows"
            )
        else:
            forward.extend((block[0], *ranked, block[4]))
    ordering = ColumnOrdering(forward)
    if not check_ordering(output.matrix, ordering, GapSpec(params.k, params.delta)).ok:
        raise ConstructionError("assembled witness fails the full matrix check")
    return ordering


def verify_reduction(cnf: Cnf, spec: GapSpec) -> EquivalenceReport:
    """Check formula satisfiability against the generated matrix's decision.

    The instance is ``reduce_formula(cnf, spec)``.  The exhaustive SAT
    oracle runs first, so a formula over ``VAR_CAP`` is refused before any
    search; for satisfiable formulas the explicit witness construction is
    validated end to end.  The complete ordering search runs last.
    """
    output = reduce_formula(cnf, spec)
    # Some satisfying assignments may not admit the canonical layout (the
    # gapped family tolerates at most one falsified occurrence per clause),
    # so search them all; only a formula with no witness-admitting
    # assignment at all is a construction discrepancy.
    formula_satisfiable = False
    witness_error: ConstructionError | None = None
    for assignment in satisfying_assignments(output.cnf):
        formula_satisfiable = True
        try:
            witness_from_assignment(output, assignment)
            witness_error = None
            break
        except ConstructionError as exc:
            witness_error = exc
    if witness_error is not None:
        raise witness_error
    outcome = decide(output.matrix, spec)
    agree = formula_satisfiable == (outcome.status == SATISFIED)
    return EquivalenceReport(formula_satisfiable, agree, outcome)
