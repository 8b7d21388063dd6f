"""Exact decision procedures for gapped consecutive-ones orderings.

``decide`` is a complete search that places columns left to right.  A
search state is the unplaced-column mask, the placed prefix, and the active
rows, those with ones on both sides of the prefix boundary, each with its
block count and open gap length.  Placing a column is refused exactly when
some row would need one block more than allowed.  The gap bound is enforced
by forcing: a row whose gap has reached the bound must receive one of its
own columns next.  Both rules follow from the state definition, so an
exhausted search is a proof that no ordering exists.  The search is one loop
over an explicit stack of immutable states, so depth is not limited by the
recursion limit.

``brute_force`` enumerates every permutation and is the ground-truth oracle
for small universes.  ``classic_c1p`` is the polynomial special case
(one block, no gaps), backed by a PQ-tree; ``decide`` routes every spec that
collapses to it there.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, check_ordering, valid_forward_maps
from .pqtree import consecutive_ordering

SATISFIED = "satisfied"
EXHAUSTED = "exhausted"
TIMED_OUT = "timed_out"

# A search state: the unplaced-column mask; the active rows (ones on both
# sides of the prefix boundary) in start order, each mapped to its blocks so
# far and its open gap length (0 inside a block); and the placed prefix as a
# linked list (last column, rest of prefix), None when empty.
_State = tuple[int, dict[int, tuple[int, int]], tuple | None]


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    elapsed_seconds: float = 0.0
    prunes: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SearchConfig:
    timeout_seconds: float | None = None
    node_limit: int | None = None


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    witness: ColumnOrdering | None
    stats: SearchStats


@dataclass(frozen=True)
class ExhaustiveReport:
    valid_count: int
    witnesses: tuple[ColumnOrdering, ...]


def decide(matrix: BinaryMatrix, spec: GapSpec, config: SearchConfig | None = None) -> SolveOutcome:
    """Decide whether some column ordering satisfies the spec.

    Returns SATISFIED with a witness, EXHAUSTED when the complete search
    proves none exists, or TIMED_OUT when a configured limit was hit.
    A spec with ``k == 1`` or ``delta == 0`` allows no gap at all, so it is
    the classical property and goes to the PQ-tree with no search and no
    limits.
    """
    t0 = time.monotonic()
    if spec.k == 1 or spec.delta == 0:
        ordering = classic_c1p(matrix)
        return SolveOutcome(
            SATISFIED if ordering else EXHAUSTED,
            ordering,
            SearchStats(0, time.monotonic() - t0, {}),
        )
    cfg = config or SearchConfig()
    n_cols = matrix.num_columns
    prunes = {"blocks": 0, "forced": 0, "symmetry": 0}

    # Rows with fewer than two ones never constrain an ordering; duplicates
    # add no information to the decision.
    work_rows = sorted({row for row in matrix.rows if len(row) >= 2})
    if not work_rows:
        return SolveOutcome(
            SATISFIED,
            ColumnOrdering.identity(n_cols),
            SearchStats(0, time.monotonic() - t0, prunes),
        )

    k_eff = spec.block_limit(n_cols)
    d_eff = spec.gap_limit(n_cols)
    masks = [sum(1 << (c - 1) for c in row) for row in work_rows]
    col_rows: list[list[int]] = [[] for _ in range(n_cols + 1)]
    for ri, row in enumerate(work_rows):
        for c in row:
            col_rows[c].append(ri)

    bit_first = 1
    bit_last = 1 << (n_cols - 1)
    deadline = None if cfg.timeout_seconds is None else t0 + cfg.timeout_seconds
    node_limit = cfg.node_limit
    nodes = 0

    def place(state: _State, c: int) -> _State | None:
        """The state after placing column c next, or None if a row needs too many blocks."""
        unplaced, active, prefix = state
        bit = 1 << (c - 1)
        unplaced ^= bit
        child = {}
        for r, (blocks, gap) in active.items():
            if masks[r] & bit:
                if gap:
                    if blocks == k_eff:
                        return None
                    blocks += 1
                if masks[r] & unplaced:
                    child[r] = (blocks, 0)
            elif gap:
                child[r] = (blocks, gap + 1)
            elif blocks == k_eff:
                # The row still has ones to place, so this zero opens a real
                # gap and commits the row to one more block.
                return None
            else:
                child[r] = (blocks, 1)
        for r in col_rows[c]:
            if r not in active:
                child[r] = (1, 0)
        return unplaced, child, (c, prefix)

    def columns(state: _State) -> tuple[list[int], int]:
        """The columns to try next: a list popped from the end, then a mask.

        Columns that share a row with an active row are listed, least urgent
        first; the others stay in the mask and are tried in column order, so
        a frame holds O(active rows) candidates, not every unplaced column.
        Both are empty if the state is pruned.
        """
        unplaced, active, _ = state
        cand_mask = unplaced
        touched = 0
        for r, (_, gap) in active.items():
            touched |= masks[r]
            # A row at the gap bound must receive one of its own columns
            # next, so no gap ever grows past the bound.
            if gap == d_eff:
                cand_mask &= masks[r]
                if cand_mask == 0:
                    prunes["forced"] += 1
                    return [], 0
        if cand_mask & bit_last and unplaced & bit_first:
            # Only explore prefixes placing column 1 before column n_cols
            # (distinct columns: a work row has two ones); sound because
            # validity is invariant under reversal.
            cand_mask &= ~bit_last
            if cand_mask == 0:
                prunes["symmetry"] += 1
                return [], 0

        def urgency(c: int) -> tuple[int, int, int]:
            in_gap = started = 0
            for r in col_rows[c]:
                row = active.get(r)
                if row is not None:
                    started += 1
                    if row[1]:
                        in_gap += 1
            return (-in_gap, -started, c)

        return sorted(_bits(cand_mask & touched), key=urgency, reverse=True), cand_mask & ~touched

    root: _State = ((1 << n_cols) - 1, {}, None)
    stack = [[root, *columns(root)]]
    while stack:
        frame = stack[-1]
        state, listed, rest = frame
        if listed:
            c = listed.pop()
        elif rest:
            low = rest & -rest
            frame[2] = rest ^ low
            c = low.bit_length()
        else:
            stack.pop()
            continue
        nodes += 1
        if (node_limit is not None and nodes > node_limit) or (
            deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline
        ):
            return SolveOutcome(TIMED_OUT, None, SearchStats(nodes, time.monotonic() - t0, prunes))
        child = place(state, c)
        if child is None:
            prunes["blocks"] += 1
        elif not child[0]:
            break
        else:
            stack.append([child, *columns(child)])
    else:
        return SolveOutcome(EXHAUSTED, None, SearchStats(nodes, time.monotonic() - t0, prunes))
    stats = SearchStats(nodes, time.monotonic() - t0, prunes)
    placed = []
    prefix = child[2]
    while prefix:
        c, prefix = prefix
        placed.append(c)
    witness = ColumnOrdering(tuple(reversed(placed)))
    if not check_ordering(matrix, witness, spec).ok:
        raise RuntimeError("internal error: search produced an invalid witness")
    return SolveOutcome(SATISFIED, witness, stats)


def _bits(mask: int) -> Iterator[int]:
    """The 1-based positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def brute_force(
    matrix: BinaryMatrix,
    spec: GapSpec,
    column_cap: int = 10,
    witness_cap: int = 8,
) -> ExhaustiveReport:
    """Enumerate all column permutations and count the valid ones.

    Witnesses are collected up to ``witness_cap`` in lexicographic order of
    the forward maps; ``valid_count`` is always exact.
    """
    n = matrix.num_columns
    if n > column_cap:
        raise ValueError(f"{n} columns exceeds the brute-force cap of {column_cap}")
    valid = 0
    witnesses: list[ColumnOrdering] = []
    for forward in valid_forward_maps(matrix, spec):
        valid += 1
        if len(witnesses) < witness_cap:
            witnesses.append(ColumnOrdering(forward))
    return ExhaustiveReport(valid, tuple(witnesses))


def classic_c1p(matrix: BinaryMatrix) -> ColumnOrdering | None:
    """Polynomial test for the classical consecutive-ones property.

    Returns an ordering under which every row is a single block, or None
    when no such ordering exists.
    """
    rows = sorted({row for row in matrix.rows if len(row) >= 2})
    forward = consecutive_ordering(matrix.num_columns, rows)
    if forward is None:
        return None
    ordering = ColumnOrdering(tuple(forward))
    if not check_ordering(matrix, ordering, GapSpec(1, 0)).ok:
        raise RuntimeError("internal error: PQ-tree frontier fails verification")
    return ordering
