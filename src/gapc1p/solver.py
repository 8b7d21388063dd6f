"""Exact decision procedures for gapped consecutive-ones orderings.

``decide`` is a complete backtracking search that places columns left to
right.  Each row carries a small state machine: not started, inside a block,
or inside a gap of known length.  A branch is abandoned exactly when some
row with unplaced ones has grown a gap past the bound, or would have to open
one block more than allowed.  Both rules are consequences of the state
definition, so an exhausted search is a proof that no ordering exists.

``brute_force`` enumerates every permutation and is the ground-truth oracle
for small universes.  ``classic_c1p`` is the polynomial special case
(one block, no gaps), backed by a PQ-tree; ``decide`` routes every spec that
collapses to it there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, check_ordering, valid_forward_maps
from .pqtree import consecutive_ordering

SATISFIED = "satisfied"
EXHAUSTED = "exhausted"
TIMED_OUT = "timed_out"

# Row modes in the search state machine.
_FRESH, _IN_BLOCK, _IN_GAP = 0, 1, 2


class _BudgetExceeded(Exception):
    pass


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
    prunes = {"gap": 0, "blocks": 0, "forced": 0, "symmetry": 0}

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
    col_rows: list[tuple[int, ...]] = [()] * (n_cols + 1)
    by_col: list[list[int]] = [[] for _ in range(n_cols + 1)]
    for ri, row in enumerate(work_rows):
        for c in row:
            by_col[c].append(ri)
    for c in range(n_cols + 1):
        col_rows[c] = tuple(by_col[c])

    nrows = len(work_rows)
    mode = [_FRESH] * nrows
    blocks = [0] * nrows
    gap = [0] * nrows
    rem = [len(row) for row in work_rows]
    row_unplaced = masks[:]
    started: list[int] = []
    placed: list[int] = []

    all_mask = (1 << n_cols) - 1
    unplaced_mask = all_mask
    bit_first = 1
    bit_last = 1 << (n_cols - 1)
    deadline = None if cfg.timeout_seconds is None else t0 + cfg.timeout_seconds
    node_limit = cfg.node_limit
    nodes = 0

    def attempt(c: int):
        """Place column c at the next position; None if pruned, else an undo log."""
        nonlocal nodes, unplaced_mask
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise _BudgetExceeded
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            raise _BudgetExceeded
        bit = 1 << (c - 1)
        log = []
        started_mark = len(started)
        rule = None
        for r in col_rows[c]:
            log.append((r, mode[r], blocks[r], gap[r], rem[r], row_unplaced[r]))
            m = mode[r]
            if m == _IN_GAP:
                nb = blocks[r] + 1
                if nb > k_eff:
                    rule = "blocks"
                    break
                mode[r] = _IN_BLOCK
                blocks[r] = nb
                gap[r] = 0
            elif m == _FRESH:
                mode[r] = _IN_BLOCK
                blocks[r] = 1
                started.append(r)
            rem[r] -= 1
            row_unplaced[r] ^= bit
        if rule is None:
            for r in started:
                if rem[r] == 0 or masks[r] & bit:
                    continue
                log.append((r, mode[r], blocks[r], gap[r], rem[r], row_unplaced[r]))
                if mode[r] == _IN_BLOCK:
                    # The row still has ones to place, so this zero opens a
                    # real gap and commits the row to one more block.
                    if blocks[r] == k_eff:
                        rule = "blocks"
                        break
                    mode[r] = _IN_GAP
                    gap[r] = 1
                else:
                    if gap[r] == d_eff:
                        rule = "gap"
                        break
                    gap[r] += 1
        if rule is not None:
            for r, m, b, g, rm, up in reversed(log):
                mode[r], blocks[r], gap[r], rem[r], row_unplaced[r] = m, b, g, rm, up
            del started[started_mark:]
            prunes[rule] += 1
            return None
        placed.append(c)
        unplaced_mask ^= bit
        return log, started_mark, bit

    def undo(entry) -> None:
        nonlocal unplaced_mask
        log, started_mark, bit = entry
        for r, m, b, g, rm, up in reversed(log):
            mode[r], blocks[r], gap[r], rem[r], row_unplaced[r] = m, b, g, rm, up
        del started[started_mark:]
        placed.pop()
        unplaced_mask ^= bit

    def extend() -> bool:
        if len(placed) == n_cols:
            return True
        cand_mask = unplaced_mask
        for r in started:
            # A row stuck at the gap bound must receive one of its own
            # columns next, otherwise the gap overflows.
            if rem[r] > 0 and mode[r] == _IN_GAP and gap[r] == d_eff:
                cand_mask &= row_unplaced[r]
                if cand_mask == 0:
                    prunes["forced"] += 1
                    return False
        if cand_mask & bit_last and unplaced_mask & bit_first:
            # Only explore prefixes placing column 1 before column n_cols
            # (distinct columns: a work row has two ones); sound because
            # validity is invariant under reversal.
            cand_mask &= ~bit_last
            if cand_mask == 0:
                prunes["symmetry"] += 1
                return False
        candidates = []
        m = cand_mask
        while m:
            low = m & -m
            candidates.append(low.bit_length())
            m ^= low
        if len(candidates) > 1:
            def urgency(c: int) -> tuple[int, int]:
                in_gap = active = 0
                for r in col_rows[c]:
                    if rem[r] > 0 and mode[r] != _FRESH:
                        active += 1
                        if mode[r] == _IN_GAP:
                            in_gap += 1
                return (-in_gap, -active)

            candidates.sort(key=lambda c: (urgency(c), c))
        for c in candidates:
            entry = attempt(c)
            if entry is None:
                continue
            if extend():
                return True
            undo(entry)
        return False

    try:
        found = extend()
    except _BudgetExceeded:
        return SolveOutcome(TIMED_OUT, None, SearchStats(nodes, time.monotonic() - t0, prunes))
    stats = SearchStats(nodes, time.monotonic() - t0, prunes)
    if not found:
        return SolveOutcome(EXHAUSTED, None, stats)
    witness = ColumnOrdering(tuple(placed))
    if not check_ordering(matrix, witness, spec).ok:
        raise RuntimeError("internal error: search produced an invalid witness")
    return SolveOutcome(SATISFIED, witness, stats)


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
