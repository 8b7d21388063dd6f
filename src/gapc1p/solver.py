"""Exact decision procedures for gapped consecutive-ones orderings.

``decide`` is a complete search that places columns left to right.  A
search state is the unplaced-column mask and the rows' block count, open
gap length and placed ones, each packed as one W-bit field per row into one
integer, with offsets that set a field's top bit at its limit; placing a
column is then a fixed number of integer operations.
Placing a column is refused exactly when some row would need one block
more than allowed.  The gap bound is enforced by forcing: a row whose gap
has reached the bound must receive one of its own columns next.  With a
finite gap bound, each active row's last one must land within its slack,
``rem + min(k - blocks, rem) * delta - gap`` slots, and a child is pruned
when the unplaced columns of the rows with slack at most s number more than
s for some s (Hall's condition for unit jobs with deadlines, Jackson 1955).
All three rules are necessary conditions, so an exhausted search is a proof
that no ordering exists.  The search is one loop over an explicit stack of
immutable states, so depth is not limited by the recursion limit.

Only the columns that the work rows (rows of two or more ones) hold are
searched.  A free column, in no work row, cannot change the answer:
deleting a column only shortens gaps, and placed after the last searched
column it touches no row, so the witness ends with the free columns in label
order.

Each candidate counts as one node and is judged in a fixed order; a rejected
one is counted once, under the first rule that fires.  Three tests need only
the parent, so they run before the child state is built: the blocks rule,
against a mask of the columns each frame may take, then two deadline tests,
that the column lies in the parent's smallest tight union and that an
untouched column does not start rows with too little slack.  The child is
then built, and the forced rule (no column may come next), the exhausted-state
table and Hall's condition on the child come last.  Candidates are tried in
the static rank below, and those that precede the first one passing both
parent masks are counted as one run, with the same nodes and prunes as one
by one; a run that a node limit or a deadline check would fall inside goes
one at a time.

A state, without its prefix, determines its whole subtree, and a frame is
popped only once every candidate under it has failed.  So each popped state
goes into a table of dead states, and a child found there is a ``seen`` node
and is not searched again (nogood recording, Dechter 1990, on the subset
states of Held and Karp 1962).  Only exhausted subtrees are cut, so no status
and no first witness changes.  The table is cleared when it holds
``TABLE_FIELDS`` packed row fields, which only forgets pruning.

Candidates are tried in one static rank, not the labels: the columns in
breadth-first (Cuthill-McKee) order, each component from a far column, so
a layout starts at an end rather than in its interior.  The reversal-symmetry
pair stays on the caller's columns 1 and n, and is dropped when either is
free.  A candidate's fate depends only on its parent, an exhausted search
judges every candidate of every frame it opens, and until the table is first
cleared it opens each state once, so its nodes and prunes do not depend on
the rank.

``brute_force`` is the ground-truth oracle for small universes: an exact
count of the valid orderings, one step per distinct placement state rather
than per ordering, with the first ones in lexicographic order as witnesses.
``classic_c1p`` is the special case with one block and no gaps, decided in
polynomial time by overlap-component refinement; ``decide`` routes every
spec that collapses to it there.
"""

from __future__ import annotations

import itertools
import time
from math import inf
from typing import NamedTuple

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, check_ordering, valid_forward_maps
from .pqtree import consecutive_ordering

SATISFIED = "satisfied"
EXHAUSTED = "exhausted"
TIMED_OUT = "timed_out"

# How many valid orderings brute_force keeps as witnesses.
WITNESS_CAP = 8

# The rules a search candidate can be pruned by, in the order reports list them.
PRUNE_RULES = ("blocks", "forced", "deadline", "symmetry", "seen")

# The exhausted-state table of one search holds at most this many packed row
# fields (entries times work rows), since a key grows with the row count; it
# is cleared when full, which only forgets pruning.
TABLE_FIELDS = 1 << 23

# A search state: the unplaced-column mask; `touched`, the unplaced columns
# sharing a row with an active row; `allowed`, the candidates the forced rule
# leaves; and five packed row integers.  The placed columns are read from the
# search stack, each of whose frames records the column that made it.  Row r
# owns the W-bit field at bit W*r of each packed integer.  `active` (ones on
# both sides of the prefix boundary) and `gap` (active, in a gap) are low-bit
# flags.  The counters `blocks`, `gaps` (open gap length) and `placed` (placed
# ones) start at top - k_eff, top - d_eff and top - len(row),
# top = 1 << (W-1), so a top bit is set exactly at the limit.  No field
# carries into its neighbour: the blocks prune, the forced rule and placing
# each column once stop them there, and gaps are not counted when delta is
# unbounded.  W also holds a row's slack, at most longest * (d_eff + 1),
# below the top bit.
_State = tuple[int, int, int, int, int, int, int, int]


class SearchStats(NamedTuple):
    nodes_expanded: int
    elapsed_seconds: float
    prune_counts: tuple[int, ...]  # in PRUNE_RULES order

    @property
    def prunes(self) -> dict[str, int]:
        """The prune counts by rule, in ``PRUNE_RULES`` order, as a new dict on each read."""
        return dict(zip(PRUNE_RULES, self.prune_counts))


class SearchConfig(NamedTuple("SearchConfig", [("timeout_seconds", float | None),
                                               ("node_limit", int | None)])):
    """The search limits; ``None`` means the limit is absent."""

    __slots__ = ()

    def __new__(cls, timeout_seconds: float | None = None,
                node_limit: int | None = None) -> SearchConfig:
        for name, value in (("timeout_seconds", timeout_seconds), ("node_limit", node_limit)):
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {value}")
        if node_limit is not None and not isinstance(node_limit, int):
            raise ValueError(f"node_limit must be an int, got {node_limit!r}")
        return super().__new__(cls, timeout_seconds, node_limit)


class SolveOutcome(NamedTuple):
    status: str
    witness: ColumnOrdering | None
    stats: SearchStats


class ExhaustiveReport(NamedTuple):
    valid_count: int
    witnesses: tuple[ColumnOrdering, ...]


def decide(matrix: BinaryMatrix, spec: GapSpec, config: SearchConfig | None = None) -> SolveOutcome:
    """Decide whether some column ordering satisfies the spec.

    Returns SATISFIED with a witness, EXHAUSTED when the complete search
    proves none exists, or TIMED_OUT when a configured limit was hit.
    A classical spec allows no gap at all, so it goes to ``classic_c1p``
    with no search and no limits.  ``stats.prunes`` counts every rule of
    ``PRUNE_RULES``, in that order, on every path.
    """
    t0 = time.monotonic()
    prunes = dict.fromkeys(PRUNE_RULES, 0)

    def finish(status: str, witness: ColumnOrdering | None = None, nodes: int = 0) -> SolveOutcome:
        """The outcome of every path, with the prune counts in rule order."""
        stats = SearchStats(nodes, time.monotonic() - t0, tuple(prunes.values()))
        return SolveOutcome(status, witness, stats)

    if spec.classical:
        ordering = classic_c1p(matrix)
        return finish(SATISFIED if ordering else EXHAUSTED, ordering)
    cfg = config or SearchConfig()
    n_cols = matrix.num_columns

    # Rows with fewer than two ones never constrain an ordering; duplicates
    # add no information to the decision.
    work_rows = sorted({row for row in matrix.rows if len(row) >= 2})
    if not work_rows:
        return finish(SATISFIED, ColumnOrdering.identity(n_cols))

    # Search only the columns the work rows hold, relabelled by breadth-first
    # rank, so every tie is broken in that order; the witness is mapped back
    # at the end and the free columns follow it, where they touch no row.
    order = breadth_first_order(n_cols, work_rows)
    rank = {c: at for at, c in enumerate(order, 1)}
    free = [c for c in range(1, n_cols + 1) if c not in rank]
    n_cols = len(order)  # the searched columns from here on
    work_rows = [tuple(map(rank.__getitem__, row)) for row in work_rows]
    longest = max(len(row) for row in work_rows)
    # An active row has fewer blocks than ones, so a bound above the longest
    # row never binds; clamping keeps the block offset positive.
    k_eff = min(spec.block_limit(n_cols), longest)
    # No gap is longer than n_cols.  With delta = inf no gap bound binds, so
    # gaps are not counted and the deadline rule is off.
    finite = spec.delta is not None
    d_eff = min(spec.delta, n_cols) if finite else 0
    width = (longest * (d_eff + 1)).bit_length() + 1
    shift = width - 1
    top = 1 << shift
    ones = (1 << width) - 1
    lows = sum(1 << (width * r) for r in range(len(work_rows)))
    tops = lows << shift
    no_gap = lows * (top - d_eff) if finite else 0
    masks = [sum(1 << (c - 1) for c in row) for row in work_rows]
    # Per column: its bit, the low bits of its rows, the columns sharing a
    # row with it, and the gap-field mask and base that reset its rows; and
    # the (slack + 1, other columns) of the rows it starts when it is untouched.
    col_rows = [0] * (n_cols + 1)
    near = [0] * (n_cols + 1)
    fresh: list[list[tuple[int, int]]] = [[] for _ in range(n_cols + 1)]
    for ri, row in enumerate(work_rows):
        rem = len(row) - 1
        low, mask, start = 1 << (width * ri), masks[ri], rem + min(k_eff - 1, rem) * d_eff + 1
        for c in row:
            col_rows[c] |= low
            near[c] |= mask
            fresh[c].append((start, mask ^ 1 << (c - 1)))
    col_ops = [(1 << c >> 1, rows, near[c], ~(rows * ones), rows * (top - d_eff))
               for c, rows in enumerate(col_rows)]
    # Row masks keyed by the top bit of the row's field.
    row_mask = {1 << (width * ri + shift): mask for ri, mask in enumerate(masks)}

    # The reversal-symmetry pair stays on the caller's columns 1 and n, and
    # is dropped if either is free, so relabelling the others changes no count.
    bit_first = bit_last = 0
    if 1 in rank and matrix.num_columns in rank:
        bit_first, bit_last = 1 << (rank[1] - 1), 1 << (rank[matrix.num_columns] - 1)
    # The search stops at `limit` nodes and reads the clock every `step`
    # nodes; `check` is the next count at which either happens.
    limit = inf if cfg.node_limit is None else cfg.node_limit
    step = inf if cfg.timeout_seconds is None else 1024
    deadline = t0 + (cfg.timeout_seconds or 0)
    check = min(limit, step)
    nodes = 0

    def place(state: _State, c: int) -> _State:
        """The state after placing column c next; c must fit the parent's blocks mask."""
        unplaced, touched, _, active, gap, blocks, gaps, placed = state
        bit, rows, reach, keep, base = col_ops[c]
        unplaced ^= bit
        blocks += rows & ~(active ^ gap)
        placed += rows
        gap = active & ~rows
        active = (active | rows) & ~((placed & tops) >> shift)
        if finite:
            gaps = (gaps & keep | base) + gap
        # A row at the gap bound must receive one of its own columns next,
        # so no gap ever grows past the bound.
        allowed = unplaced
        bound = gaps & tops
        while bound and allowed:
            low = bound & -bound
            allowed &= row_mask[low]
            bound ^= low
        touched = (touched | reach) & unplaced
        return unplaced, touched, allowed, active, gap, blocks, gaps, placed

    def columns(state: _State) -> tuple[int, int]:
        """The columns to try next, in rank order; and the blocks mask.

        Both are empty if the state is pruned.  The blocks mask holds the
        columns that give no row a block too many: a column must lie in each
        active row at the block limit that is in a block, since it may not
        open a gap there, and in none that is in a gap, since it may not end
        the gap.
        """
        unplaced, _, allowed, active, gap, blocks = state[:6]
        if allowed & bit_last and unplaced & bit_first:
            # Only explore prefixes placing column 1 before column n_cols
            # (distinct columns: a work row has two ones); sound because
            # the reversal of a valid ordering is valid.
            allowed ^= bit_last
            if allowed == 0:
                prunes["symmetry"] += 1
                return 0, 0
        fits = -1
        full_rows = blocks & active << shift
        while full_rows:
            low = full_rows & -full_rows
            fits &= ~row_mask[low] if low >> shift & gap else row_mask[low]
            full_rows ^= low
        return allowed, fits

    def hall(state: _State) -> tuple[list[tuple[int, int]], int] | None:
        """Hall's condition on the active rows' deadlines.

        None if the unplaced columns of the rows with slack at most s number
        more than s for some s.  Otherwise the rows that can bind (slack at
        most the number of columns the active rows hold), sorted by slack,
        and the smallest tight union: a child placing a column outside it is
        dead, since those rows each lose a slot and keep all their columns.
        """
        unplaced, touched, _, active, _, blocks, gaps, placed = state
        rem = tops - placed
        left = tops - blocks
        # At most min(left, rem) more gaps of at most delta each; `pick`
        # selects the fields where rem <= left.
        pick = ((((left | tops) - rem) & tops) >> shift) * ones
        slack = rem + ((rem & pick) | (left & ~pick)) * d_eff - (gaps - no_gap)
        bits = active & ~(((slack | tops) - lows * min(touched.bit_count() + 1, top)) >> shift)
        due = []
        while bits:
            at = bits.bit_length() - 1
            bits ^= 1 << at
            due.append((slack >> at & ones, masks[at // width] & unplaced))
        due.sort()
        union, must = 0, -1
        for s, cols in due:
            union |= cols
            held = union.bit_count()
            if held > s:
                return None
            if held == s and must == -1:
                must = union
        return due, must

    def late(due: list[tuple[int, int]], c: int) -> bool:
        """Whether placing the untouched column c next breaks Hall's condition.

        Every active row loses a slot and keeps its columns, and only the
        rows of c start, at a static slack; slacks here are the child's plus
        one.  False proves nothing, since the parent's due rows leave out
        rows that the new columns may bring in.
        """
        union = 0
        for s, cols in sorted(due + fresh[c]):
            union |= cols
            if union.bit_count() >= s:
                return True
        return False

    def dead_key(state: _State) -> tuple[int, int, int, int]:
        """What the state's subtree depends on, as a key of the exhausted-state table.

        `touched`, `active` and `placed` follow from the unplaced mask, and
        `allowed` from the gap fields of the active rows.  An inactive row
        has either placed no column, so its fields are still at their start
        values, or every column, so its fields are never read again.
        """
        unplaced, _, _, active, gap, blocks, gaps, _ = state
        live = active * ones
        return unplaced, gap, blocks & live, gaps & live

    full = (1 << n_cols) - 1
    to_place = sum((top - len(row)) << (width * ri) for ri, row in enumerate(work_rows))
    root: _State = (full, 0, full, 0, 0, lows * (top - k_eff), no_gap, to_place)
    # Each frame ends with the column that made it (0 at the root) and its table key.
    stack = [[root, *columns(root), [], -1, 0, dead_key(root)]]
    dead: set[tuple[int, int, int, int]] = set()
    table_cap = max(1, TABLE_FIELDS // len(work_rows))
    while stack:
        frame = stack[-1]
        state, rest, fits, due, must, _, _ = frame
        if rest:
            # The columns below the lowest that passes both parent masks all
            # fail one, so they are judged as one run unless the next check
            # falls inside it.
            good = rest & fits & must
            run = rest & ((good & -good) - 1)
            size = run.bit_count()
            if size and nodes + size <= check:
                nodes += size
                frame[1] = rest ^ run
                blocked = (run & ~fits).bit_count()
                prunes["blocks"] += blocked
                prunes["deadline"] += size - blocked
                continue
            low = rest & -rest
            frame[1] = rest ^ low
            c = low.bit_length()
        else:
            # Every candidate of the frame is judged, so its state is dead.
            if len(dead) >= table_cap:
                dead.clear()
            dead.add(stack.pop()[6])
            continue
        # A candidate counts once it is judged, so a limit of N reports N.
        if nodes >= check:
            if nodes >= limit or time.monotonic() > deadline:
                return finish(TIMED_OUT, nodes=nodes)
            check = min(limit, nodes + step)
        nodes += 1
        bit = 1 << c >> 1
        if not bit & fits:
            prunes["blocks"] += 1
        elif finite and (not bit & must or not bit & state[1] and late(due, c)):
            # Outside the smallest tight union, or an untouched column that
            # starts rows with too little slack.
            prunes["deadline"] += 1
        elif not (child := place(state, c))[0]:
            break
        elif not child[2]:
            prunes["forced"] += 1
        elif (key := dead_key(child)) in dead:
            # Dead under another prefix; it passed Hall's condition then.
            prunes["seen"] += 1
        elif (checked := hall(child) if finite else ([], -1)) is None:
            prunes["deadline"] += 1
        else:
            stack.append([child, *columns(child), *checked, c, key])
    else:
        return finish(EXHAUSTED, nodes=nodes)
    # The frames above the root hold the placed prefix; c completes it.
    placed = [f[5] for f in stack[1:]] + [c]
    witness = ColumnOrdering([order[p - 1] for p in placed] + free)
    if not check_ordering(matrix, witness, spec).ok:
        raise RuntimeError("internal error: search produced an invalid witness")
    return finish(SATISFIED, witness, nodes)


def breadth_first_order(n_cols: int, rows: list[tuple[int, ...]]) -> list[int]:
    """The columns that some row holds, in Cuthill-McKee order over the rows' incidence.

    Each component takes three sweeps: two find a far column (from its lowest
    column, then from the last one reached), and the third, from it, is the
    component's order.  A sweep appends each column's newly reached columns
    by row count, then label, and visits each row once: O(ones).
    """
    col_rows: list[list[int]] = [[] for _ in range(n_cols + 1)]
    for ri, row in enumerate(rows):
        for c in row:
            col_rows[c].append(ri)
    key = [len(held) * (n_cols + 1) + c for c, held in enumerate(col_rows)].__getitem__
    # Each sweep marks what it reached with its own stamp.
    seen, used, stamps = [0] * (n_cols + 1), [0] * len(rows), itertools.count(1)

    def sweep(start: int) -> list[int]:
        stamp = next(stamps)
        seen[start] = stamp
        reached = [start]
        for c in reached:  # the list grows as the sweep goes
            new = []
            for ri in col_rows[c]:
                if used[ri] != stamp:
                    used[ri] = stamp
                    for u in rows[ri]:
                        if seen[u] != stamp:
                            seen[u] = stamp
                            new.append(u)
            new.sort(key=key)
            reached += new
        return reached

    order: list[int] = []
    for c in range(1, n_cols + 1):
        if col_rows[c] and not seen[c]:
            order += sweep(sweep(sweep(c)[-1])[-1])
    return order


def brute_force(matrix: BinaryMatrix, spec: GapSpec) -> ExhaustiveReport:
    """Count the valid column orderings exactly, with the first few as witnesses.

    The first ``WITNESS_CAP`` valid orderings, in lexicographic order of the
    forward maps, are kept as witnesses; ``valid_count`` is always exact.
    More than ``ENUMERATION_CAP`` columns is a ValueError.
    """
    valid, maps = valid_forward_maps(matrix, spec)
    return ExhaustiveReport(valid, tuple(map(ColumnOrdering, itertools.islice(maps, WITNESS_CAP))))


def classic_c1p(matrix: BinaryMatrix) -> ColumnOrdering | None:
    """Polynomial test for the classical consecutive-ones property.

    Returns an ordering under which every row is a single block, or None
    when no such ordering exists.
    """
    forward = consecutive_ordering(matrix.num_columns, matrix.rows)
    if forward is None:
        return None
    ordering = ColumnOrdering(forward)
    if not check_ordering(matrix, ordering, GapSpec(1, 0)).ok:
        raise RuntimeError("internal error: consecutive ordering fails verification")
    return ordering
