"""Binary matrices, column orderings, and the block/gap row check.

Columns are numbered 1..num_columns throughout.  A row is stored as a
strictly increasing tuple of the column indices that carry a 1 entry
("row support").  Under a column ordering, a *block* is a maximal run of
consecutive positions holding ones, and a *gap* is a run of zeros strictly
between two blocks of the same row; leading and trailing zero runs are not
gaps.  A matrix satisfies a :class:`GapSpec` ``(k, delta)`` under an
ordering when every row has at most ``k`` blocks and no gap larger than
``delta``.

Everything in this module is an immutable value; the operations are pure
functions and safe to use from concurrent tasks.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

TOO_MANY_BLOCKS = "too_many_blocks"
GAP_TOO_LARGE = "gap_too_large"

# The most columns whose orderings valid_forward_maps enumerates (10! orderings).
ENUMERATION_CAP = 10


class MatrixFormatError(ValueError):
    """Raised when a matrix or ordering file cannot be parsed."""


class RowError(ValueError):
    """A row that is not strictly increasing or leaves 1..num_columns."""

    def __init__(self, row: int, problem: str) -> None:
        super().__init__(f"row {row} {problem}")
        self.row = row  # 1-based


@dataclass(frozen=True)
class BinaryMatrix:
    """A binary matrix as an ordered sequence of row supports.

    Duplicate rows and empty rows are legal; duplicates are preserved.
    """

    num_columns: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_columns < 1:
            raise ValueError("num_columns must be positive")
        for i, row in enumerate(self.rows, start=1):
            for a, b in zip(row, row[1:]):
                if a >= b:
                    raise RowError(i, "is not strictly increasing")
            if row and (row[0] < 1 or row[-1] > self.num_columns):
                raise RowError(i, f"has an index outside 1..{self.num_columns}")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, num_columns: int, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        """Build a matrix, sorting each row; a duplicate index is a RowError."""
        return cls(num_columns, tuple(tuple(sorted(row)) for row in rows))


@dataclass(frozen=True)
class ColumnOrdering:
    """A permutation of the columns: ``forward[p-1]`` is the column at position p."""

    forward: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.forward)
        if sorted(self.forward) != list(range(1, n + 1)):
            raise ValueError("forward map is not a permutation of 1..n")

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """``inverse[c-1]`` is the (1-based) position of column c."""
        inv = [0] * len(self.forward)
        for pos, col in enumerate(self.forward, start=1):
            inv[col - 1] = pos
        return tuple(inv)

    @property
    def num_columns(self) -> int:
        return len(self.forward)

    @classmethod
    def identity(cls, n: int) -> "ColumnOrdering":
        return cls(tuple(range(1, n + 1)))

    def reverse(self) -> "ColumnOrdering":
        return ColumnOrdering(tuple(reversed(self.forward)))


@dataclass(frozen=True)
class GapSpec:
    """The (k, delta) constraint pair; ``None`` means the bound is absent."""

    k: int | None
    delta: int | None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError("finite k must be >= 1")
        if self.delta is not None and self.delta < 0:
            raise ValueError("finite delta must be >= 0")

    @property
    def classical(self) -> bool:
        """Whether the spec allows no gap (``k == 1`` or ``delta == 0``): the classical C1P."""
        return self.k == 1 or self.delta == 0

    def block_limit(self, num_columns: int) -> int:
        """Effective block bound: a row never has more blocks than columns."""
        return self.k if self.k is not None else num_columns

    def gap_limit(self, num_columns: int) -> int:
        return self.delta if self.delta is not None else num_columns

    def __str__(self) -> str:
        k = "inf" if self.k is None else str(self.k)
        d = "inf" if self.delta is None else str(self.delta)
        return f"({k},{d})"


@dataclass(frozen=True)
class Violation:
    row_index: int  # 1-based
    block_count: int
    gaps: tuple[int, ...]  # every gap of the row, left to right
    kind: str  # TOO_MANY_BLOCKS or GAP_TOO_LARGE


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    first_violation: Violation | None = None


def first_violating_row(
    rows: Sequence[Sequence[int]],
    position: Sequence[int],
    k_eff: int,
    d_eff: int,
) -> int:
    """Index of the first row with more than ``k_eff`` blocks or a gap above ``d_eff``.

    ``position[c]`` is the 1-based position of column c (``position[0]`` is
    unused).  Returns -1 when every row is within both bounds.  This is the
    one block/gap row check of the package; callers pass all rows at once.
    """
    for i, row in enumerate(rows):
        ps = [position[c] for c in row]
        # A long solid block skips the sort; below 32 ones, min and max cost
        # more than the sort they can save.
        if len(ps) > 32 and max(ps) - min(ps) < len(ps):
            continue
        ps.sort()
        if not ps or ps[-1] - ps[0] < len(ps):
            continue  # empty, or a single solid block
        blocks = 1
        prev = ps[0]
        for cur in ps:
            if cur > prev + 1:
                blocks += 1
                if blocks > k_eff or cur - prev - 1 > d_eff:
                    return i
            prev = cur
    return -1


def valid_forward_maps(matrix: BinaryMatrix, spec: GapSpec) -> Iterator[tuple[int, ...]]:
    """Yield every forward map that satisfies the spec, in lexicographic order.

    A depth-first search fills positions 1..n from one stack of frames
    ``[prefix, state, safe, unplaced, candidates]``.  A frame's candidates
    are None until its first visit works them out: position p must take a
    column of each row with ones left that has k blocks and its last one at
    p - 1 (block rule), or its last one at p - delta - 1 (gap rule), so no
    prefix breaks a row.  Each candidate, in increasing order, pushes a
    child; a frame with none left is popped.  Rows that no completion can
    break are safe: they are dropped up front, and a frame whose rows are all
    safe is popped on its first visit and yields each permutation of its
    sorted rest as one batch.  The first ordering of every batch (a leaf is a
    batch of one) is re-checked with ``first_violating_row``; fully placed
    rows look the same in the whole batch and the rest are safe, so that
    check covers the batch.  A failed check is a RuntimeError.

    More than ``ENUMERATION_CAP`` columns raises ValueError at the first step.
    """
    n = matrix.num_columns
    if n > ENUMERATION_CAP:
        raise ValueError(f"{n} columns exceeds the enumeration cap of {ENUMERATION_CAP}")
    k_eff = spec.block_limit(n)
    d_eff = spec.gap_limit(n)

    def safe_from(at: int, b: int, u: int) -> int:
        # The least prefix length L from which a row with its last one at `at`
        # (-1: none yet), b blocks and u ones left is safe: its u ones add at
        # most min(u, n - L - u + 1) blocks and no gap above n - u - at
        # (n - u - L when none is placed).
        if not u:
            return 0
        blocks_from = 0 if b + u <= k_eff else n - u + 1 + b - k_eff
        if at < 0:
            return max(blocks_from, n - u - d_eff)
        return blocks_from if n - u - at <= d_eff else n + 1

    rows = [row for row in matrix.rows if len(row) > 1 and safe_from(-1, 0, len(row)) > 0]
    col_rows = [[r for r, row in enumerate(rows) if c in row] for c in range(n + 1)]
    row_mask = [sum(1 << c for c in row) for row in rows]
    state = [(-1, 0, len(row)) for row in rows]  # (last placed position or -1, blocks, ones left)
    position = [0] * (n + 1)
    stack = [[(), state, [safe_from(*s) for s in state], (1 << (n + 1)) - 2, None]]
    while stack:
        frame = stack[-1]
        prefix, state, safe, unplaced, cands = frame
        depth = len(prefix)
        if cands is None:
            if max(safe, default=0) <= depth:
                stack.pop()
                rest = [c for c in range(1, n + 1) if unplaced >> c & 1]
                for p, c in enumerate(rest, start=depth + 1):
                    position[c] = p
                if first_violating_row(matrix.rows, position, k_eff, d_eff) >= 0:
                    raise RuntimeError("internal error: enumeration reached an invalid ordering")
                for tail in itertools.permutations(rest):
                    yield prefix + tail
                continue
            cands = unplaced
            near = col_rows[prefix[-1]] if depth else []
            far = col_rows[prefix[depth - d_eff - 1]] if depth > d_eff else []
            for r in near + far:
                at, b, u = state[r]
                if u and (at == depth - d_eff or at == depth and b == k_eff):
                    cands &= row_mask[r]
        if not cands:
            stack.pop()
            continue
        low = cands & -cands
        frame[4] = cands ^ low
        c = low.bit_length() - 1
        state, safe = state[:], safe[:]
        for r in col_rows[c]:
            at, b, u = state[r]
            state[r] = (depth + 1, b + (at != depth), u - 1)
            safe[r] = safe_from(*state[r])
        position[c] = depth + 1
        stack.append([prefix + (c,), state, safe, unplaced ^ low, None])


def check_ordering(matrix: BinaryMatrix, ordering: ColumnOrdering, spec: GapSpec) -> CheckReport:
    """Check every row against the spec; report the lowest-index violation.

    The violation carries the row's block count and all of its gaps.  If a
    row breaks both bounds, the block-count violation is the one reported.
    """
    n = matrix.num_columns
    if ordering.num_columns != n:
        raise ValueError(
            f"ordering over {ordering.num_columns} columns does not match "
            f"matrix with {n}"
        )
    k_eff = spec.block_limit(n)
    position = (0,) + ordering.inverse
    i = first_violating_row(matrix.rows, position, k_eff, spec.gap_limit(n))
    if i < 0:
        return CheckReport(True, None)
    ps = sorted(position[c] for c in matrix.rows[i])
    gaps = tuple(b - a - 1 for a, b in zip(ps, ps[1:]) if b > a + 1)
    blocks = len(gaps) + 1  # a violating row is not empty
    kind = TOO_MANY_BLOCKS if blocks > k_eff else GAP_TOO_LARGE
    return CheckReport(False, Violation(i + 1, blocks, gaps, kind))


# ---------------------------------------------------------------------------
# File formats.
#
# Matrix file: line 1 is "<num_rows> <num_cols>", then one line per row with
# the space-separated 1-based indices of the ones (an empty line is an empty
# row).  Ordering file: one line of num_cols space-separated column indices
# (the forward map).  An index token is [1-9][0-9]*: no sign, no leading zero
# (a 0/1 row such as "0011" must not be read as column 11), no underscore and
# no non-ASCII digit, all of which int() would accept.  Tokens are split by
# str.split(), and each distinct token is checked and converted once per
# file; its repeats are looked up.  Other numbers read from outside (header,
# DIMACS, CLI) go through strict_int.

_INTEGER = re.compile(r"-?[0-9]+")


def strict_int(text: str) -> int:
    """int(text) for an optional '-' then ASCII digits: no '+', '_', space or other digit."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_header(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise MatrixFormatError(f"line 1: malformed header {line!r}")
    try:
        num_rows, num_cols = strict_int(parts[0]), strict_int(parts[1])
    except ValueError:
        raise MatrixFormatError(f"line 1: malformed header {line!r}") from None
    if num_rows < 0 or num_cols < 1:
        raise MatrixFormatError(f"line 1: invalid dimensions {num_rows} x {num_cols}")
    return num_rows, num_cols


_INDEX = re.compile(r"[1-9][0-9]*")


class _Tokens(dict):
    """Each index token read so far -> its column, one int per column.

    A token not seen before is checked against ``_INDEX`` once, when it is
    first looked up; the range of its column is the row check's.
    """

    def __missing__(self, token: str) -> int:
        if not _INDEX.fullmatch(token):
            raise MatrixFormatError(f"bad index {token!r} (an index is a column number "
                                    f"with no sign or leading zero)")
        col = self[token] = int(token)
        return col


def parse_matrix(text: str) -> BinaryMatrix:
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError("line 1: missing header")
    num_rows, num_cols = _parse_header(lines[0])
    if len(lines) != num_rows + 1:
        raise MatrixFormatError(
            f"expected {num_rows} row lines after the header, found {len(lines) - 1}"
        )
    column = _Tokens().__getitem__
    rows: list[tuple[int, ...]] = []
    bad = None
    try:
        for line in lines[1:]:
            rows.append(tuple(sorted(map(column, line.split()))))
    except MatrixFormatError as exc:
        bad = exc
    # The row check runs on the rows before a bad token, so the first line
    # with a fault is named; a sorted row fails it by range or by a repeat.
    try:
        matrix = BinaryMatrix(num_cols, tuple(rows))
    except RowError as exc:
        top = rows[exc.row - 1][-1]
        problem = (f"index {top} exceeds {num_cols} columns" if top > num_cols
                   else "duplicate index in row")
        raise MatrixFormatError(f"line {exc.row + 1}: {problem}") from None
    if bad is not None:
        raise MatrixFormatError(f"line {len(rows) + 2}: {bad}")
    return matrix


def serialize_matrix(matrix: BinaryMatrix) -> str:
    out = [f"{matrix.num_rows} {matrix.num_columns}"]
    out.extend(" ".join(str(c) for c in row) for row in matrix.rows)
    return "\n".join(out) + "\n"


def parse_ordering(text: str, num_columns: int) -> ColumnOrdering:
    try:
        forward = tuple(map(_Tokens().__getitem__, text.split()))
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"ordering: {exc}") from None
    if len(forward) != num_columns:
        raise MatrixFormatError(
            f"ordering has {len(forward)} entries, expected {num_columns}"
        )
    try:
        return ColumnOrdering(forward)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def serialize_ordering(ordering: ColumnOrdering) -> str:
    return " ".join(str(c) for c in ordering.forward) + "\n"
