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

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

TOO_MANY_BLOCKS = "too_many_blocks"
GAP_TOO_LARGE = "gap_too_large"

# The most columns valid_forward_maps counts over (peak RSS up to 41 MB at 10, README).
ENUMERATION_CAP = 10


class MatrixFormatError(ValueError):
    """Raised when a matrix or ordering file cannot be parsed."""


class RowError(ValueError):
    """A row that is not strictly increasing or leaves 1..num_columns."""

    def __init__(self, row: int, problem: str) -> None:
        super().__init__(f"row {row} {problem}")
        self.row = row  # 1-based


class BinaryMatrix(NamedTuple("BinaryMatrix", [("num_columns", int), ("rows", tuple)])):
    """A binary matrix as an ordered sequence of row supports.

    Duplicate rows and empty rows are legal; duplicates are preserved.
    """

    __slots__ = ()

    def __new__(cls, num_columns: int, rows: Iterable[Sequence[int]]) -> BinaryMatrix:
        if not isinstance(num_columns, int):
            raise ValueError(f"num_columns must be an int, got {num_columns!r}")
        if num_columns < 1:
            raise ValueError("num_columns must be positive")
        rows = tuple(map(tuple, rows))
        for i, row in enumerate(rows, start=1):
            for a, b in zip(row, row[1:]):
                if a >= b:
                    raise RowError(i, "is not strictly increasing")
            if row and (row[0] < 1 or row[-1] > num_columns):
                raise RowError(i, f"has an index outside 1..{num_columns}")
        return super().__new__(cls, num_columns, rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, num_columns: int, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        """Build a matrix, sorting each row; a duplicate index is a RowError."""
        return cls(num_columns, map(sorted, rows))


class ColumnOrdering(NamedTuple("ColumnOrdering", [("forward", tuple)])):
    """A permutation of the columns: ``forward[p-1]`` is the column at position p."""

    __slots__ = ()

    def __new__(cls, forward: Sequence[int]) -> ColumnOrdering:
        n = len(forward)
        if sorted(forward) != list(range(1, n + 1)):
            raise ValueError("forward map is not a permutation of 1..n")
        return super().__new__(cls, tuple(forward))

    @property
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


class GapSpec(NamedTuple("GapSpec", [("k", int | None), ("delta", int | None)])):
    """The (k, delta) constraint pair; ``None`` means the bound is absent."""

    __slots__ = ()

    def __new__(cls, k: int | None, delta: int | None) -> GapSpec:
        for name, value, least in (("k", k, 1), ("delta", delta, 0)):
            if not isinstance(value, int | None):
                raise ValueError(f"{name} must be an int or None, got {value!r}")
            if value is not None and value < least:
                raise ValueError(f"finite {name} must be >= {least}")
        return super().__new__(cls, k, delta)

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


class Violation(NamedTuple):
    row_index: int  # 1-based
    block_count: int
    gaps: tuple[int, ...]  # every gap of the row, left to right
    kind: str  # TOO_MANY_BLOCKS or GAP_TOO_LARGE


class CheckReport(NamedTuple):
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


def valid_forward_maps(matrix: BinaryMatrix, spec: GapSpec) -> tuple[int, Iterator[tuple[int, ...]]]:
    """Count the forward maps that satisfy the spec; walk them in lexicographic order.

    Returns ``(count, maps)``.  After p placed columns, a state is the
    unplaced mask and, for each row with ones on both sides of the prefix
    that can still break, its blocks and last position.  Position p + 1 must
    take a column of each such row whose gap has reached delta or whose k-th
    block ends at p, as skipping it breaks the row; every ordering that
    obeys this rule is valid.  So a state's count is the sum of its
    children's, worked out once per distinct state (Held and Karp 1962) and
    kept in a memo keyed by one packed int; seeded 10-column inputs took up
    to 211,296 states and 39 MB peak RSS (README).  ``maps`` enters only
    states with a nonzero count and re-checks each map with
    ``first_violating_row``; a failure is a RuntimeError.  More than
    ``ENUMERATION_CAP`` columns is a ValueError.
    """
    n = matrix.num_columns
    if n > ENUMERATION_CAP:
        raise ValueError(f"{n} columns exceeds the enumeration cap of {ENUMERATION_CAP}")
    k_eff, d_eff = spec.block_limit(n), spec.gap_limit(n)
    rows = sorted({row for row in matrix.rows if len(row) > 1})
    masks = [sum(1 << c for c in row) for row in rows]
    col_rows = [[r for r, row in enumerate(rows) if c in row] for c in range(n + 1)]
    # Above the unplaced mask (bits 1..n), row r's field at shift[r] is blocks
    # << L | last while the row is active, else 0.  Blocks read 0 once they
    # cannot reach k with a one left; such a row drops out (field 0) once at
    # most delta unplaced columns lie outside it, as it can no longer break.
    L = n.bit_length()
    shift = [n + 1 + 2 * L * r for r in range(len(rows))]
    field_mask, last_mask = (1 << 2 * L) - 1, (1 << L) - 1
    root = (1 << (n + 1)) - 2
    memo: dict[int, int] = {}

    def children(key: int, p: int) -> Iterator[tuple[int, int]]:
        allowed = key
        for r, at in enumerate(shift):
            field = key >> at & field_mask
            if field and (p - (field & last_mask) == d_eff or field == k_eff << L | p):
                allowed &= masks[r]
        for c in range(1, n + 1):
            if allowed >> c & 1:
                child = key ^ 1 << c
                for r in col_rows[c]:
                    field = key >> shift[r] & field_mask
                    left = child & masks[r]
                    # A block opens at p + 1 unless the row's block ends at p.
                    blocks = (field >> L) + (not field or field & last_mask != p)
                    if blocks + left.bit_count() <= k_eff:
                        blocks = 0
                    # Field 0 when the row is done or can no longer break.
                    done = not left or not blocks and (child & root & ~left).bit_count() <= d_eff
                    child += (0 if done else blocks << L | p + 1) - field << shift[r]
                yield c, child

    def count(key: int, p: int) -> int:
        if p == n:
            return 1
        if key not in memo:
            memo[key] = sum(count(child, p + 1) for _, child in children(key, p))
        return memo[key]

    position = [0] * (n + 1)

    def walk(prefix: tuple[int, ...], key: int) -> Iterator[tuple[int, ...]]:
        p = len(prefix)
        if p == n:
            for at, c in enumerate(prefix, start=1):
                position[c] = at
            if first_violating_row(matrix.rows, position, k_eff, d_eff) >= 0:
                raise RuntimeError("internal error: enumeration reached an invalid ordering")
            yield prefix
        for c, child in children(key, p):
            if count(child, p + 1):
                yield from walk(prefix + (c,), child)

    return count(root, 0), walk((), root)


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
    first looked up; the range of its column is the row check's, except for
    a token with more digits than ``int()`` converts, which fails here.
    """

    def __init__(self, num_columns: int) -> None:
        self.num_columns = num_columns

    def __missing__(self, token: str) -> int:
        if not _INDEX.fullmatch(token):
            raise MatrixFormatError(f"bad index {token!r} (an index is a column number "
                                    f"with no sign or leading zero)")
        try:
            col = self[token] = int(token)
        except ValueError:
            raise MatrixFormatError(f"index of {len(token)} digits exceeds "
                                    f"{self.num_columns} columns") from None
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
    column = _Tokens(num_cols).__getitem__
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
        matrix = BinaryMatrix(num_cols, rows)
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
        forward = tuple(map(_Tokens(num_columns).__getitem__, text.split()))
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
