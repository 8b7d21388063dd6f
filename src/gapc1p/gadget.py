"""Column-rigidity gadget: rows forcing a selected column set into a fixed order.

For an ordered set C of n columns and a gap bound delta >= 1 with
n >= 2*delta + 3, the gadget consists of the two-one rows {C[a], C[b]} for
every pair of positions a < b in C with b - a <= delta + 1.  In any ordering
where every row keeps at most k >= 2 blocks and no gap above delta, the
columns of C must then occupy consecutive positions in exactly the target
order or its reversal.  ``build_gadget`` and ``gadget_row_count`` refuse an
n below the hypothesis; ``verify_rigidity`` checks the claim exhaustively
at small scale, undersized gadgets included.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, valid_forward_maps


class RigidityReport(NamedTuple):
    rigid: bool
    valid_count: int
    counterexample: ColumnOrdering | None


def _check_hypothesis(n: int, delta: int) -> None:
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if n < 2 * delta + 3:
        raise ValueError(f"n={n} breaks the rigidity hypothesis n >= 2*delta+3 = {2 * delta + 3}")


def gadget_row_count(n: int, delta: int) -> int:
    """Closed-form number of gadget rows: n*(delta+1) - delta*(delta+3)/2 - 1.

    Equals the number of position pairs a < b with b - a <= delta + 1 among
    n columns.
    """
    _check_hypothesis(n, delta)
    return n * (delta + 1) - (delta * (delta + 3)) // 2 - 1


def _pair_rows(order: Sequence[int], delta: int) -> tuple[tuple[int, ...], ...]:
    n = len(order)
    rows = []
    for a in range(n):
        for b in range(a + 1, min(a + delta + 2, n)):
            rows.append(tuple(sorted((order[a], order[b]))))
    return tuple(rows)


def build_gadget(order: Sequence[int], delta: int) -> tuple[tuple[int, ...], ...]:
    """Rows {order[a], order[b]} with b - a <= delta + 1.

    ValueError unless ``order`` lists distinct columns and meets the hypothesis.
    """
    if len(set(order)) != len(order):
        raise ValueError("the target order contains a duplicate column")
    _check_hypothesis(len(order), delta)
    return _pair_rows(order, delta)


def verify_rigidity(
    n: int,
    delta: int,
    k: int,
    extra_columns: int = 0,
) -> RigidityReport:
    """Exhaustively confirm gadget rigidity over all permutations, for ``k >= 2``.

    Builds the gadget on columns 1..n inside a universe of n + extra_columns
    unconstrained columns and counts its valid orderings.  With ``k >= 2``
    all 2 * (extra_columns + 1)! placements of the gadget block, target or
    reversed, among the free columns are valid, so the gadget is rigid
    exactly when the count equals that; otherwise the counterexample is the
    first valid ordering, lexicographically, that is no such placement.  An
    undersized n is checked all the same.  Every gadget row has two ones, so
    at most two blocks, and the count is the same for every ``k >= 2``.
    ``k < 2`` or a universe of more than ``ENUMERATION_CAP`` columns is a
    ValueError.
    """
    if n < 2 or k < 2:
        raise ValueError(f"rigidity needs n >= 2 and k >= 2, got n={n}, k={k}")
    if extra_columns < 0:
        raise ValueError(f"extra_columns must be nonnegative, got {extra_columns}")
    target = tuple(range(1, n + 1))
    matrix = BinaryMatrix(n + extra_columns, _pair_rows(target, delta))
    valid_count, maps = valid_forward_maps(matrix, GapSpec(k, delta))
    counterexample = None
    if valid_count > 2 * math.factorial(extra_columns + 1):
        # The first valid map whose columns 1..n are not a window in either order.
        placements = (target, target[::-1])
        counterexample = ColumnOrdering(next(
            f for f in maps if f[min(f.index(1), f.index(n)):][:n] not in placements))
    return RigidityReport(counterexample is None, valid_count, counterexample)
