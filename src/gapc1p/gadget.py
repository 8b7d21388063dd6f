"""Column-rigidity gadget: rows forcing a selected column set into a fixed order.

For an ordered set C of n columns and a gap bound delta >= 1 with
n >= 2*delta + 3, the gadget consists of the two-one rows {C[a], C[b]} for
every pair of positions a < b in C with b - a <= delta + 1.  In any ordering
where every row keeps at most k >= 2 blocks and no gap above delta, the
columns of C must then occupy consecutive positions in exactly the target
order or its reversal.  ``verify_rigidity`` checks that claim exhaustively
at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, valid_forward_maps


@dataclass(frozen=True)
class GadgetSpec:
    """Target column order and gap bound for a rigidity gadget.

    ``force`` permits n < 2*delta + 3, for experiments; rigidity is then not
    guaranteed.
    """

    target_order: tuple[int, ...]
    delta: int
    force: bool = False

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if len(set(self.target_order)) != len(self.target_order):
            raise ValueError("target_order contains a duplicate column")
        n = len(self.target_order)
        if not self.force and n < 2 * self.delta + 3:
            raise ValueError(
                f"n={n} breaks the rigidity hypothesis n >= 2*delta+3 = "
                f"{2 * self.delta + 3}; pass force=True to build anyway"
            )


@dataclass(frozen=True)
class RigidityReport:
    rigid: bool
    valid_count: int
    counterexample: ColumnOrdering | None


def gadget_row_count(n: int, delta: int) -> int:
    """Closed-form number of gadget rows: n*(delta+1) - delta*(delta+3)/2 - 1.

    Equals the number of position pairs a < b with b - a <= delta + 1 among
    n columns.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if n < 2 * delta + 3:
        raise ValueError(f"n={n} breaks the hypothesis n >= 2*delta+3")
    return n * (delta + 1) - (delta * (delta + 3)) // 2 - 1


def build_gadget(spec: GadgetSpec) -> tuple[tuple[int, ...], ...]:
    """All pair rows {C[a], C[b]} with position distance at most delta + 1."""
    order = spec.target_order
    n = len(order)
    rows = []
    for a in range(n):
        for b in range(a + 1, min(a + spec.delta + 2, n)):
            rows.append(tuple(sorted((order[a], order[b]))))
    return tuple(rows)


def verify_rigidity(
    n: int,
    delta: int,
    k: int,
    extra_columns: int = 0,
) -> RigidityReport:
    """Exhaustively confirm gadget rigidity over all permutations.

    Builds the gadget on columns 1..n inside a universe of n + extra_columns
    columns, enumerates every ordering, and checks that in each valid one the
    gadget columns sit consecutively in target or reversed order.  The extra
    columns are unconstrained.  A universe of more than ``ENUMERATION_CAP``
    columns is a ValueError.
    """
    if n < 2:
        raise ValueError("rigidity needs at least two selected columns")
    target = tuple(range(1, n + 1))
    rows = build_gadget(GadgetSpec(target, delta, force=True))
    matrix = BinaryMatrix(n + extra_columns, rows)
    reversed_target = tuple(reversed(target))
    valid_count = 0
    counterexample: ColumnOrdering | None = None
    for forward in valid_forward_maps(matrix, GapSpec(k, delta)):
        valid_count += 1
        # Target columns are 1..n; the window runs from the first to the last.
        spots = [p for p, c in enumerate(forward) if c <= n]
        window = forward[spots[0]:spots[-1] + 1]
        if window != target and window != reversed_target and counterexample is None:
            counterexample = ColumnOrdering(forward)
    return RigidityReport(counterexample is None, valid_count, counterexample)
