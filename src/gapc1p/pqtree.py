"""Consecutive arrangement of column sets by overlap-component refinement.

Two rows overlap when they share a column and neither contains the other.
The rows of one connected overlap component fix the order of their column
classes (columns that lie in the same rows of the component) up to reversal
(Fulkerson and Gross, "Incidence matrices and interval graphs", 1965).  A
breadth-first search over overlaps adds each row next to a row already
placed, so the row either fits the component's ordered class list, which it
then refines, or proves that no ordering exists.  Component unions are
nested or disjoint, and a component that lies inside another lies inside
one of its classes, so the orderings nest into one.  Every pass is a loop;
no input depth reaches the recursion limit.

The module keeps the name ``pqtree`` of the PQ-tree it replaced, because
callers, including the benchmark harness, import it by that name.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Iterable, Sequence


def _bits(mask: int) -> Iterator[int]:
    """The 1-based positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _fit(classes: list[int], union: int, row: int) -> int | None:
    """Refine the ordered classes by a row that overlaps one of their rows.

    Returns the new union, or None if the row cannot be consecutive.
    """
    new = row & ~union
    if new:
        # New columns go past an end class the row touches; if it touches
        # both, past the one it fills (it cannot fill both: a row that
        # overlaps a placed row does not contain their union).
        last = classes[-1]
        if not last & row or (last & ~row and classes[0] & row):
            classes.reverse()
        classes.append(new)
    hit = [i for i, x in enumerate(classes) if x & row]
    lo, hi = hit[0], hit[-1]
    if hi - lo + 1 != len(hit) or any(classes[i] & ~row for i in hit[1:-1]):
        return None
    # Split partial end classes so the row's part faces inward.
    x = classes[hi]
    if x & ~row:
        classes[hi:hi + 1] = [x & row, x & ~row]
    x = classes[lo]
    if x & ~row:
        classes[lo:lo + 1] = [x & ~row, x & row]
    return union | row


def consecutive_ordering(num_columns: int, rows: Iterable[Sequence[int]]) -> list[int] | None:
    """Order 1..num_columns so every row is consecutive, or None if impossible."""
    by_mask: dict[int, tuple[int, ...]] = {}
    for row in rows:
        cols = tuple(set(row))
        if len(cols) >= 2:
            by_mask.setdefault(sum(1 << (c - 1) for c in cols), cols)
    work = sorted(by_mask.items(), key=lambda item: -len(item[1]))  # largest first
    masks = [mask for mask, _ in work]
    index = [0] * (num_columns + 1)  # column -> mask of the rows holding it
    for r, (_, cols) in enumerate(work):
        for c in cols:
            index[c] |= 1 << r

    comps: list[tuple[list[int], int, int]] = []  # (classes, union, rows)
    unseen = (1 << len(masks)) - 1
    while unseen:
        first = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << first
        classes, union, queue = [masks[first]], masks[first], [first]
        for r in queue:
            meet, contain = 0, -1
            for c in work[r][1]:
                meet |= index[c]
                contain &= index[c]
            # Rows that meet r, do not contain it and are not inside it.
            for j in _bits(meet & ~contain & unseen):
                j -= 1
                if masks[j] & ~masks[r]:
                    union = _fit(classes, union, masks[j])
                    if union is None:
                        return None
                    unseen ^= 1 << j
                    queue.append(j)
        comps.append((classes, union, len(queue)))

    # Smallest union first; on a tie the single row equal to the union comes
    # last, so it holds the other component.  The whole universe holds all.
    comps.sort(key=lambda comp: (comp[1].bit_count(), -comp[2]))
    everything = (1 << num_columns) - 1
    comps.append(([everything], everything, 0))
    tops = 0  # the first column of every component not yet placed inside another
    holder: dict[int, int] = {}  # first column -> component
    inside: dict[tuple[int, int], list[int]] = {}  # (component, class) -> components
    for ci, (classes, union, _) in enumerate(comps):
        for c in _bits(tops & union):
            child = holder.pop(c)
            i = next(i for i, x in enumerate(classes) if x >> (c - 1) & 1)
            classes[i] &= ~comps[child][1]  # the child emits its own columns
            inside.setdefault((ci, i), []).append(child)
        tops = tops & ~union | union & -union
        holder[(union & -union).bit_length()] = ci

    order: list[int] = []
    stack = [(len(comps) - 1, 0)]
    while stack:
        ci, i = stack.pop()
        order.extend(_bits(comps[ci][0][i]))
        for child in inside.get((ci, i), ()):
            stack.extend((child, j) for j in reversed(range(len(comps[child][0]))))
    return order
