"""Consecutive arrangement of column sets by overlap-component refinement.

Two rows overlap when they share a column and neither contains the other.
The rows of one connected overlap component fix the order of their column
classes (columns that lie in the same rows of the component) up to reversal
(Fulkerson and Gross, "Incidence matrices and interval graphs", 1965).

One pass over the ones labels the components: rows come largest first, so
a row overlaps exactly the earlier rows that meet it and do not contain it,
and a union-find over those row masks keeps one overlap per join as an edge
of a spanning forest.  A breadth-first walk of each tree then adds every row
next to an overlapping row already placed, so the row either fits the
component's run of classes, which it then refines, or proves that no
ordering exists.  A fit visits only the classes the row hits and relabels
only the row's own columns, and new columns go past either end, so nothing
is reversed.  The pass costs three row-mask operations per one (a mask has
a bit per row), and the fits about the size of the rows.

The classes of every component lie in one linked list in output order.
Component unions are nested or disjoint, and a component that lies inside
another lies inside one of its classes and has smaller rows, so it is
walked later, finds that class (its holder) through its first column and
is spliced into the list right after it.  Every pass is a loop; no input
depth reaches the recursion limit.

Rows come in as ``BinaryMatrix`` rows: strictly increasing tuples, so equal
rows are equal tuples and repeats are dropped without sorting or copying.

The module keeps the name ``pqtree`` of the PQ-tree it replaced, because
callers, including the benchmark harness, import it by that name.
"""

from __future__ import annotations

from typing import Iterable


def consecutive_ordering(num_columns: int, rows: Iterable[tuple[int, ...]]) -> list[int] | None:
    """Order 1..num_columns so every row is consecutive, or None if impossible.

    Rows are ``BinaryMatrix`` rows (strictly increasing tuples) and are not copied.
    """
    distinct = dict.fromkeys(rows)
    work = [row for row in distinct if len(row) >= 2]
    work.sort(key=len, reverse=True)  # largest first

    # Rows are distinct and no larger than the rows before them, so an
    # earlier row that meets row r and does not contain it overlaps it.  Each
    # step joins two components and keeps that overlap as a forest edge.
    index = [0] * (num_columns + 1)  # column -> mask of the earlier rows holding it
    up = list(range(len(work)))  # union-find parents
    members = [1 << r for r in range(len(work))]  # root -> its rows
    edges: list[list[int]] = [[] for _ in work]
    for r, row in enumerate(work):
        meet, contain, bit = 0, -1, 1 << r
        for c in row:
            rows_c = index[c]
            meet |= rows_c
            contain &= rows_c
            index[c] = rows_c | bit
        todo = meet & ~contain
        while todo:
            j = (todo & -todo).bit_length() - 1
            root = j
            while up[root] != root:
                up[root] = up[up[root]]
                root = up[root]
            todo &= ~members[root]
            up[root] = r
            members[r] |= members[root]
            members[root] = 0
            edges[r].append(j)
            edges[j].append(r)

    # Every class lies in one doubly linked list in output order, starting
    # at class 0, the universe.  ``where`` maps each column to its class in
    # the innermost component walked so far.  Class ids grow, so a
    # component's classes are those from its first id on, and while it is
    # walked every other class in the list has a smaller id.
    size, prev, nxt = [num_columns], [-1], [-1]
    links = (prev, nxt)
    where = [0] * (num_columns + 1)

    def add(cols: list[int] | tuple[int, ...], left: int, right: int) -> int:
        """A new class of cols between the adjacent classes left and right (-1: the tail)."""
        x = len(size)
        size.append(len(cols))
        prev.append(left)
        nxt.append(right)
        nxt[left] = x
        if right >= 0:
            prev[right] = x
        for c in cols:
            where[c] = x
        return x

    # A component's first row is its largest, so the components holding it
    # were walked before, and its first column's class is its holder.  It
    # goes right after that class, ahead of the components walked before it.
    seen = [False] * len(work)
    for first, row in enumerate(work):
        if seen[first]:
            continue
        seen[first] = True
        holder = where[row[0]]
        base = add(row, holder, nxt[holder])
        queue = [first]
        for r in queue:
            for j in edges[r]:
                if seen[j]:
                    continue
                seen[j] = True
                queue.append(j)
                # Refine the classes by row j, or find that it cannot be consecutive.
                hit: dict[int, list[int]] = {}  # class -> the row's columns in it
                new = []
                for c in work[j]:
                    x = where[c]
                    if x < base:
                        new.append(c)
                    else:
                        hit.setdefault(x, []).append(c)
                # Walk outward from one hit class; the hit classes must form one run.
                start = next(iter(hit))
                run, count = [start, start], 1
                for side in (0, 1):
                    y = links[side][start]
                    while y in hit:
                        run[side], count = y, count + 1
                        y = links[side][y]
                if count != len(hit):
                    return None
                if new:
                    # New columns go past an end class the row touches, which
                    # must be full.  A row touching both ends of two or more
                    # classes is R0's (the first row's) forest child, placed
                    # after rows no smaller; a placed row holding an end it
                    # fills would lie inside it or be R0 with no child placed.
                    # So it fills neither end: both sides fail.
                    side = 0 if prev[run[0]] < base else 1
                    end, outer = run[side], links[side][run[side]]
                    if outer >= base:
                        return None
                    x = add(new, *((end, outer) if side else (outer, end)))
                    hit[x] = new
                    run[side] = x
                if any(len(hit[x]) != size[x] for x in hit if x not in run):
                    return None
                # Split partial end classes so the row's part faces inward;
                # the run has two classes, because the row is not inside one class.
                for side, x in enumerate(run):
                    part = hit[x]
                    if len(part) < size[x]:
                        size[x] -= len(part)
                        inner = links[1 - side][x]
                        add(part, *((inner, x) if side else (x, inner)))

    # Each class holds the columns no inner component took.
    own: list[list[int]] = [[] for _ in size]
    for c in range(1, num_columns + 1):
        own[where[c]].append(c)
    order, x = [], 0
    while x >= 0:
        order.extend(own[x])
        x = nxt[x]
    return order
