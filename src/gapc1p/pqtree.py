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
component's linked list of classes, which it then refines, or proves that no
ordering exists.  A fit visits only the classes the row hits and relabels
only the row's own columns, and new columns go past either end, so nothing
is reversed.  The pass costs three row-mask operations per one (a mask has
a bit per row), and the fits about the size of the rows.

Component unions are nested or disjoint, and a component that lies inside
another lies inside one of its classes and has smaller rows, so it is
walked later and finds its class through its first column.  Every pass is a
loop; no input depth reaches the recursion limit.

Rows come in as ``BinaryMatrix`` rows: strictly increasing tuples, so equal
rows are equal tuples and repeats are dropped without sorting or copying.

The module keeps the name ``pqtree`` of the PQ-tree it replaced, because
callers, including the benchmark harness, import it by that name.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class _Classes:
    """Ordered column classes: sizes and (left, right) links, -1 at an end.

    ``where`` maps each column to its class in the innermost component
    walked so far that holds it.  Class 0 is the universe, and class ids
    grow, so a component's classes are those from its first id on.
    """

    def __init__(self, num_columns: int) -> None:
        self.size = [num_columns]
        self.links = [[-1, -1]]
        self.where = [0] * (num_columns + 1)

    def add(self, cols: Sequence[int], left: int = -1, right: int = -1) -> int:
        """A new class of cols between left and right (each -1 or a class)."""
        x = len(self.size)
        self.size.append(len(cols))
        self.links.append([left, right])
        if left >= 0:
            self.links[left][1] = x
        if right >= 0:
            self.links[right][0] = x
        for c in cols:
            self.where[c] = x
        return x

    def fit(self, base: int, ends: list[int], row: Sequence[int]) -> bool:
        """Refine the classes of a component by a row that overlaps one of its rows.

        The component's classes are those from id ``base`` on, and ``ends``
        holds its (first, last) class and is updated.  Returns False if the
        row cannot be consecutive.
        """
        hit: dict[int, list[int]] = {}  # class -> the row's columns in it
        new = []
        for c in row:
            x = self.where[c]
            if x < base:
                new.append(c)
            else:
                hit.setdefault(x, []).append(c)
        # Walk outward from one hit class; the hit classes must form one run.
        start = next(iter(hit))
        run, count = [start, start], 1
        for side in (0, 1):
            y = self.links[start][side]
            while y in hit:
                run[side], count = y, count + 1
                y = self.links[y][side]
        if count != len(hit):
            return False
        if new:
            # New columns go past an end class the row touches, which must be
            # full.  A row touching both ends of two or more classes is R0's
            # (the first row's) forest child, placed after rows no smaller; a
            # placed row holding an end it fills would lie inside it or be R0
            # with no child placed.  So it fills neither end: both sides fail.
            side = 0 if run[0] == ends[0] else 1
            if run[side] != ends[side]:
                return False
            x = self.add(new, *((ends[1], -1) if side else (-1, ends[0])))
            hit[x] = new
            run[side] = ends[side] = x
        if any(len(hit[x]) != self.size[x] for x in hit if x not in run):
            return False
        # Split partial end classes so the row's part faces inward; the run
        # has two classes, because the row is not inside one class.
        for side, x in enumerate(run):
            part = hit[x]
            if len(part) < self.size[x]:
                self.size[x] -= len(part)
                inner = self.links[x][1 - side]
                self.add(part, *((x, inner) if side == 0 else (inner, x)))
        return True


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

    # A component's first row is its largest, so the components holding it
    # were walked before, and its first column's class is the one it lies in.
    classes = _Classes(num_columns)
    inside: dict[int, list[list[int]]] = {}  # class -> ends of the components inside it
    seen = [False] * len(work)
    for first, row in enumerate(work):
        if seen[first]:
            continue
        seen[first] = True
        holder = classes.where[row[0]]
        base = classes.add(row)
        ends, queue = [base, base], [first]
        for r in queue:
            for j in edges[r]:
                if not seen[j]:
                    if not classes.fit(base, ends, work[j]):
                        return None
                    seen[j] = True
                    queue.append(j)
        inside.setdefault(holder, []).append(ends)

    # Each class emits the columns no inner component took, then those components.
    own: list[list[int]] = [[] for _ in classes.size]
    for c in range(1, num_columns + 1):
        own[classes.where[c]].append(c)
    order: list[int] = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.extend(own[x])
        for ends in inside.get(x, ()):
            y = ends[1]  # push the component's classes last first
            while y >= 0:
                stack.append(y)
                y = classes.links[y][0]
    return order
