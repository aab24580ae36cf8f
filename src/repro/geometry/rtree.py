"""An R-tree with Sort-Tile-Recursive (STR) bulk loading.

The spatial-join literature the paper builds on (Günther; Orenstein;
Patel–DeWitt) evaluates overlap joins through spatial indexes; this R-tree
is the index substrate for :mod:`repro.joins.algorithms.spatial`.  It
supports window queries and a synchronized-descent index join.

Boxes are plain ``(x_min, y_min, x_max, y_max)`` tuples and a node is a
``(bounds, children, entries)`` tuple (``children`` empty for a leaf,
``entries`` empty for an inner node), so the descent compares numbers
inline instead of calling :class:`~repro.geometry.primitives.Rectangle`
methods once per candidate pair.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter
from typing import Any

from repro.errors import GeometryError
from repro.geometry.primitives import Rectangle

DEFAULT_FANOUT = 8

Box = tuple[float, float, float, float]
"""``(x_min, y_min, x_max, y_max)`` of a closed rectangle."""

_box_of = itemgetter(0)  # the box of an entry or the bounds of a node


def _bounds(items: list) -> Box:
    """The smallest box covering the boxes of ``items`` (entries or nodes)."""
    x0, y0, x1, y1 = zip(*map(_box_of, items))
    return (min(x0), min(y0), max(x1), max(y1))


def _centers(items: list) -> list[tuple[float, float]]:
    """``(center x, center y)`` of each item's box, in item order."""
    return [((x0 + x1) / 2, (y0 + y1) / 2) for x0, y0, x1, y1 in map(_box_of, items)]


class RTree:
    """A static R-tree over ``(rectangle, payload)`` entries.

    Built once by STR bulk loading: entries are sorted by center-x, sliced
    into vertical strips, each strip sorted by center-y and cut into leaf
    pages; the process repeats on the page bounding boxes until one root
    remains.

    Example
    -------
    >>> tree = RTree([(Rectangle(0, 0, 1, 1), "a"), (Rectangle(5, 5, 6, 6), "b")])
    >>> [p for _, p in tree.query(Rectangle(0.5, 0.5, 2, 2))]
    ['a']
    """

    def __init__(
        self,
        entries: list[tuple[Rectangle, Any]],
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        if fanout < 2:
            raise GeometryError("fanout must be at least 2")
        self.fanout = fanout
        self.size = len(entries)
        self.root = (
            self._bulk_load(
                [((r.x_min, r.y_min, r.x_max, r.y_max), r, p) for r, p in entries]
            )
            if entries
            else None
        )

    # ------------------------------------------------------------------
    def _bulk_load(self, entries: list[tuple[Box, Rectangle, Any]]) -> tuple:
        fanout = self.fanout
        n = len(entries)
        # Sorting indices by precomputed keys is a stable sort on the
        # same keys as sorting the entries, without a call per entry.
        centers = _centers(entries)
        order = sorted(range(n), key=centers.__getitem__)
        by_y = [(cy, cx) for cx, cy in centers]
        leaf_count = math.ceil(n / fanout)
        strip_count = max(1, math.ceil(math.sqrt(leaf_count)))
        per_strip = math.ceil(n / strip_count)
        level: list[tuple] = []
        for s in range(0, n, per_strip):
            strip = order[s : s + per_strip]
            strip.sort(key=by_y.__getitem__)
            for o in range(0, len(strip), fanout):
                page = [entries[i] for i in strip[o : o + fanout]]
                level.append((_bounds(page), (), page))
        while len(level) > 1:
            centers = _centers(level)
            order = sorted(range(len(level)), key=centers.__getitem__)
            ordered = [level[i] for i in order]
            level = [
                (_bounds(group), group, ())
                for group in (
                    ordered[o : o + fanout] for o in range(0, len(ordered), fanout)
                )
            ]
        return level[0]

    # ------------------------------------------------------------------
    def query(self, window: Rectangle) -> list[tuple[Rectangle, Any]]:
        """All entries whose rectangle overlaps ``window``."""
        if self.root is None:
            return []
        wx0, wy0, wx1, wy1 = window.x_min, window.y_min, window.x_max, window.y_max
        out: list[tuple[Rectangle, Any]] = []
        stack = [self.root]
        while stack:
            (x0, y0, x1, y1), children, entries = stack.pop()
            if not (x0 <= wx1 and wx0 <= x1 and y0 <= wy1 and wy0 <= y1):
                continue
            if children:
                stack.extend(children)
            else:
                out.extend(
                    [
                        (rect, payload)
                        for (x0, y0, x1, y1), rect, payload in entries
                        if x0 <= wx1 and wx0 <= x1 and y0 <= wy1 and wy0 <= y1
                    ]
                )
        return out

    def height(self) -> int:
        """Tree height (0 for an empty tree, 1 for a single leaf)."""
        h = 0
        node = self.root
        while node is not None:
            h += 1
            node = node[1][0] if node[1] else None
        return h

    def join(self, other: "RTree") -> list[tuple[Any, Any]]:
        """Synchronized-descent R-tree join: all overlapping payload pairs.

        The classic index-based spatial join: descend both trees in
        lockstep, pruning subtree pairs whose bounds do not overlap.
        """
        if self.root is None or other.root is None:
            return []
        out: list[tuple[Any, Any]] = []
        stack: list[tuple[tuple, tuple]] = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            (ax0, ay0, ax1, ay1), a_children, a_entries = a
            (bx0, by0, bx1, by1), b_children, b_entries = b
            if not (ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1):
                continue
            if a_children:
                if b_children:
                    stack.extend([(ca, cb) for ca in a_children for cb in b_children])
                else:
                    stack.extend(zip(a_children, repeat(b)))
            elif b_children:
                stack.extend(zip(repeat(a), b_children))
            else:
                out.extend(
                    [
                        (pa, pb)
                        for (ax0, ay0, ax1, ay1), _, pa in a_entries
                        for (bx0, by0, bx1, by1), _, pb in b_entries
                        if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1
                    ]
                )
        return out
