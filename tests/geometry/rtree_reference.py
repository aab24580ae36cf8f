"""Reference R-tree kept as a test oracle.

The object form the library's R-tree replaced: nodes are dataclasses
over :class:`~repro.geometry.primitives.Rectangle` bounds, the STR bulk
load sorts on ``Rectangle.center`` and the descent calls
``Rectangle.intersects`` once per candidate.  The library's tuple R-tree
must return exactly what this returns, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import GeometryError
from repro.geometry.primitives import Rectangle

DEFAULT_FANOUT = 8


@dataclass
class _Node:
    bounds: Rectangle
    children: list["_Node"] = field(default_factory=list)
    entries: list[tuple[Rectangle, Any]] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _bounds_of(rects: list[Rectangle]) -> Rectangle:
    out = rects[0]
    for r in rects[1:]:
        out = out.union_bounds(r)
    return out


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
        self.root = self._bulk_load(list(entries)) if entries else None

    # ------------------------------------------------------------------
    def _bulk_load(self, entries: list[tuple[Rectangle, Any]]) -> _Node:
        import math

        leaves: list[_Node] = []
        entries.sort(key=lambda e: (e[0].center.x, e[0].center.y))
        n = len(entries)
        leaf_count = math.ceil(n / self.fanout)
        strip_count = max(1, math.ceil(math.sqrt(leaf_count)))
        per_strip = math.ceil(n / strip_count)
        for s in range(0, n, per_strip):
            strip = entries[s : s + per_strip]
            strip.sort(key=lambda e: (e[0].center.y, e[0].center.x))
            for o in range(0, len(strip), self.fanout):
                page = strip[o : o + self.fanout]
                leaves.append(
                    _Node(bounds=_bounds_of([r for r, _ in page]), entries=page)
                )
        level = leaves
        while len(level) > 1:
            level.sort(key=lambda nd: (nd.bounds.center.x, nd.bounds.center.y))
            parents: list[_Node] = []
            for o in range(0, len(level), self.fanout):
                group = level[o : o + self.fanout]
                parents.append(
                    _Node(
                        bounds=_bounds_of([g.bounds for g in group]),
                        children=group,
                    )
                )
            level = parents
        return level[0]

    # ------------------------------------------------------------------
    def query(self, window: Rectangle) -> list[tuple[Rectangle, Any]]:
        """All entries whose rectangle overlaps ``window``."""
        if self.root is None:
            return []
        out: list[tuple[Rectangle, Any]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.bounds.intersects(window):
                continue
            if node.is_leaf:
                out.extend(
                    (r, payload)
                    for r, payload in node.entries
                    if r.intersects(window)
                )
            else:
                stack.extend(node.children)
        return out

    def height(self) -> int:
        """Tree height (0 for an empty tree, 1 for a single leaf)."""
        h = 0
        node = self.root
        while node is not None:
            h += 1
            node = node.children[0] if node.children else None
        return h

    def join(self, other: "RTree") -> list[tuple[Any, Any]]:
        """Synchronized-descent R-tree join: all overlapping payload pairs.

        The classic index-based spatial join: descend both trees in
        lockstep, pruning subtree pairs whose bounds do not overlap.
        """
        if self.root is None or other.root is None:
            return []
        out: list[tuple[Any, Any]] = []
        stack: list[tuple[_Node, _Node]] = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if not a.bounds.intersects(b.bounds):
                continue
            if a.is_leaf and b.is_leaf:
                for ra, pa in a.entries:
                    for rb, pb in b.entries:
                        if ra.intersects(rb):
                            out.append((pa, pb))
            elif a.is_leaf:
                stack.extend((a, child) for child in b.children)
            elif b.is_leaf:
                stack.extend((child, b) for child in a.children)
            else:
                for ca in a.children:
                    for cb in b.children:
                        stack.append((ca, cb))
        return out
