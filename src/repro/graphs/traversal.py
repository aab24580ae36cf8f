"""Graph traversal: BFS, DFS, DFS trees, and bipartiteness checking.

DFS trees carry explicit parent/children structure and subtree-size
bookkeeping, with the rewiring and subtree removal of the Theorem 3.1 peel.
The solver itself no longer rewires a :class:`RootedTree`: it runs its DFS
and peel on interned edge indices (:mod:`repro.core.solvers.dfs_approx`),
and the test-suite's oracle runs the same procedure on these trees.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.errors import GraphError, NotBipartiteError, VertexError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph


def bfs_order(graph: AnyGraph, start: Vertex) -> list[Vertex]:
    """Vertices reachable from ``start`` in breadth-first order."""
    if not _has_vertex(graph, start):
        raise VertexError(f"vertex {start!r} does not exist")
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors(current), key=repr):
            if neighbor not in seen:
                seen.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    return order


def dfs_order(graph: AnyGraph, start: Vertex) -> list[Vertex]:
    """Vertices reachable from ``start`` in depth-first (preorder) order."""
    if not _has_vertex(graph, start):
        raise VertexError(f"vertex {start!r} does not exist")
    order: list[Vertex] = []
    seen: set[Vertex] = set()
    stack = [start]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        order.append(current)
        for neighbor in sorted(graph.neighbors(current), key=repr, reverse=True):
            if neighbor not in seen:
                stack.append(neighbor)
    return order


def _has_vertex(graph: AnyGraph, vertex: Vertex) -> bool:
    if isinstance(graph, BipartiteGraph):
        return graph.has_vertex(vertex)
    return graph.has_vertex(vertex)


class RootedTree:
    """A rooted tree with mutable parent/children structure.

    Supports the Theorem 3.1 procedure on a DFS tree of ``L(G)``: rewiring
    (twin elimination) and peeling subtrees (path chunking).  The tree is
    *not* tied to a graph: rewiring steps are validated by the caller
    against the underlying graph's adjacency.
    """

    def __init__(self, root: Vertex) -> None:
        self.root = root
        self._parent: dict[Vertex, Vertex | None] = {root: None}
        self._children: dict[Vertex, list[Vertex]] = {root: []}

    # -- construction ---------------------------------------------------
    def add_child(self, parent: Vertex, child: Vertex) -> None:
        if parent not in self._parent:
            raise VertexError(f"parent {parent!r} not in tree")
        if child in self._parent:
            raise GraphError(f"node {child!r} already in tree")
        self._parent[child] = parent
        self._children[parent].append(child)
        self._children[child] = []

    # -- queries ----------------------------------------------------------
    def parent(self, node: Vertex) -> Vertex | None:
        return self._parent[node]

    def children(self, node: Vertex) -> list[Vertex]:
        return list(self._children[node])

    def nodes(self) -> list[Vertex]:
        return list(self._parent)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: Vertex) -> bool:
        return node in self._parent

    def is_leaf(self, node: Vertex) -> bool:
        return not self._children[node]

    def leaves(self) -> list[Vertex]:
        return [node for node in self._parent if not self._children[node]]

    def subtree_nodes(self, node: Vertex) -> list[Vertex]:
        """All nodes of the subtree rooted at ``node`` (preorder)."""
        out = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(self._children[current]))
        return out

    def subtree_sizes(self) -> dict[Vertex, int]:
        """Subtree size (including the node itself) for every node."""
        return self.sizes_and_depths()[0]

    def sizes_and_depths(self) -> tuple[dict[Vertex, int], dict[Vertex, int]]:
        """Subtree size and depth (root = 0) of every node, from one
        top-down pass (parents before children) and its reverse."""
        order = [self.root]
        depths = {self.root: 0}
        for node in order:  # grows while iterated: breadth-first
            below = depths[node] + 1
            for child in self._children[node]:
                depths[child] = below
                order.append(child)
        sizes = dict.fromkeys(order, 1)
        for node in reversed(order[1:]):
            sizes[self._parent[node]] += sizes[node]
        return sizes, depths

    def depth(self, node: Vertex) -> int:
        d = 0
        current = self._parent[node]
        while current is not None:
            d += 1
            current = self._parent[current]
        return d

    def max_children(self) -> int:
        if not self._children:
            return 0
        return max(len(c) for c in self._children.values())

    # -- rewiring (used by twin elimination) ------------------------------
    def reattach(self, node: Vertex, new_parent: Vertex) -> None:
        """Move ``node`` (with its whole subtree) under ``new_parent``.

        The caller is responsible for ensuring the corresponding graph edge
        exists and that ``new_parent`` is not inside ``node``'s subtree.
        """
        if node == self.root:
            raise GraphError("cannot reattach the root")
        if new_parent in self.subtree_nodes(node):
            raise GraphError("new parent lies inside the moved subtree")
        old_parent = self._parent[node]
        assert old_parent is not None
        self._children[old_parent].remove(node)
        self._parent[node] = new_parent
        self._children[new_parent].append(node)

    def remove_subtree(self, node: Vertex) -> list[Vertex]:
        """Delete the subtree rooted at ``node``; return the removed nodes."""
        removed = self.subtree_nodes(node)
        if node == self.root:
            self._parent.clear()
            self._children.clear()
            return removed
        parent = self._parent[node]
        assert parent is not None
        self._children[parent].remove(node)
        for v in removed:
            del self._parent[v]
            del self._children[v]
        return removed


def dfs_tree(graph: AnyGraph, root: Vertex) -> RootedTree:
    """A rooted DFS tree of the component containing ``root``.

    Iterative DFS; neighbor order is sorted by ``repr`` for determinism.
    """
    if not _has_vertex(graph, root):
        raise VertexError(f"vertex {root!r} does not exist")
    tree = RootedTree(root)
    # Stack of (node, iterator over its sorted neighbors).
    stack: list[tuple[Vertex, Iterator[Vertex]]] = [
        (root, iter(sorted(graph.neighbors(root), key=repr)))
    ]
    while stack:
        node, neighbors = stack[-1]
        advanced = False
        for neighbor in neighbors:
            if neighbor not in tree:
                tree.add_child(node, neighbor)
                stack.append(
                    (neighbor, iter(sorted(graph.neighbors(neighbor), key=repr)))
                )
                advanced = True
                break
        if not advanced:
            stack.pop()
    return tree


def two_coloring(graph: Graph) -> tuple[set[Vertex], set[Vertex]]:
    """A proper 2-coloring of ``graph``, or raise ``NotBipartiteError``.

    Used to recover a bipartition from a plain :class:`Graph`, e.g. when a
    generator produces an abstract graph that must be interpreted as a join
    graph.
    """
    color: dict[Vertex, int] = {}
    for start in graph.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if neighbor not in color:
                    color[neighbor] = 1 - color[current]
                    queue.append(neighbor)
                elif color[neighbor] == color[current]:
                    raise NotBipartiteError(
                        f"odd cycle through edge {current!r}-{neighbor!r}"
                    )
    left = {v for v, c in color.items() if c == 0}
    right = {v for v, c in color.items() if c == 1}
    return left, right


def as_bipartite(graph: Graph) -> BipartiteGraph:
    """Interpret a 2-colorable :class:`Graph` as a :class:`BipartiteGraph`."""
    left, right = two_coloring(graph)
    out = BipartiteGraph(left=sorted(left, key=repr), right=sorted(right, key=repr))
    for u, v in graph.edges():
        if u in left:
            out.add_edge(u, v)
        else:
            out.add_edge(v, u)
    return out
