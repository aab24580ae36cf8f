"""Bipartite join graphs (paper §2).

An instance of a join problem over relations ``R`` and ``S`` is modelled as a
bipartite graph ``G = (R, S, E)`` with one vertex per tuple and an edge for
every pair of tuples that satisfies the join predicate.  The pebble game is
played on this graph, so :class:`BipartiteGraph` is the central input type of
the whole library.

Left vertices conventionally correspond to tuples of ``R`` and right vertices
to tuples of ``S``.  The two sides must be disjoint label sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import contains
from typing import Any

from repro.errors import EdgeError, GraphError, VertexError
from repro.graphs.simple import Graph, Vertex

JoinEdge = tuple[Any, Any]

Block = tuple[tuple[Vertex, ...], tuple[Vertex, ...]]
"""One complete bipartite component: its left and its right vertices."""

_NONE: frozenset = frozenset()  # the neighbours of a vertex not in the graph


class BipartiteGraph:
    """A bipartite graph with explicit left/right partitions.

    Edges are stored left-to-right: :meth:`edges` yields ``(u, v)`` with
    ``u`` on the left side and ``v`` on the right side, which is also the
    canonical form used by pebbling schemes.

    Example
    -------
    >>> g = BipartiteGraph(left=["r1", "r2"], right=["s1"])
    >>> g.add_edge("r1", "s1")
    >>> g.add_edge("r2", "s1")
    >>> g.num_edges
    2
    >>> g.is_complete_bipartite()
    True
    """

    def __init__(
        self,
        left: Iterable[Vertex] = (),
        right: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._left: dict[Vertex, set[Vertex]] = {v: set() for v in left}
        self._right: dict[Vertex, set[Vertex]] = {v: set() for v in right}
        if not self._left.keys().isdisjoint(self._right):
            both = next(v for v in self._right if v in self._left)
            raise GraphError(f"vertex {both!r} is already on the left side")
        # Vertex -> place in the vertex order (left, then right), built by
        # the first subgraph and rebuilt when the vertex count changes.
        self._place: dict[Vertex, int] | None = None
        # Bumped by every mutation; the decomposition hint holds only
        # while it still reads the value it was recorded at.
        self._version = 0
        self._blocks: tuple[Block, ...] | None = None
        self._blocks_version = -1
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_left_vertex(self, vertex: Vertex) -> None:
        if vertex in self._left:
            return
        if vertex in self._right:
            raise GraphError(f"vertex {vertex!r} is already on the right side")
        self._left[vertex] = set()
        self._version += 1

    def add_right_vertex(self, vertex: Vertex) -> None:
        if vertex in self._right:
            return
        if vertex in self._left:
            raise GraphError(f"vertex {vertex!r} is already on the left side")
        self._right[vertex] = set()
        self._version += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the edge ``(u, v)`` with ``u`` on the left and ``v`` on the right.

        Unknown endpoints are created on the appropriate side.  Passing two
        vertices from the same side raises :class:`~repro.errors.GraphError`.
        """
        if u in self._right or v in self._left:
            if u in self._left or v in self._right:
                raise GraphError(
                    f"edge ({u!r}, {v!r}) connects vertices on the same side"
                )
            u, v = v, u  # caller supplied (right, left); normalize
        self.add_left_vertex(u)
        self.add_right_vertex(v)
        self._left[u].add(v)
        self._right[v].add(u)
        self._version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove edge ``(u, v)``; raises if absent."""
        if not self.has_edge(u, v):
            raise EdgeError(f"edge ({u!r}, {v!r}) does not exist")
        if u in self._right:
            u, v = v, u
        self._left[u].discard(v)
        self._right[v].discard(u)
        self._version += 1

    def add_bicliques(self, blocks: Iterable[Block]) -> None:
        """Join every left vertex of each block to every right vertex of
        it, and record the blocks as the graph's decomposition hint
        (:meth:`biclique_blocks`).

        The graph must have no edges yet, every block vertex must already
        be on its side, no vertex may be listed twice and each block needs
        both sides non-empty; otherwise :class:`GraphError` is raised, the
        blocks before the bad vertex stay added and no hint is recorded.
        The caller vouches for the order: blocks in the order of their
        first left vertex, each side in the graph's vertex order, which is
        the order :func:`~repro.graphs.components.decompose` lists
        components in.  Pairs are distinct by construction, so nothing is
        deduplicated.
        """
        if any(self._left.values()):
            raise GraphError("add_bicliques needs a graph with no edges")
        self._version += 1
        recorded = []
        for lefts, rights in blocks:
            lefts, rights = tuple(lefts), tuple(rights)
            if not lefts or not rights:
                raise GraphError("a block needs vertices on both sides")
            # A listed vertex must still be edgeless: that catches one
            # listed twice, in one block or two.  set(tuple) inserts in
            # tuple order, as add_edge would have.
            for side, vertices, others in (
                (self._left, lefts, rights),
                (self._right, rights, lefts),
            ):
                for vertex in vertices:
                    if side.get(vertex, True):
                        raise GraphError(
                            f"block vertex {vertex!r} is not an edgeless "
                            "vertex of its side"
                        )
                    side[vertex] = set(others)
            recorded.append((lefts, rights))
        self._blocks = tuple(recorded)
        self._blocks_version = self._version

    def biclique_blocks(self) -> tuple[Block, ...] | None:
        """The decomposition hint :meth:`add_bicliques` recorded: one
        ``(left vertices, right vertices)`` block per component with an
        edge, every one complete bipartite.  None when no hint was
        recorded or the graph was mutated since (:meth:`copy` does not
        carry it either)."""
        if self._blocks_version == self._version:
            return self._blocks
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def left(self) -> list[Vertex]:
        """Left-side vertices (relation ``R``), in insertion order."""
        return list(self._left)

    @property
    def right(self) -> list[Vertex]:
        """Right-side vertices (relation ``S``), in insertion order."""
        return list(self._right)

    @property
    def num_vertices(self) -> int:
        return len(self._left) + len(self._right)

    @property
    def num_edges(self) -> int:
        """``m``, the paper's input-size measure (§2): the number of result
        tuples the join produces."""
        return sum(map(len, self._left.values()))

    def edges(self) -> list[JoinEdge]:
        """Edges in canonical (left, right) orientation, sorted for
        deterministic iteration."""
        out = [(u, v) for u, nbrs in self._left.items() for v in nbrs]
        out.sort(key=repr)
        return out

    def side_of(self, vertex: Vertex) -> str:
        """``"left"`` or ``"right"``, or raise ``VertexError``."""
        if vertex in self._left:
            return "left"
        if vertex in self._right:
            return "right"
        raise VertexError(f"vertex {vertex!r} does not exist")

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._left or vertex in self._right

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u in self._left:
            return v in self._left[u]
        if u in self._right:
            return v in self._right[u]
        return False

    def has_edges(self, us: Iterable[Vertex], vs: Iterable[Vertex]) -> bool:
        """True iff every pair ``(us[i], vs[i])`` is an edge, in either
        orientation: :meth:`has_edge` over many pairs, without a Python
        call per pair."""
        nbrs = {**self._left, **self._right}
        return all(map(contains, map(nbrs.get, us, repeat(_NONE)), vs))

    def _stored_neighbors(self, vertex: Vertex) -> set[Vertex]:
        nbrs = self._left.get(vertex, self._right.get(vertex))
        if nbrs is None:
            raise VertexError(f"vertex {vertex!r} does not exist")
        return nbrs

    def neighbors(self, vertex: Vertex) -> set[Vertex]:
        """The (copied) neighbor set of ``vertex``."""
        return set(self._stored_neighbors(vertex))

    def degree(self, vertex: Vertex) -> int:
        return len(self._stored_neighbors(vertex))

    def isolated_vertices(self) -> list[Vertex]:
        """Vertices with no incident edge (removed a priori by the paper)."""
        out = [v for v, nbrs in self._left.items() if not nbrs]
        out.extend(v for v, nbrs in self._right.items() if not nbrs)
        return out

    def orient_edge(self, u: Vertex, v: Vertex) -> JoinEdge:
        """Return the edge ``{u, v}`` in canonical (left, right) orientation."""
        if not self.has_edge(u, v):
            raise EdgeError(f"edge ({u!r}, {v!r}) does not exist")
        if u in self._left:
            return (u, v)
        return (v, u)

    # ------------------------------------------------------------------
    # structure tests
    # ------------------------------------------------------------------
    def is_complete_bipartite(self) -> bool:
        """True iff every left vertex is adjacent to every right vertex.

        After dropping isolated vertices, the connected components of an
        *equijoin* graph are exactly the complete bipartite graphs
        (paper §3.1).
        """
        n_right = len(self._right)
        return all(len(nbrs) == n_right for nbrs in self._left.values())

    def is_matching(self) -> bool:
        """True iff every vertex has degree at most 1 (paper Lemma 2.4)."""
        return all(
            len(nbrs) <= 1
            for side in (self._left, self._right)
            for nbrs in side.values()
        )

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteGraph":
        clone = BipartiteGraph()
        clone._left = {v: set(nbrs) for v, nbrs in self._left.items()}
        clone._right = {v: set(nbrs) for v, nbrs in self._right.items()}
        return clone

    def subgraph(self, keep: Iterable[Vertex]) -> "BipartiteGraph":
        """The induced subgraph on ``keep``, preserving sides and the
        parent's vertex order, in O(|keep| log |keep| + incident edges)."""
        if self._place is None or len(self._place) != self.num_vertices:
            self._place = {v: i for i, v in enumerate(self)}
        keep_set = set(keep)
        missing = [v for v in keep_set if v not in self._place]
        if missing:
            raise VertexError(f"vertices not in graph: {sorted(map(repr, missing))}")
        ordered = sorted(keep_set, key=self._place.__getitem__)
        sub = BipartiteGraph(
            left=(v for v in ordered if v in self._left),
            right=(v for v in ordered if v in self._right),
        )
        for u, nbrs in sub._left.items():
            for v in self._left[u]:
                if v in keep_set:
                    nbrs.add(v)
                    sub._right[v].add(u)
        return sub

    def without_isolated_vertices(self) -> "BipartiteGraph":
        """A copy with isolated vertices removed (paper §2)."""
        keep = [
            v
            for side in (self._left, self._right)
            for v, nbrs in side.items()
            if nbrs
        ]
        return self.subgraph(keep)

    def to_graph(self) -> Graph:
        """Forget the bipartition and return a plain :class:`Graph`."""
        g = Graph(vertices=list(self._left) + list(self._right))
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def relabeled(self, mapping: dict[Vertex, Vertex]) -> "BipartiteGraph":
        """A copy with vertices renamed through the injective ``mapping``."""
        all_vertices = set(self._left) | set(self._right)
        if set(mapping) != all_vertices:
            raise GraphError("mapping must cover exactly the vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("mapping must be injective")
        out = BipartiteGraph(
            left=(mapping[v] for v in self._left),
            right=(mapping[v] for v in self._right),
        )
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v])
        return out

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return self.has_vertex(vertex)

    def __iter__(self) -> Iterator[Vertex]:
        yield from self._left
        yield from self._right

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            set(self._left) == set(other._left)
            and set(self._right) == set(other._right)
            and set(self.edges()) == set(other.edges())
        )

    def __hash__(self) -> int:  # pragma: no cover
        raise TypeError("BipartiteGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(left={len(self._left)}, right={len(self._right)}, "
            f"m={self.num_edges})"
        )


def from_edges(edges: Iterable[tuple[Vertex, Vertex]]) -> BipartiteGraph:
    """Build a bipartite graph from left-to-right edge pairs.

    Every first component is placed on the left, every second on the right.
    A label used on both sides raises :class:`~repro.errors.GraphError`.
    """
    g = BipartiteGraph()
    for u, v in edges:
        g.add_left_vertex(u)
        g.add_right_vertex(v)
        g.add_edge(u, v)
    return g
