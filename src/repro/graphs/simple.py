"""A general undirected graph.

The pebbling model of the paper lives on two kinds of graphs: the bipartite
*join graph* ``G`` and its *line graph* ``L(G)``, which is not bipartite.
TSP(1,2) instances (paper §4) and the diamond gadget (Fig 2) are also plain
undirected graphs.  This module provides the shared representation.

Vertices may be any hashable objects.  Edges are unordered pairs of distinct
vertices; parallel edges and self-loops are rejected, matching the paper's
setting (a join graph never needs either).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import repeat
from operator import contains
from typing import Any

from repro.errors import EdgeError, GraphError, VertexError

Vertex = Hashable
Edge = tuple[Any, Any]


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical representation of the undirected edge ``{u, v}``.

    Canonical means the two endpoints are sorted by their ``repr`` (falling
    back to ``repr`` keeps arbitrary vertex types comparable), so an edge has
    exactly one tuple form regardless of insertion order.
    """
    if u == v:
        raise EdgeError(f"self-loops are not allowed: {u!r}")
    try:
        smaller_first = u < v  # type: ignore[operator]
    except TypeError:
        smaller_first = repr(u) < repr(v)
    if smaller_first:
        return (u, v)
    return (v, u)


class Graph:
    """A simple undirected graph over hashable vertices.

    The class is mutable during construction (``add_vertex`` / ``add_edge``)
    and is otherwise used as a value: equality compares vertex and edge sets,
    and :meth:`copy` produces an independent instance.

    Example
    -------
    >>> g = Graph()
    >>> g.add_edge("a", "b")
    >>> g.add_edge("b", "c")
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.num_edges
    2
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._adjacency: dict[Vertex, set[Vertex]] = {}
        # Vertex -> place in insertion order, built by the first subgraph and
        # dropped by remove_vertex; appending keeps a complete map valid.
        self._place: dict[Vertex, int] | None = None
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` to the graph (a no-op if already present)."""
        self._adjacency.setdefault(vertex, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Adding an edge that already exists is a no-op; self-loops raise
        :class:`~repro.errors.EdgeError`.
        """
        if u == v:
            raise EdgeError(f"self-loops are not allowed: {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raise if it does not exist."""
        if not self.has_edge(u, v):
            raise EdgeError(f"edge {u!r}-{v!r} does not exist")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and every edge incident to it."""
        if vertex not in self._adjacency:
            raise VertexError(f"vertex {vertex!r} does not exist")
        for neighbor in self._adjacency[vertex]:
            self._adjacency[neighbor].discard(vertex)
        del self._adjacency[vertex]
        self._place = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> list[Vertex]:
        """All vertices, in insertion order."""
        return list(self._adjacency)

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def edges(self) -> list[Edge]:
        """All edges, each reported once in canonical orientation."""
        seen: set[Edge] = set()
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                seen.add(normalize_edge(u, v))
        return sorted(seen, key=repr)

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def has_edges(self, us: Iterable[Vertex], vs: Iterable[Vertex]) -> bool:
        """True iff every pair ``(us[i], vs[i])`` is an edge:
        :meth:`has_edge` over many pairs, without a Python call per pair."""
        return all(
            map(contains, map(self._adjacency.get, us, repeat(frozenset())), vs)
        )

    def neighbors(self, vertex: Vertex) -> set[Vertex]:
        """The (copied) neighbor set of ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexError(f"vertex {vertex!r} does not exist")
        return set(self._adjacency[vertex])

    def degree(self, vertex: Vertex) -> int:
        if vertex not in self._adjacency:
            raise VertexError(f"vertex {vertex!r} does not exist")
        return len(self._adjacency[vertex])

    def max_degree(self) -> int:
        """The maximum vertex degree (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    def isolated_vertices(self) -> list[Vertex]:
        """Vertices with no incident edge.

        The paper removes these a priori: "we will remove a priori all
        isolated vertices" (§2), because the pebble game deals only with the
        edge set.
        """
        return [v for v, nbrs in self._adjacency.items() if not nbrs]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        clone = Graph()
        clone._adjacency = {v: set(nbrs) for v, nbrs in self._adjacency.items()}
        return clone

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by the vertex set ``keep``, in the parent's
        vertex order, in O(|keep| log |keep| + incident edges)."""
        if self._place is None or len(self._place) != len(self._adjacency):
            self._place = {v: i for i, v in enumerate(self._adjacency)}
        keep_set = set(keep)
        missing = [v for v in keep_set if v not in self._place]
        if missing:
            raise VertexError(f"vertices not in graph: {sorted(map(repr, missing))}")
        sub = Graph(vertices=sorted(keep_set, key=self._place.__getitem__))
        for u, nbrs in sub._adjacency.items():
            nbrs.update(v for v in self._adjacency[u] if v in keep_set)
        return sub

    def without_isolated_vertices(self) -> "Graph":
        """A copy with every isolated vertex dropped (paper §2)."""
        keep = [v for v, nbrs in self._adjacency.items() if nbrs]
        return self.subgraph(keep)

    def relabeled(self, mapping: dict[Vertex, Vertex]) -> "Graph":
        """A copy with vertices renamed through ``mapping``.

        Every vertex must appear in ``mapping`` and the mapping must be
        injective, otherwise :class:`~repro.errors.GraphError` is raised.
        """
        if set(mapping) != set(self._adjacency):
            raise GraphError("mapping must cover exactly the vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("mapping must be injective")
        out = Graph(vertices=mapping.values())
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v])
        return out

    def complement_weight(self, u: Vertex, v: Vertex) -> int:
        """The TSP(1,2) weight of the pair ``{u, v}``: 1 if the edge is
        present ("good"), 2 otherwise ("bad").

        This is the weighted completion of §2.2: "The weight between two
        nodes is set to one if there is an edge between them and two,
        otherwise."
        """
        if u == v:
            raise EdgeError("weight undefined for identical endpoints")
        return 1 if self.has_edge(u, v) else 2

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._adjacency) == set(other._adjacency)
            and set(self.edges()) == set(other.edges())
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        raise TypeError("Graph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
