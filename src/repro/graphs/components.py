"""Connected components, Betti numbers, and disjoint unions.

The paper's effective cost ``π(G) = π̂(G) − β₀(G)`` subtracts the number of
connected components ``β₀`` (Def 2.2), and the additivity lemma (Lemma 2.2)
shows that disjoint join problems decompose.  :func:`decompose` splits a
graph once; every solver, bound and batch path works on that one split.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import GraphError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph


def component_vertex_sets(graph: AnyGraph) -> list[set[Vertex]]:
    """Vertex sets of the connected components, by BFS.

    Components are returned in order of their first vertex, so the output is
    deterministic for a deterministically-built graph.
    """
    # The stored neighbour sets, in vertex order; neighbors() would copy.
    adjacency = (
        {**graph._left, **graph._right}
        if isinstance(graph, BipartiteGraph)
        else graph._adjacency
    )
    seen: set[Vertex] = set()
    components: list[set[Vertex]] = []
    for start in adjacency:
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            for neighbor in adjacency[queue.popleft()]:
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        seen |= component
        components.append(component)
    return components


@dataclass(frozen=True)
class Decomposition:
    """A graph split into its connected components (Lemma 2.2).

    ``components`` holds the induced subgraph of every component that has
    an edge, in order of its first vertex; isolated vertices are dropped,
    as the paper removes them a priori (§2).  Each component keeps the
    parent's vertex order; a connected graph without isolated vertices is
    its own one component, not a copy.  Build one with :func:`decompose`.
    """

    graph: AnyGraph
    components: tuple[AnyGraph, ...]

    @property
    def betti(self) -> int:
        """``β₀``: the number of components with an edge (Def 2.2)."""
        return len(self.components)

    def each(self) -> list["Decomposition"]:
        """One already-split decomposition per component."""
        return [Decomposition(c, (c,)) for c in self.components]


def decompose(graph: AnyGraph | Decomposition) -> Decomposition:
    """Split ``graph`` into components once; a decomposition passes through."""
    if isinstance(graph, Decomposition):
        return graph
    vertex_sets = component_vertex_sets(graph)
    if len(vertex_sets) == 1 and len(vertex_sets[0]) > 1:
        # Connected with no isolated vertex: the graph is its own induced
        # subgraph, and a copy would double the working set of every solve.
        return Decomposition(graph, (graph,))
    return Decomposition(
        graph, tuple(graph.subgraph(vs) for vs in vertex_sets if len(vs) > 1)
    )


def betti_number(graph: AnyGraph, ignore_isolated: bool = True) -> int:
    """``β₀(G)``: the number of connected components (paper Def 2.2).

    By default isolated vertices are ignored, matching the paper's
    convention that they are removed a priori (§2); pass
    ``ignore_isolated=False`` to count them as singleton components.
    """
    components = component_vertex_sets(graph)
    if not ignore_isolated:
        return len(components)
    # A component with an edge has two vertices (there are no self-loops).
    return sum(1 for vs in components if len(vs) > 1)


def is_connected(graph: AnyGraph) -> bool:
    """True iff the graph has at most one connected component.

    An empty graph counts as connected.
    """
    return len(component_vertex_sets(graph)) <= 1


def disjoint_union(first: BipartiteGraph, second: BipartiteGraph) -> BipartiteGraph:
    """The disjoint union ``G ⊎ H`` of two bipartite graphs (Lemma 2.2).

    Vertices are tagged with 0/1 to guarantee disjointness: a vertex ``v`` of
    ``first`` becomes ``(0, v)`` and a vertex ``w`` of ``second`` becomes
    ``(1, w)``.
    """
    out = BipartiteGraph(
        left=[(0, v) for v in first.left] + [(1, v) for v in second.left],
        right=[(0, v) for v in first.right] + [(1, v) for v in second.right],
    )
    for u, v in first.edges():
        out.add_edge((0, u), (0, v))
    for u, v in second.edges():
        out.add_edge((1, u), (1, v))
    return out


def disjoint_union_many(graphs: Iterable[BipartiteGraph]) -> BipartiteGraph:
    """Disjoint union of arbitrarily many bipartite graphs.

    Vertex ``v`` of the ``i``-th input becomes ``(i, v)``.
    """
    out = BipartiteGraph()
    count = 0
    for index, graph in enumerate(graphs):
        count += 1
        for v in graph.left:
            out.add_left_vertex((index, v))
        for v in graph.right:
            out.add_right_vertex((index, v))
        for u, v in graph.edges():
            out.add_edge((index, u), (index, v))
    if count == 0:
        raise GraphError("disjoint_union_many needs at least one graph")
    return out
