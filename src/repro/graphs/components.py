"""Connected components, Betti numbers, and disjoint unions.

The paper's effective cost ``π(G) = π̂(G) − β₀(G)`` subtracts the number of
connected components ``β₀`` (Def 2.2), and the additivity lemma (Lemma 2.2)
shows that disjoint join problems decompose.  :func:`decompose` splits a
graph once; every solver, bound and batch path works on that one split,
and a path that only counts (β₀, per-component edge counts) builds no
component graph.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import GraphError
from repro.graphs.bipartite import BipartiteGraph, Block
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph


def component_vertex_sets(graph: AnyGraph) -> list[set[Vertex]]:
    """Vertex sets of the connected components, by BFS.

    Components are returned in order of their first vertex, so the output is
    deterministic for a deterministically-built graph.
    """
    # The stored neighbour maps, walked in place (neighbors() would copy).
    # A bipartite BFS alternates sides level by level, so each level reads
    # one side's map; a plain graph has one map for both.
    if isinstance(graph, BipartiteGraph):
        sides = [(graph._left, graph._right), (graph._right, graph._left)]
    else:
        sides = [(graph._adjacency, graph._adjacency)]
    total = sum(len(near) for near, _ in sides)
    covered = 0
    seen: set[Vertex] = set()
    components: list[set[Vertex]] = []
    for near, far in sides:
        for start in near:
            if start in seen:
                continue
            component = {start}
            level, adjacency, other = [start], near, far
            while level:
                following = []
                for vertex in level:
                    for neighbor in adjacency[vertex]:
                        if neighbor not in component:
                            component.add(neighbor)
                            following.append(neighbor)
                level, adjacency, other = following, other, adjacency
            components.append(component)
            covered += len(component)
            if covered == total:
                return components
            seen |= component
    return components


class Decomposition:
    """A graph split into its connected components (Lemma 2.2).

    ``components`` holds the induced subgraph of every component that has
    an edge, in order of its first vertex; isolated vertices are dropped,
    as the paper removes them a priori (§2).  Each component keeps the
    parent's vertex order; a connected graph without isolated vertices is
    its own one component, not a copy.  Build one with :func:`decompose`.

    A split keeps what it found instead of the component graphs: a BFS
    split its vertex sets (``vertex_sets``), a graph that carries a valid
    decomposition hint
    (:meth:`~repro.graphs.bipartite.BipartiteGraph.biclique_blocks`, which
    equijoin extraction records) its complete bipartite blocks
    (``blocks``, found with no search).  ``betti`` and ``edge_counts``
    come from those, and ``components`` is built on first access.
    ``blocks`` is None for a graph split by BFS.  A decomposition
    describes the graph as it was split; split again after a mutation.
    """

    def __init__(
        self,
        graph: AnyGraph,
        components: Iterable[AnyGraph] | None = None,
        *,
        blocks: tuple[Block, ...] | None = None,
        vertex_sets: tuple[set[Vertex], ...] | None = None,
    ) -> None:
        given = [x is not None for x in (components, blocks, vertex_sets)]
        if sum(given) != 1:
            raise TypeError(
                "a Decomposition takes one of components, blocks or vertex_sets"
            )
        self.graph = graph
        self.blocks = blocks
        self.vertex_sets = vertex_sets
        self._components = None if components is None else tuple(components)
        if blocks is not None and len(blocks) == 1:
            lefts, rights = blocks[0]
            if len(lefts) + len(rights) == graph.num_vertices:
                self._components = (graph,)

    @property
    def components(self) -> tuple[AnyGraph, ...]:
        """The components with an edge, each as its own graph."""
        if self._components is None:
            if self.blocks is not None:
                self._components = tuple(
                    _block_graph(self.graph, block) for block in self.blocks
                )
            else:
                self._components = tuple(
                    self.graph.subgraph(vs) for vs in self.vertex_sets
                )
        return self._components

    @property
    def betti(self) -> int:
        """``β₀``: the number of components with an edge (Def 2.2)."""
        if self.blocks is not None:
            return len(self.blocks)
        if self.vertex_sets is not None:
            return len(self.vertex_sets)
        return len(self._components)

    @property
    def edge_counts(self) -> list[int]:
        """The edge count of each component, in component order."""
        if self.blocks is not None:
            return [len(lefts) * len(rights) for lefts, rights in self.blocks]
        if self.vertex_sets is not None:
            return [_edge_count(self.graph, vs) for vs in self.vertex_sets]
        return [c.num_edges for c in self._components]

    def each(self) -> list["Decomposition"]:
        """One already-split decomposition per component."""
        if self.blocks is not None:
            return [
                Decomposition(c, blocks=(block,))
                for c, block in zip(self.components, self.blocks)
            ]
        return [Decomposition(c, (c,)) for c in self.components]


def _edge_count(graph: AnyGraph, vertex_set: set[Vertex]) -> int:
    """The edges of the component on ``vertex_set``: the degrees of its
    left vertices (every edge has one), or half its degree sum in a plain
    graph.  A component is closed under adjacency, so nothing is tested."""
    if isinstance(graph, BipartiteGraph):
        near = graph._left
        return sum(len(near[v]) for v in vertex_set if v in near)
    adjacency = graph._adjacency
    return sum(len(adjacency[v]) for v in vertex_set) // 2


def _block_graph(graph: BipartiteGraph, block: Block) -> BipartiteGraph:
    """One block of ``graph`` as its own graph: what ``subgraph`` builds
    from the block's vertices (same vertex order, neighbours inserted in
    the same order), with no sort and no membership tests, since a block
    is closed under adjacency."""
    lefts, rights = block
    component = BipartiteGraph(left=lefts, right=rights)
    near, far = component._left, component._right
    for u in lefts:
        nbrs = near[u]
        for v in graph._left[u]:
            nbrs.add(v)
            far[v].add(u)
    return component


def decompose(graph: AnyGraph | Decomposition) -> Decomposition:
    """Split ``graph`` into components once; a decomposition passes through.

    A graph with a valid decomposition hint splits from its blocks, with
    no BFS.
    """
    if isinstance(graph, Decomposition):
        return graph
    blocks = _hint(graph)
    if blocks is not None:
        return Decomposition(graph, blocks=blocks)
    vertex_sets = component_vertex_sets(graph)
    if len(vertex_sets) == 1 and len(vertex_sets[0]) > 1:
        # Connected with no isolated vertex: the graph is its own induced
        # subgraph, and a copy would double the working set of every solve.
        return Decomposition(graph, (graph,))
    return Decomposition(
        graph, vertex_sets=tuple(vs for vs in vertex_sets if len(vs) > 1)
    )


def _hint(graph: AnyGraph) -> tuple[Block, ...] | None:
    """The graph's valid decomposition hint, if it has one."""
    if isinstance(graph, BipartiteGraph):
        return graph.biclique_blocks()
    return None


def _component_count(graph: AnyGraph) -> int:
    """The number of components, isolated vertices included."""
    blocks = _hint(graph)
    if blocks is None:
        return len(component_vertex_sets(graph))
    covered = sum(len(lefts) + len(rights) for lefts, rights in blocks)
    return len(blocks) + graph.num_vertices - covered


def betti_number(graph: AnyGraph, ignore_isolated: bool = True) -> int:
    """``β₀(G)``: the number of connected components (paper Def 2.2).

    By default isolated vertices are ignored, matching the paper's
    convention that they are removed a priori (§2); pass
    ``ignore_isolated=False`` to count them as singleton components.
    A valid decomposition hint answers without a BFS.
    """
    if not ignore_isolated:
        return _component_count(graph)
    blocks = _hint(graph)
    if blocks is not None:
        return len(blocks)
    # A component with an edge has two vertices (there are no self-loops).
    return sum(1 for vs in component_vertex_sets(graph) if len(vs) > 1)


def is_connected(graph: AnyGraph) -> bool:
    """True iff the graph has at most one connected component.

    An empty graph counts as connected.
    """
    return _component_count(graph) <= 1


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
