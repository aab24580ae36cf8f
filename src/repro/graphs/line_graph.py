"""Line graphs and interned edge tables for the TSP view (paper §2.2).

The line graph ``L(G)`` has one node per edge of ``G``; two nodes are
adjacent iff the corresponding edges of ``G`` share an endpoint.  A pebbling
scheme moves from edge to edge, so a scheme is a walk over the nodes of
``L(G)``; viewing ``L(G)`` as a complete graph with weight 1 on its edges
("good") and weight 2 on non-edges ("bad", ``Graph.complement_weight``),
the optimal pebbling cost is a minimum-cost travelling-salesman *path*
(Prop 2.2).

Line graphs of connected graphs are connected and claw-free (Harary), which
Theorem 3.1 relies on; :func:`is_claw_free` verifies the property.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, combinations
from operator import itemgetter

from repro.graphs.bipartite import BipartiteGraph, Block
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph

# A node of L(G) is an edge of G in canonical orientation.  For a bipartite
# G this is the (left, right) tuple; for a plain Graph the normalized tuple.
LineNode = tuple


def line_graph(graph: AnyGraph) -> Graph:
    """Construct ``L(G)``.

    Nodes of the result are the canonical edge tuples of ``graph``.  The
    construction is O(sum of deg² ) — it groups edges by shared endpoint
    rather than testing all edge pairs.
    """
    edges = graph.edges()
    lg = Graph(vertices=edges)
    # Group the edges by endpoint; every pair within a group is adjacent.
    by_endpoint: dict[object, list[LineNode]] = {}
    for edge in edges:
        u, v = edge
        by_endpoint.setdefault(u, []).append(edge)
        by_endpoint.setdefault(v, []).append(edge)
    for incident in by_endpoint.values():
        for e1, e2 in combinations(incident, 2):
            lg.add_edge(e1, e2)
    return lg


def pick(items: Sequence, ids: Sequence[int]) -> Sequence:
    """``[items[i] for i in ids]``, as a tuple built in C."""
    if len(ids) > 1:
        return itemgetter(*ids)(items)
    return tuple(items[i] for i in ids)


class EdgeTable:
    """Edges interned to ints: ``L(G)`` without building it, and the form
    pebbling schemes are validated and costed on.

    ``vertices[a]`` is the label of vertex ``a`` and edge ``i`` joins
    ``tail[i]`` and ``head[i]``, in the orientation the edge was given in.
    Equal labels share one id, so two edges share an endpoint iff they
    share an id, and line nodes ``i`` and ``j`` are adjacent iff they do.
    A table is never mutated after it is built.
    """

    __slots__ = ("vertices", "tail", "head", "_incidence", "_ends")

    def __init__(
        self, vertices: Sequence[Vertex], tail: Sequence[int], head: Sequence[int]
    ) -> None:
        self.vertices = vertices
        self.tail = tail
        self.head = head
        self._incidence: list[list[int]] | None = None
        self._ends: list[tuple[int, int]] | None = None

    @classmethod
    def intern(cls, pairs: Sequence[LineNode]) -> "EdgeTable":
        """One edge per pair, in order; vertex ids in order of first
        appearance."""
        firsts = list(map(itemgetter(0), pairs))
        seconds = list(map(itemgetter(1), pairs))
        vertices = list(dict.fromkeys(chain.from_iterable(zip(firsts, seconds))))
        index = dict(zip(vertices, range(len(vertices))))
        return cls(
            vertices,
            list(map(index.__getitem__, firsts)),
            list(map(index.__getitem__, seconds)),
        )

    @classmethod
    def from_blocks(cls, blocks: Iterable[Block]) -> "EdgeTable":
        """The edges of complete bipartite blocks on disjoint vertices,
        with no hashing: each block's left then right vertices, and its
        edges in the boustrophedon order of Lemma 3.2 (left vertex by left
        vertex, every other row of right vertices backwards), so
        consecutive ids of a block share an endpoint."""
        vertices: list[Vertex] = []
        tail: list[int] = []
        head: list[int] = []
        for lefts, rights in blocks:
            base = len(vertices)
            vertices += lefts
            vertices += rights
            rows, width = len(lefts), len(rights)
            if width == 1:
                # A star (a foreign key's rows against its one key row):
                # two C-level extends instead of one loop turn per edge.
                tail += range(base, base + rows)
                head += [base + rows] * rows
                continue
            row = list(range(base + rows, base + rows + width))
            backwards = row[::-1]
            for r, a in enumerate(range(base, base + rows)):
                tail += [a] * width
                head += backwards if r % 2 else row
        return cls(vertices, tail, head)

    @classmethod
    def join(cls, tables: Sequence["EdgeTable"]) -> "EdgeTable":
        """Tables on disjoint vertex sets as one: each table's vertices and
        edges follow the previous table's, ids shifted by their offsets."""
        if len(tables) == 1:
            return tables[0]
        vertices: list[Vertex] = []
        tail: list[int] = []
        head: list[int] = []
        for table in tables:
            shift = len(vertices).__add__
            vertices += table.vertices
            tail += map(shift, table.tail)
            head += map(shift, table.head)
        return cls(vertices, tail, head)

    def __len__(self) -> int:
        return len(self.tail)

    def __getstate__(self) -> tuple:
        return self.vertices, self.tail, self.head

    def __setstate__(self, state: tuple) -> None:
        self.vertices, self.tail, self.head = state
        self._incidence = self._ends = None

    def pairs(self, ids: Sequence[int] | None = None) -> list[LineNode]:
        """The label pair of every edge in ``ids`` (default: all, in id
        order)."""
        tail, head = self.tail, self.head
        if ids is not None and ids != range(len(tail)):
            tail, head = pick(tail, ids), pick(head, ids)
        vertices = self.vertices
        return list(zip(pick(vertices, tail), pick(vertices, head)))

    def ends(self) -> list[tuple[int, int]]:
        """Per edge id, its ``(tail, head)`` pair; built once per table
        and shared, so callers must not mutate it."""
        if self._ends is None:
            self._ends = list(zip(self.tail, self.head))
        return self._ends

    def incidence(self) -> list[list[int]]:
        """Per vertex id, the edges at it in id order; built once per
        table and shared, so callers must not mutate it."""
        if self._incidence is None:
            incidence: list[list[int]] = [[] for _ in self.vertices]
            for index, (a, b) in enumerate(zip(self.tail, self.head)):
                incidence[a].append(index)
                incidence[b].append(index)
            self._incidence = incidence
        return self._incidence


def is_claw_free(graph: Graph) -> bool:
    """True iff ``graph`` has no induced ``K_{1,3}`` (claw).

    Checked directly from the definition: for every vertex, no three pairwise
    non-adjacent neighbors exist.  Cost is O(Σ deg³) which is fine for the
    line graphs this library builds.
    """
    for center in graph.vertices:
        neighbors = sorted(graph.neighbors(center), key=repr)
        for a, b, c in combinations(neighbors, 3):
            if (
                not graph.has_edge(a, b)
                and not graph.has_edge(a, c)
                and not graph.has_edge(b, c)
            ):
                return False
    return True
