"""The linear-time perfect pebbler for equijoin graphs.

Every connected component of an equijoin join graph is a complete bipartite
graph (§3.1): two tuples of ``R`` with the same key join the same set of
``S`` tuples.  Lemma 3.2 pebbles a ``k × l`` biclique perfectly with the
boustrophedon ("snake") order

    (u1,v1), (u1,v2), …, (u1,vl), (u2,vl), (u2,v(l−1)), …, (u2,v1), (u3,v1), …

where consecutive configurations always share a vertex.  Theorem 3.2 then
gives ``π(G) = m`` for every equijoin graph, and Theorem 4.1 notes the whole
scheme is found in time linear in ``m`` — the construction "is similar to
the merge phase of sort-merge join".
"""

from __future__ import annotations

from itertools import repeat

from repro.errors import SolverError
from repro.graphs.bipartite import BipartiteGraph
# component_vertex_sets stays imported: perfbench/tracer.py wraps it here.
from repro.graphs.components import Decomposition, component_vertex_sets, decompose
from repro.core.scheme import PebblingScheme


def is_union_of_bicliques(graph: BipartiteGraph | Decomposition) -> bool:
    """True iff every connected component (ignoring isolated vertices) is
    complete bipartite — i.e. the graph could be an equijoin join graph.

    This is both a structural *test* (equijoin graphs always pass; the
    worst-case family of Fig 1 fails) and the admission check of the
    linear-time solver.  A graph split from its equijoin blocks passes
    without a look at its components.
    """
    parts = decompose(graph)
    if parts.blocks is not None:
        return True
    return all(c.is_complete_bipartite() for c in parts.components)


def biclique_tour(component: BipartiteGraph) -> list[tuple]:
    """The boustrophedon edge order of Lemma 3.2 for one complete bipartite
    component: each row of right vertices in turn, every other row
    backwards.  Consecutive edges always share an endpoint, so the induced
    scheme is perfect (``π = m``)."""
    rights = component.right
    backwards = rights[::-1]
    tour: list[tuple] = []
    for row, u in enumerate(component.left):
        tour.extend(zip(repeat(u), backwards if row % 2 else rights))
    return tour


def solve_equijoin(graph: BipartiteGraph | Decomposition) -> PebblingScheme:
    """A perfect pebbling scheme for an equijoin graph, in linear time.

    Raises :class:`~repro.errors.SolverError` if some component is not
    complete bipartite (i.e. the input cannot be an equijoin join graph) —
    callers wanting a best-effort answer should use the registry's ``auto``
    method instead.  A graph split from its equijoin blocks is toured
    straight from them; any other is split into its components' blocks
    first.  A block split's edge table lists each block in boustrophedon
    order (:meth:`~repro.graphs.line_graph.EdgeTable.from_blocks`), so the
    scheme visits the table's ids, ``0 … m−1``, in order.
    """
    parts = decompose(graph)
    if parts.blocks is None:
        blocks = []
        for component in parts.components:
            if not component.is_complete_bipartite():
                raise SolverError(
                    "component is not complete bipartite; "
                    "not an equijoin join graph"
                )
            blocks.append((tuple(component.left), tuple(component.right)))
        parts = Decomposition(parts.graph, blocks=tuple(blocks))
    return PebblingScheme.from_edge_order(parts, range(parts.graph.num_edges))
