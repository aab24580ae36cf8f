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
    linear-time solver.
    """
    return all(c.is_complete_bipartite() for c in decompose(graph).components)


def biclique_tour(component: BipartiteGraph) -> list[tuple]:
    """The boustrophedon edge order of Lemma 3.2 for one complete bipartite
    component.  Consecutive edges always share an endpoint, so the induced
    scheme is perfect (``π = m``)."""
    lefts = component.left
    rights = component.right
    tour: list[tuple] = []
    for row, u in enumerate(lefts):
        columns = rights if row % 2 == 0 else list(reversed(rights))
        for v in columns:
            tour.append((u, v))
    return tour


def solve_equijoin(graph: BipartiteGraph | Decomposition) -> PebblingScheme:
    """A perfect pebbling scheme for an equijoin graph, in linear time.

    Raises :class:`~repro.errors.SolverError` if some component is not
    complete bipartite (i.e. the input cannot be an equijoin join graph) —
    callers wanting a best-effort answer should use the registry's ``auto``
    method instead.
    """
    parts = decompose(graph)
    tour: list[tuple] = []
    for component in parts.components:
        if not component.is_complete_bipartite():
            raise SolverError(
                "component is not complete bipartite; "
                "not an equijoin join graph"
            )
        tour.extend(biclique_tour(component))
    return PebblingScheme.from_edge_order(parts.graph, tour)
