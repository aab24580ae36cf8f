"""The TSP(1,2) view of pebbling (paper §2.2).

A pebbling scheme in canonical form is an *ordering of the edges* of ``G``,
i.e. a path through all nodes of the line graph ``L(G)`` viewed as a complete
graph with weight 1 on real line-graph edges ("good") and weight 2 on
non-edges ("bad"/"jump").  Following the paper, a "TSP tour" means a sequence
visiting every node exactly once — a Hamiltonian *path* in the completion.

Identities implemented and tested:

- the cost of a tour is ``m − 1 + J`` with ``J`` the number of jumps;
- Proposition 2.1: ``π(G) = m`` iff ``L(G)`` has a Hamiltonian path;
- Proposition 2.2: the optimal tour cost equals ``π(G) − 1`` (connected G).
- minimizing jumps ≡ partitioning ``L(G)`` into the fewest vertex-disjoint
  paths: ``J = (#paths) − 1``, which is how the exact solver searches.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import SchemeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme

AnyGraph = Graph | BipartiteGraph
EdgeNode = tuple  # a node of L(G) == an edge of G in canonical orientation


def edges_share_endpoint(e1: EdgeNode, e2: EdgeNode) -> bool:
    """Weight-1 test: do the two underlying edges share an endpoint?"""
    return e1[0] in e2 or e1[1] in e2


def tour_cost(tour: Sequence[EdgeNode]) -> int:
    """The TSP cost of a tour of line-graph nodes.

    ``m − 1 + J``: every step costs 1, plus 1 extra per jump.  Matches the
    paper's measurement where "the first vertex of the tour counts 0".
    """
    if not tour:
        return 0
    cost = len(tour) - 1
    for previous, current in zip(tour, tour[1:]):
        if not edges_share_endpoint(previous, current):
            cost += 1
    return cost


def tour_jumps(tour: Sequence[EdgeNode]) -> int:
    """``J``: the number of bad (weight-2) steps in the tour."""
    return sum(
        1
        for previous, current in zip(tour, tour[1:])
        if not edges_share_endpoint(previous, current)
    )


def validate_tour(graph: AnyGraph, tour: Sequence[EdgeNode]) -> None:
    """Check that ``tour`` visits every edge of ``graph`` exactly once,
    with the check of :meth:`PebblingScheme.from_edge_order`."""
    PebblingScheme.from_edge_order(graph, tour)


def tour_to_scheme(graph: AnyGraph, tour: Sequence[EdgeNode]) -> PebblingScheme:
    """Convert a line-graph tour into the corresponding pebbling scheme.

    This is the constructive direction of Prop 2.1/2.2: visiting edge
    ``e_i`` means placing the pebbles on its endpoints.  Scheme cost is the
    tour cost plus 2 (the initial double placement), so
    ``π̂ = (m − 1 + J) + 2`` and, for connected ``G``, ``π = tour cost + 1``.
    Raises :class:`~repro.errors.SchemeError` unless ``tour`` visits every
    edge of ``graph`` exactly once.
    """
    return PebblingScheme.from_edge_order(graph, tour)


def scheme_to_tour(graph: AnyGraph, scheme: PebblingScheme) -> list[EdgeNode]:
    """Convert a canonical (edge-order) scheme into a line-graph tour.

    Raises :class:`~repro.errors.SchemeError` if the scheme has transit
    configurations or repeated edges — only canonical schemes correspond
    one-to-one with tours.
    """
    if not scheme.is_edge_order(graph):
        raise SchemeError("scheme is not a canonical edge order")
    tour = []
    for a, b in scheme.configurations:
        if isinstance(graph, BipartiteGraph):
            tour.append(graph.orient_edge(a, b))
        else:
            from repro.graphs.simple import normalize_edge

            tour.append(normalize_edge(a, b))
    validate_tour(graph, tour)
    return tour


def tour_from_paths(paths: Sequence[Sequence[EdgeNode]]) -> list[EdgeNode]:
    """Concatenate vertex-disjoint line-graph paths into one tour.

    Each inner sequence must be a weight-1 path in ``L(G)``; the jumps of
    the resulting tour are exactly the ``len(paths) − 1`` junctions (plus
    any bad steps inside the paths — none, if the inputs really are paths).
    """
    tour: list[EdgeNode] = []
    for path in paths:
        tour.extend(path)
    return tour


def split_tour_into_paths(tour: Sequence[EdgeNode]) -> list[list[EdgeNode]]:
    """Split a tour at its jumps, recovering the path partition of L(G)."""
    if not tour:
        return []
    paths: list[list[EdgeNode]] = [[tour[0]]]
    for previous, current in zip(tour, tour[1:]):
        if edges_share_endpoint(previous, current):
            paths[-1].append(current)
        else:
            paths.append([current])
    return paths


def reorder_paths_greedily(
    paths: list[list[EdgeNode]],
    ends: Callable[[Any], EdgeNode],
) -> list[list[EdgeNode]]:
    """Order (and orient) paths so consecutive junctions are good when possible.

    A path partition fixes the jump count only *up to* lucky junctions: if
    the tail edge of one path shares an endpoint with the head edge of the
    next, the junction is free.  This greedy pass chains paths on such
    bonuses; it never increases cost.

    The chain grows from both ends.  Each step takes the first remaining
    path whose end edges touch the chain's tail or head edge, found through
    a min-heap of path indices per vertex of an end edge, and appends or
    prepends it in the first fitting orientation (tail–first, tail–last,
    head–last, head–first).  A step with no such path appends the first
    remaining one.  O(k log k) for k paths.

    ``ends`` maps a path node to its edge's two endpoints (an edge id to
    its ends, say; an edge to itself).
    """
    if not paths:
        return []
    touching: dict = {}
    for index, path in enumerate(paths):
        for vertex in (*ends(path[0]), *ends(path[-1])):
            touching.setdefault(vertex, []).append(index)  # sorted: a heap
    placed = bytearray(len(paths))
    placed[0] = 1
    first = 1
    chain = deque([list(paths[0])])
    for _ in range(len(paths) - 1):
        tail = ends(chain[-1][-1])
        head = ends(chain[0][0])
        best = len(paths)
        for vertex in (*tail, *head):
            heap = touching[vertex]
            while heap and placed[heap[0]]:
                heapq.heappop(heap)
            if heap and heap[0] < best:
                best = heap[0]
        if best == len(paths):
            while placed[first]:
                first += 1
            best = first
            chain.append(list(paths[best]))
        else:
            path = paths[best]
            if edges_share_endpoint(tail, ends(path[0])):
                chain.append(list(path))
            elif edges_share_endpoint(tail, ends(path[-1])):
                chain.append(list(reversed(path)))
            elif edges_share_endpoint(head, ends(path[-1])):
                chain.appendleft(list(path))
            else:
                chain.appendleft(list(reversed(path)))
        placed[best] = 1
    return list(chain)
