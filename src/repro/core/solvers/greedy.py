"""Nearest-neighbour greedy pebbling.

The natural baseline heuristic: repeatedly move to an undeleted edge
adjacent to the current one (a 1-move step), jumping only when stuck.
Among adjacent candidates it prefers the one with the fewest remaining
adjacent edges (a Warnsdorff-style tie-break), which empirically avoids
stranding leaf edges.  No approximation guarantee — benchmarks compare it
against the certified 1.25 algorithm and the exact optimum.
"""

from __future__ import annotations

import heapq

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, decompose
from repro.graphs.line_graph import EdgeTable
from repro.graphs.simple import Graph
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


def component_tour_ids(table: EdgeTable) -> list[int]:
    """Greedy tour of one connected component's line graph, which is
    never built, as edge ids of the component's table.

    Ties go to the least id, which for a table built from ``edges()``
    (sorted by ``repr``) is the repr rank; the table lists each vertex's
    edges.  An unvisited edge ``(u, v)`` has ``rem(u) + rem(v) − 2``
    unvisited neighbours in ``L(G)``, where ``rem(x)`` counts the
    unvisited edges at ``x``.  The next node is the current one's
    unvisited neighbour with the least (remaining degree, rank); when
    there is none, the tour restarts at the least unvisited node overall,
    popped from a heap that gets a fresh entry whenever a visit lowers a
    degree.  Degrees only fall, so an unvisited node's newest entry is its
    least and pops before its stale ones: the first unvisited node popped
    is the one to restart at.
    Each visit touches the edges at its two endpoints, so a component
    costs ``O(Σ deg(x)² · log m)``: the size of ``L(G)``, not linear.
    """
    m = len(table)
    tail, head = table.tail, table.head
    incidence = table.incidence()
    remaining = [len(incident) for incident in incidence]
    visited = bytearray(m)

    def degree(i: int) -> int:
        return remaining[tail[i]] + remaining[head[i]] - 2

    restarts = [(degree(i), i) for i in range(m)]
    heapq.heapify(restarts)
    tour: list[int] = []
    current = -1
    while len(tour) < m:
        best = None
        if current >= 0:
            for a in (tail[current], head[current]):
                for i in incidence[a]:
                    if not visited[i] and (best is None or (degree(i), i) < best):
                        best = (degree(i), i)
        if best is None:
            # Jump: restart at the most constrained unvisited node.
            current = heapq.heappop(restarts)[1]
            while visited[current]:
                current = heapq.heappop(restarts)[1]
        else:
            current = best[1]
        visited[current] = 1
        tour.append(current)
        for a in (tail[current], head[current]):
            remaining[a] -= 1
            for i in incidence[a]:
                if not visited[i]:
                    heapq.heappush(restarts, (degree(i), i))
    return tour


def solve_greedy(
    graph: AnyGraph | Decomposition, budget: Budget | None = None
) -> list[list[int]]:
    """Greedy tours over every component of ``graph``: one tour per
    component, in component order, each of ids of the component's edge
    table (:attr:`Decomposition.tables`).

    It always runs to completion: a ``budget`` is polled per component for
    accounting but never stops the solve.
    """
    tours: list[list[int]] = []
    for table in decompose(graph).tables:
        if budget is not None:
            budget.poll(max(1, len(table)))
        tours.append(component_tour_ids(table))
    return tours
