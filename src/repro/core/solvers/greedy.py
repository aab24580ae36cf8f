"""Nearest-neighbour greedy pebbling.

The natural baseline heuristic: repeatedly move to an undeleted edge
adjacent to the current one (a 1-move step), jumping only when stuck.
Among adjacent candidates it prefers the one with the fewest remaining
adjacent edges (a Warnsdorff-style tie-break), which empirically avoids
stranding leaf edges.  No approximation guarantee — benchmarks compare it
against the certified 1.25 algorithm and the exact optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, decompose
from repro.graphs.line_graph import line_graph
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


@dataclass(frozen=True)
class GreedyResult:
    scheme: PebblingScheme
    effective_cost: int
    jumps: int


def component_tour_greedy(component: AnyGraph) -> list:
    """Greedy tour of one connected component's line graph."""
    line = line_graph(component)
    unvisited = set(line.vertices)
    if not unvisited:
        return []

    def remaining_degree(node) -> int:
        return sum(1 for nbr in line.neighbors(node) if nbr in unvisited)

    current = min(unvisited, key=lambda v: (line.degree(v), repr(v)))
    unvisited.discard(current)
    tour = [current]
    while unvisited:
        candidates = [n for n in line.neighbors(current) if n in unvisited]
        if candidates:
            current = min(candidates, key=lambda v: (remaining_degree(v), repr(v)))
        else:
            # Jump: restart at the most constrained unvisited node.
            current = min(unvisited, key=lambda v: (remaining_degree(v), repr(v)))
        unvisited.discard(current)
        tour.append(current)
    return tour


def solve_greedy(
    graph: AnyGraph | Decomposition, budget: Budget | None = None
) -> GreedyResult:
    """Greedy scheme over every component of ``graph``.

    The bottom rung of the degradation ladder: linear-time, so a ``budget``
    is polled per component for accounting but never stops the solve.
    """
    parts = decompose(graph)
    flat: list = []
    for component in parts.components:
        if budget is not None:
            budget.poll(max(1, component.num_edges))
        flat.extend(component_tour_greedy(component))
    scheme = PebblingScheme.from_edge_order(parts.graph, flat)
    return GreedyResult(
        scheme=scheme,
        effective_cost=scheme.cost() - parts.betti,
        jumps=scheme.jumps(),
    )
