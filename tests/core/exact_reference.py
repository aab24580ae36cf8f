"""The line-graph compile of the exact search, kept as a test oracle.

Before the exact search ran on a component's edge table, it built ``L(G)``
as a label :class:`~repro.graphs.simple.Graph` with ``line_graph``, sorted
its nodes by ``repr``, compiled them to adjacency bitmasks through a label
dict, and mapped the partition back to labels.  This module keeps that
compile: the table compile (``exact.line_masks``) must give the same
masks in the same order, and the search on it the same partitions and
node counts.
"""

from __future__ import annotations

from repro.core.solvers.equijoin import biclique_tour
from repro.core.solvers.exact import DEFAULT_NODE_BUDGET, _PathPartitionSearch
from repro.core.tsp import tour_from_paths
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.line_graph import line_graph
from repro.runtime.budget import Budget


def compile_line_graph(component) -> tuple[list, list[int]]:
    """``(order, adjacency)``: the nodes of ``L(component)`` in ``repr``
    order and their adjacency bitmasks over those indices."""
    line = line_graph(component)
    order = sorted(line.vertices, key=repr)
    index = {v: i for i, v in enumerate(order)}
    adjacency = [0] * len(order)
    for u, v in line.edges():
        iu, iv = index[u], index[v]
        adjacency[iu] |= 1 << iv
        adjacency[iv] |= 1 << iu
    return order, adjacency


def optimal_component_tour(
    component,
    node_budget: int = DEFAULT_NODE_BUDGET,
    budget: Budget | None = None,
) -> tuple[list, int]:
    """``(tour of edges, search_nodes)`` for one connected component: the
    biclique closed form, else the search on the line-graph compile."""
    if isinstance(component, BipartiteGraph) and component.is_complete_bipartite():
        return biclique_tour(component), 0
    order, adjacency = compile_line_graph(component)
    search = _PathPartitionSearch(adjacency, node_budget, budget=budget)
    partition, _levels = search.minimum()
    paths = [[order[i] for i in path] for path in partition]
    return tour_from_paths(paths), search.nodes_expanded
