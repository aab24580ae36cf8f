"""Cost bounds and perfect-pebbling predicates (paper §2.1).

The numeric facts implemented here:

- Lemma 2.1: for any graph with ``m`` edges, ``π̂(G) ≤ 2m``; a connected
  graph additionally has ``π̂(G) ≥ m + 1``.
- Corollary 2.1 / Lemma 2.3: ``m ≤ π(G) ≤ 2m − 1`` (effective cost).
- Definition 2.3: ``G`` has a *perfect* pebbling scheme iff ``π(G) = m``.
- Theorem 3.1: a *connected* graph satisfies ``π(G) ≤ 1.25m`` and the paper's
  worst-case family shows ``1.25m − 1`` is attained, so the connected upper
  bound used throughout is ``⌊1.25m⌋``.
"""

from __future__ import annotations

import math

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, betti_number, decompose
# component_vertex_sets stays imported: perfbench/tracer.py wraps it here.
from repro.graphs.components import component_vertex_sets
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme

AnyGraph = Graph | BipartiteGraph


def perfect_cost(graph: AnyGraph) -> int:
    """The effective cost of a perfect scheme: ``m`` (Def 2.3)."""
    return graph.num_edges


def is_perfect_scheme(graph: AnyGraph, scheme: PebblingScheme) -> bool:
    """True iff ``scheme`` is valid for ``graph`` and achieves ``π = m``."""
    return scheme.is_valid(graph) and scheme.effective_cost(graph) == graph.num_edges


def effective_cost_bounds(graph: AnyGraph | Decomposition) -> tuple[int, int]:
    """The (lower, upper) bounds on ``π(G)`` from the paper's §2–3.

    Lower bound: ``m`` (every move deletes at most one edge).  Upper bound:
    summed per connected component ``c``: ``⌊1.25 · m_c⌋`` by Theorem 3.1
    (each component is pebbled independently by Lemma 2.2).  For a graph
    with no edges both bounds are 0.  The per-component edge counts come
    from the decomposition, so a graph split from its equijoin blocks
    builds no component graphs here.
    """
    parts = decompose(graph)
    upper = sum(math.floor(1.25 * m) for m in parts.edge_counts)
    return (parts.graph.num_edges, upper)


def naive_cost_bounds(graph: AnyGraph) -> tuple[int, int]:
    """The coarse bounds of Lemma 2.3: ``m ≤ π(G) ≤ 2m − 1``.

    These hold for *any* scheme-producing strategy (at most two moves per
    deleted edge); Theorem 3.1 tightens the upper bound to 1.25m — see
    :func:`effective_cost_bounds`.
    """
    m = graph.num_edges
    if m == 0:
        return (0, 0)
    return (m, 2 * m - 1)


def raw_cost_bounds(graph: AnyGraph) -> tuple[int, int]:
    """Bounds on the raw cost ``π̂(G)`` (Lemma 2.1 with Def 2.2).

    ``π̂ = π + β₀``, so the bounds are the effective bounds shifted by the
    Betti number.
    """
    lower, upper = effective_cost_bounds(graph)
    beta = betti_number(graph)
    return (lower + beta, upper + beta)


def matching_raw_cost(m: int) -> int:
    """``π̂`` of a matching with ``m`` edges: exactly ``2m`` (Lemma 2.4)."""
    return 2 * m


def effective_cost_of_edge_order(edge_order: list[tuple], beta0: int = 1) -> int:
    """``π`` of the scheme visiting the given edges in order.

    The raw cost of an edge order is ``π̂ = m + 1 + J`` where ``J`` counts
    consecutive pairs sharing no endpoint, so ``π = m + 1 + J − β₀`` — this
    is the identity behind Proposition 2.2.  ``beta0`` defaults to 1 (the
    connected case, where ``π = m + J``); pass the graph's Betti number for
    disconnected graphs.
    """
    if not edge_order:
        return 0
    jumps = sum(
        1
        for previous, current in zip(edge_order, edge_order[1:])
        if not set(previous) & set(current)
    )
    return len(edge_order) + 1 + jumps - beta0
