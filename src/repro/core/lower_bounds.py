"""Lower bounds on pebbling cost.

The paper's Theorem 3.3 lower-bounds the cost of the worst-case family by
counting tour nodes that must be entered or left via bad edges.  This module
generalizes that argument into reusable bounds that the exact solver uses
for pruning and that benchmarks report alongside measured optima.

The central quantity: on each connected component of ``G`` the minimum
number of jumps equals ``(minimum number of vertex-disjoint paths
partitioning L(G)) − 1``.  Any path partition into ``p`` paths uses exactly
``n_L − p`` line-graph edges, and each line-graph node ``x`` can carry at
most ``min(deg(x), 2)`` of them, giving

    p ≥ n_L − ⌊Σ_x min(deg_{L(G)}(x), 2) / 2⌋.

Applied to the corona line graphs of Fig 1 this reproduces Theorem 3.3's
``J ≥ m/4 − 1`` exactly.  Since ``deg_{L(G)}(uv) = deg(u) + deg(v) − 2``,
the bound needs only the degrees of ``G``: ``L(G)`` is never built.
"""

from __future__ import annotations

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, decompose
from repro.graphs.simple import Graph

AnyGraph = Graph | BipartiteGraph


def _capacity_bound(degrees: list[int]) -> int:
    """``max(1, n − ⌊Σ min(deg, 2)/2⌋)`` over ``n`` line-graph degrees,
    or 0 for no nodes."""
    if not degrees:
        return 0
    return max(1, len(degrees) - sum(min(d, 2) for d in degrees) // 2)


def _line_degrees(component: AnyGraph) -> list[int]:
    """The degree of every node of ``L(component)``, without building it:
    edge ``uv`` touches the other ``deg(u) − 1`` edges at ``u`` and
    ``deg(v) − 1`` at ``v``, and no edge is at both in a simple graph."""
    degree = component.degree
    return [degree(u) + degree(v) - 2 for u, v in component.edges()]


def path_partition_lower_bound(line: Graph) -> int:
    """A lower bound on the number of paths in any path partition of
    ``line`` (which must be connected or the bound applies per component).

    Combines two counting arguments and returns the larger:

    - the degree-capacity bound ``n − ⌊Σ min(deg, 2)/2⌋`` described in the
      module docstring;
    - the trivial bound 1.
    """
    return _capacity_bound([line.degree(v) for v in line.vertices])


def jump_lower_bound(graph: AnyGraph | Decomposition) -> int:
    """A lower bound on the total number of jumps of any scheme for
    ``graph``, summed over connected components.

    Per component ``c``: ``J_c ≥ path_partition_lower_bound(L(c)) − 1``,
    computed from the degrees of ``c``.
    """
    return sum(
        _capacity_bound(_line_degrees(component)) - 1
        for component in decompose(graph).components
    )


def effective_cost_lower_bound(graph: AnyGraph | Decomposition) -> int:
    """``π(G) ≥ m + Σ_c (p_lb(c) − 1)``: the edge count plus the jump bound.

    Always at least the trivial bound ``m`` of Lemma 2.3; on the worst-case
    family it reaches ``1.25m − O(1)``, matching Theorem 3.3.
    """
    parts = decompose(graph)
    return parts.graph.num_edges + jump_lower_bound(parts)


def component_deficiency_report(graph: AnyGraph | Decomposition) -> list[dict]:
    """Per-component diagnostics used by the analysis benchmarks.

    Each entry records the component's edge count, the line-graph size, the
    path-partition lower bound, and the implied jump bound.  Useful for
    explaining *why* an instance is hard to pebble.
    """
    report = []
    for sub in decompose(graph).components:
        degrees = _line_degrees(sub)
        p_lb = _capacity_bound(degrees)
        report.append(
            {
                "edges": sub.num_edges,
                "line_nodes": len(degrees),
                "line_degree_one_nodes": degrees.count(1),
                "path_partition_lb": p_lb,
                "jump_lb": p_lb - 1,
                "effective_cost_lb": sub.num_edges + p_lb - 1,
            }
        )
    return report
