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
``J ≥ m/4 − 1`` exactly.
"""

from __future__ import annotations

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, decompose
from repro.graphs.line_graph import line_graph
from repro.graphs.simple import Graph

AnyGraph = Graph | BipartiteGraph


def path_partition_lower_bound(line: Graph) -> int:
    """A lower bound on the number of paths in any path partition of
    ``line`` (which must be connected or the bound applies per component).

    Combines two counting arguments and returns the larger:

    - the degree-capacity bound ``n − ⌊Σ min(deg, 2)/2⌋`` described in the
      module docstring;
    - the trivial bound 1.
    """
    n = line.num_vertices
    if n == 0:
        return 0
    capacity = sum(min(line.degree(v), 2) for v in line.vertices) // 2
    return max(1, n - capacity)


def jump_lower_bound(graph: AnyGraph | Decomposition) -> int:
    """A lower bound on the total number of jumps of any scheme for
    ``graph``, summed over connected components.

    Per component ``c``: ``J_c ≥ path_partition_lower_bound(L(c)) − 1``.
    """
    return sum(
        path_partition_lower_bound(line_graph(component)) - 1
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
        line = line_graph(sub)
        p_lb = path_partition_lower_bound(line)
        degree_one = sum(1 for v in line.vertices if line.degree(v) == 1)
        report.append(
            {
                "edges": sub.num_edges,
                "line_nodes": line.num_vertices,
                "line_degree_one_nodes": degree_one,
                "path_partition_lb": p_lb,
                "jump_lb": p_lb - 1,
                "effective_cost_lb": sub.num_edges + p_lb - 1,
            }
        )
    return report


def isolated_line_nodes_bound(line: Graph) -> int:
    """A second path-partition bound: isolated line-graph nodes each need
    their own path, so ``p ≥ #isolated + (1 if anything else remains)``.

    An isolated node of ``L(G)`` is an edge of ``G`` sharing no endpoint
    with any other edge — i.e. a matching edge in its own component.  This
    is how Lemma 2.4's ``π̂ = 2m`` for matchings falls out of the framework.
    """
    isolated = len(line.isolated_vertices())
    rest = line.num_vertices - isolated
    return isolated + (1 if rest else 0)
