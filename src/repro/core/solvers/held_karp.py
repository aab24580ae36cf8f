"""Held–Karp dynamic program for TSP(1,2) paths: an independent oracle.

The primary exact solver searches path partitions; this module solves the
same problem by the classic bitmask DP over the completed line graph and
exists to *cross-check* it (the test-suite asserts both engines agree on
every instance they can both handle).  Being Θ(2ⁿ n²) in time and Θ(2ⁿ n)
in memory, it is capped at 18 nodes.

The DP tracks, for every (visited set, last node), the minimum number of
*jumps* of a path visiting exactly that set and ending there; the tour
cost is then ``n − 1 + J`` and, through Prop 2.2's identity,
``π = m + 1 + J − β₀``.
"""

from __future__ import annotations

import math

from repro.errors import InstanceTooLargeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import betti_number
from repro.graphs.line_graph import line_graph
from repro.graphs.simple import Graph
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace

AnyGraph = Graph | BipartiteGraph

_DP_LIMIT = 18
_INFINITY = float("inf")


def held_karp_min_jumps(line: Graph) -> int:
    """The minimum number of weight-2 steps over all visiting orders of the
    nodes of ``line`` (weights: 1 on edges, 2 off edges)."""
    order = sorted(line.vertices, key=repr)
    n = len(order)
    if n == 0:
        return 0
    if n > _DP_LIMIT:
        raise InstanceTooLargeError(f"Held-Karp limited to {_DP_LIMIT} nodes, got {n}")
    with obs_trace.span("solver.held_karp.build", n=n):
        index = {v: i for i, v in enumerate(order)}
        adjacency = [0] * n
        for u, v in line.edges():
            adjacency[index[u]] |= 1 << index[v]
            adjacency[index[v]] |= 1 << index[u]

    size = 1 << n
    if obs_recorder.ON:
        obs_metrics.inc("solver.held_karp.memo_cells", size * n)
    # jumps[mask * n + last] = min jumps of a path over `mask` ending at `last`.
    with obs_trace.span("solver.held_karp.dp", cells=size * n):
        jumps = [_INFINITY] * (size * n)
        for i in range(n):
            jumps[(1 << i) * n + i] = 0
        for mask in range(1, size):
            base = mask * n
            for last in range(n):
                # Compare by value, not identity: `current is _INFINITY`
                # only held by CPython object-sharing accident and breaks
                # once DP state crosses a pickle boundary into a worker.
                current = jumps[base + last]
                if math.isinf(current):
                    continue
                if not (mask >> last) & 1:
                    continue
                good = adjacency[last] & ~mask
                remaining = ~mask & (size - 1)
                while remaining:
                    low = remaining & (-remaining)
                    remaining ^= low
                    nxt = low.bit_length() - 1
                    step = 0 if (good >> nxt) & 1 else 1
                    slot = (mask | low) * n + nxt
                    if current + step < jumps[slot]:
                        jumps[slot] = current + step
        best = min(jumps[(size - 1) * n + last] for last in range(n))
    assert not math.isinf(best)
    return int(best)


def held_karp_effective_cost(graph: AnyGraph) -> int:
    """``π(G)`` via the Held–Karp DP: ``m + 1 + J_min − β₀``.

    Independent of the path-partition engine; used as a second opinion in
    tests.  Limited to graphs whose edge count is at most 18.
    """
    m = graph.num_edges
    if m == 0:
        return 0
    line = line_graph(graph)
    with obs_trace.span("solver.held_karp"):
        j_min = held_karp_min_jumps(line)
    if obs_recorder.ON:
        obs_metrics.inc("solver.held_karp.solves")
        # 2^n * n DP cells relaxed — the TSP-relaxation work counter.
        obs_metrics.inc(
            "solver.held_karp.relaxations", (1 << line.num_vertices) * line.num_vertices
        )
    return m + 1 + j_min - betti_number(graph)
