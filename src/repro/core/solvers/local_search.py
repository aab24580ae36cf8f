"""Local search on TSP(1,2) tours: 2-opt and or-opt for pebbling schemes.

Polishing pass applied on top of any constructive solver.  Operates on the
edge-tour representation; with weights in {1, 2} every improving move
removes at least one jump, so the number of improvement steps is bounded by
the initial jump count and the search is fast in practice.

Moves implemented:

- **2-opt** (segment reversal): replace steps ``(t[i−1], t[i])`` and
  ``(t[j], t[j+1])`` by ``(t[i−1], t[j])`` and ``(t[i], t[j+1])``.  Path
  variant: prefix/suffix reversals touch only one boundary.
- **or-opt** (node relocation): move a single tour node between two
  adjacent tour positions elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import component_vertex_sets
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.core.tsp import edges_share_endpoint, tour_cost
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


def _w(a, b) -> int:
    """TSP(1,2) step weight between two edge nodes."""
    return 1 if edges_share_endpoint(a, b) else 2


def two_opt_pass(tour: list) -> bool:
    """One first-improvement 2-opt sweep; returns True if improved."""
    n = len(tour)
    for i in range(n - 1):
        for j in range(i + 1, n):
            # Reversing tour[i..j]: boundary steps are (i-1, i) and (j, j+1).
            before = 0
            after = 0
            if i > 0:
                before += _w(tour[i - 1], tour[i])
                after += _w(tour[i - 1], tour[j])
            if j < n - 1:
                before += _w(tour[j], tour[j + 1])
                after += _w(tour[i], tour[j + 1])
            if after < before:
                tour[i : j + 1] = reversed(tour[i : j + 1])
                return True
    return False


def or_opt_pass(tour: list) -> bool:
    """One first-improvement single-node relocation sweep."""
    n = len(tour)
    for i in range(n):
        node = tour[i]
        removal_gain = 0
        if i > 0:
            removal_gain += _w(tour[i - 1], node)
        if i < n - 1:
            removal_gain += _w(node, tour[i + 1])
        if 0 < i < n - 1:
            removal_gain -= _w(tour[i - 1], tour[i + 1])
        rest = tour[:i] + tour[i + 1 :]
        for k in range(len(rest) + 1):
            if k == i:
                continue  # reinserting in place
            insertion_cost = 0
            if k > 0:
                insertion_cost += _w(rest[k - 1], node)
            if k < len(rest):
                insertion_cost += _w(node, rest[k])
            if 0 < k < len(rest):
                insertion_cost -= _w(rest[k - 1], rest[k])
            if insertion_cost < removal_gain:
                tour[:] = rest[:k] + [node] + rest[k:]
                return True
    return False


def improve_tour(
    tour: list, max_rounds: int = 10_000, budget: Budget | None = None
) -> list:
    """Run 2-opt and or-opt to a local optimum; returns the improved tour.

    The input list is not modified.  Anytime: the tour is valid between
    passes, so a tripped ``budget`` just stops improving early.
    """
    working = list(tour)
    for _ in range(max_rounds):
        if budget is not None and budget.poll(max(1, len(working))):
            break  # anytime cut between passes; tour stays valid
        if two_opt_pass(working):
            continue
        if or_opt_pass(working):
            continue
        break
    assert tour_cost(working) <= tour_cost(list(tour))
    return working


@dataclass(frozen=True)
class PolishResult:
    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    improvement: int  # jumps removed relative to the input scheme


def polish_scheme(
    graph: AnyGraph, scheme: PebblingScheme, budget: Budget | None = None
) -> PolishResult:
    """Improve a canonical scheme with local search, per component.

    The scheme must be an edge order.  Each component's slice of the order
    is polished independently (cross-component steps are unavoidable jumps).
    """
    working = graph.without_isolated_vertices()
    by_component: dict[int, list] = {}
    component_of: dict = {}
    for index, vertex_set in enumerate(component_vertex_sets(working)):
        for v in vertex_set:
            component_of[v] = index
        by_component[index] = []
    for a, b in scheme.configurations:
        by_component[component_of[a]].append(
            working.orient_edge(a, b)
            if isinstance(working, BipartiteGraph)
            else (a, b)
        )
    flat: list = []
    with obs_trace.span("solver.polish"):
        for index in sorted(by_component):
            flat.extend(improve_tour(by_component[index], budget=budget))
    improved = PebblingScheme.from_edge_order(working, flat)
    if obs_recorder.ON:
        obs_metrics.inc("solver.polish.passes")
        obs_metrics.inc(
            "solver.polish.jumps_removed", scheme.jumps() - improved.jumps()
        )
    return PolishResult(
        scheme=improved,
        effective_cost=improved.effective_cost(working),
        jumps=improved.jumps(),
        improvement=scheme.jumps() - improved.jumps(),
    )
