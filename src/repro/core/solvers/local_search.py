"""Local search on TSP(1,2) tours: 2-opt and or-opt for pebbling schemes.

Polishing pass applied on top of any constructive solver.  Operates on the
edge-tour representation; with weights in {1, 2} every improving move
removes at least one jump, so the number of improvement steps is bounded by
the initial jump count.

Moves implemented, both first-improvement in ``(i, j)`` / ``(i, k)`` order:

- **2-opt** (segment reversal): replace steps ``(t[i−1], t[i])`` and
  ``(t[j], t[j+1])`` by ``(t[i−1], t[j])`` and ``(t[i], t[j+1])``.  Path
  variant: prefix/suffix reversals touch only one boundary.
- **or-opt** (node relocation): move a single tour node between two
  adjacent tour positions elsewhere.

Two things keep a pass cheap without changing which move it takes:

- *Interned endpoints.*  :func:`improve_tour` maps each component's tour
  once to pairs of small ints (equal vertices get equal ints), so the
  weight test is four int comparisons instead of two hashed vertex sets.
- *Jump-local moves.*  A move replaces one to three tour steps by as many
  new ones, each of weight ≥ 1; if every replaced step has weight 1 the
  move cannot lower the cost.  So an improving move must break a jump.
  For a start ``i`` whose own broken steps are not jumps, only the
  partners ``j`` / ``k`` that break a jump are tried, in the same
  increasing order.  A pass costs ``O(m)`` to find the ``J`` jumps plus
  ``O(J·m)`` candidate moves instead of ``O(m²)``, and a tour with no
  jump is certified locally optimal by that one ``O(m)`` scan.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Hashable
from dataclasses import dataclass

from repro.graphs.bipartite import BipartiteGraph
# component_vertex_sets stays imported: perfbench/tracer.py wraps it here.
from repro.graphs.components import Decomposition, component_vertex_sets, decompose
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.core.tsp import edges_share_endpoint, tour_cost
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph
Adjacency = Callable[[Hashable, Hashable], bool]


def _jumps(tour: list, adjacent: Adjacency) -> list[int]:
    """Positions ``p`` whose step ``(tour[p], tour[p+1])`` is a jump."""
    return [
        p for p in range(len(tour) - 1) if not adjacent(tour[p], tour[p + 1])
    ]


def two_opt_pass(tour: list, adjacent: Adjacency) -> bool:
    """One first-improvement 2-opt sweep; returns True if improved.

    ``adjacent(a, b)`` is the weight-1 test.  Reversing ``tour[i..j]``
    breaks steps ``(i-1, i)`` and ``(j, j+1)``; when the first is not a
    jump, only ``j`` at a jump can improve, so only those are tried.
    """
    jumps = _jumps(tour, adjacent)
    if not jumps:
        return False
    is_jump = set(jumps)

    def w(a, b) -> int:
        return 1 if adjacent(a, b) else 2

    n = len(tour)
    for i in range(n - 1):
        if i - 1 in is_jump:
            partners = range(i + 1, n)
        else:
            partners = jumps[bisect_right(jumps, i) :]
        for j in partners:
            before = 0
            after = 0
            if i > 0:
                before += w(tour[i - 1], tour[i])
                after += w(tour[i - 1], tour[j])
            if j < n - 1:
                before += w(tour[j], tour[j + 1])
                after += w(tour[i], tour[j + 1])
            if after < before:
                tour[i : j + 1] = reversed(tour[i : j + 1])
                return True
    return False


def or_opt_pass(tour: list, adjacent: Adjacency) -> bool:
    """One first-improvement single-node relocation sweep.

    Moving ``tour[i]`` to slot ``k`` of the tour without it breaks the
    steps around ``i`` and the step the node is inserted into; when neither
    step around ``i`` is a jump, only slots inside a jump are tried.
    """
    jumps = _jumps(tour, adjacent)
    if not jumps:
        return False
    is_jump = set(jumps)

    def w(a, b) -> int:
        return 1 if adjacent(a, b) else 2

    n = len(tour)
    for i in range(n):
        node = tour[i]
        removal_gain = 0
        if i > 0:
            removal_gain += w(tour[i - 1], node)
        if i < n - 1:
            removal_gain += w(node, tour[i + 1])
        if 0 < i < n - 1:
            removal_gain -= w(tour[i - 1], tour[i + 1])
        if i - 1 in is_jump or i in is_jump:
            slots = range(n)
        else:
            # Slot k sits between rest[k-1] and rest[k]; the jump at p is
            # slot p+1 before i and slot p after it.
            slots = [p + 1 if p < i else p for p in jumps]
        for k in slots:
            if k == i:
                continue  # reinserting in place
            # rest = tour without tour[i]; rest[x] is tour[x] or tour[x+1].
            insertion_cost = 0
            if k > 0:
                previous = tour[k - 1] if k - 1 < i else tour[k]
                insertion_cost += w(previous, node)
            if k < n - 1:
                following = tour[k] if k < i else tour[k + 1]
                insertion_cost += w(node, following)
            if 0 < k < n - 1:
                insertion_cost -= w(previous, following)
            if insertion_cost < removal_gain:
                del tour[i]
                tour.insert(k, node)
                return True
    return False


def improve_tour(
    tour: list, max_rounds: int = 10_000, budget: Budget | None = None
) -> list:
    """Run 2-opt and or-opt to a local optimum; returns the improved tour.

    The input list is not modified.  The tour's edges are interned once to
    int endpoint pairs, searched, and mapped back.  Anytime: the tour is
    valid between passes, so a tripped ``budget`` just stops improving
    early.
    """
    ids: dict = {}
    working = [
        (ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
        for a, b in tour
    ]
    edge_of = dict(zip(working, tour))
    for _ in range(max_rounds):
        if budget is not None and budget.poll(max(1, len(working))):
            break  # anytime cut between passes; tour stays valid
        if two_opt_pass(working, edges_share_endpoint):
            continue
        if or_opt_pass(working, edges_share_endpoint):
            continue
        break
    improved = [edge_of[pair] for pair in working]
    assert tour_cost(improved) <= tour_cost(list(tour))
    return improved


@dataclass(frozen=True)
class PolishResult:
    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    improvement: int  # jumps removed relative to the input scheme


def polish_scheme(
    graph: AnyGraph | Decomposition,
    scheme: PebblingScheme,
    budget: Budget | None = None,
) -> PolishResult:
    """Improve a canonical scheme with local search, per component.

    The scheme must be an edge order.  Each component's slice of the order
    is polished independently (cross-component steps are unavoidable jumps).
    """
    parts = decompose(graph)
    by_component: list[list] = [[] for _ in parts.components]
    component_of = {
        v: index
        for index, component in enumerate(parts.components)
        for v in component
    }
    bipartite = isinstance(parts.graph, BipartiteGraph)
    for a, b in scheme.configurations:
        by_component[component_of[a]].append(
            parts.graph.orient_edge(a, b) if bipartite else (a, b)
        )
    flat: list = []
    with obs_trace.span("solver.polish"):
        for tour in by_component:
            flat.extend(improve_tour(tour, budget=budget))
    improved = PebblingScheme.from_edge_order(parts.graph, flat)
    if obs_recorder.ON:
        obs_metrics.inc("solver.polish.passes")
        obs_metrics.inc(
            "solver.polish.jumps_removed", scheme.jumps() - improved.jumps()
        )
    return PolishResult(
        scheme=improved,
        effective_cost=improved.cost() - parts.betti,
        jumps=improved.jumps(),
        improvement=scheme.jumps() - improved.jumps(),
    )
