"""Simulated annealing for TSP(1,2) pebbling tours.

The last rung of the heuristic ladder: start from the best constructive
solution (DFS 1.25 algorithm), then anneal with 2-opt reversals and
single-edge relocations, accepting uphill moves with temperature-scheduled
probability.  With integer costs and the optimum frequently equal to
``m``, annealing usually lands exactly on the optimum for mid-size
instances where exact search is already expensive — the benchmark
``bench_approx_quality`` quantifies this.

Deterministic given the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, decompose
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.core.solvers.dfs_approx import component_tour_dfs
from repro.core.tsp import edges_share_endpoint, tour_cost
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


@dataclass(frozen=True)
class AnnealResult:
    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    steps_accepted: int


def _w(a, b) -> int:
    return 1 if edges_share_endpoint(a, b) else 2


def anneal_component_tour(
    tour: list,
    rng: random.Random,
    steps: int = 4000,
    start_temperature: float = 1.5,
    budget: Budget | None = None,
) -> tuple[list, int]:
    """Anneal one component's tour in place semantics (returns a new list).

    Returns ``(tour, accepted_moves)``.  Anytime: the start tour is always
    a full valid tour, so a tripped ``budget`` just ends the annealing loop
    early and returns the best tour seen so far.
    """
    n = len(tour)
    if n < 3:
        return list(tour), 0
    current = list(tour)
    cost = tour_cost(current)
    best = list(current)
    best_cost = cost
    accepted = 0
    temperature = start_temperature
    cooling = 0.999
    for _ in range(steps):
        if best_cost == n - 1:
            break  # perfect tour: no jumps left to remove
        if budget is not None and budget.poll():
            break  # anytime cut: keep the best tour found so far
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        # 2-opt delta for reversing current[i..j].
        delta = 0
        if i > 0:
            delta += _w(current[i - 1], current[j]) - _w(current[i - 1], current[i])
        if j < n - 1:
            delta += _w(current[i], current[j + 1]) - _w(current[j], current[j + 1])
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-6)):
            current[i : j + 1] = reversed(current[i : j + 1])
            cost += delta
            accepted += 1
            if cost < best_cost:
                best_cost = cost
                best = list(current)
        temperature *= cooling
    return best, accepted


def solve_anneal(
    graph: AnyGraph | Decomposition,
    seed: int = 0, steps: int = 4000, budget: Budget | None = None
) -> AnnealResult:
    """Anneal every component from the DFS constructive start."""
    parts = decompose(graph)
    rng = random.Random(seed)
    flat: list = []
    accepted_total = 0
    with obs_trace.span("solver.anneal"):
        for component in parts.components:
            start, _chunks = component_tour_dfs(component)
            tour, accepted = anneal_component_tour(
                start, rng, steps=steps, budget=budget
            )
            flat.extend(tour)
            accepted_total += accepted
    if obs_recorder.ON:
        obs_metrics.inc("solver.anneal.solves")
        obs_metrics.inc("solver.anneal.moves_accepted", accepted_total)
    scheme = PebblingScheme.from_edge_order(parts.graph, flat)
    return AnnealResult(
        scheme=scheme,
        effective_cost=scheme.cost() - parts.betti,
        jumps=scheme.jumps(),
        steps_accepted=accepted_total,
    )
