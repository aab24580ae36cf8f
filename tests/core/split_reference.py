"""The split-per-solver solve path, kept as a test oracle.

Before the one-pass decomposition, every solver, ``polish_scheme``, the
lower bound, the registry and the batch paths each copied the graph
without its isolated vertices and split it into components again.  This
module keeps that path: the same per-component library functions
(``dfs_approx.component_tour_ids``, ``biclique_tour``, …) driven by a
fresh ``without_isolated_vertices()`` + ``component_vertex_sets`` +
``subgraph`` split at every entry point, each component interned on its
own (``EdgeTable.intern(component.edges())``) and its tour taken back to
edges (``table.pairs``): :func:`dfs_tour`, :func:`greedy_tour` and
:func:`polished_tour`, which other tests use as the library's tours of
edges.  Exact search runs on the line-graph compile of
``tests/core/exact_reference.py``.  The library's single-split ``solve``,
``solve_many`` and server dispatcher must return exactly what this
returns.
"""

from __future__ import annotations

from repro.core.lower_bounds import path_partition_lower_bound
from repro.core.scheme import PebblingScheme
from repro.core.solvers import dfs_approx, greedy, local_search
from repro.core.solvers.equijoin import biclique_tour
from repro.core.solvers.exact import DEFAULT_NODE_BUDGET
from repro.core.solvers.registry import (
    AUTO_EXACT_EDGE_LIMIT,
    SolveResult,
    _status_of,
)
from repro.errors import BudgetExhaustedError, InstanceTooLargeError, SolverError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import betti_number, component_vertex_sets
from repro.graphs.line_graph import EdgeTable, line_graph
from repro.parallel.cache import cache_key
from repro.parallel.fingerprint import canonical_form
from repro.parallel.service import _merge_provenance, _merge_status, rebind_result
from repro.runtime.budget import Budget, current_budget
from repro.runtime.anytime import (
    DEGRADED_STATUSES,
    STATUS_COMPLETE,
    STATUS_OPTIMAL,
    SolveProvenance,
)
from tests.core.exact_reference import optimal_component_tour


def _components(graph) -> list:
    working = graph.without_isolated_vertices()
    return [working.subgraph(vs) for vs in component_vertex_sets(working)]


def dfs_tour(component) -> tuple[list, int]:
    """The library's Theorem 3.1 tour of one connected component, on its
    own edge table, as its edges: ``(tour, chunk_count)``."""
    table = EdgeTable.intern(component.edges())
    ids, chunks = dfs_approx.component_tour_ids(table)
    return table.pairs(ids), chunks


def greedy_tour(component) -> list:
    """The library's greedy tour of one connected component, as its edges."""
    table = EdgeTable.intern(component.edges())
    return table.pairs(greedy.component_tour_ids(table))


def polished_tour(tour: list, budget=None) -> list:
    """The library's local search on one component's tour of edges:
    interned once, searched on edge ids, taken back to edges."""
    table = EdgeTable.intern(tour)
    ids = list(range(len(tour)))
    better, _removed = local_search._local_optimum(table, ids, budget=budget)
    return table.pairs(better)


def _scheme(graph, flat: list) -> PebblingScheme:
    return PebblingScheme.from_edge_order(graph.without_isolated_vertices(), flat)


def is_union_of_bicliques(graph) -> bool:
    return all(c.is_complete_bipartite() for c in _components(graph))


def solve_equijoin(graph) -> PebblingScheme:
    tour: list = []
    for component in _components(graph):
        if not component.is_complete_bipartite():
            raise SolverError("component is not complete bipartite")
        tour.extend(biclique_tour(component))
    return _scheme(graph, tour)


def solve_exact(graph, node_budget=DEFAULT_NODE_BUDGET, budget=None):
    flat: list = []
    for component in _components(graph):
        flat.extend(optimal_component_tour(component, node_budget, budget=budget)[0])
    return _scheme(graph, flat)


def solve_dfs_approx(graph, budget=None) -> PebblingScheme:
    flat: list = []
    for component in _components(graph):
        if budget is not None:
            budget.poll(max(1, component.num_edges))
        flat.extend(dfs_tour(component)[0])
    return _scheme(graph, flat)


def solve_greedy(graph, budget=None) -> PebblingScheme:
    flat: list = []
    for component in _components(graph):
        if budget is not None:
            budget.poll(max(1, component.num_edges))
        flat.extend(greedy_tour(component))
    return _scheme(graph, flat)


def polish_scheme(graph, scheme, budget=None) -> PebblingScheme:
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
    for index in sorted(by_component):
        flat.extend(polished_tour(by_component[index], budget=budget))
    return PebblingScheme.from_edge_order(working, flat)


def effective_cost_lower_bound(graph) -> int:
    jumps = 0
    for vertex_set in component_vertex_sets(graph):
        sub = graph.subgraph(vertex_set)
        if sub.num_edges:
            jumps += path_partition_lower_bound(line_graph(sub)) - 1
    return graph.num_edges + jumps


def _max_component_edges(graph) -> int:
    working = graph.without_isolated_vertices()
    return max(
        (
            sum(working.degree(v) for v in vs) // 2
            for vs in component_vertex_sets(working)
        ),
        default=0,
    )


def _wrap(graph, scheme, method, optimal, budget=None, degradations=(),
          forced_status=None) -> SolveResult:
    working = graph.without_isolated_vertices()
    if forced_status is not None:
        status = forced_status
    elif budget is not None and budget.exhausted:
        status = budget.status()
    else:
        status = STATUS_OPTIMAL if optimal else STATUS_COMPLETE
    if status in DEGRADED_STATUSES or degradations:
        optimal = False
    provenance = None
    if budget is not None or degradations:
        provenance = SolveProvenance(
            nodes_expanded=budget.nodes_charged if budget is not None else 0,
            elapsed_seconds=budget.elapsed() if budget is not None else 0.0,
            lower_bound=effective_cost_lower_bound(working),
            degradations=tuple(degradations),
        )
    return SolveResult(
        scheme=scheme,
        method=method,
        effective_cost=scheme.cost() - betti_number(working),
        raw_cost=scheme.cost(),
        jumps=scheme.jumps(),
        optimal=optimal,
        status=status,
        provenance=provenance,
    )


def _solve_exact(graph, budget, degradations, **options) -> SolveResult:
    hard_limit = options.get("node_budget", DEFAULT_NODE_BUDGET)
    if budget is None:
        scheme = solve_exact(graph, node_budget=hard_limit)
        return _wrap(graph, scheme, "exact", True, degradations=degradations)
    try:
        scheme = solve_exact(graph, node_budget=hard_limit, budget=budget)
        return _wrap(graph, scheme, "exact", True, budget=budget,
                     degradations=degradations)
    except (BudgetExhaustedError, InstanceTooLargeError) as exc:
        degradations = degradations + ("exact->dfs+polish",)
        scheme = polish_scheme(graph, solve_dfs_approx(graph), budget=budget)
        return _wrap(graph, scheme, "dfs+polish", False, budget=budget,
                     degradations=degradations, forced_status=_status_of(exc))


def _solve(graph, method, budget=None, degradations=(), **options) -> SolveResult:
    if method == "auto":
        if isinstance(graph, BipartiteGraph) and is_union_of_bicliques(graph):
            return _solve(graph, "equijoin", budget, degradations)
        limit = options.get("exact_edge_limit", AUTO_EXACT_EDGE_LIMIT)
        if _max_component_edges(graph) <= limit:
            try:
                return _solve_exact(graph, budget, degradations, **options)
            except InstanceTooLargeError as exc:
                degradations = degradations + ("exact->dfs+polish",)
                result = _solve(graph, "dfs+polish", budget, degradations, **options)
                return _wrap(graph, result.scheme, "dfs+polish", False,
                             budget=budget, degradations=degradations,
                             forced_status=_status_of(exc))
        return _solve(graph, "dfs+polish", budget, degradations, **options)
    if method == "equijoin":
        return _wrap(graph, solve_equijoin(graph), method, True,
                     degradations=degradations)
    if method == "exact":
        return _solve_exact(graph, budget, degradations, **options)
    if method in ("dfs", "dfs+polish"):
        scheme = solve_dfs_approx(graph, budget=budget)
    else:
        scheme = solve_greedy(graph, budget=budget)
    if method.endswith("+polish"):
        scheme = polish_scheme(graph, scheme, budget=budget)
    return _wrap(graph, scheme, method, False, budget=budget,
                 degradations=degradations)


def solve(graph, method: str = "auto", **options) -> SolveResult:
    """``registry.solve``, split per solver."""
    budget = options.pop("budget", None)
    deadline = options.pop("deadline", None)
    clock = options.pop("clock", None)
    if budget is None and deadline is not None:
        budget = Budget(deadline=deadline, clock=clock)
    if budget is None:
        budget = current_budget()
    return _solve(graph, method, budget, **options)


def _assemble(graph, method, results) -> SolveResult:
    working = graph.without_isolated_vertices()
    if not results:
        return SolveResult(PebblingScheme(()), method, 0, 0, 0, True, STATUS_OPTIMAL)
    if len(results) == 1:
        return results[0]
    scheme = results[0].scheme
    for part in results[1:]:
        scheme = scheme.concat(part.scheme)
    methods = {r.method for r in results}
    status = _merge_status([r.status for r in results])
    return SolveResult(
        scheme=scheme,
        method=methods.pop() if len(methods) == 1 else method,
        effective_cost=scheme.effective_cost(working),
        raw_cost=scheme.cost(),
        jumps=scheme.jumps(),
        optimal=all(r.optimal for r in results) and status == STATUS_OPTIMAL,
        status=status,
        provenance=_merge_provenance(results),
    )


def solve_many(graphs, method: str = "auto", **options) -> list[SolveResult]:
    """``solve_many`` with no cache and no deadline, split per graph and
    again per component solve."""
    plans = []
    solved: dict = {}
    rep_forms: dict = {}
    for graph in graphs:
        keys = []
        for component in _components(graph):
            form = canonical_form(component)
            key = cache_key(form, method, options)
            keys.append((key, form))
            if key not in solved:
                rep_forms[key] = form
                solved[key] = solve(component, method, **options)
        plans.append(keys)
    return [
        _assemble(
            graph,
            method,
            [rebind_result(solved[k], rep_forms[k], form) for k, form in keys],
        )
        for graph, keys in zip(graphs, plans)
    ]
