"""Ablation benchmarks for the design choices DESIGN.md calls out.

- exact solver: the biclique closed form vs generic search, and
  constrained-first ordering vs raw order;
- join-graph extraction: accelerated predicate paths vs naive evaluation;
- local-search polish: improvement over each constructive heuristic;
- the auto router: which method it picks per instance shape.
"""

import time

from repro.analysis.report import Table
from repro.graphs.generators import random_connected_bipartite, union_of_bicliques
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Equality, SetContainment, SpatialOverlap
from repro.core.families import worst_case_family
from repro.core.solvers.exact import optimal_component_tour
from repro.core.solvers.registry import solve
from repro.workloads.equijoin import zipf_equijoin_workload
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import uniform_rectangles_workload


def test_ablation_biclique_fast_path(emit):
    """The closed-form biclique answer vs raw search on the same input."""
    from repro.graphs.generators import complete_bipartite
    from repro.graphs.line_graph import EdgeTable
    from repro.core.solvers.exact import _PathPartitionSearch, line_masks

    table = Table(
        ["k x l", "m", "fast_path_s", "raw_search_s"],
        title="Ablation: biclique closed form vs generic search",
    )
    for k, l in ((3, 3), (4, 4), (4, 5)):
        g = complete_bipartite(k, l)
        edges = EdgeTable.intern(g.edges())
        start = time.perf_counter()
        optimal_component_tour(g, edges)
        fast = time.perf_counter() - start
        start = time.perf_counter()
        search = _PathPartitionSearch(line_masks(edges), node_budget=5_000_000)
        search.solve(1)
        raw = time.perf_counter() - start
        table.add_row([f"{k}x{l}", g.num_edges, round(fast, 5), round(raw, 5)])
    emit("ablation_biclique_fast_path", table)


def test_ablation_search_ordering(emit):
    """Most-constrained-first ordering vs raw order in the exact search.

    On the corona family the heuristic collapses the search to near-linear
    effort; without it the same instances take orders of magnitude more
    nodes (budget-capped).
    """
    from repro.errors import InstanceTooLargeError
    from repro.core.solvers.exact import exact_search_effort

    budget = 300_000

    def probe(graph, use_ordering):
        try:
            return exact_search_effort(graph, use_ordering=use_ordering, node_budget=budget)
        except InstanceTooLargeError:
            return budget

    table = Table(
        ["instance", "m", "nodes(ordered)", "nodes(raw)"],
        title="Ablation: constrained-first search ordering",
    )
    for n in (6, 8, 10):
        g = worst_case_family(n)
        table.add_row(
            [f"G_{n}", g.num_edges, probe(g, True), probe(g, False)]
        )
    for seed in (1,):
        g = random_connected_bipartite(8, 8, extra_edges=2, seed=seed)
        table.add_row(
            [f"tree+2 (seed {seed})", g.num_edges, probe(g, True), probe(g, False)]
        )
    emit("ablation_search_ordering", table)
    for row in table._rows:
        assert int(row[2]) <= int(row[3])


def test_ablation_polish(emit):
    """How much local search buys on top of each constructive heuristic."""
    graphs = [
        random_connected_bipartite(6, 6, extra_edges=4, seed=700 + s)
        for s in range(6)
    ] + [worst_case_family(10)]

    table = Table(
        ["method", "mean_pi_raw", "mean_pi_polished", "jumps_removed"],
        title="Ablation: local-search polish on top of heuristics",
    )
    for method in ("dfs", "greedy"):
        raw_total = polished_total = removed = 0
        for g in graphs:
            raw = solve(g, method)
            polished = solve(g, method + "+polish")
            raw_total += raw.effective_cost
            polished_total += polished.effective_cost
            removed += raw.jumps - polished.jumps
        table.add_row(
            [
                method,
                round(raw_total / len(graphs), 2),
                round(polished_total / len(graphs), 2),
                removed,
            ]
        )
    emit("ablation_polish", table)
    for row in table._rows:
        assert float(row[2]) <= float(row[1])


def test_ablation_join_graph_acceleration(emit):
    """Accelerated join-graph extraction vs the naive cross product."""
    workloads = [
        ("equality/hash", Equality(), zipf_equijoin_workload(120, 120, key_universe=30, seed=1)),
        ("spatial/sweep", SpatialOverlap(), uniform_rectangles_workload(120, 120, seed=1)),
        (
            "containment/inverted",
            SetContainment(),
            zipf_sets_workload(80, 80, universe=25, left_size=2, right_size=6, seed=1),
        ),
    ]

    table = Table(
        ["predicate", "m", "accelerated_s", "naive_s", "speedup"],
        title="Ablation: accelerated join-graph extraction vs naive",
    )
    for name, predicate, (left, right) in workloads:
        start = time.perf_counter()
        fast = build_join_graph(left, right, predicate)
        fast_s = time.perf_counter() - start
        start = time.perf_counter()
        slow = build_join_graph(left, right, predicate, accelerate=False)
        slow_s = time.perf_counter() - start
        assert fast == slow
        table.add_row(
            [
                name,
                fast.num_edges,
                round(fast_s, 4),
                round(slow_s, 4),
                round(slow_s / max(fast_s, 1e-9), 1),
            ]
        )
    emit("ablation_join_graph_acceleration", table)


def test_ablation_auto_method_choice(emit):
    """The auto router picks a guaranteed-optimal method whenever cheap."""
    cases = [
        ("equijoin graph", union_of_bicliques([(3, 3)] * 20)),
        ("small hard graph", worst_case_family(6)),
        ("large graph", worst_case_family(50)),
    ]

    table = Table(
        ["instance", "m", "chosen_method", "optimal_flag", "pi"],
        title="Ablation: automatic solver selection",
    )
    for name, g in cases:
        result = solve(g)
        table.add_row([name, g.num_edges, result.method, result.optimal,
                       result.effective_cost])
    emit("ablation_auto_method", table)
