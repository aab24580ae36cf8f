"""E-APPROX: the approximation ladder (§4's approximation discussion).

Regenerates: per-method π against the exact optimum, plus aggregate
ratios.
"""

from repro.analysis.experiments import approx_ladder_experiment
from repro.analysis.report import Table
from repro.graphs.generators import random_connected_bipartite
from repro.core.families import worst_case_family
from repro.core.solvers.registry import solve


def test_approx_ladder_table(emit):
    table = approx_ladder_experiment(seeds=6)
    emit("E-APPROX_ladder", table)
    for row in table._rows:
        exact = int(row[2])
        for cell in row[3:]:
            assert int(cell) >= exact  # nothing beats the optimum


def test_ratio_summary(emit):
    methods = ("dfs", "dfs+polish", "greedy+polish", "matching+polish")
    graphs = [
        random_connected_bipartite(5, 5, extra_edges=3, seed=500 + s)
        for s in range(10)
    ] + [worst_case_family(n) for n in (4, 6, 8)]

    table = Table(
        ["method", "mean_ratio", "worst_ratio"],
        title="E-APPROX: mean/worst pi ratio vs exact optimum",
    )
    for method in methods:
        ratios = []
        for g in graphs:
            exact = solve(g, "exact").effective_cost
            approx = solve(g, method).effective_cost
            ratios.append(approx / exact)
        table.add_row(
            [method, round(sum(ratios) / len(ratios), 4), round(max(ratios), 4)]
        )
    emit("E-APPROX_summary", table)
    # Only the DFS algorithm carries a proven 1.25 certificate (Thm 3.1);
    # the other heuristics are reported without a guarantee.
    for row in table._rows:
        if row[0].startswith("dfs"):
            assert float(row[2]) <= 1.25 + 1e-9
