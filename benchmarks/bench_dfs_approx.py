"""E-T3.1: the 1.25-approximation (Theorem 3.1 / Lemma 3.1).

Regenerates: the DFS-vs-exact quality table, and the runtime series of
``solve_dfs_approx`` for m = 1.2k to 20k, gated on its log-log slope
(Lemma 3.1's construction is linear; ours is O(m log m)).
"""

from scaling import best_cpu_seconds, loglog_slope

from repro.analysis.experiments import dfs_approx_experiment
from repro.analysis.report import Table
from repro.graphs.generators import random_connected_bipartite
from repro.core.solvers.dfs_approx import solve_dfs_approx

# The peel is O(m log m); a slope above this bound means some step of
# solve_dfs_approx grows faster than that (the quadratic peel measured 2.2).
MAX_SLOPE = 1.15


def test_dfs_quality_table(emit):
    table = dfs_approx_experiment(8, 6)
    emit("E-T3.1_dfs_quality", table)


def test_dfs_runtime_series(emit):
    """``solve_dfs_approx`` on random connected bipartite graphs, m = 1.2k
    to 20k, best of 3 CPU-time runs per size.  The runs go round-robin over
    the sizes, so a spell of contention on a shared host slows every size
    alike instead of tilting the slope."""
    sizes = (500, 1000, 2000, 4000, 8000)
    graphs = {
        n: random_connected_bipartite(n, n, extra_edges=n // 2, seed=1)
        for n in sizes
    }
    results = {n: solve_dfs_approx(g) for n, g in graphs.items()}
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n, g in graphs.items():
            seconds = best_cpu_seconds(lambda: solve_dfs_approx(g), runs=1)
            best[n] = min(best[n], seconds)
    points = [(graphs[n].num_edges, best[n]) for n in sizes]
    slope = loglog_slope(*zip(*points))
    table = Table(
        ["n", "m", "pi_dfs", "guarantee", "cpu_seconds", "us_per_edge"],
        title=(
            "E-T3.1: DFS algorithm runtime scaling (Lemma 3.1), "
            f"log-log slope {slope:.2f} (bound {MAX_SLOPE})"
        ),
    )
    for n, (m, seconds) in zip(sizes, points):
        result = results[n]
        table.add_row(
            [
                n,
                m,
                result.effective_cost,
                result.guarantee,
                round(seconds, 4),
                round(1e6 * seconds / m, 2),
            ]
        )
    emit("E-T3.1_dfs_runtime", table)
    assert slope <= MAX_SLOPE, f"E-T3.1 slope {slope:.2f} > {MAX_SLOPE}"
