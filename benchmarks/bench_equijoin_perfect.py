"""E-T3.2 / E-T4.1: equijoin perfect pebbling in linear time.

Regenerates: the perfect-pebbling table (π = m on every equijoin graph)
and the linear-runtime series of Theorem 4.1, gated on its log-log slope.
Times: the linear solver on a mid-size instance.
"""

from scaling import best_cpu_seconds, loglog_slope

from repro.analysis.experiments import equijoin_perfect_experiment
from repro.analysis.report import Table
from repro.graphs.generators import union_of_bicliques
from repro.core.solvers.equijoin import solve_equijoin
from repro.core.solvers.registry import solve

# Theorem 4.1 is linear; a slope above this bound means some step of
# solve(g, "auto") grows faster than the edge count.
MAX_SLOPE = 1.25


def test_equijoin_perfect_table(benchmark, emit):
    table = benchmark(equijoin_perfect_experiment, (2, 8, 32))
    emit("E-T3.2_equijoin_perfect", table)
    assert all(row[3] == "True" for row in table._rows)


def test_linear_time_series(benchmark, emit):
    """``solve(g, "auto")`` on 2×3 bicliques, m = 2.4k to 38.4k: the whole
    front door (component split, equijoin test, snake tours, validation),
    best of 3 CPU-time runs per size."""
    block_counts = (400, 800, 1600, 3200, 6400)
    graphs = {b: union_of_bicliques([(2, 3)] * b) for b in block_counts}
    points: list[tuple[int, float]] = []

    def series():
        for b in block_counts:
            g = graphs[b]
            points.append(
                (g.num_edges, best_cpu_seconds(lambda: solve(g, "auto")))
            )

    benchmark.pedantic(series, rounds=1, iterations=1)
    slope = loglog_slope(*zip(*points))
    table = Table(
        ["blocks", "m", "cpu_seconds", "us_per_edge"],
        title=(
            "E-T4.1: equijoin PEBBLE runtime scaling (linear time), "
            f"log-log slope {slope:.2f} (bound {MAX_SLOPE})"
        ),
    )
    for b, (m, seconds) in zip(block_counts, points):
        table.add_row([b, m, round(seconds, 4), round(1e6 * seconds / m, 2)])
    emit("E-T4.1_linear_time", table)
    assert slope <= MAX_SLOPE, f"E-T4.1 slope {slope:.2f} > {MAX_SLOPE}"


def test_equijoin_single_solve(benchmark):
    g = union_of_bicliques([(4, 4)] * 100)
    scheme = benchmark(solve_equijoin, g)
    assert scheme.effective_cost(g) == g.num_edges
