"""E-T3.1: the 1.25-approximation (Theorem 3.1 / Lemma 3.1).

Regenerates: the DFS-vs-exact quality table, the runtime series of
``solve(g, "dfs")`` for m = 1.2k to 20k, gated on the log-log slope of
its bytecode instruction count (Lemma 3.1's construction is linear; ours
is O(m log m)) and reporting its CPU-time slope beside it, and a
report-only table of dfs, dfs+polish and greedy on the same leafy
family.
"""

from scaling import best_cpu_seconds, loglog_slope, opcode_count

from repro.analysis.experiments import dfs_approx_experiment
from repro.analysis.report import Table
from repro.core.costs import effective_cost_bounds
from repro.graphs.generators import random_connected_bipartite
from repro.core.solvers.registry import solve

# The peel is O(m log m); an instruction-count slope above this bound
# means some step of solve(g, "dfs") grows faster than that.  The count
# reads 1.0002 here; the quadratic peel kept as a test oracle
# (tests/core/quadratic_reference.py) reads 2.5 on m = 76 to 624.
MAX_COUNT_SLOPE = 1.10


def test_dfs_quality_table(emit):
    table = dfs_approx_experiment(8, 6)
    emit("E-T3.1_dfs_quality", table)


def test_dfs_runtime_series(emit):
    """``solve(g, "dfs")`` on random connected bipartite graphs, m = 1.2k
    to 20k, best of 3 CPU-time runs per size; the one scheme build and
    its validation are inside the timed call.  The runs go round-robin
    over the sizes, so a spell of contention on a shared host slows every
    size alike instead of tilting the slope.  The gate is on the slope of
    the instruction counts, which do not depend on the host; the CPU
    slope is reported beside it (on a shared 2-core host it reads
    0.96–1.33 with no code change).  C-level work (sorts, set operations)
    counts as one instruction, so the CPU column stays in the table."""
    sizes = (500, 1000, 2000, 4000, 8000)
    graphs = {
        n: random_connected_bipartite(n, n, extra_edges=n // 2, seed=1)
        for n in sizes
    }
    results = {n: solve(g, "dfs") for n, g in graphs.items()}
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n, g in graphs.items():
            seconds = best_cpu_seconds(lambda: solve(g, "dfs"), runs=1)
            best[n] = min(best[n], seconds)
    instructions = {n: opcode_count(solve, g, "dfs") for n, g in graphs.items()}
    ms = [graphs[n].num_edges for n in sizes]
    slope = loglog_slope(ms, [best[n] for n in sizes])
    count_slope = loglog_slope(ms, [instructions[n] for n in sizes])
    table = Table(
        [
            "n", "m", "pi_dfs", "guarantee", "cpu_seconds", "us_per_edge",
            "instr_per_edge",
        ],
        title=(
            "E-T3.1: DFS algorithm runtime scaling (Lemma 3.1), "
            f"log-log slope {slope:.2f} (report only), "
            f"instruction-count slope {count_slope:.4f} "
            f"(bound {MAX_COUNT_SLOPE:.2f})"
        ),
    )
    for n, m in zip(sizes, ms):
        table.add_row(
            [
                n,
                m,
                results[n].effective_cost,
                effective_cost_bounds(graphs[n])[1],
                round(best[n], 4),
                round(1e6 * best[n] / m, 2),
                round(instructions[n] / m, 1),
            ]
        )
    emit("E-T3.1_dfs_runtime", table)
    assert count_slope <= MAX_COUNT_SLOPE, (
        f"E-T3.1 instruction-count slope {count_slope:.4f} > {MAX_COUNT_SLOPE}"
    )


def test_polish_runtime_table(emit):
    """dfs, dfs+polish and greedy through ``solve`` on the leafy family at
    m = 1,249 and 3,124, one CPU-time run each.  Report only: no slope is
    gated, since the polish is superlinear on the family's hub."""
    table = Table(
        [
            "n", "m",
            "dfs_pi", "dfs_jumps", "dfs_s",
            "polish_pi", "polish_jumps", "polish_s",
            "greedy_pi", "greedy_jumps", "greedy_s",
        ],
        title="E-POLISH: dfs, dfs+polish and greedy on the leafy family",
    )
    for n in (500, 1250):
        graph = random_connected_bipartite(n, n, extra_edges=n // 2, seed=1)
        m = graph.num_edges
        row: list = [n, m]
        jumps = {}
        for method in ("dfs", "dfs+polish", "greedy"):
            out: list = []
            seconds = best_cpu_seconds(lambda: out.append(solve(graph, method)), runs=1)
            (result,) = out
            jumps[method] = result.jumps
            row += [result.effective_cost, result.jumps, round(seconds, 3)]
            # greedy has no proven bound; on these fixed inputs it is far inside.
            assert m <= result.effective_cost <= 1.25 * m, (method, n)
        assert jumps["dfs+polish"] <= jumps["dfs"]
        table.add_row(row)
    emit("E-POLISH_runtime", table)
