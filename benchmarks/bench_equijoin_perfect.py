"""E-T3.2 / E-T4.1: equijoin perfect pebbling in linear time.

Regenerates: the perfect-pebbling table (π = m on every equijoin graph),
the linear-runtime series of Theorem 4.1 on a ready graph, and the
relations → scheme series (join-graph extraction plus the solve), each
gated on the log-log slope of its bytecode instruction count, with the
CPU-time slope reported beside it.
"""

from scaling import best_cpu_seconds, loglog_slope, opcode_count

from repro.analysis.experiments import equijoin_perfect_experiment
from repro.analysis.report import Table
from repro.graphs.generators import union_of_bicliques
from repro.core.solvers.equijoin import solve_equijoin
from repro.core.solvers.registry import solve
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Equality
from repro.workloads.equijoin import fk_pk_workload

# Theorem 4.1 is linear; an instruction-count slope above this bound means
# some step of solve(g, "auto"), or of relations -> scheme, grows faster
# than the edge count.  The count does not depend on the host.
MAX_COUNT_SLOPE = 1.10


def test_equijoin_perfect_table(emit):
    table = equijoin_perfect_experiment((2, 8, 32))
    emit("E-T3.2_equijoin_perfect", table)
    assert all(row[3] == "True" for row in table._rows)


def test_linear_time_series(emit):
    """``solve(g, "auto")`` on 2×3 bicliques, m = 2.4k to 38.4k: the whole
    front door (component split, equijoin test, snake tours, validation,
    cost walk).  The gate is on the slope of the instruction counts; the
    CPU slope (best of 3 runs per size) is reported beside it, since on a
    shared 2-core host it read 1.03–1.30 with no code change."""
    block_counts = (400, 800, 1600, 3200, 6400)
    graphs = {b: union_of_bicliques([(2, 3)] * b) for b in block_counts}
    ms = [g.num_edges for g in graphs.values()]
    seconds = [best_cpu_seconds(lambda: solve(g, "auto")) for g in graphs.values()]
    instructions = [opcode_count(solve, g, "auto") for g in graphs.values()]
    slope = loglog_slope(ms, seconds)
    count_slope = loglog_slope(ms, instructions)
    table = Table(
        ["blocks", "m", "cpu_seconds", "us_per_edge", "instr_per_edge"],
        title=(
            "E-T4.1: equijoin PEBBLE runtime scaling (linear time), "
            f"log-log slope {slope:.2f} (report only), "
            f"instruction-count slope {count_slope:.4f} "
            f"(bound {MAX_COUNT_SLOPE:.2f})"
        ),
    )
    for b, m, cpu, count in zip(block_counts, ms, seconds, instructions):
        table.add_row(
            [b, m, round(cpu, 4), round(1e6 * cpu / m, 2), round(count / m, 1)]
        )
    emit("E-T4.1_linear_time", table)
    assert count_slope <= MAX_COUNT_SLOPE, (
        f"E-T4.1 instruction-count slope {count_slope:.4f} > {MAX_COUNT_SLOPE}"
    )


def relations_to_scheme(left, right):
    return solve(build_join_graph(left, right, Equality()), "auto")


def test_relations_to_scheme_series(emit):
    """``build_join_graph(R, S, Equality())`` then ``solve(g, "auto")`` on
    fk-pk relations, m = 1.2k to 19.2k facts: hash extraction, the split
    from its buckets, the snake tours and the scheme validation.  The gate
    is on the instruction-count slope; the CPU time (best of 3 runs, round
    robin over the sizes) is reported beside it.  Hashing and set work
    run in C and count as one instruction each, so the CPU column stays
    in the table."""
    sizes = (1200, 2400, 4800, 9600, 19200)
    relations = {n: fk_pk_workload(n, (3 * n) // 5, seed=1) for n in sizes}
    results = {n: relations_to_scheme(*rel) for n, rel in relations.items()}
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n, rel in relations.items():
            seconds = best_cpu_seconds(lambda: relations_to_scheme(*rel), runs=1)
            best[n] = min(best[n], seconds)
    instructions = {
        n: opcode_count(relations_to_scheme, *rel) for n, rel in relations.items()
    }
    ms = [len(results[n].scheme) for n in sizes]
    slope = loglog_slope(ms, [best[n] for n in sizes])
    count_slope = loglog_slope(ms, [instructions[n] for n in sizes])
    table = Table(
        ["facts", "m", "pi", "cpu_seconds", "us_per_edge", "instr_per_edge"],
        title=(
            "E-T4.1: equijoin relations -> scheme scaling, "
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
                round(best[n], 4),
                round(1e6 * best[n] / m, 2),
                round(instructions[n] / m, 1),
            ]
        )
    emit("E-T4.1_relations_to_scheme", table)
    assert all(
        r.method == "equijoin" and r.effective_cost == m
        for r, m in zip(results.values(), ms)
    )
    assert count_slope <= MAX_COUNT_SLOPE, (
        f"E-T4.1 instruction-count slope {count_slope:.4f} > {MAX_COUNT_SLOPE}"
    )


def test_equijoin_single_solve():
    g = union_of_bicliques([(4, 4)] * 100)
    scheme = solve_equijoin(g)
    assert scheme.effective_cost(g) == g.num_edges
