"""E-JOINS: real join algorithms measured inside the pebbling model.

Regenerates: the pebbling-cost table of actual executions — sort-merge
achieves π/m = 1 on equijoins (Theorem 3.2 made operational), hash and
index-nested-loops pay jumps, and on the adversarial containment instance
*no* algorithm can reach ratio 1 (Theorem 3.3).  Band joins: the band
merge's snake order against block nested loops and plain ascending
windows, and the planned band join's instruction-count slope.
"""

import random
from operator import itemgetter

from scaling import loglog_slope, opcode_count

from repro.analysis.experiments import join_algorithm_experiment
from repro.analysis.report import Table
from repro.engine import JoinQuery, execute
from repro.joins.algorithms import (
    band_merge_join,
    block_nested_loops,
    inverted_index_join,
    pbsm_join,
    plane_sweep_join,
    rtree_join,
    signature_nested_loops,
)
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Band, SetContainment, SpatialOverlap
from repro.joins.trace import trace_report
from repro.relations.relation import Relation
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import uniform_rectangles_workload


def test_join_algorithm_table(emit):
    table = join_algorithm_experiment()
    emit("E-JOINS_pebbling_costs", table)
    rows = {tuple(r[:2]): r for r in table._rows}
    assert rows[("equijoin/zipf", "sort-merge")][4] == "1"  # pi/m


def test_spatial_algorithms_traced(emit):
    left, right = uniform_rectangles_workload(60, 60, mean_side=6.0, seed=21)
    graph = build_join_graph(left, right, SpatialOverlap())

    table = Table(
        ["algorithm", "m", "pi", "pi/m", "jumps"],
        title="E-JOINS: spatial join algorithm pebbling costs",
    )
    for name, algo in (
        ("plane-sweep", plane_sweep_join),
        ("rtree", rtree_join),
        ("pbsm", pbsm_join),
    ):
        report = trace_report(graph, algo(left, right), name)
        table.add_row(list(report.row())[:2] + [report.effective_cost,
                      round(report.cost_ratio, 4), report.jumps])
    emit("E-JOINS_spatial", table)


def test_set_algorithms_traced(emit):
    left, right = zipf_sets_workload(
        25, 25, universe=10, left_size=2, right_size=6, seed=13
    )
    graph = build_join_graph(left, right, SetContainment())

    table = Table(
        ["algorithm", "m", "pi", "pi/m", "jumps"],
        title="E-JOINS: containment join algorithm pebbling costs",
    )
    for name, algo in (
        ("signature-NL", signature_nested_loops),
        ("inverted-index", inverted_index_join),
    ):
        report = trace_report(graph, algo(left, right), name)
        table.add_row([name, report.output_size, report.effective_cost,
                       round(report.cost_ratio, 4), report.jumps])
    emit("E-JOINS_sets", table)


def _floats(n: int, seed: int, extent: float = 1000.0) -> tuple[Relation, Relation]:
    rng = random.Random(seed)
    return (
        Relation("R", [rng.uniform(0.0, extent) for _ in range(n)]),
        Relation("S", [rng.uniform(0.0, extent) for _ in range(n)]),
    )


def _ascending_windows(left, right, pairs):
    """The band merge's windows, each emitted ``lo … hi−1``: its pairs
    ordered by sorted left position, then sorted right position."""
    ranks = {}
    for relation in (left, right):
        ordered = sorted(relation.items(), key=itemgetter(1))
        ranks.update((ref, i) for i, (ref, _) in enumerate(ordered))
    return sorted(pairs, key=lambda pair: (ranks[pair[0]], ranks[pair[1]]))


def test_band_algorithms_traced(emit):
    """Eight seeded band joins of ``Band(1.0)`` over n = 520–590 uniform
    floats in [0, 1000]: π summed per emission order."""
    totals = {"block-NL": 0, "ascending windows": 0, "band-merge": 0}
    m_total = upper_total = 0
    for seed in range(8):
        left, right = _floats(520 + 10 * seed, seed)
        graph = build_join_graph(left, right, Band(1.0))
        merged = band_merge_join(left, right, 1.0)
        orders = {
            "block-NL": block_nested_loops(left, right, Band(1.0)),
            "ascending windows": _ascending_windows(left, right, merged),
            "band-merge": merged,
        }
        for name, pairs in orders.items():
            report = trace_report(graph, pairs, name)
            totals[name] += report.effective_cost
        m_total += report.output_size
        upper_total += report.upper_bound
    table = Table(
        ["order", "m", "pi", "pi/m"],
        title=(
            "E-JOINS: band join emission orders, 8 seeded Band(1.0) joins "
            f"(sum of floor(1.25 m_c) = {upper_total})"
        ),
    )
    for name, pi in totals.items():
        table.add_row([name, m_total, pi, round(pi / m_total, 4)])
    emit("E-JOINS_band", table)
    assert totals["band-merge"] <= totals["ascending windows"] <= totals["block-NL"]
    assert totals["band-merge"] <= upper_total


# The planned band join is O(n log n + m): sorts run in C, so its
# instruction count grows with n + m.  Nested loops would read about 2.
MAX_BAND_COUNT_SLOPE = 1.10


def test_band_join_count_series(emit):
    """``execute(JoinQuery(R, S, Band(1.0)))`` (plan, join, trace) over
    n = 500 to 8,000 uniform floats in [0, n]: about two matches per
    tuple at every size.  Gated on the instruction-count slope against n."""
    sizes = (500, 1000, 2000, 4000, 8000)
    counts = {}
    rows = []
    for n in sizes:
        left, right = _floats(n, seed=n, extent=float(n))
        query = JoinQuery(left, right, Band(1.0))
        counts[n] = opcode_count(execute, query)
        result = execute(query)
        rows.append((n, result.plan.algorithm_name, result.output_size))
    slope = loglog_slope(sizes, [counts[n] for n in sizes])
    table = Table(
        ["n", "algorithm", "m", "instructions", "instr_per_tuple"],
        title=(
            "E-JOINS: planned band join scaling, instruction-count slope "
            f"{slope:.4f} (bound {MAX_BAND_COUNT_SLOPE:.2f})"
        ),
    )
    for n, algorithm, m in rows:
        table.add_row([n, algorithm, m, counts[n], round(counts[n] / n, 1)])
    emit("E-JOINS_band_scaling", table)
    assert slope <= MAX_BAND_COUNT_SLOPE, (
        f"band join instruction-count slope {slope:.4f} > {MAX_BAND_COUNT_SLOPE}"
    )
