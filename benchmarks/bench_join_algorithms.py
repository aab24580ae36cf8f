"""E-JOINS: real join algorithms measured inside the pebbling model.

Regenerates: the pebbling-cost table of actual executions — sort-merge
achieves π/m = 1 on equijoins (Theorem 3.2 made operational), hash and
index-nested-loops pay jumps, and on the adversarial containment instance
*no* algorithm can reach ratio 1 (Theorem 3.3).
"""

from repro.analysis.experiments import join_algorithm_experiment
from repro.analysis.report import Table
from repro.joins.algorithms import (
    inverted_index_join,
    pbsm_join,
    plane_sweep_join,
    rtree_join,
    signature_nested_loops,
)
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import SetContainment, SpatialOverlap
from repro.joins.trace import trace_report
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
