"""Engine benchmark: planner decisions and their pebbling costs.

Regenerates: a table of planner choices with their per-execution pebbling
ratios across workload shapes.
"""

from repro.analysis.report import Table
from repro.engine import JoinQuery, execute
from repro.joins.predicates import Equality, SetContainment, SpatialOverlap
from repro.workloads.equijoin import fk_pk_workload, zipf_equijoin_workload
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import (
    sessions_interval_workload,
    uniform_rectangles_workload,
)


def test_planner_choice_table(emit):
    cases = [
        ("zipf equijoin", JoinQuery(*zipf_equijoin_workload(40, 40, key_universe=8, seed=1), Equality())),
        ("fk-pk", JoinQuery(*fk_pk_workload(60, 40, seed=1), Equality())),
        ("rectangles", JoinQuery(*uniform_rectangles_workload(30, 30, seed=1), SpatialOverlap())),
        ("sessions", JoinQuery(*sessions_interval_workload(30, 30, seed=1), SpatialOverlap())),
        ("zipf sets", JoinQuery(*zipf_sets_workload(20, 20, universe=30, seed=1), SetContainment())),
        ("tiny-universe sets", JoinQuery(*zipf_sets_workload(20, 20, universe=8, seed=1), SetContainment())),
    ]

    table = Table(
        ["workload", "plan", "m", "pi/m", "jumps"],
        title="Engine: planner choices with execution pebbling metrics",
    )
    for name, query in cases:
        result = execute(query)
        assert result.trace is not None
        table.add_row(
            [
                name,
                result.plan.algorithm_name,
                result.output_size,
                round(result.trace.cost_ratio, 4),
                result.trace.jumps,
            ]
        )
    emit("engine_planner", table)
