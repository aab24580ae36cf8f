"""Tests for the query engine: queries, stats, planner, executor."""

import pytest

from repro.errors import PredicateError
from repro.engine import (
    ColumnStats,
    JoinQuery,
    estimate_selectivity,
    execute,
    plan,
)
from repro.engine.planner import RTREE_THRESHOLD
from repro.engine.stats import collect_stats, estimate_output_size
from repro.joins.predicates import (
    Band,
    Equality,
    SetContainment,
    SetOverlap,
    SpatialOverlap,
)
from repro.relations.relation import Relation
from repro.workloads.equijoin import zipf_equijoin_workload
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import uniform_rectangles_workload


class TestJoinQuery:
    def test_describe(self):
        q = JoinQuery(Relation("R", [1]), Relation("S", [1]), Equality())
        assert "R(1 tuples)" in q.describe()
        assert "equality" in q.describe()

    def test_domain_mismatch_rejected_at_construction(self):
        with pytest.raises(PredicateError):
            JoinQuery(Relation("R", [1]), Relation("S", [{1}]), Equality())

    def test_input_size(self):
        q = JoinQuery(Relation("R", [1, 2]), Relation("S", [1]), Equality())
        assert q.input_size == 3


class TestStats:
    def test_collect(self):
        stats = collect_stats(Relation("R", [1, 1, 2]))
        assert stats.count == 3
        assert stats.distinct == 2
        assert stats.duplication_factor == 1.5

    def test_unhashable_distinct_none(self):
        stats = collect_stats(Relation("R", [{1}, {2}]))
        assert stats.distinct is None
        assert stats.duplication_factor == 1.0

    def test_selectivity_extremes(self):
        always = estimate_selectivity(
            Relation("R", [1] * 10), Relation("S", [1] * 10), Equality()
        )
        never = estimate_selectivity(
            Relation("R", [1] * 10), Relation("S", [2] * 10), Equality()
        )
        assert always == 1.0
        assert never == 0.0

    def test_selectivity_empty_inputs(self):
        assert estimate_selectivity(Relation("R"), Relation("S", [1]), Equality()) == 0.0

    def test_equijoin_output_estimate_closed_form(self):
        # 10x10 over 5 shared keys: containment assumption gives 20.
        r = Relation("R", list(range(5)) * 2)
        s = Relation("S", list(range(5)) * 2)
        assert estimate_output_size(r, s, Equality()) == pytest.approx(20.0)

    def test_sampled_estimate_reasonable(self):
        r = Relation("R", [float(i) for i in range(10)])
        s = Relation("S", [float(i) + 0.25 for i in range(10)])
        est = estimate_output_size(r, s, Band(0.5), sample_size=400, seed=1)
        actual = sum(1 for a in r.values for b in s.values if abs(a - b) <= 0.5)
        assert actual * 0.3 <= est <= actual * 3


class TestPlanner:
    def test_equijoin_small_output_uses_hash(self):
        # Key columns on both sides: output ~ min size, below input size.
        q = JoinQuery(
            Relation("R", list(range(50))), Relation("S", list(range(40, 90))), Equality()
        )
        assert plan(q).algorithm_name == "hash"

    def test_equijoin_large_output_uses_sort_merge(self):
        q = JoinQuery(
            Relation("R", [1] * 30), Relation("S", [1] * 30), Equality()
        )
        assert plan(q).algorithm_name == "sort-merge"

    def test_spatial_small_uses_sweep(self):
        left, right = uniform_rectangles_workload(20, 20, seed=0)
        q = JoinQuery(left, right, SpatialOverlap())
        assert plan(q).algorithm_name == "plane-sweep"

    def test_spatial_large_uses_rtree(self):
        n = RTREE_THRESHOLD // 2 + 1
        left, right = uniform_rectangles_workload(n, n, extent=500.0, seed=0)
        q = JoinQuery(left, right, SpatialOverlap())
        assert plan(q).algorithm_name == "rtree"

    def test_containment_big_universe_uses_inverted(self):
        left, right = zipf_sets_workload(10, 10, universe=40, seed=0)
        q = JoinQuery(left, right, SetContainment())
        assert plan(q).algorithm_name == "inverted-index"

    def test_containment_tiny_universe_uses_signatures(self):
        left, right = zipf_sets_workload(10, 10, universe=8, seed=0)
        q = JoinQuery(left, right, SetContainment())
        assert plan(q).algorithm_name == "signature-NL"

    def test_generic_predicate_uses_block_nl(self):
        q = JoinQuery(
            Relation("R", [frozenset({1})]),
            Relation("S", [frozenset({1, 2})]),
            SetOverlap(),
        )
        assert plan(q).algorithm_name == "block-NL"

    def test_band_uses_band_merge(self):
        left = Relation("R", [i * 0.5 for i in range(40)])
        right = Relation("S", [i * 0.7 for i in range(40)])
        assert plan(JoinQuery(left, right, Band(1.0))).algorithm_name == "band-merge"

    def test_tiny_band_uses_block_nl(self):
        q = JoinQuery(Relation("R", [1.0]), Relation("S", [1.2]), Band(0.5))
        assert plan(q).algorithm_name == "block-NL"

    def test_explain_mentions_algorithm(self):
        q = JoinQuery(Relation("R", [1]), Relation("S", [1]), Equality())
        assert plan(q).algorithm_name in plan(q).explain()


class TestExecutor:
    def test_rows_match_graph(self):
        left, right = zipf_equijoin_workload(20, 20, key_universe=6, seed=2)
        q = JoinQuery(left, right, Equality())
        result = execute(q)
        from repro.joins.join_graph import build_join_graph

        graph = build_join_graph(left, right, Equality())
        assert result.output_size == graph.num_edges
        assert all(a == b for a, b in result.rows)

    def test_trace_attached(self):
        q = JoinQuery(Relation("R", [1, 1]), Relation("S", [1]), Equality())
        result = execute(q)
        assert result.trace is not None
        assert result.trace.output_size == 2
        assert "pebbling pi" in result.explain_analyze()

    def test_trace_skippable(self):
        q = JoinQuery(Relation("R", [1]), Relation("S", [1]), Equality())
        result = execute(q, with_trace=False)
        assert result.trace is None
        assert "pebbling" not in result.explain_analyze()

    def test_every_planned_algorithm_executes(self):
        cases = [
            JoinQuery(Relation("R", [1] * 5), Relation("S", [1] * 5), Equality()),
            JoinQuery(Relation("R", list(range(20))), Relation("S", list(range(20))), Equality()),
            JoinQuery(*uniform_rectangles_workload(15, 15, seed=1), SpatialOverlap()),
            JoinQuery(*zipf_sets_workload(8, 8, universe=30, seed=1), SetContainment()),
            JoinQuery(*zipf_sets_workload(8, 8, universe=8, seed=1), SetContainment()),
            JoinQuery(Relation("R", [1.0, 2.0]), Relation("S", [1.3]), Band(0.5)),
        ]
        for q in cases:
            result = execute(q)
            naive = [
                (a, b)
                for a in q.left.values
                for b in q.right.values
                if q.predicate.matches(a, b)
            ]
            assert sorted(map(repr, result.rows)) == sorted(map(repr, naive))

    def test_supplied_plan_respected(self):
        from repro.engine.planner import Plan

        q = JoinQuery(Relation("R", [1] * 4), Relation("S", [1] * 4), Equality())
        forced = Plan(q, "hash", "forced", 16.0)
        result = execute(q, chosen_plan=forced)
        assert result.plan.algorithm_name == "hash"

    def test_equijoin_sort_merge_trace_is_perfect(self):
        q = JoinQuery(Relation("R", [1] * 6), Relation("S", [1] * 6), Equality())
        result = execute(q)
        assert result.plan.algorithm_name == "sort-merge"
        assert result.trace is not None
        assert result.trace.cost_ratio == 1.0
