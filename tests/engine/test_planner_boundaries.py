"""Parametrized pins for the planner's decision boundaries.

Each case fixes one side of a rule threshold — sort-merge vs hash,
plane-sweep vs R-tree vs PBSM, inverted-index vs signature-NL — so a
future cost-model tweak that silently flips a decision fails here, not
in a benchmark.  The cases double as calibration fixtures: every plan's
record must list the full candidate set with exactly one chosen.
"""

import pytest

from repro.engine import JoinQuery, plan
from repro.engine.planner import (
    PBSM_DENSITY_THRESHOLD,
    RTREE_THRESHOLD,
    SIGNATURE_UNIVERSE_THRESHOLD,
)
from repro.joins.predicates import (
    Band,
    Equality,
    SetContainment,
    SetOverlap,
    SpatialOverlap,
)
from repro.relations.relation import Relation
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import (
    sessions_interval_workload,
    uniform_rectangles_workload,
)


def _equality_case(name):
    if name == "small-output":
        # 10 matching values out of 50x50: output below inputs -> hash.
        return Relation("R", list(range(50))), Relation("S", list(range(40, 90)))
    # One heavy value on both sides: output (900) dwarfs inputs (60).
    return Relation("R", [1] * 30), Relation("S", [1] * 30)


class TestEqualityBoundary:
    """Sort-merge wins iff estimated output >= combined input size."""

    def test_small_output_picks_hash(self):
        left, right = _equality_case("small-output")
        the_plan = plan(JoinQuery(left, right, Equality()))
        assert the_plan.algorithm_name == "hash"

    def test_large_output_picks_sort_merge(self):
        left, right = _equality_case("large-output")
        the_plan = plan(JoinQuery(left, right, Equality()))
        assert the_plan.algorithm_name == "sort-merge"

    def test_exact_threshold_picks_sort_merge(self):
        # estimated = |R||S|/max(d) = 16 with one distinct value per
        # side; inputs = 8: estimate >= inputs, the boundary is closed.
        left = Relation("R", [7] * 4)
        right = Relation("S", [7] * 4)
        the_plan = plan(JoinQuery(left, right, Equality()))
        assert the_plan.estimated_output == 16.0
        assert the_plan.algorithm_name == "sort-merge"


class TestSpatialBoundary:
    """plane-sweep below RTREE_THRESHOLD, then rtree, then pbsm when the
    extent is dense (selectivity >= PBSM_DENSITY_THRESHOLD)."""

    def test_small_inputs_pick_plane_sweep(self):
        left, right = uniform_rectangles_workload(20, 20, seed=0)
        the_plan = plan(JoinQuery(left, right, SpatialOverlap()))
        assert the_plan.query.input_size < RTREE_THRESHOLD
        assert the_plan.algorithm_name == "plane-sweep"

    def test_large_sparse_inputs_pick_rtree(self):
        n = RTREE_THRESHOLD // 2 + 1
        left, right = uniform_rectangles_workload(n, n, extent=500.0, seed=0)
        the_plan = plan(JoinQuery(left, right, SpatialOverlap()))
        assert the_plan.query.input_size >= RTREE_THRESHOLD
        assert the_plan.algorithm_name == "rtree"

    def test_large_dense_inputs_pick_pbsm(self):
        # Big rectangles on a tiny extent: nearly every pair overlaps,
        # so the sampled selectivity is far past the density threshold.
        left, right = uniform_rectangles_workload(
            210, 210, extent=30.0, mean_side=6.0, seed=0
        )
        the_plan = plan(JoinQuery(left, right, SpatialOverlap()))
        assert the_plan.query.input_size >= RTREE_THRESHOLD
        density = the_plan.estimated_output / (210 * 210)
        assert density >= PBSM_DENSITY_THRESHOLD
        assert the_plan.algorithm_name == "pbsm"

    def test_interval_domains_pick_interval_merge(self):
        left, right = sessions_interval_workload(50, 50, seed=0)
        the_plan = plan(JoinQuery(left, right, SpatialOverlap()))
        assert the_plan.algorithm_name == "interval-merge"
        assert "interval" in the_plan.reason


class TestContainmentBoundary:
    """Signatures iff the right-hand element universe fits the
    signature width; the universe is counted from the right side only."""

    def test_large_universe_picks_inverted_index(self):
        left, right = zipf_sets_workload(10, 10, universe=40, seed=0)
        the_plan = plan(JoinQuery(left, right, SetContainment()))
        assert the_plan.algorithm_name == "inverted-index"

    def test_tiny_universe_picks_signatures(self):
        left, right = zipf_sets_workload(10, 10, universe=8, seed=0)
        the_plan = plan(JoinQuery(left, right, SetContainment()))
        assert the_plan.algorithm_name == "signature-NL"

    def test_universe_counted_from_right_side_only(self):
        # The left universe is huge, but only the right side's elements
        # build the signature space — still below the threshold.
        left = Relation("R", [set(range(100)), {1, 2}])
        right = Relation("S", [{1}, {2, 3}])
        the_plan = plan(JoinQuery(left, right, SetContainment()))
        assert the_plan.algorithm_name == "signature-NL"
        universe_size = len({1, 2, 3})
        assert universe_size <= SIGNATURE_UNIVERSE_THRESHOLD
        assert f"({universe_size})" in the_plan.reason


class TestFallbackBoundary:
    def test_generic_predicate_picks_block_nl(self):
        left = Relation("R", [frozenset({1}), frozenset({2, 3})])
        right = Relation("S", [frozenset({3}), frozenset({4})])
        the_plan = plan(JoinQuery(left, right, SetOverlap()))
        assert the_plan.algorithm_name == "block-NL"
        assert the_plan.reason == "generic predicate: nested loops"


class TestBandBoundary:
    """band-merge costs n log n per side plus the estimated output;
    block-NL costs the cross product.  The cheaper one wins, ties to the
    merge."""

    def test_tiny_band_picks_block_nl(self):
        # 3 x 3: sorts 2 * 3 log2 3 ≈ 9.5 (+ est. 2) against 9 pairs.
        left = Relation("R", [1.0, 2.0, 3.0])
        right = Relation("S", [1.2, 2.9, 10.0])
        the_plan = plan(JoinQuery(left, right, Band(0.5)))
        assert the_plan.algorithm_name == "block-NL"
        assert the_plan.reason == "tiny cross product: nested loops"

    def test_band_predicate_picks_band_merge(self):
        # 8 x 8: sorts 2 * 8 * 3 = 48 (+ est. 8) against 64 pairs.
        left = Relation("R", [float(i) for i in range(8)])
        right = Relation("S", [i + 0.25 for i in range(8)])
        the_plan = plan(JoinQuery(left, right, Band(0.5)))
        assert the_plan.algorithm_name == "band-merge"
        assert the_plan.reason == "sorted windows: pairs emitted in a snake"
        costs = {c.algorithm: c.estimated_cost for c in the_plan.record.candidates}
        assert costs == {"band-merge": 56.0, "block-NL": 64.0}

    def test_dense_band_keeps_block_nl(self):
        # Every pair joins: the output estimate tips the merge over.
        left = Relation("R", [1.0] * 8)
        right = Relation("S", [1.0] * 8)
        the_plan = plan(JoinQuery(left, right, Band(0.5)))
        assert the_plan.algorithm_name == "block-NL"


EXPECTED_CANDIDATES = {
    "equality": {"sort-merge", "hash"},
    "spatial-overlap": {"plane-sweep", "rtree", "pbsm"},
    "set-containment": {"signature-NL", "inverted-index"},
    "band": {"band-merge", "block-NL"},
}


@pytest.mark.parametrize(
    "query",
    [
        JoinQuery(Relation("R", [1] * 4), Relation("S", [1, 2]), Equality()),
        JoinQuery(
            *uniform_rectangles_workload(20, 20, seed=0), SpatialOverlap()
        ),
        JoinQuery(
            *zipf_sets_workload(10, 10, universe=40, seed=0), SetContainment()
        ),
        JoinQuery(
            Relation("R", [float(i) for i in range(8)]),
            Relation("S", [i + 0.25 for i in range(8)]),
            Band(0.5),
        ),
    ],
    ids=["equality", "spatial", "containment", "band"],
)
def test_record_lists_full_candidate_set(query):
    """Every plan's record enumerates the rule's whole candidate set,
    with the rejected ones carrying reasons — the explain surface shows
    what was considered, not just what won."""
    record = plan(query).record
    names = {c.algorithm for c in record.candidates}
    assert names == EXPECTED_CANDIDATES[record.predicate]
    chosen = [c for c in record.candidates if c.chosen]
    assert len(chosen) == 1
    assert chosen[0].algorithm == record.algorithm
    assert all(c.reason for c in record.candidates)
