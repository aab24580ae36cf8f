"""The band merge join: exact pairs, the snake order, and its pebbling cost."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PredicateError
from repro.joins.algorithms import band_merge_join, block_nested_loops
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Band, Equality
from repro.joins.trace import trace_report
from repro.relations.relation import Relation, TupleRef

# Integers, halves and decimal fractions put many differences exactly on
# the window edge (a - b == width) or one rounding step either side of it.
band_values = st.one_of(
    st.integers(-8, 8),
    st.integers(-16, 16).map(lambda k: k / 2),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, -0.1, -0.3, 1.1, 2.2]),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)
band_widths = st.one_of(
    st.just(0),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.5]),
    st.floats(0, 4, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(band_values, min_size=1, max_size=14),
    st.lists(band_values, min_size=1, max_size=14),
    band_widths,
)
def test_same_pairs_as_block_nested_loops_each_once(left_values, right_values, width):
    left, right = Relation("R", left_values), Relation("S", right_values)
    merged = band_merge_join(left, right, width)
    reference = block_nested_loops(left, right, Band(width))
    assert Counter(merged) == Counter(reference)
    assert len(set(merged)) == len(merged)


def _refs(name, ordinals):
    return [TupleRef(name, i) for i in ordinals]


def test_snake_order_on_overlapping_windows():
    # Sorted right side: S[0]=0, S[1]=1, S[2]=2, S[3]=3.  Windows of width
    # 1: R[0]=0.5 -> [0, 2), R[1]=1.5 -> [1, 3), R[2]=2.5 -> [2, 4).
    left = Relation("R", [0.5, 1.5, 2.5])
    right = Relation("S", [0.0, 1.0, 2.0, 3.0])
    pairs = band_merge_join(left, right, 1.0)
    assert [r for _, r in pairs] == _refs("S", [0, 1, 1, 2, 2, 3])
    assert [l.ordinal for l, _ in pairs] == [0, 0, 1, 1, 2, 2]


def test_snake_reverses_back_to_the_window_start():
    # Equal left values share a window: ascending, then descending from
    # the last right index, then ascending again.
    left = Relation("R", [5, 5, 5])
    right = Relation("S", [5, 4, 6])
    pairs = band_merge_join(left, right, 1)
    # Right sorted by value: S[1]=4, S[0]=5, S[2]=6.
    assert [r.ordinal for _, r in pairs] == [1, 0, 2, 2, 0, 1, 1, 0, 2]


def test_window_that_misses_last_restarts_ascending():
    left = Relation("R", [0, 10])
    right = Relation("S", [0, 1, 9, 10])
    pairs = band_merge_join(left, right, 1)
    assert [r.ordinal for _, r in pairs] == [0, 1, 2, 3]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=16),
    st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=16),
)
def test_band_zero_pebbles_perfectly(left_values, right_values):
    left, right = Relation("R", left_values), Relation("S", right_values)
    pairs = band_merge_join(left, right, 0)
    graph = build_join_graph(left, right, Equality())
    report = trace_report(graph, pairs, "band-merge")
    assert report.effective_cost == report.output_size


def _instance(seed: int) -> tuple[Relation, Relation, float]:
    rng = random.Random(seed)
    kind = rng.choice(("int", "float", "mixed"))

    def value():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-10, 10)
        return round(rng.uniform(-10.0, 10.0), rng.choice((0, 1, 2)))

    left = Relation("R", [value() for _ in range(rng.randint(1, 40))])
    right = Relation("S", [value() for _ in range(rng.randint(1, 40))])
    width = rng.choice((0, 0.5, 1, 2, 3, 5, rng.uniform(0.0, 5.0)))
    return left, right, width


def test_snake_never_costs_more_than_nested_loops_or_thm31():
    # Observed on every seeded instance, not proven: kept as a seeded
    # check rather than a property so a counterexample is a code change.
    checked = 0
    for seed in range(400):
        left, right, width = _instance(seed)
        graph = build_join_graph(left, right, Band(width))
        if graph.num_edges == 0:
            continue
        checked += 1
        snake = trace_report(graph, band_merge_join(left, right, width), "band-merge")
        loops = trace_report(
            graph, block_nested_loops(left, right, Band(width)), "block-NL"
        )
        assert snake.effective_cost <= loops.effective_cost, seed
        assert snake.effective_cost <= snake.upper_bound, seed
        if width == 0:
            assert snake.effective_cost == snake.output_size, seed
    assert checked >= 300


def test_rejects_non_numeric_and_negative_width():
    with pytest.raises(PredicateError):
        band_merge_join(Relation("R", ["a"]), Relation("S", ["b"]), 1.0)
    with pytest.raises(PredicateError):
        band_merge_join(Relation("R", [1]), Relation("S", [1]), -1.0)
