"""Property-based tests (hypothesis) across the join layer.

Each property quantifies over randomly drawn relations and asserts a
cross-implementation agreement or a model invariant:

- accelerated join-graph extraction ≡ naive, per predicate class;
- every join algorithm's output order forms a valid pebbling scheme;
- the engine's executed rows ≡ the naive cross-product filter.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import JoinQuery, execute
from repro.geometry.interval import Interval
from repro.geometry.primitives import Rectangle
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import (
    Band,
    Equality,
    SetContainment,
    SetOverlap,
    SpatialOverlap,
)
from repro.joins.trace import scheme_from_output
from repro.relations.relation import Relation

COMMON = settings(max_examples=40, deadline=None)

numeric_relations = st.builds(
    lambda values: Relation("R", values),
    st.lists(st.integers(0, 6), min_size=1, max_size=12),
)
numeric_relations_s = st.builds(
    lambda values: Relation("S", values),
    st.lists(st.integers(0, 6), min_size=1, max_size=12),
)


@st.composite
def set_relation(draw, name: str):
    values = draw(
        st.lists(
            st.frozensets(st.integers(0, 7), min_size=0, max_size=4),
            min_size=1,
            max_size=10,
        )
    )
    return Relation(name, values)


@st.composite
def rect_relation(draw, name: str):
    def to_rect(t):
        x, y, w, h = t
        return Rectangle(x, y, x + w, y + h)

    values = draw(
        st.lists(
            st.tuples(
                st.floats(0, 20, allow_nan=False),
                st.floats(0, 20, allow_nan=False),
                st.floats(0.1, 6, allow_nan=False),
                st.floats(0.1, 6, allow_nan=False),
            ).map(to_rect),
            min_size=1,
            max_size=10,
        )
    )
    return Relation(name, values)


@st.composite
def interval_relation(draw, name: str):
    def to_interval(t):
        lo, length = t
        return Interval(lo, lo + length)

    values = draw(
        st.lists(
            st.tuples(
                st.floats(0, 40, allow_nan=False),
                st.floats(0.1, 10, allow_nan=False),
            ).map(to_interval),
            min_size=1,
            max_size=10,
        )
    )
    return Relation(name, values)


@COMMON
@given(numeric_relations, numeric_relations_s)
def test_equality_accelerated_equals_naive(left, right):
    fast = build_join_graph(left, right, Equality())
    slow = build_join_graph(left, right, Equality(), accelerate=False)
    assert fast == slow


@COMMON
@given(set_relation("R"), set_relation("S"))
def test_containment_accelerated_equals_naive(left, right):
    fast = build_join_graph(left, right, SetContainment())
    slow = build_join_graph(left, right, SetContainment(), accelerate=False)
    assert fast == slow


@COMMON
@given(set_relation("R"), set_relation("S"))
def test_set_overlap_accelerated_equals_naive(left, right):
    fast = build_join_graph(left, right, SetOverlap())
    slow = build_join_graph(left, right, SetOverlap(), accelerate=False)
    assert fast == slow


@COMMON
@given(rect_relation("R"), rect_relation("S"))
def test_spatial_accelerated_equals_naive(left, right):
    fast = build_join_graph(left, right, SpatialOverlap())
    slow = build_join_graph(left, right, SpatialOverlap(), accelerate=False)
    assert fast == slow


@COMMON
@given(interval_relation("R"), interval_relation("S"))
def test_interval_accelerated_equals_naive(left, right):
    fast = build_join_graph(left, right, SpatialOverlap())
    slow = build_join_graph(left, right, SpatialOverlap(), accelerate=False)
    assert fast == slow


@COMMON
@given(interval_relation("R"), interval_relation("S"))
def test_interval_overlap_equals_lifted_rectangles(left, right):
    lifted_left = Relation("R", [Rectangle(v.lo, 0.0, v.hi, 1.0) for v in left.values])
    lifted_right = Relation("S", [Rectangle(v.lo, 0.0, v.hi, 1.0) for v in right.values])
    a = build_join_graph(left, right, SpatialOverlap())
    b = build_join_graph(lifted_left, lifted_right, SpatialOverlap())
    assert set(a.edges()) == set(b.edges())


@COMMON
@given(numeric_relations, numeric_relations_s)
def test_all_equijoin_algorithms_trace_validly(left, right):
    from repro.joins.algorithms import hash_join, index_nested_loops, sort_merge_join

    graph = build_join_graph(left, right, Equality())
    for algo in (hash_join, sort_merge_join, index_nested_loops):
        output = algo(left, right)
        if graph.num_edges == 0:
            assert output == []
            continue
        scheme = scheme_from_output(graph, output)
        scheme.validate(graph.without_isolated_vertices())


@COMMON
@given(numeric_relations, numeric_relations_s)
def test_engine_rows_equal_naive_filter(left, right):
    result = execute(JoinQuery(left, right, Equality()), with_trace=False)
    naive = [
        (a, b) for a in left.values for b in right.values if a == b
    ]
    assert sorted(result.rows) == sorted(naive)


@COMMON
@given(numeric_relations, numeric_relations_s, st.floats(0, 3, allow_nan=False))
def test_band_accelerated_equals_naive(left, right, width):
    fast = build_join_graph(left, right, Band(width))
    slow = build_join_graph(left, right, Band(width), accelerate=False)
    assert fast == slow


# ---------------------------------------------------------------------------
# Boundary semantics of the interval merge join (closed intervals).
#
# The merge's tie-break takes the *left* side when `lo` values are equal;
# these properties pin that the tie-break, the active-list pruning
# (`hi >= lo`, which keeps touching intervals alive), and zero-width
# intervals all agree with the predicate itself and with the plane sweep.
# Integer endpoints with tiny lengths force heavy ties, touching endpoints
# (a.hi == b.lo), and zero-width (point) intervals.
# ---------------------------------------------------------------------------


@st.composite
def tie_heavy_intervals(draw, name: str):
    values = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2)).map(
                lambda t: Interval(float(t[0]), float(t[0] + t[1]))
            ),
            min_size=1,
            max_size=10,
        )
    )
    return Relation(name, values)


@COMMON
@given(tie_heavy_intervals("R"), tie_heavy_intervals("S"))
def test_interval_merge_join_boundary_semantics(left, right):
    from collections import Counter

    from repro.geometry.interval import sweep_interval_pairs
    from repro.joins.algorithms import interval_merge_join

    merged = interval_merge_join(left, right)
    predicate_pairs = [
        (r_ref, s_ref)
        for r_ref, r_iv in left.items()
        for s_ref, s_iv in right.items()
        if r_iv.overlaps(s_iv)
    ]
    # Multiset equality: every θ-matching pair exactly once, none invented.
    assert Counter(merged) == Counter(predicate_pairs)
    swept = sweep_interval_pairs(
        [(v, ref) for ref, v in left.items()],
        [(v, ref) for ref, v in right.items()],
    )
    assert Counter(merged) == Counter(swept)


@COMMON
@given(tie_heavy_intervals("R"), tie_heavy_intervals("S"))
def test_interval_merge_join_emits_touching_and_zero_width(left, right):
    from repro.joins.algorithms import interval_merge_join

    out = set(interval_merge_join(left, right))
    for r_ref, r_iv in left.items():
        for s_ref, s_iv in right.items():
            if r_iv.hi == s_iv.lo or s_iv.hi == r_iv.lo:
                # Touching endpoints overlap under closed semantics …
                assert (r_ref, s_ref) in out
            if r_iv.lo == r_iv.hi == s_iv.lo == s_iv.hi:
                # … and so do coincident zero-width (point) intervals.
                assert (r_ref, s_ref) in out


# ---------------------------------------------------------------------------
# Edge-dedup uniformity: every extraction path inserts through one dedup
# point, so naive and accelerated graphs must agree as edge *multisets*
# (sorted edge lists + per-vertex degrees), not merely as sets.
# ---------------------------------------------------------------------------


def _assert_edge_multisets_match(fast, slow):
    assert fast.edges() == slow.edges()
    assert fast.num_edges == slow.num_edges
    for vertex in fast.left + fast.right:
        assert fast.degree(vertex) == slow.degree(vertex)


@COMMON
@given(numeric_relations, numeric_relations_s)
def test_equality_edge_multisets_match(left, right):
    fast = build_join_graph(left, right, Equality())
    slow = build_join_graph(left, right, Equality(), accelerate=False)
    _assert_edge_multisets_match(fast, slow)


@COMMON
@given(interval_relation("R"), interval_relation("S"))
def test_interval_edge_multisets_match(left, right):
    fast = build_join_graph(left, right, SpatialOverlap())
    slow = build_join_graph(left, right, SpatialOverlap(), accelerate=False)
    _assert_edge_multisets_match(fast, slow)


@COMMON
@given(rect_relation("R"), rect_relation("S"))
def test_spatial_edge_multisets_match(left, right):
    fast = build_join_graph(left, right, SpatialOverlap())
    slow = build_join_graph(left, right, SpatialOverlap(), accelerate=False)
    _assert_edge_multisets_match(fast, slow)


@COMMON
@given(set_relation("R"), set_relation("S"))
def test_set_overlap_edge_multisets_match(left, right):
    fast = build_join_graph(left, right, SetOverlap())
    slow = build_join_graph(left, right, SetOverlap(), accelerate=False)
    _assert_edge_multisets_match(fast, slow)


@COMMON
@given(set_relation("R"), set_relation("S"))
def test_containment_edge_multisets_match(left, right):
    fast = build_join_graph(left, right, SetContainment())
    slow = build_join_graph(left, right, SetContainment(), accelerate=False)
    _assert_edge_multisets_match(fast, slow)


@COMMON
@given(numeric_relations, numeric_relations_s, st.floats(0, 3, allow_nan=False))
def test_band_edge_multisets_match(left, right, width):
    fast = build_join_graph(left, right, Band(width))
    slow = build_join_graph(left, right, Band(width), accelerate=False)
    _assert_edge_multisets_match(fast, slow)


def test_add_edges_keeps_a_repeated_pair_once():
    # Accelerated extraction can surface a candidate pair twice; the
    # graph's bulk insert is the one place that keeps it as one edge.
    from repro.graphs.bipartite import BipartiteGraph

    pairs = [("a", 1), ("b", 2), ("a", 1), ("c", 3), ("b", 2)]
    once = BipartiteGraph(left="abc", right=[1, 2, 3])
    once.add_edges(dict.fromkeys(pairs))
    graph = BipartiteGraph(left="abc", right=[1, 2, 3])
    graph.add_edges(pairs)
    assert graph.num_edges == 3
    assert graph == once
    assert [list(graph.neighbors(v)) for v in graph] == [
        list(once.neighbors(v)) for v in once
    ]
