"""Tests for self-time attribution (repro.obs.profile)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import trace
from repro.obs.profile import (
    Profile,
    profile,
    profile_spans,
    self_times_ns,
)
from repro.obs.trace import Span


def _span(name, index, parent, depth, start, end, **attrs):
    """A hand-built span with explicit (deterministic) timestamps."""
    return Span(
        name=name,
        index=index,
        parent_index=parent,
        depth=depth,
        start_unix=0.0,
        start_ns=start,
        end_ns=end,
        attrs=attrs,
    )


# -- forest strategy --------------------------------------------------------
# Hypothesis draws a recursive tree shape plus per-node self time; the
# builder lays spans out preorder with exact integer timestamps, so every
# profile quantity has a known expected value.

_shapes = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=3), max_leaves=12
)
_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])


@st.composite
def forests(draw):
    roots = draw(st.lists(_shapes, min_size=1, max_size=3))
    spans: list[Span] = []

    def build(shape, parent_index, depth, start):
        index = len(spans)
        name = draw(_names)
        own = draw(st.integers(min_value=0, max_value=1000))
        span = _span(name, index, parent_index, depth, start, None)
        spans.append(span)
        cursor = start
        for child in shape:
            cursor = build(child, index, depth + 1, cursor)
        # Children consumed [start, cursor); own self time extends the end.
        span.end_ns = cursor + own
        return span.end_ns

    cursor = 0
    for shape in roots:
        cursor = build(shape, None, 0, cursor)
    return spans


class TestSelfTimes:
    def test_parent_minus_children(self):
        spans = [
            _span("parent", 0, None, 0, 0, 100),
            _span("child", 1, 0, 1, 10, 40),
        ]
        assert self_times_ns(spans) == [70, 30]

    def test_only_direct_children_subtract(self):
        spans = [
            _span("a", 0, None, 0, 0, 100),
            _span("b", 1, 0, 1, 0, 80),
            _span("c", 2, 1, 2, 0, 50),
        ]
        # a loses b's 80 (not c's 50); b loses c's 50.
        assert self_times_ns(spans) == [20, 30, 50]

    def test_negative_attribution_clamped(self):
        spans = [
            _span("parent", 0, None, 0, 0, 10),
            _span("child", 1, 0, 1, 0, 50),  # inconsistent by construction
        ]
        assert self_times_ns(spans) == [0, 50]

    def test_open_span_contributes_zero(self):
        spans = [_span("open", 0, None, 0, 0, None)]
        assert self_times_ns(spans) == [0]

    @settings(max_examples=50, deadline=None)
    @given(spans=forests())
    def test_self_times_partition_root_durations(self, spans):
        total_self = sum(self_times_ns(spans))
        total_root = sum(s.duration_ns for s in spans if s.depth == 0)
        assert total_self == total_root


class TestProfileAggregation:
    def test_rows_grouped_by_name(self):
        spans = [
            _span("solve", 0, None, 0, 0, 100),
            _span("solve", 1, None, 0, 100, 300),
            _span("plan", 2, None, 0, 300, 310),
        ]
        result = profile_spans(spans)
        assert [r.name for r in result.rows] == ["solve", "plan"]
        solve = result.row("solve")
        assert solve.calls == 2
        assert solve.self_ns == 300
        assert solve.max_self_ns == 200

    def test_rows_sorted_by_self_time_then_name(self):
        spans = [
            _span("b", 0, None, 0, 0, 50),
            _span("a", 1, None, 0, 50, 100),
            _span("c", 2, None, 0, 100, 200),
        ]
        result = profile_spans(spans)
        assert [r.name for r in result.rows] == ["c", "a", "b"]

    def test_total_and_self_differ_for_parents(self):
        spans = [
            _span("parent", 0, None, 0, 0, 100),
            _span("child", 1, 0, 1, 0, 90),
        ]
        result = profile_spans(spans)
        parent = result.row("parent")
        assert parent.total_ns == 100
        assert parent.self_ns == 10

    def test_empty_profile(self):
        result = profile_spans([])
        assert result.rows == ()
        assert result.total_self_ns == 0
        assert result.span_count == 0

    def test_top_limits_rows(self):
        spans = [
            _span(name, i, None, 0, i * 10, i * 10 + 10)
            for i, name in enumerate(["a", "b", "c", "d"])
        ]
        result = profile_spans(spans)
        assert len(result.top(2)) == 2

    def test_table_renders_share_of_total(self):
        spans = [
            _span("hot", 0, None, 0, 0, 75),
            _span("cold", 1, None, 0, 75, 100),
        ]
        rendered = profile_spans(spans).table().render()
        assert "hot" in rendered
        assert "75" in rendered  # 75% share of self time

    def test_as_dict_round_trips_through_json(self):
        import json

        spans = [_span("x", 0, None, 0, 0, 10)]
        payload = json.loads(json.dumps(profile_spans(spans).as_dict()))
        assert payload["rows"][0]["name"] == "x"
        assert payload["total_self_ns"] == 10

    @settings(max_examples=50, deadline=None)
    @given(spans=forests())
    def test_aggregation_conserves_self_time(self, spans):
        result = profile_spans(spans)
        assert sum(r.self_ns for r in result.rows) == result.total_self_ns
        assert sum(r.calls for r in result.rows) == len(spans)

    @settings(max_examples=25, deadline=None)
    @given(spans=forests())
    def test_profile_deterministic(self, spans):
        assert profile_spans(spans) == profile_spans(list(spans))


class TestGlobalProfile:
    def test_profile_of_global_tracer(self):
        obs.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                sum(range(100))
        result = profile()
        assert isinstance(result, Profile)
        assert {r.name for r in result.rows} == {"outer", "inner"}
        assert result.total_self_ns == sum(
            s.duration_ns for s in trace.spans() if s.depth == 0
        )

    def test_real_workload_has_nonzero_self_time(self):
        from repro.core.solvers.registry import solve
        from repro.graphs.generators import random_connected_bipartite

        obs.enable()
        solve(random_connected_bipartite(3, 3, 8, seed=0), "exact")
        result = profile()
        assert result.total_self_ns > 0
        assert result.row("solver.exact") is not None
