"""Tests for the span tracer (repro.obs.trace)."""

from repro import obs
from repro.obs import trace


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_disabled_span_records_nothing(self):
        with trace.span("nothing"):
            pass
        assert trace.spans() == []

    def test_disabled_span_yields_none(self):
        with trace.span("nothing") as handle:
            assert handle is None

    def test_disabled_span_is_shared_singleton(self):
        assert trace.span("a") is trace.span("b")


class TestRecording:
    def test_flat_spans(self):
        obs.enable()
        with trace.span("one"):
            pass
        with trace.span("two"):
            pass
        names = [s.name for s in trace.spans()]
        assert names == ["one", "two"]
        assert all(s.depth == 0 for s in trace.spans())

    def test_nesting_depth_and_parent(self):
        obs.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                with trace.span("leaf"):
                    pass
        outer, inner, leaf = trace.spans()
        assert (outer.depth, inner.depth, leaf.depth) == (0, 1, 2)
        assert inner.parent_index == outer.index
        assert leaf.parent_index == inner.index
        assert outer.parent_index is None

    def test_durations_nonnegative_and_nested_within_parent(self):
        obs.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                sum(range(1000))
        outer, inner = trace.spans()
        assert inner.duration_ns >= 0
        assert outer.duration_ns >= inner.duration_ns

    def test_attrs_recorded(self):
        obs.enable()
        with trace.span("solve", method="exact", m=7) as s:
            pass
        assert s.attrs == {"method": "exact", "m": 7}

    def test_span_yields_span_object(self):
        obs.enable()
        with trace.span("x") as s:
            assert s.name == "x"

    def test_exception_still_closes_span(self):
        obs.enable()
        try:
            with trace.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        (s,) = trace.spans()
        assert s.end_ns is not None


class TestErrorMarking:
    def test_exception_marks_span_as_error(self):
        obs.enable()
        try:
            with trace.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        (s,) = trace.spans()
        assert s.attrs["error"] is True
        assert s.attrs["error_type"] == "ValueError"

    def test_exception_does_not_swallow(self):
        import pytest

        obs.enable()
        with pytest.raises(KeyError):
            with trace.span("boom"):
                raise KeyError("k")

    def test_only_the_raising_span_is_marked(self):
        obs.enable()
        try:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
                raise RuntimeError("after inner closed")
        except RuntimeError:
            pass
        outer, inner = trace.spans()
        assert outer.attrs.get("error") is True
        assert outer.attrs["error_type"] == "RuntimeError"
        assert "error" not in inner.attrs

    def test_error_propagates_through_nested_spans(self):
        obs.enable()
        try:
            with trace.span("outer"):
                with trace.span("inner"):
                    raise OSError("disk")
        except OSError:
            pass
        outer, inner = trace.spans()
        # The exception crossed both spans, so both are marked.
        assert inner.attrs["error_type"] == "OSError"
        assert outer.attrs["error_type"] == "OSError"

    def test_success_leaves_no_error_attrs(self):
        obs.enable()
        with trace.span("fine", method="exact"):
            pass
        (s,) = trace.spans()
        assert s.attrs == {"method": "exact"}

    def test_error_attrs_survive_export(self):
        from repro.obs.export import to_chrome_trace

        obs.enable()
        try:
            with trace.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        (event,) = to_chrome_trace(trace.spans())["traceEvents"]
        assert event["args"]["error"] is True
        assert event["args"]["error_type"] == "ValueError"

    def test_total_ns_sums_by_name(self):
        obs.enable()
        for _ in range(3):
            with trace.span("repeated"):
                pass
        assert trace.TRACER.total_ns("repeated") == sum(
            s.duration_ns for s in trace.spans()
        )

    def test_reset_drops_spans_keeps_flag(self):
        obs.enable()
        with trace.span("x"):
            pass
        obs.reset()
        assert trace.spans() == []
        assert obs.is_enabled()

    def test_as_dicts_shape(self):
        obs.enable()
        with trace.span("outer"):
            with trace.span("inner", k=1):
                pass
        dicts = trace.as_dicts()
        assert [d["name"] for d in dicts] == ["outer", "inner"]
        assert dicts[1]["parent"] == dicts[0]["index"]
        assert dicts[1]["attrs"] == {"k": 1}
        assert all(d["duration_ns"] >= 0 for d in dicts)

    def test_render_tree_indents_children(self):
        obs.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        rendered = trace.render_tree()
        lines = rendered.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")


class TestPrivateTracer:
    def test_independent_of_global(self):
        # Private tracers follow the one switch but keep their own spans.
        private = trace.Tracer()
        with private.span("off"):
            pass
        assert private.spans() == []
        obs.enable()
        with private.span("mine"):
            pass
        assert [s.name for s in private.spans()] == ["mine"]
        assert trace.spans() == []
