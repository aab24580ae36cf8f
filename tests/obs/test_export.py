"""Tests for trace export (repro.obs.export)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import trace
from repro.obs.export import (
    DEFAULT_FILENAMES,
    EXPORT_FORMATS,
    chrome_trace_json,
    export_trace,
    to_chrome_trace,
    to_folded,
    to_jsonl,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.profile import self_times_ns
from repro.obs.trace import Span


def _span(name, index, parent, depth, start, end, **attrs):
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


# Same preorder-layout forest strategy as tests/obs/test_profile.py: exact
# integer timestamps so round-trip invariants hold with == not approx.

_shapes = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=3), max_leaves=10
)
_names = st.sampled_from(["alpha", "beta", "gamma"])


@st.composite
def forests(draw):
    roots = draw(st.lists(_shapes, min_size=1, max_size=3))
    spans: list[Span] = []

    def build(shape, parent_index, depth, start):
        index = len(spans)
        span = _span(draw(_names), index, parent_index, depth, start, None)
        spans.append(span)
        cursor = start
        for child in shape:
            cursor = build(child, index, depth + 1, cursor)
        span.end_ns = cursor + draw(st.integers(min_value=0, max_value=1000))
        return span.end_ns

    cursor = 0
    for shape in roots:
        cursor = build(shape, None, 0, cursor)
    return spans


def _recorded_spans():
    """A small real trace recorded through the tracer."""
    obs.enable()
    with trace.span("solve", method="exact"):
        with trace.span("solve.component", m=3):
            pass
        with trace.span("solve.component", m=1):
            pass
    with trace.span("report"):
        pass
    return trace.spans()


class TestChromeTrace:
    def test_every_event_is_complete(self):
        payload = to_chrome_trace(_recorded_spans())
        assert payload["traceEvents"]
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["ts"] >= 0

    def test_timestamps_relative_to_first_span(self):
        spans = [
            _span("a", 0, None, 0, 5_000, 9_000),
            _span("b", 1, None, 0, 9_000, 12_000),
        ]
        events = to_chrome_trace(spans)["traceEvents"]
        assert events[0]["ts"] == 0
        assert events[1]["ts"] == 4.0  # (9000 - 5000) ns = 4 us
        assert events[0]["dur"] == 4.0

    def test_attrs_and_depth_in_args(self):
        spans = _recorded_spans()
        events = to_chrome_trace(spans)["traceEvents"]
        assert events[0]["args"]["method"] == "exact"
        assert events[1]["args"]["depth"] == 1

    def test_empty_trace_is_valid(self):
        payload = to_chrome_trace([])
        assert payload["traceEvents"] == []
        assert validate_chrome_trace(payload) == []

    def test_json_form_is_deterministic_and_parses(self):
        spans = [_span("a", 0, None, 0, 0, 10)]
        text = chrome_trace_json(spans)
        assert text == chrome_trace_json(spans)
        assert json.loads(text)["otherData"]["spans"] == 1

    @settings(max_examples=50, deadline=None)
    @given(spans=forests())
    def test_generated_traces_always_validate(self, spans):
        assert validate_chrome_trace(to_chrome_trace(spans)) == []

    @settings(max_examples=50, deadline=None)
    @given(spans=forests())
    def test_event_durations_match_span_durations(self, spans):
        events = to_chrome_trace(spans)["traceEvents"]
        for span, event in zip(spans, events):
            assert event["dur"] == span.duration_ns / 1e3
            assert event["name"] == span.name


class TestFolded:
    def test_stack_lines(self):
        spans = [
            _span("root", 0, None, 0, 0, 100),
            _span("child", 1, 0, 1, 10, 40),
        ]
        lines = to_folded(spans).splitlines()
        assert lines == ["root 70", "root;child 30"]

    def test_repeated_stacks_merge(self):
        spans = [
            _span("root", 0, None, 0, 0, 100),
            _span("child", 1, 0, 1, 0, 30),
            _span("child", 2, 0, 1, 30, 70),
        ]
        lines = to_folded(spans).splitlines()
        assert "root;child 70" in lines

    @settings(max_examples=50, deadline=None)
    @given(spans=forests())
    def test_folded_resums_to_total_self_time(self, spans):
        total = sum(
            int(line.rsplit(" ", 1)[1]) for line in to_folded(spans).splitlines()
        )
        assert total == sum(self_times_ns(spans))

    @settings(max_examples=25, deadline=None)
    @given(spans=forests())
    def test_folded_lines_sorted(self, spans):
        stacks = [line.rsplit(" ", 1)[0] for line in to_folded(spans).splitlines()]
        assert stacks == sorted(stacks)


class TestJsonl:
    def test_one_object_per_span(self):
        spans = _recorded_spans()
        lines = to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        parsed = [json.loads(line) for line in lines]
        assert [d["name"] for d in parsed] == [s.name for s in spans]
        assert parsed[1]["parent"] == spans[0].index


class TestExportDispatch:
    def test_formats_cover_default_filenames(self):
        assert set(DEFAULT_FILENAMES) == set(EXPORT_FORMATS)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            export_trace("svg")

    def test_defaults_to_global_tracer(self):
        _recorded_spans()
        payload = json.loads(export_trace("perfetto"))
        assert len(payload["traceEvents"]) == len(trace.spans())

    def test_write_trace_round_trip(self, tmp_path):
        spans = _recorded_spans()
        target = write_trace(tmp_path / "t.json", "perfetto", spans)
        assert validate_chrome_trace(json.loads(target.read_text())) == []


class TestValidateChromeTrace:
    def _event(self, **overrides):
        event = {"name": "n", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}
        event.update(overrides)
        return event

    def test_bare_event_list_accepted(self):
        assert validate_chrome_trace([self._event()]) == []

    def test_non_container_rejected(self):
        assert validate_chrome_trace(42) == [
            "trace: top level must be an object or an event list"
        ]

    def test_trace_events_must_be_list(self):
        assert validate_chrome_trace({"traceEvents": "no"}) == [
            "trace: 'traceEvents' must be a list"
        ]

    def test_bad_name_ts_and_tracks_reported(self):
        problems = validate_chrome_trace(
            [self._event(name="", ts=-1, pid="p", tid=None)]
        )
        assert len(problems) == 4

    def test_complete_event_needs_duration(self):
        (problem,) = validate_chrome_trace([self._event(dur=None)])
        assert "non-negative 'dur'" in problem

    def test_unknown_phase_reported(self):
        (problem,) = validate_chrome_trace([self._event(ph="M")])
        assert "'ph' is 'M'" in problem

    def test_matched_begin_end_pair_ok(self):
        begin = self._event(ph="B")
        end = self._event(ph="E", ts=5)
        del begin["dur"], end["dur"]
        assert validate_chrome_trace([begin, end]) == []

    def test_end_without_begin(self):
        end = self._event(ph="E")
        del end["dur"]
        (problem,) = validate_chrome_trace([end])
        assert "no matching 'B'" in problem

    def test_mismatched_end_name(self):
        begin = self._event(ph="B", name="outer")
        end = self._event(ph="E", name="other", ts=5)
        del begin["dur"], end["dur"]
        (problem,) = validate_chrome_trace([begin, end])
        assert "closes span 'outer'" in problem

    def test_unclosed_begin_reported(self):
        begin = self._event(ph="B")
        del begin["dur"]
        (problem,) = validate_chrome_trace([begin])
        assert "never closed" in problem

    def test_begin_end_tracked_per_pid_tid(self):
        b1 = self._event(ph="B", name="a", pid=1)
        b2 = self._event(ph="B", name="b", pid=2)
        e1 = self._event(ph="E", name="a", pid=1, ts=5)
        e2 = self._event(ph="E", name="b", pid=2, ts=5)
        for event in (b1, b2, e1, e2):
            del event["dur"]
        # Interleaved across tracks, nested correctly within each.
        assert validate_chrome_trace([b1, b2, e1, e2]) == []

    def test_context_label_used_in_messages(self):
        (problem,) = validate_chrome_trace([self._event(ph="Z")], context="f.json")
        assert problem.startswith("f.json.traceEvents[0]")


def _request_records(request_id="req-1", trace_id="ab" * 16):
    """trace.jsonl-style records for one traced request plus a stranger."""
    return [
        {
            "name": "server.request",
            "index": 0,
            "parent": None,
            "depth": 0,
            "start_unix": 100.0,
            "duration_ns": 5_000_000,
            "attrs": {"id": request_id, "op": "solve"},
            "trace_id": trace_id,
            "remote_parent": None,
        },
        {
            "name": "server.dispatch",
            "index": 1,
            "parent": 0,
            "depth": 1,
            "start_unix": 100.001,
            "duration_ns": 3_000_000,
            "attrs": {},
            "trace_id": trace_id,
            "remote_parent": None,
        },
        {
            "name": "solver.solve",
            "index": 2,
            "parent": 1,
            "depth": 2,
            "start_unix": 100.002,
            "duration_ns": 1_000_000,
            "attrs": {"origin": "worker"},
            "trace_id": trace_id,
            "remote_parent": None,
        },
        # A different request entirely — must be excluded.
        {
            "name": "server.request",
            "index": 3,
            "parent": None,
            "depth": 0,
            "start_unix": 200.0,
            "duration_ns": 1_000,
            "attrs": {"id": "other", "op": "ping"},
            "trace_id": "cd" * 16,
            "remote_parent": None,
        },
    ]


class TestRequestTrace:
    def test_selects_only_the_requests_trace(self):
        from repro.obs.export import request_trace

        document = request_trace(_request_records(), "req-1")
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["request_id"] == "req-1"
        assert document["otherData"]["trace_ids"] == ["ab" * 16]
        names = [event["name"] for event in document["traceEvents"]]
        assert names == ["server.request", "server.dispatch", "solver.solve"]
        assert "other" not in {
            event["args"].get("id") for event in document["traceEvents"]
        }

    def test_worker_origin_spans_get_their_own_pid(self):
        from repro.obs.export import request_trace

        document = request_trace(_request_records(), "req-1")
        by_name = {e["name"]: e for e in document["traceEvents"]}
        assert by_name["server.request"]["pid"] == 1
        assert by_name["solver.solve"]["pid"] == 2

    def test_timestamps_relative_to_earliest_selected_span(self):
        from repro.obs.export import request_trace

        document = request_trace(_request_records(), "req-1")
        ts = [event["ts"] for event in document["traceEvents"]]
        assert ts[0] == 0.0
        assert ts == sorted(ts)

    def test_unknown_request_id_raises(self):
        from repro.obs.export import request_trace

        with pytest.raises(ValueError, match="not found"):
            request_trace(_request_records(), "no-such-request")

    def test_garbage_records_are_skipped(self):
        from repro.obs.export import request_trace

        records = [None, "junk", {"no": "trace_id"}, *_request_records()]
        document = request_trace(records, "req-1")
        assert len(document["traceEvents"]) == 3
