"""The wire protocol: strict-but-total parsing, versioning, round trips."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.solvers.registry import ANSWER_SETTINGS
from repro.obs.context import TraceContext, derived_trace_id
from repro.server import protocol
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_UNKNOWN_OP,
    ERROR_UNSUPPORTED_SCHEMA,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    encode_request,
    error_response,
    ok_response,
    parse_request,
    parse_response,
)

GRAPH = "# bipartite\nL a\nR b\nE a b\n"


def _line(**overrides):
    payload = {"schema": PROTOCOL_SCHEMA, "id": "r1", "op": "solve", "graph": GRAPH}
    payload.update(overrides)
    return json.dumps({k: v for k, v in payload.items() if v is not ...})


class TestParseRequest:
    def test_minimal_solve(self):
        request = parse_request(_line())
        assert request.id == "r1"
        assert request.op == "solve"
        assert request.graph_text == GRAPH
        assert request.method == "auto"
        assert request.deadline is None
        assert request.options == {}
        assert request.nbytes == len(_line().encode())

    def test_schema_defaults_to_current(self):
        line = json.dumps({"id": "r1", "op": "ping"})
        assert parse_request(line).op == "ping"

    def test_bytes_input_accepted(self):
        request = parse_request(_line().encode("utf-8"))
        assert request.id == "r1"

    def test_all_fields(self):
        line = _line(method="exact", deadline=1.5, options={"node_budget": 3})
        request = parse_request(line)
        assert request.method == "exact"
        assert request.deadline == 1.5
        assert request.options == {"node_budget": 3}

    def test_negative_deadline_clamps_to_zero(self):
        # An already-overrun budget: the solve degrades instantly
        # instead of tripping the Budget constructor server-side.
        request = parse_request(_line(deadline=-3.0))
        assert request.deadline == 0.0

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2, 3]",
            '"a string"',
            json.dumps({"op": "solve", "graph": GRAPH}),  # no id
            json.dumps({"id": "", "op": "solve", "graph": GRAPH}),
            json.dumps({"id": "r", "op": ""}),
            json.dumps({"id": "r"}),  # no op
            json.dumps({"id": "r", "op": "solve"}),  # no graph
            json.dumps({"id": "r", "op": "solve", "graph": "  "}),
            json.dumps({"id": "r", "op": "solve", "graph": 7}),
            json.dumps({"id": "r", "op": "ping", "method": 9}),
            json.dumps({"id": "r", "op": "ping", "deadline": "soon"}),
            json.dumps({"id": "r", "op": "ping", "deadline": True}),
            json.dumps({"id": "r", "op": "ping", "options": [1]}),
        ],
    )
    def test_defective_lines_raise_bad_request(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps({"id": "r", "op": "frobnicate"}))
        assert excinfo.value.code == ERROR_UNKNOWN_OP

    def test_unsupported_schema_version(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(_line(schema="repro-serve/v99"))
        assert excinfo.value.code == ERROR_UNSUPPORTED_SCHEMA

    def test_oversized_line_rejected(self):
        huge = _line(graph="E a b\n" * (MAX_LINE_BYTES // 6))
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(huge)
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"\xff\xfe{}")
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_graph_ignored_for_non_solve_ops(self):
        request = parse_request(
            json.dumps({"id": "r", "op": "ping", "graph": GRAPH})
        )
        assert request.graph_text is None


class TestForwardCompat:
    """Unknown fields from newer clients are ignored, never rejected."""

    def test_unknown_top_level_fields_ignored(self):
        request = parse_request(
            _line(future_field="x", priority=9, hints={"a": 1})
        )
        assert request.id == "r1"
        assert request.op == "solve"
        assert request.trace is None

    def test_trace_context_round_trip(self):
        ctx = TraceContext(derived_trace_id(5, 11), parent_span_id=3)
        line = encode_request("r1", "solve", GRAPH, trace=ctx)
        assert parse_request(line.rstrip("\n")).trace == ctx

    def test_absent_trace_parses_to_none(self):
        assert parse_request(_line()).trace is None

    @pytest.mark.parametrize(
        "trace",
        [
            "not a dict",
            42,
            {},
            {"trace_id": "short"},
            {"trace_id": 17},
            {"trace_id": "Z" * 32},
        ],
    )
    def test_malformed_trace_degrades_to_untraced(self, trace):
        # A correlation hint must never cost a request: bad trace
        # payloads parse as None instead of raising bad_request.
        request = parse_request(_line(trace=trace))
        assert request.trace is None

    def test_trace_with_bad_parent_keeps_the_id(self):
        trace_id = derived_trace_id(0, 0)
        request = parse_request(
            _line(trace={"trace_id": trace_id, "parent_span_id": "x"})
        )
        assert request.trace == TraceContext(trace_id)


class TestRoundTrip:
    @pytest.mark.parametrize("op", OPS)
    def test_encode_then_parse(self, op):
        graph = GRAPH if op in protocol.SOLVE_OPS else None
        # explain carries relation texts instead of a graph (as extra
        # top-level fields any other op ignores).
        extra = (
            {"left": "1\n2\n", "right": "2\n3\n", "predicate": "equality"}
            if op == protocol.OP_EXPLAIN
            else None
        )
        line = encode_request("x7", op, graph, deadline=2.0, extra=extra)
        assert line.endswith("\n") and line.count("\n") == 1
        request = parse_request(line.rstrip("\n"))
        assert request.id == "x7"
        assert request.op == op
        assert request.deadline == 2.0
        assert request.graph_text == graph

    @given(
        st.text(min_size=1, max_size=20).filter(str.strip),
        st.dictionaries(
            st.sampled_from(sorted(ANSWER_SETTINGS)), st.integers(), max_size=2
        ),
    )
    def test_options_survive_round_trip(self, request_id, options):
        line = encode_request(request_id, "solve", GRAPH, options=options)
        request = parse_request(line.rstrip("\n"))
        assert request.id == request_id
        assert request.options == options

    @given(
        st.text(min_size=1, max_size=8).filter(
            lambda name: name not in ANSWER_SETTINGS
        ),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
    )
    def test_undeclared_solve_option_is_bad_request(self, name, value):
        line = encode_request("r1", "solve", GRAPH, options={name: value})
        with pytest.raises(ProtocolError) as exc:
            parse_request(line.rstrip("\n"))
        assert exc.value.code == ERROR_BAD_REQUEST

    @pytest.mark.parametrize("value", ["x", 1.5, True, None, [1]])
    def test_mistyped_solve_option_is_bad_request(self, value):
        line = encode_request("r1", "plan", GRAPH, options={"node_budget": value})
        with pytest.raises(ProtocolError) as exc:
            parse_request(line.rstrip("\n"))
        assert exc.value.code == ERROR_BAD_REQUEST


class TestResponses:
    def test_ok_response_shape(self):
        payload = parse_response(ok_response("r1", "solve", {"pi": 4}))
        assert payload["ok"] is True
        assert payload["id"] == "r1"
        assert payload["schema"] == PROTOCOL_SCHEMA
        assert payload["result"] == {"pi": 4}

    def test_error_response_shape(self):
        line = error_response("r1", ERROR_BAD_REQUEST, "boom", retry_after_ms=50)
        payload = parse_response(line)
        assert payload["ok"] is False
        assert payload["error"]["code"] == ERROR_BAD_REQUEST
        assert payload["retry_after_ms"] == 50

    def test_error_response_without_id(self):
        payload = parse_response(error_response(None, ERROR_BAD_REQUEST, "x"))
        assert payload["id"] is None

    def test_responses_are_single_lines(self):
        for line in (
            ok_response("a", "ping", {}),
            error_response("a", ERROR_BAD_REQUEST, "multi\nline message"),
        ):
            assert line.endswith("\n")
            assert line.count("\n") == 1

    def test_malformed_response_raises(self):
        with pytest.raises(ProtocolError):
            parse_response("not json")
        with pytest.raises(ProtocolError):
            parse_response(json.dumps({"id": "r"}))  # no ok field
