"""The server's ``explain`` op: wire validation and end-to-end plans.

The op carries two relation texts (one value per line) instead of a
graph; the payload it answers with is byte-for-byte the document
``repro explain --json`` emits locally — one source of truth for both
surfaces.
"""

import json

import pytest

from repro.obs.planquality import PLAN_SCHEMA, validate_records
from repro.server.client import ServeClient
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    EXPLAIN_PREDICATES,
    OP_EXPLAIN,
    PROTOCOL_SCHEMA,
    ProtocolError,
    encode_request,
    parse_request,
)
from repro.server.server import SolveServer, serve_background

LEFT = "1\n2\n3\n"
RIGHT = "2\n3\n4\n"


def _server(tmp_path, **kwargs):
    kwargs.setdefault("unix_path", tmp_path / "serve.sock")
    kwargs.setdefault("jobs", 1)
    return SolveServer(**kwargs)


def _line(**overrides):
    payload = {
        "schema": PROTOCOL_SCHEMA,
        "id": "r1",
        "op": "explain",
        "left": LEFT,
        "right": RIGHT,
        "predicate": "equality",
    }
    payload.update(overrides)
    return json.dumps({k: v for k, v in payload.items() if v is not None})


class TestParseExplainRequest:
    def test_minimal(self):
        request = parse_request(_line())
        assert request.op == OP_EXPLAIN
        assert request.left_text == LEFT
        assert request.right_text == RIGHT
        assert request.predicate == "equality"
        assert request.band_width == 0.0
        assert request.graph_text is None

    @pytest.mark.parametrize("missing", ["left", "right"])
    def test_missing_relation_rejected(self, missing):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(_line(**{missing: None}))
        assert excinfo.value.code == ERROR_BAD_REQUEST
        assert missing in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["", "   \n", 7])
    def test_defective_relation_rejected(self, bad):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(_line(left=bad))
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(_line(predicate="theta"))
        assert excinfo.value.code == ERROR_BAD_REQUEST
        for name in EXPLAIN_PREDICATES:
            assert name in str(excinfo.value)

    def test_band_width_must_be_a_number(self):
        for bad in ("0.5", True, [1]):
            with pytest.raises(ProtocolError):
                parse_request(_line(predicate="band", band_width=bad))
        request = parse_request(_line(predicate="band", band_width=2))
        assert request.band_width == 2.0

    def test_non_explain_ops_null_the_fields(self):
        # The relation fields ride as extra top-level keys; any other op
        # ignores them (forward compatibility with older servers).
        request = parse_request(_line(op="ping"))
        assert request.left_text is None
        assert request.right_text is None
        assert request.predicate is None
        assert request.band_width == 0.0

    def test_encode_request_merges_extra_fields(self):
        line = encode_request(
            "r1",
            OP_EXPLAIN,
            extra={"left": LEFT, "right": RIGHT, "predicate": "equality"},
        )
        request = parse_request(line)
        assert request.left_text == LEFT
        assert request.predicate == "equality"

    def test_extra_cannot_override_named_fields(self):
        line = encode_request("r1", "ping", extra={"op": "shutdown"})
        assert parse_request(line).op == "ping"


class TestExplainEndToEnd:
    def test_plan_only(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                answer = client.explain(LEFT, RIGHT)
                assert answer["ok"] is True
                result = answer["result"]
                assert result["schema"] == PLAN_SCHEMA
                assert result["algorithm"] == "hash"
                assert result["explain"].startswith("R(3 tuples)")
                record = result["record"]
                assert validate_records([record]) == []
                # Plan-only: no execution, so no actuals on the record.
                assert record["actual_output"] is None
                assert result["render"].splitlines()[0] == result["explain"]

    def test_analyze_with_shadow(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                result = client.explain(
                    LEFT, RIGHT, analyze=True, shadow=True
                )["result"]
                record = result["record"]
                assert validate_records([record]) == []
                assert record["actual_output"] == 2
                assert record["q_error"] >= 1.0
                assert record["shadow_checked"] is True
                assert record["regret"] >= 0
                assert "actual m = 2" in result["explain"]
                assert "a-posteriori best:" in result["render"]

    def test_generic_predicate(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                result = client.explain(
                    "{a}\n{b}\n", "{a|c}\n{d}\n", predicate="set-overlap",
                    analyze=True,
                )["result"]
                assert result["algorithm"] == "block-NL"
                assert result["record"]["actual_output"] == 1

    def test_band_predicate(self, tmp_path):
        left = "".join(f"{i}.0\n" for i in range(8))
        right = "".join(f"{i}.25\n" for i in range(8))
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                result = client.explain(
                    left, right, predicate="band", band_width=0.5, analyze=True,
                )["result"]
                assert result["algorithm"] == "band-merge"
                assert result["record"]["actual_output"] == 8

    def test_bad_predicate_name_is_bad_request(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                answer = client.explain(LEFT, RIGHT, predicate="theta")
                assert answer["ok"] is False
                assert answer["error"]["code"] == "bad_request"

    def test_defective_relation_is_invalid_graph(self, tmp_path):
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                answer = client.explain("1\nnot-a-number {\n", RIGHT)
                assert answer["ok"] is False
                assert answer["error"]["code"] == "invalid_graph"

    def test_domain_mismatch_is_invalid_graph(self, tmp_path):
        # Numeric left vs string right: the query constructor rejects
        # the pairing — a client input defect, not an internal error.
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                answer = client.explain(LEFT, "x y z\n")
                assert answer["ok"] is False
                assert answer["error"]["code"] == "invalid_graph"

    def test_solve_still_works_alongside_explain(self, tmp_path):
        graph = "# bipartite\nL a\nR b\nE a b\n"
        with serve_background(_server(tmp_path)) as server:
            with ServeClient(unix_path=server.address) as client:
                assert client.explain(LEFT, RIGHT)["ok"] is True
                solved = client.solve(graph)
                assert solved["ok"] is True
                assert solved["result"]["effective_cost"] == 1
