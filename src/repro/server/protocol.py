"""The wire protocol of ``repro serve``: versioned newline-delimited JSON.

One request is one JSON object on one line; one response is one JSON
object on one line.  Responses echo the request ``id``, so a client may
pipeline many requests on a single connection and match answers out of
order.  The schema is versioned (``repro-serve/v1``) and every response
carries it, mirroring the repo's other serialized artifacts
(``repro-bench/v2``, ``repro-events/v1``).

Request shape::

    {"schema": "repro-serve/v1", "id": "r1", "op": "solve",
     "graph": "# bipartite\\nL a\\nR b\\nE a b\\n",
     "method": "auto", "deadline": 1.5, "options": {}}

Operations:

``solve``
    Solve PEBBLE on the graph (the text format of
    :mod:`repro.graphs.io`); the result carries costs, status, and the
    full scheme as vertex pairs.  ``options`` may carry only the
    registry's answer settings, as integers (``node_budget``,
    ``exact_edge_limit``); anything else is ``bad_request``.  So is a
    ``method`` outside the registry's methods, and so is a solver's
    refusal of the graph under the requested method and options
    (``equijoin`` on a graph that is not a union of bicliques, ``exact``
    past its ``node_budget``), answered with the solver's reason.
``plan``
    Same pipeline, but the response omits the scheme — a join-*plan*
    summary (per-component shape, costs, status) at a fraction of the
    response bytes.
``explain``
    Plan (and with ``options.analyze`` execute) a join described by two
    relation texts (``left``/``right``, the format of
    :mod:`repro.relations.io`) and a ``predicate`` name; the result
    carries the plan's structured record (``repro-plan/v1``) plus its
    text renderings — the same record ``repro explain`` serializes
    locally, so the two surfaces cannot drift.
``ping``
    Liveness probe; carries no payload.
``stats``
    Server statistics: request/admission counters, queue depth,
    in-flight bytes, cache hit/miss/store counts, pool shape.
``metrics``
    Live telemetry as Prometheus text format v0.0.4 (see
    :mod:`repro.obs.telemetry`): per-op request counters and latency
    histograms over the server's rolling window, admission/cache/runtime
    counters.  The result carries the exposition under ``text`` plus its
    ``content_type``.
``shutdown``
    Ask the server to stop accepting work and exit gracefully after
    in-flight requests drain.

Error responses carry a stable ``code`` from :data:`ERROR_CODES`;
``overloaded`` rejections additionally carry ``retry_after_ms`` — the
admission controller's backoff hint (see
:mod:`repro.server.admission`).

Requests may carry an optional ``trace`` object (a serialized
:class:`repro.obs.context.TraceContext`) correlating the server-side
span tree with the caller's: a well-formed one is adopted as the
request's trace identity, a malformed one degrades to "untraced".
Forward compatibility is part of the contract: unknown top-level request
fields from newer clients are ignored, never rejected, so the ``trace``
field (and future additions) need no schema bump.

Parsing is strict but total: any defective line produces a
:class:`ProtocolError` (which the server turns into a ``bad_request``
response), never a traceback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.solvers.registry import ANSWER_SETTINGS, METHODS
from repro.errors import ReproError
from repro.obs import context as obs_context
from repro.obs.context import TraceContext

PROTOCOL_SCHEMA = "repro-serve/v1"

OP_SOLVE = "solve"
OP_PLAN = "plan"
OP_EXPLAIN = "explain"
OP_PING = "ping"
OP_STATS = "stats"
OP_METRICS = "metrics"
OP_SHUTDOWN = "shutdown"

OPS = (OP_SOLVE, OP_PLAN, OP_EXPLAIN, OP_PING, OP_STATS, OP_METRICS, OP_SHUTDOWN)

# Ops that carry a graph payload and run through the dispatcher.
SOLVE_OPS = (OP_SOLVE, OP_PLAN)

# Wire names the explain op accepts for 'predicate' (the CLI's
# --predicate vocabulary); "band" additionally carries 'band_width'.
EXPLAIN_PREDICATES = ("band", "containment", "equality", "overlap", "set-overlap")

# Stable machine-readable error codes.
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNSUPPORTED_SCHEMA = "unsupported_schema"
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_INVALID_GRAPH = "invalid_graph"
ERROR_OVERLOADED = "overloaded"
ERROR_INTERNAL = "internal"

ERROR_CODES = (
    ERROR_BAD_REQUEST,
    ERROR_UNSUPPORTED_SCHEMA,
    ERROR_UNKNOWN_OP,
    ERROR_INVALID_GRAPH,
    ERROR_OVERLOADED,
    ERROR_INTERNAL,
)

# One request line is capped (a graph this large should not travel over
# a line-oriented protocol; it also bounds admission accounting).
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(ReproError):
    """A defective request line; ``code`` is from :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """One parsed, validated request."""

    id: str
    op: str
    graph_text: str | None = None
    method: str = "auto"
    deadline: float | None = None
    options: dict[str, Any] = field(default_factory=dict)
    nbytes: int = 0  # wire size, the admission controller's currency
    trace: TraceContext | None = None  # client-supplied trace identity
    # The explain op's payload: two relation texts and a predicate name.
    left_text: str | None = None
    right_text: str | None = None
    predicate: str | None = None
    band_width: float = 0.0


def parse_request(line: str | bytes) -> Request:
    """Parse one request line; raise :class:`ProtocolError` on any defect."""
    if isinstance(line, bytes):
        nbytes = len(line)
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(ERROR_BAD_REQUEST, f"not UTF-8: {exc}") from exc
    else:
        nbytes = len(line.encode("utf-8"))
    if nbytes > MAX_LINE_BYTES:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"request line is {nbytes} bytes (limit {MAX_LINE_BYTES})",
        )
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"unparseable JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "request must be a JSON object")
    schema = payload.get("schema", PROTOCOL_SCHEMA)
    if schema != PROTOCOL_SCHEMA:
        raise ProtocolError(
            ERROR_UNSUPPORTED_SCHEMA,
            f"unsupported schema {schema!r} (this server speaks {PROTOCOL_SCHEMA})",
        )
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(ERROR_BAD_REQUEST, "'id' must be a non-empty string")
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError(ERROR_BAD_REQUEST, "'op' must be a non-empty string")
    if op not in OPS:
        raise ProtocolError(
            ERROR_UNKNOWN_OP, f"unknown op {op!r} (ops: {', '.join(OPS)})"
        )
    graph_text = payload.get("graph")
    if op in SOLVE_OPS:
        if not isinstance(graph_text, str) or not graph_text.strip():
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"op {op!r} requires a non-empty 'graph' string"
            )
    else:
        graph_text = None
    left_text = payload.get("left")
    right_text = payload.get("right")
    predicate = payload.get("predicate")
    band_width = payload.get("band_width", 0.0)
    if op == OP_EXPLAIN:
        for name, value in (("left", left_text), ("right", right_text)):
            if not isinstance(value, str) or not value.strip():
                raise ProtocolError(
                    ERROR_BAD_REQUEST,
                    f"op 'explain' requires a non-empty {name!r} relation string",
                )
        if not isinstance(predicate, str) or predicate not in EXPLAIN_PREDICATES:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                "'predicate' must be one of "
                + ", ".join(EXPLAIN_PREDICATES),
            )
        if isinstance(band_width, bool) or not isinstance(
            band_width, (int, float)
        ):
            raise ProtocolError(ERROR_BAD_REQUEST, "'band_width' must be a number")
        band_width = float(band_width)
    else:
        left_text = right_text = predicate = None
        band_width = 0.0
    method = payload.get("method", "auto")
    if not isinstance(method, str):
        raise ProtocolError(ERROR_BAD_REQUEST, "'method' must be a string")
    if method not in METHODS:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"unknown method {method!r} (methods: {', '.join(METHODS)})",
        )
    deadline = payload.get("deadline")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "'deadline' must be a number of seconds"
            )
        deadline = float(deadline)
        if deadline < 0:
            # A negative deadline is an already-overrun budget: clamp to
            # zero so the solve degrades instantly instead of erroring.
            deadline = 0.0
    options = payload.get("options", {})
    if not isinstance(options, dict) or any(
        not isinstance(k, str) for k in options
    ):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "'options' must be an object with string keys"
        )
    if op in SOLVE_OPS:
        _check_solve_options(options)
    # Lenient by design: trace context is a correlation hint, so a
    # malformed (or absent) 'trace' yields None rather than an error.
    trace = obs_context.from_wire(payload.get("trace"))
    return Request(
        id=request_id,
        op=op,
        graph_text=graph_text,
        method=method,
        deadline=deadline,
        options=dict(options),
        nbytes=nbytes,
        trace=trace,
        left_text=left_text,
        right_text=right_text,
        predicate=predicate,
        band_width=band_width,
    )


def _check_solve_options(options: dict[str, Any]) -> None:
    """A solve's options are the registry's answer settings
    (:data:`~repro.core.solvers.registry.ANSWER_SETTINGS`), each of its
    declared type.  The deadline is a request field of its own, and a
    budget or clock is an in-process object no request can carry."""
    for name, value in options.items():
        kind = ANSWER_SETTINGS.get(name)
        if kind is None:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"unknown option {name!r} (options: {', '.join(ANSWER_SETTINGS)})",
            )
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"option {name!r} must be an {kind.__name__}"
            )


def encode_request(
    request_id: str,
    op: str,
    graph_text: str | None = None,
    method: str = "auto",
    deadline: float | None = None,
    options: dict[str, Any] | None = None,
    trace: TraceContext | None = None,
    extra: dict[str, Any] | None = None,
) -> str:
    """One request as a single JSON line (trailing newline included).

    ``extra`` merges additional top-level fields (the explain op's
    ``left``/``right``/``predicate``, or future additions — servers
    ignore fields they do not know) without ever overriding the named
    parameters.
    """
    payload: dict[str, Any] = {
        "schema": PROTOCOL_SCHEMA,
        "id": request_id,
        "op": op,
    }
    if graph_text is not None:
        payload["graph"] = graph_text
    if method != "auto":
        payload["method"] = method
    if deadline is not None:
        payload["deadline"] = deadline
    if options:
        payload["options"] = options
    if trace is not None:
        payload["trace"] = trace.as_wire()
    if extra:
        for key, value in extra.items():
            payload.setdefault(key, value)
    return json.dumps(payload, sort_keys=True) + "\n"


def ok_response(request_id: str, op: str, result: dict[str, Any]) -> str:
    """A success response as a single JSON line."""
    return (
        json.dumps(
            {
                "schema": PROTOCOL_SCHEMA,
                "id": request_id,
                "op": op,
                "ok": True,
                "result": result,
            },
            sort_keys=True,
        )
        + "\n"
    )


def error_response(
    request_id: str | None,
    code: str,
    message: str,
    retry_after_ms: int | None = None,
) -> str:
    """An error response as a single JSON line.

    ``request_id`` may be ``None`` when the line was too defective to
    recover an id; the client then correlates by connection order.
    """
    payload: dict[str, Any] = {
        "schema": PROTOCOL_SCHEMA,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if retry_after_ms is not None:
        payload["retry_after_ms"] = retry_after_ms
    return json.dumps(payload, sort_keys=True) + "\n"


def parse_response(line: str | bytes) -> dict[str, Any]:
    """Parse one response line (client side); raise on malformed lines."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"unparseable response: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError(ERROR_BAD_REQUEST, "response must carry 'ok'")
    return payload


__all__ = [
    "ERROR_CODES",
    "ERROR_BAD_REQUEST",
    "ERROR_INTERNAL",
    "ERROR_INVALID_GRAPH",
    "ERROR_OVERLOADED",
    "ERROR_UNKNOWN_OP",
    "ERROR_UNSUPPORTED_SCHEMA",
    "EXPLAIN_PREDICATES",
    "MAX_LINE_BYTES",
    "OPS",
    "OP_EXPLAIN",
    "OP_METRICS",
    "OP_PING",
    "OP_PLAN",
    "OP_SHUTDOWN",
    "OP_SOLVE",
    "OP_STATS",
    "PROTOCOL_SCHEMA",
    "ProtocolError",
    "Request",
    "SOLVE_OPS",
    "encode_request",
    "error_response",
    "ok_response",
    "parse_request",
    "parse_response",
]
