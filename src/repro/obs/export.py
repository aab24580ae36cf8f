"""Trace export: span forests as Chrome trace JSON, folded stacks, JSONL.

Three interchange formats for one recorded trace:

- **perfetto** — the Chrome trace-event JSON format (an object with a
  ``traceEvents`` list of complete ``ph: "X"`` events), loadable in
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``;
- **folded** — one ``root;child;leaf <self_ns>`` line per distinct
  stack, the input format of Brendan Gregg's ``flamegraph.pl``; the
  values are self times, so they re-sum to total traced wall-clock;
- **jsonl** — one :meth:`repro.obs.trace.Span.as_dict` object per line,
  the lossless format for ad-hoc tooling.

:func:`validate_chrome_trace` is the structural schema check CI and the
test-suite run over exported traces (``repro check trace.json``, as
for every other artifact): every event must be a
complete event carrying a non-negative ``dur`` or one half of a
correctly nested ``B``/``E`` pair.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.obs import trace as obs_trace
from repro.obs.profile import self_times_ns
from repro.obs.trace import Span

EXPORT_FORMATS = ("perfetto", "folded", "jsonl")

# Default filename per format (used by the CLI when -o is omitted).
DEFAULT_FILENAMES = {
    "perfetto": "trace.json",
    "folded": "trace.folded",
    "jsonl": "trace.jsonl",
}

_EVENT_PHASES = ("X", "B", "E")


def to_chrome_trace(spans: Sequence[Span], pid: int = 1) -> dict[str, Any]:
    """The span forest as a Chrome trace-event payload.

    Timestamps are microseconds relative to the earliest span, so the
    trace always starts at ``ts = 0``; every span becomes one complete
    (``ph: "X"``) event with its attributes (and depth) under ``args``.
    """
    origin = min((s.start_ns for s in spans), default=0)
    events = []
    for s in spans:
        args = {**s.attrs, "depth": s.depth, "index": s.index}
        if s.trace_id is not None:
            args["trace_id"] = s.trace_id
        events.append(
            {
                "name": s.name,
                "cat": "repro",
                "ph": "X",
                "ts": (s.start_ns - origin) / 1e3,
                "dur": s.duration_ns / 1e3,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export", "spans": len(spans)},
    }


def chrome_trace_json(spans: Sequence[Span], pid: int = 1) -> str:
    return json.dumps(to_chrome_trace(spans, pid=pid), sort_keys=True, indent=1) + "\n"


def _stack_of(span: Span, by_index: dict[int, Span]) -> str:
    names = [span.name]
    current = span
    while current.parent_index is not None:
        parent = by_index.get(current.parent_index)
        if parent is None:
            break
        names.append(parent.name)
        current = parent
    return ";".join(reversed(names))


def to_folded(spans: Sequence[Span]) -> str:
    """Folded-stack lines (``flamegraph.pl`` input): per distinct stack,
    the summed **self** time in nanoseconds.  Lines are sorted by stack
    for deterministic output; stacks whose self time rounds to zero are
    still emitted so the lines re-sum exactly to the total self time."""
    by_index = {s.index: s for s in spans}
    selfs = self_times_ns(spans)
    folded: dict[str, int] = {}
    for s, self_ns in zip(spans, selfs):
        stack = _stack_of(s, by_index)
        folded[stack] = folded.get(stack, 0) + self_ns
    return "".join(f"{stack} {folded[stack]}\n" for stack in sorted(folded))


def to_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per span (``Span.as_dict``), in start order."""
    return "".join(json.dumps(s.as_dict(), sort_keys=True) + "\n" for s in spans)


def export_trace(format: str, spans: Sequence[Span] | None = None) -> str:
    """The serialized trace in one of :data:`EXPORT_FORMATS` (defaults
    to the global tracer's spans)."""
    if format not in EXPORT_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r}; expected one of {EXPORT_FORMATS}"
        )
    the_spans = obs_trace.spans() if spans is None else list(spans)
    if format == "perfetto":
        return chrome_trace_json(the_spans)
    if format == "folded":
        return to_folded(the_spans)
    return to_jsonl(the_spans)


def write_trace(
    path: str | Path, format: str, spans: Sequence[Span] | None = None
) -> Path:
    """Serialize and write the trace; returns the written path."""
    target = Path(path)
    target.write_text(export_trace(format, spans))
    return target


# ---------------------------------------------------------------------------
# Per-request trace assembly (repro runs trace-request).
# ---------------------------------------------------------------------------


def request_trace(
    records: Sequence[dict[str, Any]], request_id: str
) -> dict[str, Any]:
    """One request's Chrome trace assembled from merged span records.

    ``records`` are :meth:`repro.obs.trace.Span.as_dict` payloads — a
    server run's ``trace.jsonl``, holding server-side dispatch spans and
    adopted worker-process spans for *many* requests interleaved.  The
    request id selects the spans: every record whose ``attrs.id``
    matches names a trace id (the ``server.request`` root span carries
    both), and every record sharing one of those trace ids joins the
    assembled trace.  Server-side spans render as ``pid 1``, spans
    adopted from worker processes (``attrs.origin == "worker"``) as
    ``pid 2``, with timestamps in microseconds relative to the earliest
    selected span.  Raises ValueError when the request id appears
    nowhere.
    """
    trace_ids = set()
    for record in records:
        if not isinstance(record, dict) or not record.get("trace_id"):
            continue
        attrs = record.get("attrs")
        if isinstance(attrs, dict) and attrs.get("id") == request_id:
            trace_ids.add(record["trace_id"])
    if not trace_ids:
        raise ValueError(f"request id {request_id!r} not found in trace records")
    picked = [
        record
        for record in records
        if isinstance(record, dict) and record.get("trace_id") in trace_ids
    ]
    origin_us = min(float(r["start_unix"]) for r in picked) * 1e6
    events = []
    for record in sorted(picked, key=lambda r: float(r["start_unix"])):
        attrs = record.get("attrs")
        attrs = dict(attrs) if isinstance(attrs, dict) else {}
        pid = 2 if attrs.get("origin") == "worker" else 1
        try:
            duration_ns = float(record.get("duration_ns", 0))
        except (TypeError, ValueError):
            duration_ns = 0.0
        events.append(
            {
                "name": str(record.get("name") or "?"),
                "cat": "repro",
                "ph": "X",
                "ts": max(0.0, float(record["start_unix"]) * 1e6 - origin_us),
                "dur": max(0.0, duration_ns / 1e3),
                "pid": pid,
                "tid": 1,
                "args": {
                    **attrs,
                    "index": record.get("index"),
                    "depth": record.get("depth"),
                    "parent": record.get("parent"),
                    "remote_parent": record.get("remote_parent"),
                    "trace_id": record.get("trace_id"),
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.export",
            "request_id": request_id,
            "trace_ids": sorted(trace_ids),
            "spans": len(events),
        },
    }


# ---------------------------------------------------------------------------
# Schema check for exported Chrome traces.
# ---------------------------------------------------------------------------


def validate_chrome_trace(payload: object, context: str = "trace") -> list[str]:
    """All structural problems in a parsed Chrome trace (empty = valid).

    Accepts both container layouts Chrome does: an object with a
    ``traceEvents`` list, or a bare event list.  Each event must carry a
    string ``name``, numeric non-negative ``ts``, integer ``pid`` and
    ``tid``, and a phase that is either ``"X"`` (with a non-negative
    ``dur``) or a ``"B"``/``"E"`` pair that nests correctly per
    ``(pid, tid)`` track.
    """
    problems: list[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return [f"{context}: 'traceEvents' must be a list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"{context}: top level must be an object or an event list"]
    open_stacks: dict[tuple[Any, Any], list[str]] = {}
    for position, event in enumerate(events):
        where = f"{context}.traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: must be an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: 'name' must be a non-empty string")
            name = "?"
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        for track_field in ("pid", "tid"):
            if not isinstance(event.get(track_field), int):
                problems.append(f"{where}: {track_field!r} must be an integer")
        phase = event.get("ph")
        if phase not in _EVENT_PHASES:
            problems.append(
                f"{where}: 'ph' is {phase!r}, expected one of {_EVENT_PHASES}"
            )
            continue
        track = (event.get("pid"), event.get("tid"))
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(
                    f"{where}: complete event needs a non-negative 'dur'"
                )
        elif phase == "B":
            open_stacks.setdefault(track, []).append(name)
        else:  # "E"
            stack = open_stacks.get(track) or []
            if not stack:
                problems.append(f"{where}: 'E' event with no matching 'B'")
            else:
                opened = stack.pop()
                if opened != name:
                    problems.append(
                        f"{where}: 'E' for {name!r} closes span {opened!r}"
                    )
    for track, stack in sorted(open_stacks.items(), key=repr):
        for name in stack:
            problems.append(
                f"{context}: 'B' event {name!r} on track {track} never closed"
            )
    return problems
