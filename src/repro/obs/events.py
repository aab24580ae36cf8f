"""Structured event log: discrete, correlated facts about a run.

Spans (:mod:`repro.obs.trace`) answer "where did the time go"; the event
log answers "what *happened*, in what order".  An :class:`Event` is one
discrete occurrence — a budget tripping, a degradation-ladder step, a
solver phase change, an injected fault, a bench scenario starting or
finishing, a solve-cache hit or miss, a pool task dispatched or
collected — stamped with

- ``seq`` — a monotonic per-process sequence number, so total order is
  recoverable from the log alone even when wall clocks are equal;
- ``run_id`` — the observed run the event belongs to (``None`` outside a
  run), the cross-artifact correlation key of the run registry;
- ``span_id`` — the ``index`` of the innermost open span at emission
  time (``None`` at top level), correlating events with the trace.

Events serialize as JSONL (``events.jsonl`` in each run directory, one
object per line), so anytime/robustness behaviour is greppable::

    grep '"name": "ladder.degraded"' runs/*/events.jsonl

Like the tracer and metrics registry, the log is **off by default**: an
emission site costs one attribute check while recording is off
(:mod:`repro.obs.recorder`), and recording is behaviour-neutral
(property-tested alongside the other collectors).

>>> from repro import obs
>>> from repro.obs import events
>>> obs.reset(); obs.enable()
>>> events.emit(events.EVENT_BUDGET_TRIPPED, reason="deadline")
>>> [(e.seq, e.name) for e in events.events()]
[(0, 'budget.tripped')]
>>> obs.disable(); obs.reset()
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace

EVENTS_SCHEMA = "repro-events/v1"

# -- event vocabulary -------------------------------------------------------
# The closed set of event names the repo emits; ``repro check``
# rejects names outside it, so additions belong here (and in
# docs/OBSERVABILITY.md).

EVENT_RUN_START = "run.start"
EVENT_RUN_END = "run.end"
EVENT_SCENARIO_START = "bench.scenario_start"
EVENT_SCENARIO_END = "bench.scenario_end"
EVENT_BUDGET_TRIPPED = "budget.tripped"
EVENT_LADDER_DEGRADED = "ladder.degraded"
EVENT_SOLVER_PHASE = "solver.phase"
EVENT_FAULT_INJECTED = "fault.injected"
EVENT_CACHE_HIT = "cache.hit"
EVENT_CACHE_MISS = "cache.miss"
EVENT_POOL_TASK_START = "pool.task_start"
EVENT_POOL_TASK_END = "pool.task_end"
EVENT_POOL_SKEW = "pool.skew"
EVENT_SERVER_START = "server.start"
EVENT_SERVER_STOP = "server.stop"
EVENT_SERVER_ADMIT = "server.admit"
EVENT_SERVER_REJECT = "server.reject"
EVENT_SERVER_REQUEST_START = "server.request_start"
EVENT_SERVER_REQUEST_END = "server.request_end"
EVENT_RETRY_ATTEMPT = "retry.attempt"
EVENT_RETRY_GIVE_UP = "retry.give_up"
EVENT_POOL_WORKER_CRASH = "pool.worker_crash"
EVENT_POOL_QUARANTINE = "pool.quarantine"
EVENT_SERVER_RECOVER = "server.recover"
EVENT_PLANNER_PLAN = "planner.plan"
EVENT_PLANNER_MISESTIMATE = "planner.misestimate"

VOCABULARY = (
    EVENT_RUN_START,
    EVENT_RUN_END,
    EVENT_SCENARIO_START,
    EVENT_SCENARIO_END,
    EVENT_BUDGET_TRIPPED,
    EVENT_LADDER_DEGRADED,
    EVENT_SOLVER_PHASE,
    EVENT_FAULT_INJECTED,
    EVENT_CACHE_HIT,
    EVENT_CACHE_MISS,
    EVENT_POOL_TASK_START,
    EVENT_POOL_TASK_END,
    EVENT_POOL_SKEW,
    EVENT_SERVER_START,
    EVENT_SERVER_STOP,
    EVENT_SERVER_ADMIT,
    EVENT_SERVER_REJECT,
    EVENT_SERVER_REQUEST_START,
    EVENT_SERVER_REQUEST_END,
    EVENT_RETRY_ATTEMPT,
    EVENT_RETRY_GIVE_UP,
    EVENT_POOL_WORKER_CRASH,
    EVENT_POOL_QUARANTINE,
    EVENT_SERVER_RECOVER,
    EVENT_PLANNER_PLAN,
    EVENT_PLANNER_MISESTIMATE,
)


@dataclass
class Event:
    """One recorded occurrence (an ``events.jsonl`` line)."""

    seq: int
    name: str
    ts_unix: float
    run_id: str | None
    span_id: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "name": self.name,
            "ts_unix": self.ts_unix,
            "run_id": self.run_id,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """A process-global, append-only log of :class:`Event` records.

    Normal use goes through the module-level singleton ``EVENTS`` and the
    helpers below; tests may instantiate private logs.
    """

    def __init__(self) -> None:
        self.run_id: str | None = None
        self._events: list[Event] = []
        self._next_seq = 0
        # The solve server emits from its event loop while bench/CLI
        # code emits from the main thread; the lock keeps ``seq``
        # strictly increasing (the total order the log promises).
        self._lock = threading.Lock()

    # -- control -------------------------------------------------------
    def reset(self) -> None:
        """Drop all events and the run binding (the switch is unchanged)."""
        self._events = []
        self._next_seq = 0
        self.run_id = None

    def set_run_id(self, run_id: str | None) -> None:
        """Bind subsequent events to ``run_id`` (the registry's join key)."""
        self.run_id = run_id

    # -- recording -----------------------------------------------------
    def emit(self, name: str, **attrs: Any) -> None:
        """Append one event; a single attribute check while recording is off.

        ``span_id`` is filled from the innermost open span of the global
        tracer, so an event inside ``with span("solver.solve"): ...``
        correlates to that span's ``index`` in the exported trace.
        """
        if not obs_recorder.ON:
            return
        open_span = obs_trace.current_span()
        with self._lock:
            self._events.append(
                Event(
                    seq=self._next_seq,
                    name=name,
                    ts_unix=time.time(),
                    run_id=self.run_id,
                    span_id=None if open_span is None else open_span.index,
                    attrs=attrs,
                )
            )
            self._next_seq += 1

    # -- inspection ----------------------------------------------------
    def events(self) -> list[Event]:
        """All recorded events in emission (= ``seq``) order."""
        return list(self._events)

    def as_dicts(self) -> list[dict[str, Any]]:
        return [e.as_dict() for e in self._events]

    def to_jsonl(self) -> str:
        """One sorted-key JSON object per line, in ``seq`` order."""
        return "".join(
            json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in self._events
        )


EVENTS = EventLog()


def set_run_id(run_id: str | None) -> None:
    """Bind subsequent global-log events to ``run_id``."""
    EVENTS.set_run_id(run_id)


def emit(name: str, **attrs: Any) -> None:
    """Record one event on the global log (near-free no-op when disabled)."""
    EVENTS.emit(name, **attrs)


def events() -> list[Event]:
    """All events on the global log, in ``seq`` order."""
    return EVENTS.events()


def to_jsonl() -> str:
    """The global log as JSONL (one object per line)."""
    return EVENTS.to_jsonl()


# ---------------------------------------------------------------------------
# Validation (shared by the test-suite and ``repro check``).
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("seq", "name", "ts_unix", "run_id", "span_id", "attrs")


def validate_events(records: list[Any], context: str = "events") -> list[str]:
    """All structural problems in parsed event records (empty = valid).

    Each record must carry every field of :meth:`Event.as_dict` with the
    right type, ``seq`` values must be strictly increasing (the total
    order the log promises), and unknown event names are flagged so the
    vocabulary stays closed.
    """
    problems: list[str] = []
    previous_seq: int | None = None
    for position, record in enumerate(records):
        where = f"{context}[{position}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: must be an object")
            continue
        for missing in [f for f in _REQUIRED_FIELDS if f not in record]:
            problems.append(f"{where}: missing field {missing!r}")
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            problems.append(f"{where}: 'seq' must be a non-negative integer")
        else:
            if previous_seq is not None and seq <= previous_seq:
                problems.append(
                    f"{where}: 'seq' {seq} not greater than previous "
                    f"{previous_seq} (events must be strictly ordered)"
                )
            previous_seq = seq
        name = record.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: 'name' must be a non-empty string")
        elif name not in VOCABULARY:
            problems.append(
                f"{where}: unknown event name {name!r} "
                f"(vocabulary: {', '.join(VOCABULARY)})"
            )
        ts = record.get("ts_unix")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: 'ts_unix' must be a non-negative number")
        run_id = record.get("run_id")
        if run_id is not None and not isinstance(run_id, str):
            problems.append(f"{where}: 'run_id' must be a string or null")
        span_id = record.get("span_id")
        if span_id is not None and (
            not isinstance(span_id, int) or isinstance(span_id, bool) or span_id < 0
        ):
            problems.append(
                f"{where}: 'span_id' must be a non-negative integer or null"
            )
        if "attrs" in record and not isinstance(record.get("attrs"), dict):
            problems.append(f"{where}: 'attrs' must be an object")
    return problems


def validate_jsonl(text: str, context: str = "events") -> list[str]:
    """Parse JSONL ``text`` and validate it; parse errors become problems."""
    records: list[Any] = []
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"{context}:{number}: unparseable JSON ({exc})")
    return problems + validate_events(records, context=context)
