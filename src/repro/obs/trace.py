"""Lightweight hierarchical spans: the tracing half of the observability layer.

A *span* is one timed region of execution — a solver call, a planning
decision, one benchmark scenario — identified by a dotted name and
optional attributes.  Spans nest: entering a span while another is open
records the parent/child relationship, so a completed trace is a forest
ordered by start time.

Design constraints (mirrored by :mod:`repro.obs.metrics`):

- **zero dependencies** — standard library only, like the rest of the repo;
- **off by default, near-zero overhead when off** — the shared switch
  (:mod:`repro.obs.recorder`) starts off and :func:`span` then returns a
  shared no-op context manager after a single attribute check, so
  instrumentation can stay in hot paths permanently;
- **behaviour-neutral** — recording never touches random state or the
  objects under measurement (a property test asserts solver outputs are
  identical with tracing on and off).

Timing uses ``time.perf_counter_ns`` for durations (monotonic, ns
resolution) and ``time.time`` for the wall-clock start of each span (so
manifests can be correlated with external logs).

>>> from repro import obs
>>> from repro.obs import trace
>>> obs.reset(); obs.enable()
>>> with trace.span("solve", method="exact"):
...     with trace.span("solve.component"):
...         pass
>>> [(s.name, s.depth) for s in trace.spans()]
[('solve', 0), ('solve.component', 1)]
>>> obs.disable(); obs.reset()
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs import context as obs_context
from repro.obs import recorder as obs_recorder


@dataclass
class Span:
    """One completed (or still-open) timed region."""

    name: str
    index: int  # position in the collector's completed-span order
    parent_index: int | None  # index of the enclosing span, None at top level
    depth: int  # nesting depth (0 = top level)
    start_unix: float  # wall-clock start, seconds since the epoch
    start_ns: int  # perf_counter_ns at entry
    end_ns: int | None = None  # perf_counter_ns at exit (None while open)
    attrs: dict[str, Any] = field(default_factory=dict)
    # Request correlation (repro.obs.context): the trace id this span
    # belongs to, and — for top-level spans whose logical parent lives in
    # another process or outside the stack — that parent's span index in
    # the *originating* process.
    trace_id: str | None = None
    remote_parent: int | None = None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (used by run manifests)."""
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent_index,
            "depth": self.depth,
            "start_unix": self.start_unix,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "trace_id": self.trace_id,
            "remote_parent": self.remote_parent,
        }


class _NullSpan:
    """The shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that records one span into the tracer."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.span = Span(
            name=name,
            index=-1,  # assigned on entry
            parent_index=None,
            depth=0,
            start_unix=0.0,
            start_ns=0,
            attrs=attrs,
        )

    def __enter__(self) -> Span:
        self.tracer._open(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        # A span left via an exception is marked, not silently recorded
        # as success — profiles and exported traces must show where
        # failures spent their time.
        if exc_type is not None:
            self.span.attrs["error"] = True
            self.span.attrs["error_type"] = exc_type.__name__
        self._end()
        return False

    def _end(self) -> None:
        self.tracer._close(self.span)


class _DetachedActiveSpan(_ActiveSpan):
    """Context manager recording a span that never joins the stack.

    The solve server opens one of these per request: the region is timed
    and recorded, but because it stays off the parent stack, spans from
    *other* requests interleaving on the same event loop cannot nest
    under it by accident.  Children relate to a detached span through
    the ambient :class:`repro.obs.context.TraceContext` (``trace_id`` +
    ``remote_parent``) instead of ``parent_index``.
    """

    __slots__ = ()

    def __enter__(self) -> Span:
        self.tracer._open_detached(self.span)
        return self.span

    def _end(self) -> None:
        self.span.end_ns = time.perf_counter_ns()


class Tracer:
    """A process-global collector of hierarchical spans.

    All state lives on the instance so tests can build private tracers,
    but normal use goes through the module-level singleton ``TRACER`` and
    the :func:`span` helper.  Recording follows the shared switch
    (:mod:`repro.obs.recorder`).
    """

    def __init__(self) -> None:
        self._completed: list[Span] = []
        self._stack: list[Span] = []
        self._next_index = 0

    # -- control -------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded spans (the switch is unchanged)."""
        self._completed = []
        self._stack = []
        self._next_index = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """A context manager timing the ``with`` body as one span.

        While recording is off this returns a shared no-op object,
        so the cost of a disabled hook is one attribute check plus the
        (empty) keyword dict.
        """
        if not obs_recorder.ON:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def detached_span(self, name: str, **attrs: Any):
        """A stack-free span: timed and recorded, but never a parent.

        Use for regions that stay open across ``await`` points (one per
        in-flight server request) where stack nesting would interleave
        unrelated requests.  Links to children go through the ambient
        trace context rather than the span stack.
        """
        if not obs_recorder.ON:
            return _NULL_SPAN
        return _DetachedActiveSpan(self, name, attrs)

    def _stamp_context(self, span: Span) -> None:
        ctx = obs_context.current()
        if ctx is not None:
            span.trace_id = ctx.trace_id
            span.remote_parent = ctx.parent_span_id

    def _open(self, span: Span) -> None:
        span.index = self._next_index
        self._next_index += 1
        if self._stack:
            parent = self._stack[-1]
            span.parent_index = parent.index
            span.depth = parent.depth + 1
            span.trace_id = parent.trace_id
        else:
            # Top-level spans inherit the ambient request identity, so
            # existing instrumentation becomes request-aware without
            # changing any call site.
            self._stamp_context(span)
        span.start_unix = time.time()
        span.start_ns = time.perf_counter_ns()
        self._stack.append(span)
        self._completed.append(span)

    def _open_detached(self, span: Span) -> None:
        span.index = self._next_index
        self._next_index += 1
        self._stamp_context(span)
        span.start_unix = time.time()
        span.start_ns = time.perf_counter_ns()
        self._completed.append(span)

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        # Tolerate mismatched exits (a span closed out of order) rather
        # than corrupting the stack: pop through the target.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def adopt(
        self, shipped: Sequence[dict[str, Any]], origin: str | None = None
    ) -> list[Span]:
        """Fold span records from another process into this tracer.

        ``shipped`` is a sequence of :meth:`Span.as_dict` payloads in
        start order, as snapshotted by a worker process.  Each becomes a
        local span with a fresh index; parent links *within* the
        shipment are remapped, and a shipped top-level span whose
        ``remote_parent`` names a span already recorded here (the
        dispatch span whose index the parent put in the task's
        TraceContext) is attached as its child; one with no link at all
        nests under the innermost span open here.  Worker clocks don't
        share ``perf_counter_ns`` origins, so ``start_ns`` is
        re-derived from the span's wall-clock start against this
        process's current wall/perf pair — good to about a scheduling
        quantum, which is all cross-process timelines can promise.
        """
        if not obs_recorder.ON or not shipped:
            return []
        now_unix = time.time()
        now_ns = time.perf_counter_ns()
        adopted: list[Span] = []
        index_map: dict[int, Span] = {}
        for record in shipped:
            if not isinstance(record, dict):
                continue
            try:
                name = str(record["name"])
                start_unix = float(record["start_unix"])
                duration_ns = int(record["duration_ns"])
            except (KeyError, TypeError, ValueError):
                continue
            start_ns = now_ns - int((now_unix - start_unix) * 1e9)
            attrs = record.get("attrs")
            span = Span(
                name=name,
                index=self._next_index,
                parent_index=None,
                depth=0,
                start_unix=start_unix,
                start_ns=start_ns,
                end_ns=start_ns + max(0, duration_ns),
                attrs=dict(attrs) if isinstance(attrs, dict) else {},
                trace_id=record.get("trace_id"),
                remote_parent=None,
            )
            if origin is not None:
                span.attrs.setdefault("origin", origin)
            self._next_index += 1
            parent: Span | None = None
            shipped_parent = record.get("parent")
            remote = record.get("remote_parent")
            if isinstance(shipped_parent, int) and shipped_parent in index_map:
                parent = index_map[shipped_parent]
            elif (
                isinstance(remote, int)
                and not isinstance(remote, bool)
                and 0 <= remote < len(self._completed)
            ):
                # Span.index doubles as position in _completed, so the
                # remote parent resolves by direct lookup.
                parent = self._completed[remote]
            elif shipped_parent is None and remote is None and self._stack:
                # No link at all: nest under the innermost open span, as
                # the span would have if it had been recorded here.
                parent = self._stack[-1]
                span.trace_id = parent.trace_id
            if parent is not None:
                span.parent_index = parent.index
                span.depth = parent.depth + 1
            elif isinstance(remote, int) and not isinstance(remote, bool):
                span.remote_parent = remote
            if isinstance(shipped_index := record.get("index"), int):
                index_map[shipped_index] = span
            self._completed.append(span)
            adopted.append(span)
        return adopted

    # -- inspection ----------------------------------------------------
    def current_span(self) -> Span | None:
        """The innermost span currently open, or None at top level.

        The event log (:mod:`repro.obs.events`) reads this at emission
        time to stamp each event with its enclosing span's index.
        """
        return self._stack[-1] if self._stack else None

    def spans(self) -> list[Span]:
        """All recorded spans in start order."""
        return list(self._completed)

    def as_dicts(self) -> list[dict[str, Any]]:
        return [s.as_dict() for s in self._completed]

    def total_ns(self, name: str) -> int:
        """Summed duration of every span with the given name."""
        return sum(s.duration_ns for s in self._completed if s.name == name)

    def render_tree(self) -> str:
        """An indented text rendering of the span forest."""
        lines = []
        for s in self._completed:
            lines.append(f"{'  ' * s.depth}{s.name}  {s.duration_ms:.3f} ms")
        return "\n".join(lines)


TRACER = Tracer()


def span(name: str, **attrs: Any):
    """Time the ``with`` body as a span on the global tracer.

    The instrumentation hooks throughout the repo call this; while
    recording is off (the default) it is a near-free no-op.
    """
    return TRACER.span(name, **attrs)


def detached_span(name: str, **attrs: Any):
    """A stack-free span on the global tracer (see Tracer.detached_span)."""
    return TRACER.detached_span(name, **attrs)


def adopt(shipped: Sequence[dict[str, Any]], origin: str | None = None) -> list[Span]:
    """Fold another process's span records into the global tracer."""
    return TRACER.adopt(shipped, origin=origin)


def current_span() -> Span | None:
    """The innermost open span on the global tracer (None at top level)."""
    return TRACER.current_span()


def spans() -> list[Span]:
    """All spans recorded on the global tracer, in start order."""
    return TRACER.spans()


def as_dicts() -> list[dict[str, Any]]:
    """JSON-ready span dicts from the global tracer."""
    return TRACER.as_dicts()


def render_tree() -> str:
    """Indented text view of the global tracer's span forest."""
    return TRACER.render_tree()
