"""The persistent solve server behind ``repro serve``.

One :class:`SolveServer` owns the long-lived resources — a
:class:`~repro.parallel.pool.WorkerPool`, a shared two-tier
:class:`~repro.parallel.cache.SolveCache`, an
:class:`~repro.server.admission.AdmissionController` — and an asyncio
listener (TCP ``host:port`` or a Unix socket ``path``) speaking the
newline-delimited JSON protocol of :mod:`repro.server.protocol`.

Connection handling is pipelined: every request line spawns its own
asyncio task, so a slow solve on one connection never blocks a ping on
another — or a later request on the *same* connection; responses carry
the request ``id`` precisely because they may come back out of order.
A per-connection lock serializes writes so response lines never
interleave mid-line.

Lifecycle of one request::

    read line ─ parse ─ admit ─ dispatch ─ respond ─ release
        │          │       │        │
        │          │       │        └─ budget_exhausted/timed_out are
        │          │       │           *ok* responses with degraded
        │          │       │           status — a tripped deadline never
        │          │       │           kills the connection or server
        │          │       └─ overloaded ⇒ error + retry_after_ms
        └──────────┴─ defects ⇒ bad_request/... error response

Every stage is observable: ``server.request_start`` / ``server.request_end``
events (end carries per-request latency and the trace id), request
counters, and admission events/gauges from the controller.  When the
server is given a run directory and observability is recording, shutdown
writes ``events.jsonl`` + ``metrics.json`` + ``trace.jsonl`` there —
the same artifact shapes as a bench run — and only then does a
``server.latency_ms`` histogram (p50/p99) enter the metrics snapshot:
bench-run metrics must stay timing-free so same-seed runs stay
byte-identical.

Two *live* surfaces exist besides the artifacts: every solve/plan
request is served under a :class:`repro.obs.context.TraceContext`
(client-supplied or minted) whose id is echoed in the result payload as
``trace_id``, and an always-on :class:`repro.obs.telemetry.TelemetryWindow`
feeds the ``metrics`` op's Prometheus exposition (per-op counters,
latency histograms, rolling-window rates — what ``repro top`` renders).

:func:`serve_background` runs a server on a daemon thread with its own
event loop — the harness used by tests, the smoke checker, and the
``server-load`` bench scenario (whose driving client is synchronous).
"""

from __future__ import annotations

import asyncio
import contextlib
import stat
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.obs.context import TraceContext
from repro.obs.telemetry import TelemetryWindow
from repro.parallel.cache import SolveCache
from repro.parallel.pool import WorkerPool
from repro.runtime.anytime import DEGRADED_STATUSES
from repro.server import protocol
from repro.server.admission import (
    AdmissionController,
    RejectedError,
)
from repro.server.dispatch import Dispatcher
from repro.server.journal import RequestJournal

DEFAULT_HOST = "127.0.0.1"

# Runtime counters surfaced by the stats op (crash-tolerance activity:
# retry/backoff, breaker trips, pool healing) — read from the global
# metrics registry, so nonzero only on observed (``--run-dir``) servers.
RUNTIME_STAT_COUNTERS = {
    "retry_attempts": "runtime.retry.attempts",
    "retry_give_ups": "runtime.retry.give_ups",
    "breaker_opens": "runtime.breaker.opens",
    "worker_crashes": "parallel.pool.worker_crashes",
    "quarantines": "parallel.pool.quarantines",
    "spans_adopted": "parallel.pool.spans_adopted",
}


class SolveServer:
    """A solve/plan server over TCP or a Unix socket.

    Exactly one of ``port`` (TCP on ``host``) or ``unix_path`` selects
    the transport; ``port=0`` binds an ephemeral port (read it back from
    :attr:`address` once started — the test/bench pattern).

    ``jobs=1`` means no worker pool: components solve inline on the
    event-loop thread, which is the right shape for tests and for
    cache-hit-dominated serving.  ``jobs>1`` builds a shared
    :class:`WorkerPool` that lives as long as the server.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int | None = None,
        unix_path: str | Path | None = None,
        jobs: int = 1,
        cache: SolveCache | None = None,
        admission: AdmissionController | None = None,
        default_deadline: float | None = None,
        run_dir: str | Path | None = None,
        journal_dir: str | Path | None = None,
        recover: bool = False,
        telemetry: TelemetryWindow | None = None,
    ) -> None:
        if (port is None) == (unix_path is None):
            raise ValueError("exactly one of port= or unix_path= must be set")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if recover and journal_dir is None:
            raise ValueError("recover=True requires journal_dir=")
        self.host = host
        self.port = port
        self.unix_path = Path(unix_path) if unix_path is not None else None
        self.jobs = jobs
        self.cache = cache
        self.pool = WorkerPool(jobs) if jobs > 1 else None
        self.admission = admission if admission is not None else AdmissionController()
        self.dispatcher = Dispatcher(
            cache=cache,
            pool=self.pool,
            default_deadline=default_deadline,
        )
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.journal = (
            RequestJournal(journal_dir) if journal_dir is not None else None
        )
        self.recover = recover
        # Live telemetry is always on: a handful of dict updates per
        # request, and the `metrics` op must answer on any server.  Pass
        # a custom window to control its span (or inject a test clock).
        self.telemetry = telemetry if telemetry is not None else TelemetryWindow()
        self.requests_total = 0
        self.recovered_total = 0
        self._server: asyncio.base_events.Server | None = None
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int] | str:
        """Where the server actually listens: ``(host, port)`` or the
        Unix socket path.  Valid once :meth:`start` has returned."""
        if self.unix_path is not None:
            return str(self.unix_path)
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listener, replay the journal, record the start event.

        Anything failing *after* the bind closes the listener (and
        unlinks a Unix socket) on the way out — a failed startup must
        never leave the address occupied (the ``serve_background``
        regression of docs/ROBUSTNESS.md).  Recovery runs here, before
        ``start`` returns, so a caller that saw the server come up also
        knows the replay finished.
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.unix_path is not None:
            # The server owns its socket path: a stale socket file from a
            # SIGKILL'd predecessor must not block the restart-and-recover
            # path with EADDRINUSE.  Only socket files are removed.
            self._unlink_socket()
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(self.unix_path)
            )
        else:
            assert self.port is not None
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        try:
            if obs_recorder.ON:
                obs_events.emit(
                    obs_events.EVENT_SERVER_START,
                    transport="unix" if self.unix_path is not None else "tcp",
                    jobs=self.jobs,
                )
            if self.journal is not None and self.recover:
                await self._recover()
        except BaseException:
            await self.abort()
            raise

    async def abort(self) -> None:
        """Close the listener without serving (the startup-failure path);
        idempotent, and also unlinks a Unix socket path."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        if self.journal is not None:
            self.journal.close()
        self._unlink_socket()

    def _unlink_socket(self) -> None:
        """Remove the Unix socket file, if ours to remove."""
        if self.unix_path is None:
            return
        with contextlib.suppress(OSError):
            if stat.S_ISSOCK(self.unix_path.stat().st_mode):
                self.unix_path.unlink()

    async def _recover(self) -> None:
        """Replay the predecessor's admitted-but-unanswered requests.

        Each incomplete journal entry is re-parsed and re-solved through
        the normal dispatcher (warming the shared cache, so the original
        client's retry is served instantly), emits one ``server.recover``
        event, and is marked complete with ``recovered: true``.  Entries
        whose replay fails are still marked complete — replaying a
        poison request forever would wedge every restart.
        """
        assert self.journal is not None
        entries = self.journal.incomplete()
        for entry in entries:
            request = None
            with contextlib.suppress(protocol.ProtocolError):
                request = protocol.parse_request(entry.request_line)
            if obs_recorder.ON:
                obs_events.emit(
                    obs_events.EVENT_SERVER_RECOVER,
                    entry=entry.entry_id,
                    id=None if request is None else request.id,
                    op=None if request is None else request.op,
                )
            if request is not None and request.op in protocol.SOLVE_OPS:
                # Replay under the *original* trace identity: the journal
                # recorded the context the request was served with, so
                # recovered work joins the same trace, not a fresh one.
                ctx = obs_context.from_wire(entry.trace) or request.trace
                if ctx is None:
                    ctx = TraceContext(obs_context.new_trace_id())
                with contextlib.suppress(Exception):
                    await self._dispatch_traced(request, ctx, recovered=True)
            self.recovered_total += 1
            self.journal.record_complete(entry.entry_id, recovered=True)
        if entries and obs_recorder.ON:
            obs_metrics.inc("server.recovered", len(entries))

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown` fires, then clean up."""
        if self._server is None:
            await self.start()
        assert self._server is not None and self._shutdown is not None
        async with self._server:
            await self._shutdown.wait()
        # Drain open connections *before* the loop tears down, so their
        # handler tasks finish normally instead of being cancelled.
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.pool is not None:
            self.pool.close()
        if self.journal is not None:
            self.journal.close()
        self._unlink_socket()
        if obs_recorder.ON:
            obs_events.emit(
                obs_events.EVENT_SERVER_STOP,
                requests_total=self.requests_total,
            )
        self._write_artifacts()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit; safe from any thread, idempotent."""
        if self._loop is None or self._shutdown is None:
            return
        # The loop may already be gone (e.g. an in-band ``shutdown`` op
        # stopped it); a second request is then a no-op, not an error.
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._shutdown.set)

    def _write_artifacts(self) -> None:
        """Drop run artifacts (events.jsonl, metrics.json, trace.jsonl)
        on shutdown."""
        if self.run_dir is None:
            return
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if obs_recorder.ON:
            obs_manifest.write_atomic(
                self.run_dir / "events.jsonl", obs_events.to_jsonl()
            )
            obs_manifest.write_atomic(
                self.run_dir / "metrics.json", obs_metrics.to_json()
            )
            # One Span.as_dict per line, every span tagged with its
            # request's trace_id — the input `repro runs trace-request`
            # assembles per-request Chrome traces from.
            from repro.obs import export as obs_export

            obs_export.write_trace(self.run_dir / "trace.jsonl", "jsonl")

    # -- connection plumbing -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # One task per request line: pipelining.  The task set
                # keeps strong references and lets close wait for drains.
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            self._writers.discard(writer)
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        started = time.monotonic()
        request_id: str | None = None
        op_label = "invalid"  # telemetry label for unparseable lines
        outcome = "error"
        error_code: str | None = None
        trace_ctx: TraceContext | None = None
        ticket = None
        journal_entry: int | None = None
        self.requests_total += 1
        try:
            request = protocol.parse_request(line)
            request_id = request.id
            op_label = request.op
            if obs_recorder.ON:
                obs_events.emit(
                    obs_events.EVENT_SERVER_REQUEST_START,
                    id=request.id,
                    op=request.op,
                    nbytes=request.nbytes,
                )
            if request.op == protocol.OP_PING:
                response = protocol.ok_response(request.id, request.op, {})
                outcome = "ok"
            elif request.op == protocol.OP_STATS:
                response = protocol.ok_response(
                    request.id, request.op, self._stats_payload()
                )
                outcome = "ok"
            elif request.op == protocol.OP_METRICS:
                response = protocol.ok_response(
                    request.id, request.op, self._metrics_payload()
                )
                outcome = "ok"
            elif request.op == protocol.OP_SHUTDOWN:
                response = protocol.ok_response(request.id, request.op, {})
                self.request_shutdown()
                outcome = "ok"
            else:
                # The request's trace identity: the client's context when
                # it sent a well-formed one, a server-minted id otherwise.
                trace_ctx = request.trace or TraceContext(
                    obs_context.new_trace_id()
                )
                ticket = self.admission.admit(request.nbytes)
                if self.journal is not None:
                    # Write-ahead: the raw line lands fsync'd in the
                    # journal before any solving starts, so a crash from
                    # here on leaves a replayable record.  The resolved
                    # trace rides along so recovery replays the same id.
                    journal_entry = self.journal.record_admitted(
                        line.decode("utf-8", errors="replace").strip(),
                        trace=trace_ctx.as_wire(),
                    )
                result = await self._dispatch_traced(request, trace_ctx)
                response = protocol.ok_response(request.id, request.op, result)
                outcome = (
                    "degraded"
                    if result.get("status") in DEGRADED_STATUSES
                    else "ok"
                )
        except RejectedError as exc:
            outcome = "rejected"
            error_code = protocol.ERROR_OVERLOADED
            response = protocol.error_response(
                request_id,
                protocol.ERROR_OVERLOADED,
                str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
        except protocol.ProtocolError as exc:
            outcome = "error"
            error_code = exc.code
            response = protocol.error_response(request_id, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 — the server must survive
            outcome = "error"
            error_code = protocol.ERROR_INTERNAL
            response = protocol.error_response(
                request_id,
                protocol.ERROR_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            if ticket is not None:
                self.admission.release(ticket)
            if journal_entry is not None:
                # Answered (even with an error response): replaying it on
                # recovery would just repeat the same outcome.
                self.journal.record_complete(journal_entry)
        latency_ms = (time.monotonic() - started) * 1000.0
        self.telemetry.record(
            op_label, latency_ms, outcome=outcome, code=error_code
        )
        if obs_recorder.ON:
            obs_metrics.inc("server.requests")
            # The latency histogram belongs to *observed server runs*
            # (``--run-dir``), whose metrics.json is this server's own
            # artifact.  Inside a bench run the process-global registry
            # must stay timing-free so same-seed metrics.json files are
            # byte-identical; there, p50/p99 come from the load
            # generator's client-side measurements instead.
            if self.run_dir is not None:
                obs_metrics.observe("server.latency_ms", latency_ms)
            # The trace attr joins events.jsonl to trace.jsonl per request.
            obs_events.emit(
                obs_events.EVENT_SERVER_REQUEST_END,
                id=request_id,
                latency_ms=round(latency_ms, 3),
                trace=None if trace_ctx is None else trace_ctx.trace_id,
            )
        async with write_lock:
            try:
                writer.write(response.encode("utf-8"))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away; the work is already done

    async def _dispatch_traced(
        self, request: protocol.Request, ctx: TraceContext, recovered: bool = False
    ) -> dict[str, Any]:
        """One solve/plan dispatch under its trace identity.

        The root ``server.request`` span is *detached* (stack-free): it
        stays open across ``await`` points while other requests
        interleave on the loop, so it must never sit on the span stack
        where it would corrupt their nesting.  Children attach through
        the ambient context instead — re-rooted under the root span's
        index before the dispatcher runs.
        """
        with obs_context.use(ctx):
            attrs: dict[str, Any] = {"id": request.id, "op": request.op}
            if recovered:
                attrs["recovered"] = True
            with obs_trace.detached_span("server.request", **attrs) as root:
                inner = ctx.child(root.index) if root is not None else ctx
                with obs_context.use(inner):
                    result = await self.dispatcher.handle(request)
        result["trace_id"] = ctx.trace_id
        return result

    def _stats_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "requests_total": self.requests_total,
            "jobs": self.jobs,
            "admission": self.admission.stats(),
            # Crash-tolerance activity (PR 7), read from the global
            # metrics registry: zeros on unobserved servers (the registry
            # only records under --run-dir), live counts on observed ones.
            "runtime": {
                key: obs_metrics.counter(name)
                for key, name in sorted(RUNTIME_STAT_COUNTERS.items())
            },
        }
        if self.journal is not None:
            payload["journal"] = str(self.journal.path)
            payload["recovered_total"] = self.recovered_total
        if self.cache is not None:
            payload["cache"] = self.cache.stats.as_dict()
        return payload

    def _metrics_payload(self) -> dict[str, Any]:
        return {
            "content_type": obs_telemetry.CONTENT_TYPE,
            "text": self.exposition(),
        }

    def exposition(self) -> str:
        """The server's live telemetry as Prometheus text format v0.0.4.

        Cumulative per-op request/outcome/error counters and latency
        histograms, rolling-window gauges (rps, error rate, live
        quantiles), admission and cache state, and the runtime
        crash-tolerance counters — everything ``repro top`` renders.
        """
        totals = self.telemetry.totals()
        window = self.telemetry.window()
        admission = self.admission.stats()
        families: list[list[str]] = [
            obs_telemetry.scalar_family(
                "repro_server_requests_total",
                "counter",
                "Requests received, by protocol op.",
                [({"op": op}, data["requests"]) for op, data in totals.items()],
            ),
            obs_telemetry.scalar_family(
                "repro_server_request_outcomes_total",
                "counter",
                "Terminal request outcomes (ok/degraded/rejected/error).",
                [
                    ({"op": op, "outcome": outcome}, count)
                    for op, data in totals.items()
                    for outcome, count in data["outcomes"].items()
                    if count
                ],
            ),
            obs_telemetry.scalar_family(
                "repro_server_errors_total",
                "counter",
                "Error responses by op and protocol error code.",
                [
                    ({"op": op, "code": code}, count)
                    for op, data in totals.items()
                    for code, count in data["errors"].items()
                ],
            ),
        ]
        latency_samples = [
            ({"op": op}, data["latency"]) for op, data in totals.items()
        ]
        if latency_samples:
            families.append(
                obs_telemetry.histogram_family(
                    "repro_server_request_latency_ms",
                    "Request latency in milliseconds, by op "
                    "(log-spaced buckets, cumulative since start).",
                    latency_samples,
                )
            )
        families.extend(
            [
                obs_telemetry.scalar_family(
                    "repro_server_window_rps",
                    "gauge",
                    "Requests per second over the rolling window, by op.",
                    [({"op": op}, view["rps"]) for op, view in window.items()],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_window_error_rate",
                    "gauge",
                    "Error+rejection fraction over the rolling window, by op.",
                    [
                        ({"op": op}, view["error_rate"])
                        for op, view in window.items()
                    ],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_window_p50_ms",
                    "gauge",
                    "Rolling-window median latency estimate, by op.",
                    [
                        ({"op": op}, view["p50_ms"])
                        for op, view in window.items()
                        if view["p50_ms"] is not None
                    ],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_window_p99_ms",
                    "gauge",
                    "Rolling-window p99 latency estimate, by op.",
                    [
                        ({"op": op}, view["p99_ms"])
                        for op, view in window.items()
                        if view["p99_ms"] is not None
                    ],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_uptime_seconds",
                    "gauge",
                    "Seconds since this server's telemetry began.",
                    [({}, self.telemetry.uptime_seconds())],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_jobs",
                    "gauge",
                    "Worker processes (1 = inline solving).",
                    [({}, self.jobs)],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_queue_depth",
                    "gauge",
                    "Admitted requests currently in flight.",
                    [({}, admission["depth"])],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_inflight_bytes",
                    "gauge",
                    "Wire bytes of admitted in-flight requests.",
                    [({}, admission["inflight_bytes"])],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_admitted_total",
                    "counter",
                    "Requests past admission control.",
                    [({}, admission["admitted_total"])],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_admission_rejected_total",
                    "counter",
                    "Requests rejected by admission control.",
                    [({}, admission["rejected_total"])],
                ),
                obs_telemetry.scalar_family(
                    "repro_server_recovered_total",
                    "counter",
                    "Journal entries replayed by --recover.",
                    [({}, self.recovered_total)],
                ),
            ]
        )
        if self.cache is not None:
            stats = self.cache.stats
            families.append(
                obs_telemetry.scalar_family(
                    "repro_server_cache_hits_total",
                    "counter",
                    "Solve-cache hits, by tier.",
                    [
                        ({"tier": "memory"}, stats.memory_hits),
                        ({"tier": "persistent"}, stats.persistent_hits),
                    ],
                )
            )
            families.append(
                obs_telemetry.scalar_family(
                    "repro_server_cache_misses_total",
                    "counter",
                    "Solve-cache misses.",
                    [({}, stats.misses)],
                )
            )
            families.append(
                obs_telemetry.scalar_family(
                    "repro_server_cache_stores_total",
                    "counter",
                    "Solve-cache stores.",
                    [({}, stats.stores)],
                )
            )
        families.append(
            obs_telemetry.scalar_family(
                "repro_server_runtime_total",
                "counter",
                "Crash-tolerance activity (retry/breaker/pool healing), "
                "by kind; live only on observed (--run-dir) servers.",
                [
                    ({"kind": key}, obs_metrics.counter(name))
                    for key, name in sorted(RUNTIME_STAT_COUNTERS.items())
                ],
            )
        )
        return obs_telemetry.render_exposition(families)


@contextlib.contextmanager
def serve_background(
    server: SolveServer, startup_timeout: float = 10.0
) -> Iterator[SolveServer]:
    """Run ``server`` on a daemon thread with its own event loop.

    Yields once the listener is bound (so :attr:`SolveServer.address` is
    readable); on exit requests shutdown and joins the thread.  This is
    how synchronous callers — tests, the smoke checker, the bench
    scenario — stand a server up without an event loop of their own.
    """
    ready = threading.Event()
    failure: list[BaseException] = []

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as exc:  # propagate bind errors to the caller
            # start() already closed the listener and unlinked the
            # socket on its own error path, so nothing leaks here.
            failure.append(exc)
            ready.set()
            raise
        ready.set()
        await server.run_until_shutdown()

    def _thread_main() -> None:
        try:
            asyncio.run(_main())
        except BaseException:
            if not failure:
                raise

    thread = threading.Thread(
        target=_thread_main, name="repro-serve", daemon=True
    )
    thread.start()
    if not ready.wait(startup_timeout):
        server.request_shutdown()
        raise TimeoutError("server failed to start within timeout")
    if failure:
        raise failure[0]
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=startup_timeout)


__all__ = ["DEFAULT_HOST", "SolveServer", "serve_background"]
