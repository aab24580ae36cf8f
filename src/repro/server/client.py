"""Clients for the solve server: one synchronous, one asyncio.

:class:`ServeClient` is the workhorse for sequential callers — the
``repro client`` CLI, the test-suite, and the ``make serve-smoke`` gate.
It speaks over a raw socket (TCP or Unix) and, because the server may
answer pipelined requests out of order, matches responses to requests by
``id``, parking strays until their request asks for them.

:class:`AsyncServeClient` is the load generator's client: many in-flight
requests on one connection, each ``request()`` awaiting a future that a
single background reader task resolves as response lines arrive.

Both clients optionally carry the repo's crash-tolerance pair
(docs/ROBUSTNESS.md): a shared
:class:`~repro.runtime.retry.RetryPolicy` — connection failures
reconnect and retry under seeded backoff, ``overloaded`` rejections
retry honoring the server's ``retry_after_ms`` hint as a floor — and a
:class:`~repro.runtime.retry.CircuitBreaker`, so a fleet of in-flight
requests stops hammering a restarting server after a few consecutive
failures and probes its way back once it returns.  Without a policy
(the default) behaviour is exactly the bare wire protocol.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from pathlib import Path
from typing import Any

from repro.obs.context import TraceContext
from repro.runtime.retry import CircuitBreaker, RetryPolicy
from repro.server import protocol
from repro.server.protocol import ProtocolError

# Requests that mutate nothing and always answer instantly; retried
# exactly like solves.
_RETRY_ERRORS = (ConnectionError, OSError, EOFError)


def _overload_hint(response: dict[str, Any]) -> int | None:
    hint = response.get("retry_after_ms")
    return hint if isinstance(hint, int) else None


def _is_overloaded(response: dict[str, Any]) -> bool:
    if response.get("ok"):
        return False
    error = response.get("error")
    return (
        isinstance(error, dict)
        and error.get("code") == protocol.ERROR_OVERLOADED
    )


class ServeClient:
    """A blocking newline-delimited-JSON client (context manager).

    With ``retry=`` (and optionally ``breaker=``) a request that hits a
    connection failure or an ``overloaded`` rejection is retried under
    the policy — reconnecting as needed — instead of surfacing the first
    failure.  The breaker refuses fast while open and lets one probe
    through per cooldown.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        unix_path: str | Path | None = None,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if unix_path is None and (host is None or port is None):
            raise ValueError("host and port (or unix_path) are required")
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._timeout = timeout
        self._retry = retry
        self._breaker = breaker
        self._sock: socket.socket | None = None
        self._reader: Any = None
        self._ids = itertools.count(1)
        self._parked: dict[str | None, dict[str, Any]] = {}
        self._connect()

    def _connect(self) -> None:
        if self._unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            try:
                sock.connect(str(self._unix_path))
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._parked.clear()

    def _teardown(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire ----------------------------------------------------------
    def send(
        self,
        op: str,
        graph_text: str | None = None,
        method: str = "auto",
        deadline: float | None = None,
        options: dict[str, Any] | None = None,
        request_id: str | None = None,
        trace: TraceContext | None = None,
        extra: dict[str, Any] | None = None,
    ) -> str:
        """Write one request line; returns the request id (no read)."""
        if self._sock is None:
            raise ConnectionError("client is closed")
        rid = request_id if request_id is not None else f"c{next(self._ids)}"
        line = protocol.encode_request(
            rid,
            op,
            graph_text,
            method=method,
            deadline=deadline,
            options=options,
            trace=trace,
            extra=extra,
        )
        self._sock.sendall(line.encode("utf-8"))
        return rid

    def recv(self, request_id: str) -> dict[str, Any]:
        """Read until the response for ``request_id`` arrives.

        Responses for other in-flight requests are parked and handed out
        when *their* ``recv`` is called; ``id: null`` error responses
        (lines too defective to carry an id) match any waiter.
        """
        if request_id in self._parked:
            return self._parked.pop(request_id)
        if self._reader is None:
            raise ConnectionError("client is closed")
        while True:
            line = self._reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = protocol.parse_response(line)
            rid = response.get("id")
            if rid == request_id or rid is None:
                return response
            self._parked[rid] = response

    def request(
        self,
        op: str,
        graph_text: str | None = None,
        method: str = "auto",
        deadline: float | None = None,
        options: dict[str, Any] | None = None,
        trace: TraceContext | None = None,
        extra: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Send one request and block for its response (retrying under
        the client's policy, when one was given)."""
        if self._retry is None:
            rid = self.send(
                op,
                graph_text,
                method=method,
                deadline=deadline,
                options=options,
                trace=trace,
                extra=extra,
            )
            return self.recv(rid)
        controller = self._retry.controller(f"client.{op}")
        while True:
            if self._breaker is not None and not self._breaker.allow():
                time.sleep(max(self._breaker.retry_in(), 0.001))
                continue
            try:
                if self._sock is None:
                    self._connect()
                rid = self.send(
                    op,
                    graph_text,
                    method=method,
                    deadline=deadline,
                    options=options,
                    trace=trace,
                    extra=extra,
                )
                response = self.recv(rid)
            except _RETRY_ERRORS as exc:
                if self._breaker is not None:
                    self._breaker.record_failure()
                self._teardown()
                delay = controller.next_delay(reason=type(exc).__name__)
                if delay is None:
                    raise
                time.sleep(delay)
                continue
            if _is_overloaded(response):
                if self._breaker is not None:
                    self._breaker.record_failure()
                delay = controller.next_delay(
                    hint_ms=_overload_hint(response), reason="overloaded"
                )
                if delay is None:
                    return response  # surfaced, not raised: same shape as before
                time.sleep(delay)
                continue
            if self._breaker is not None:
                self._breaker.record_success()
            return response

    # -- conveniences ---------------------------------------------------
    def solve(self, graph_text: str, **kwargs: Any) -> dict[str, Any]:
        return self.request(protocol.OP_SOLVE, graph_text, **kwargs)

    def plan(self, graph_text: str, **kwargs: Any) -> dict[str, Any]:
        return self.request(protocol.OP_PLAN, graph_text, **kwargs)

    def explain(
        self,
        left_text: str,
        right_text: str,
        predicate: str = "equality",
        band_width: float | None = None,
        analyze: bool = False,
        shadow: bool = False,
        **kwargs: Any,
    ) -> dict[str, Any]:
        """Ask the server to plan (``analyze=True``: execute) one join
        over two relation texts and return its plan record."""
        extra: dict[str, Any] = {
            "left": left_text,
            "right": right_text,
            "predicate": predicate,
        }
        if band_width is not None:
            extra["band_width"] = band_width
        options: dict[str, Any] = dict(kwargs.pop("options", None) or {})
        if analyze:
            options["analyze"] = True
        if shadow:
            options["shadow"] = True
        return self.request(
            protocol.OP_EXPLAIN,
            options=options or None,
            extra=extra,
            **kwargs,
        )

    def ping(self) -> dict[str, Any]:
        return self.request(protocol.OP_PING)

    def stats(self) -> dict[str, Any]:
        return self.request(protocol.OP_STATS)

    def metrics(self) -> dict[str, Any]:
        return self.request(protocol.OP_METRICS)

    def shutdown(self) -> dict[str, Any]:
        return self.request(protocol.OP_SHUTDOWN)


class AsyncServeClient:
    """An asyncio client multiplexing many requests on one connection.

    With ``retry=``/``breaker=`` every :meth:`request` rides the shared
    crash-tolerance pair: connection failures tear the transport down,
    reconnect (serialized by one lock, so a hundred concurrent requests
    trigger a single reconnect) and retry; ``overloaded`` rejections
    back off at least the server's hint.  One breaker may be shared by
    many clients — the load generator's workers trip it together.
    """

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._ids = itertools.count(1)
        self._retry = retry
        self._breaker = breaker
        self._connect_args: tuple[Any, Any, Any] = (None, None, None)
        self._conn_lock: asyncio.Lock | None = None

    @classmethod
    async def connect(
        cls,
        host: str | None = None,
        port: int | None = None,
        unix_path: str | Path | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> "AsyncServeClient":
        if unix_path is None and (host is None or port is None):
            raise ValueError("host and port (or unix_path) are required")
        client = cls(retry=retry, breaker=breaker)
        client._connect_args = (host, port, unix_path)
        client._conn_lock = asyncio.Lock()
        await client._open()
        return client

    async def _open(self) -> None:
        host, port, unix_path = self._connect_args
        if unix_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                str(unix_path)
            )
        else:
            self._reader, self._writer = await asyncio.open_connection(
                host, port
            )
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @property
    def _connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def _ensure_connected(self) -> None:
        assert self._conn_lock is not None
        async with self._conn_lock:
            if self._connected:
                return
            await self._drop_transport()
            await self._open()

    async def _drop_transport(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._reader = None

    async def _read_loop(self) -> None:
        assert self._reader is not None
        reader = self._reader
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = protocol.parse_response(line)
                except ProtocolError:
                    continue
                rid = response.get("id")
                future = self._pending.pop(rid, None)
                if future is not None and not future.done():
                    future.set_result(response)
        finally:
            # Connection gone: fail every waiter instead of hanging them,
            # and close the writer so `_connected` reports the truth (a
            # retrying request must reconnect, not enqueue futures that
            # no reader will ever resolve).
            if self._reader is reader and self._writer is not None:
                self._writer.close()
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._pending.clear()

    async def _request_once(
        self,
        op: str,
        graph_text: str | None,
        method: str,
        deadline: float | None,
        options: dict[str, Any] | None,
        trace: TraceContext | None,
    ) -> dict[str, Any]:
        if self._writer is None:
            raise ConnectionError("client is not connected")
        rid = f"a{next(self._ids)}"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        line = protocol.encode_request(
            rid,
            op,
            graph_text,
            method=method,
            deadline=deadline,
            options=options,
            trace=trace,
        )
        self._writer.write(line.encode("utf-8"))
        await self._writer.drain()
        return await future

    async def request(
        self,
        op: str,
        graph_text: str | None = None,
        method: str = "auto",
        deadline: float | None = None,
        options: dict[str, Any] | None = None,
        trace: TraceContext | None = None,
    ) -> dict[str, Any]:
        """Send one request; await its (possibly out-of-order) response."""
        if self._retry is None:
            return await self._request_once(
                op, graph_text, method, deadline, options, trace
            )
        controller = self._retry.controller(f"client.{op}")
        while True:
            if self._breaker is not None and not self._breaker.allow():
                await asyncio.sleep(max(self._breaker.retry_in(), 0.001))
                continue
            try:
                if not self._connected:
                    await self._ensure_connected()
                response = await self._request_once(
                    op, graph_text, method, deadline, options, trace
                )
            except _RETRY_ERRORS as exc:
                if self._breaker is not None:
                    self._breaker.record_failure()
                delay = controller.next_delay(reason=type(exc).__name__)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
                continue
            if _is_overloaded(response):
                if self._breaker is not None:
                    self._breaker.record_failure()
                delay = controller.next_delay(
                    hint_ms=_overload_hint(response), reason="overloaded"
                )
                if delay is None:
                    return response
                await asyncio.sleep(delay)
                continue
            if self._breaker is not None:
                self._breaker.record_success()
            return response

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass


__all__ = ["AsyncServeClient", "ServeClient"]
