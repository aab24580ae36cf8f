"""Span recording around the calls into each layer, from outside the library.

The traced run replaces a fixed list of public names with timing wrappers,
each at the place its caller looks it up (a module global, or a class
attribute for methods), and restores them afterwards.  Nothing under
``src/`` changes, and the timed run installs no wrapper at all.

A span is ``[name, start, end, parent, op]``.  Parents come from a context
variable, so spans nest correctly across threads and across interleaved
asyncio tasks (the in-process server of ``serve-zipf``).  The op id is the
op index for library workloads and the request's trace id for the server.
Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

Hook = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``where`` is ``module`` or ``module:Class``."""

    where: str
    attr: str
    span: str
    hook: Hook | None = None  # records counts from (args, result)
    op_of_args: Callable[[tuple], Any] | None = None
    op_of_result: Callable[[tuple, Any], Any] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._parent: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_parent", default=None
        )
        self._op: contextvars.ContextVar[Any] = contextvars.ContextVar(
            "perfbench_op", default=None
        )

    # -- recording ---------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    @contextlib.contextmanager
    def op(self, op_id: Any) -> Iterator[None]:
        token = self._op.set(op_id)
        try:
            yield
        finally:
            self._op.reset(token)

    def _open(self, name: str, op_id: Any) -> tuple[int, Any, Any]:
        if op_id is None:
            op_id = self._op.get()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._parent.get(), op_id])
        return index, self._parent.set(index), self._op.set(op_id)

    def _close(self, opened: tuple[int, Any, Any], op_id: Any = None) -> None:
        index, parent_token, op_token = opened
        span = self.spans[index]
        span[2] = time.perf_counter()
        if op_id is not None:
            span[4] = op_id
        self._op.reset(op_token)
        self._parent.reset(parent_token)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def op_at_open(args: tuple) -> Any:
            return target.op_of_args(args) if target.op_of_args else None

        def finish(opened, args, result) -> None:
            op_id = target.op_of_result(args, result) if target.op_of_result else None
            tracer._close(opened, op_id)
            if target.hook is not None:
                target.hook(tracer, args, result)

        if inspect.iscoroutinefunction(fn):

            async def traced_async(*args, **kwargs):
                opened = tracer._open(target.span, op_at_open(args))
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    tracer._close(opened)
                    raise
                finish(opened, args, result)
                return result

            return traced_async

        def traced(*args, **kwargs):
            opened = tracer._open(target.span, op_at_open(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(opened)
                if target.hook is not None:
                    target.hook(tracer, args, exc)
                raise
            finish(opened, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for target in targets:
                module_name, _, class_name = target.where.partition(":")
                owner: Any = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                    original = owner.__dict__[target.attr]
                else:
                    original = getattr(owner, target.attr)
                if isinstance(original, classmethod):
                    replacement: Any = classmethod(self.wrap(original.__func__, target))
                else:
                    replacement = self.wrap(original, target)
                saved.append((owner, target.attr, original))
                setattr(owner, target.attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------
    def self_times(self, ops: set | None = None) -> dict[str, float]:
        """Summed self time per span name, over spans belonging to ``ops``
        (every op when None)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, op_id = span
            if end is not None and parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, op_id) in enumerate(self.spans):
            if end is None or op_id is None or (ops is not None and op_id not in ops):
                continue
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def top_level_time(self, ops: set | None = None) -> float:
        """Summed duration of spans with no parent span (the layer calls
        the benchmark itself made)."""
        return sum(
            end - start
            for name, start, end, parent, op_id in self.spans
            if end is not None
            and parent is None
            and op_id is not None
            and (ops is None or op_id in ops)
        )

    def time_in(self, span_name: str) -> dict[Any, float]:
        """Per op, the summed duration of spans called ``span_name``."""
        totals: dict[Any, float] = defaultdict(float)
        for name, start, end, parent, op_id in self.spans:
            if name == span_name and end is not None and op_id is not None:
                totals[op_id] += end - start
        return dict(totals)

    def op_windows(self) -> dict[Any, float]:
        """Per op, the time from its first span's start to its last span's
        end."""
        first: dict[Any, float] = {}
        last: dict[Any, float] = {}
        for name, start, end, parent, op_id in self.spans:
            if end is None or op_id is None:
                continue
            first[op_id] = min(first.get(op_id, start), start)
            last[op_id] = max(last.get(op_id, end), end)
        return {op_id: last[op_id] - first[op_id] for op_id in first}

    def write(self, path: Path) -> None:
        """One JSON span per line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                if end is None:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": name,
                            "start": round(start, 7),
                            "end": round(end, 7),
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )


class YieldingAsyncio:
    """Stands in for the ``asyncio`` module inside the server's dispatcher,
    so the ``asyncio.sleep(0)`` it yields with becomes a ``server.yield``
    span: time other requests ran, which the dispatch span must not count
    as its own."""

    def __init__(self, tracer: Tracer) -> None:
        self.sleep = tracer.wrap(asyncio.sleep, Target("asyncio", "sleep", "server.yield"))

    def __getattr__(self, name: str) -> Any:
        return getattr(asyncio, name)


# -- the wrapped names, per layer -------------------------------------------


def _count_len(name: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, result: Any) -> None:
        if not isinstance(result, BaseException):
            tracer.count(name, len(result))

    return hook


def _count_edges(tracer: Tracer, args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        tracer.count("joins.edges", result.num_edges)


def _count_polish(tracer: Tracer, args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        tracer.count("core.polish_calls")
        tracer.count("core.polish_useful", result.improvement > 0)
        tracer.count("core.jumps_removed", result.improvement)


def _count_multiway(tracer: Tracer, args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        tracer.count("joins.multiway.seeks", result.seeks)
        tracer.count("joins.multiway.intermediates", result.intermediates)


def _count_consult(tracer: Tracer, args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        tracer.count("parallel.cache_hits" if result[0] is not None else "parallel.cache_misses")


def _count_admit(tracer: Tracer, args: tuple, result: Any) -> None:
    if isinstance(result, BaseException):
        tracer.count("server.rejected")
    else:
        tracer.peak("server.inflight_max", args[0].depth)


def _request_trace_id(request: Any) -> Any:
    return request.trace.trace_id if getattr(request, "trace", None) else None


_COMPONENT_SITES = (
    "repro.graphs.components",
    "repro.core.costs",
    "repro.core.solvers.registry",
    "repro.core.solvers.equijoin",
    "repro.core.solvers.dfs_approx",
    "repro.core.solvers.local_search",
    "repro.server.dispatch",
)

LIBRARY_TARGETS: list[Target] = [
    # relations
    Target("repro.relations.storage", "page_connection_graph", "relations.page_graph"),
    Target("repro.relations.storage", "schedule_report", "relations.schedule"),
    # joins
    Target("repro.joins.join_graph", "build_join_graph", "joins.build", _count_edges),
    Target("repro.engine.executor", "block_nested_loops", "joins.algo", _count_len("joins.pairs")),
    Target("repro.engine.executor", "trace_report", "joins.trace"),
    Target("repro.joins.trace", "trace_report", "joins.trace"),
    Target("repro.engine.multiway", "multiway_trace_report", "joins.trace"),
    # joins.multiway
    Target("repro.engine.multiway", "leapfrog_triejoin", "joins.multiway.join", _count_multiway),
    Target("repro.engine.multiway", "generic_join", "joins.multiway.join", _count_multiway),
    Target("repro.engine.multiway", "binary_cascade", "joins.multiway.join", _count_multiway),
    # engine
    Target("repro.engine.executor", "execute", "engine.execute"),
    Target("repro.engine.executor", "make_plan", "engine.plan"),
    Target("repro.engine.multiway", "execute_multiway", "engine.execute"),
    Target("repro.engine.multiway", "plan_multiway", "engine.plan"),
    # core
    Target("repro.core.solvers.registry", "solve", "core.solve"),
    Target("repro.server.dispatch", "registry_solve", "core.solve"),
    Target("repro.core.solvers.registry", "solve_dfs_approx", "core.dfs_approx"),
    Target("repro.core.solvers.registry", "polish_scheme", "core.polish", _count_polish),
    Target("repro.core.solvers.registry", "is_union_of_bicliques", "core.equijoin"),
    Target("repro.core.solvers.registry", "solve_equijoin", "core.equijoin"),
    Target("repro.core.solvers.exact", "solve_exact", "core.exact"),
    Target("repro.core.scheme:PebblingScheme", "from_edge_order", "core.scheme"),
    Target("repro.core.scheme:PebblingScheme", "effective_cost", "core.scheme"),
    # graphs: the component split is vertex sets plus induced subgraphs
    *(
        Target(site, "component_vertex_sets", "graphs.components", _count_len("graphs.components"))
        for site in _COMPONENT_SITES
    ),
    Target("repro.graphs.bipartite:BipartiteGraph", "subgraph", "graphs.components"),
    Target("repro.graphs.simple:Graph", "subgraph", "graphs.components"),
    Target("repro.core.solvers.dfs_approx", "line_graph", "graphs.line_graph"),
    Target("repro.core.solvers.dfs_approx", "dfs_tree", "graphs.dfs_tree"),
]

SERVER_TARGETS: list[Target] = [
    Target(
        "repro.server.protocol",
        "parse_request",
        "server.decode",
        op_of_result=lambda args, request: _request_trace_id(request),
    ),
    Target("repro.server.dispatch", "parse_graph_text", "server.decode"),
    Target("repro.server.admission:AdmissionController", "admit", "server.admit", _count_admit),
    Target(
        "repro.server.dispatch:Dispatcher",
        "handle",
        "server.dispatch",
        op_of_args=lambda args: _request_trace_id(args[1]),
    ),
    Target(
        "repro.server.protocol",
        "ok_response",
        "server.encode",
        op_of_args=lambda args: args[2].get("trace_id"),
    ),
    Target("repro.server.dispatch", "canonical_form", "parallel.fingerprint"),
    Target("repro.parallel.cache", "canonical_form", "parallel.fingerprint"),
    Target("repro.parallel.cache:SolveCache", "consult", "parallel.cache", _count_consult),
    Target("repro.parallel.cache:SolveCache", "store", "parallel.cache"),
    Target("repro.server.dispatch", "assemble_components", "parallel.assemble"),
    Target("repro.server.dispatch", "rebind_result", "parallel.assemble"),
]


@contextlib.contextmanager
def traced_algorithms(tracer: Tracer) -> Iterator[None]:
    """``executor.algorithm_by_name`` hands back the join algorithm the
    plan chose; while tracing it hands back a traced algorithm instead."""
    import repro.engine.executor as executor

    original = executor.algorithm_by_name
    algo_target = Target("repro.engine.executor", "<algorithm>", "joins.algo", _count_len("joins.pairs"))

    def lookup(name: str):
        algorithm = original(name)
        return None if algorithm is None else tracer.wrap(algorithm, algo_target)

    executor.algorithm_by_name = lookup
    try:
        yield
    finally:
        executor.algorithm_by_name = original


@contextlib.contextmanager
def yielding_dispatcher(tracer: Tracer) -> Iterator[None]:
    """Make the dispatcher's cooperative yields visible as spans."""
    import repro.server.dispatch as dispatch

    original = dispatch.asyncio
    dispatch.asyncio = YieldingAsyncio(tracer)
    try:
        yield
    finally:
        dispatch.asyncio = original


@contextlib.contextmanager
def tracing(tracer: Tracer, server: bool = False) -> Iterator[None]:
    """Install every library wrapper (and the server's when asked)."""
    targets = LIBRARY_TARGETS + (SERVER_TARGETS if server else [])
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.installed(targets))
        stack.enter_context(traced_algorithms(tracer))
        if server:
            stack.enter_context(yielding_dispatcher(tracer))
        yield
