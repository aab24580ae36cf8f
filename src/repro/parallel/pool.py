"""Worker-side plumbing for the parallel solve service.

The observability collectors (:mod:`repro.obs.metrics`,
:mod:`repro.obs.events`, :mod:`repro.obs.trace`) are **per-process
globals**, so a solve running inside a ``ProcessPoolExecutor`` worker
records into that worker's registries and the parent would see nothing.
The contract here: a task carries the parent's recording switch
(:attr:`SolveTask.recording`); the worker starts from reset collectors,
runs one component solve, then *snapshots and ships its counters, events
and spans back* in the task result; the parent merges all three into its
own collectors (:func:`merge_observations`), so enabled-vs-disabled
neutrality and the "same answer, same account at any job count" property
survive the pool.

Worker hygiene on entry (:func:`solve_task`):

- the ambient solve-cache stack is cleared — a forked child must never
  reuse the parent's SQLite connection (the parent consulted the cache
  before dispatching, so workers only see genuine misses anyway);
- the ambient budget stack is cleared for the same reason: each task
  carries its own *deadline share* (see ``docs/PARALLEL.md``) as plain
  numbers and rebuilds a fresh :class:`~repro.runtime.budget.Budget`
  in-process, because budgets hold clocks and must not cross the pickle
  boundary.

Tasks and results are plain picklable payloads; the worker function is a
module-level callable so every start method (fork, spawn) can import it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro import obs
from repro.core.solvers.registry import SolveResult
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition
from repro.graphs.simple import Graph
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.context import TraceContext
from repro.runtime import faults as faults_mod

AnyGraph = Graph | BipartiteGraph

# The fault-injection site that kills a worker process (see
# docs/ROBUSTNESS.md).  Unlike I/O sites it must be *named explicitly* in
# a FaultPlan's rates — a ``"*"`` wildcard plan exercises exception paths,
# not process death, so existing chaos runs keep their meaning.
CRASH_SITE = "worker.crash"

# Provenance marker recorded on a result solved in-parent after its task
# repeatedly killed workers.
QUARANTINE_MARKER = "pool.quarantine"


@dataclass(frozen=True)
class SolveTask:
    """One component solve shipped to a worker.

    ``crash`` is the deterministic chaos hook: a task marked in the
    *parent* (one seeded draw per dispatch, :func:`crash_draw`) kills its
    worker process on arrival, simulating an OOM-kill / segfault without
    any real nondeterminism.  ``recording`` is the parent's obs switch
    at dispatch: the worker records and ships observations iff it is set.
    """

    graph: AnyGraph | Decomposition
    method: str
    options: dict[str, Any] = field(default_factory=dict)
    deadline: float | None = None
    memo_cap: int | None = None
    recording: bool = False
    crash: bool = False
    # Request correlation: the originating request's TraceContext (its
    # parent_span_id names the dispatch span in the parent process).
    trace: TraceContext | None = None


@dataclass(frozen=True)
class TaskOutcome:
    """What a worker ships home: the result plus its observations."""

    result: SolveResult
    counters: dict[str, int]
    events: tuple[tuple[str, dict[str, Any]], ...]
    spans: tuple[dict[str, Any], ...] = ()


def solve_task(task: SolveTask) -> TaskOutcome:
    """Run one component solve in a **worker process** and snapshot obs.

    Worker-only: it resets this process's collectors before solving, so
    the jobs=1 inline path in :func:`repro.parallel.service.solve_many`
    calls the registry directly instead (same solver code, no snapshot
    needed because the parent's collectors record in place).
    """
    from repro.core.solvers.registry import solve
    from repro.parallel.cache import _reset_ambient_cache
    from repro.runtime.budget import _BUDGET_STACK

    if task.crash:
        # Injected worker death: exit hard, bypassing interpreter
        # shutdown, exactly like the kernel's OOM killer would.
        os._exit(1)

    _reset_ambient_cache()
    _BUDGET_STACK.clear()
    obs.reset()
    if task.recording:
        obs.enable()
    else:
        obs.disable()

    # The ambient context makes every top-level span this worker records
    # carry the originating request's trace_id (and the parent-process
    # dispatch span as remote_parent) — tagged at recording time, so the
    # shipment needs no post-processing.
    token = obs_context.activate(task.trace) if task.trace is not None else None
    try:
        result = solve(
            task.graph,
            task.method,
            deadline=task.deadline,
            memo_cap=task.memo_cap,
            **task.options,
        )
    finally:
        if token is not None:
            obs_context.deactivate(token)

    outcome = TaskOutcome(result=result, counters={}, events=())
    if task.recording:
        outcome = TaskOutcome(
            result=result,
            counters=dict(obs_metrics.snapshot()["counters"]),
            events=tuple(
                (event.name, dict(event.attrs)) for event in obs_events.events()
            ),
            spans=tuple(obs_trace.as_dicts()),
        )
    obs.reset()
    obs.disable()
    return outcome


def merge_observations(outcome: TaskOutcome) -> None:
    """Fold one worker's shipped counters, events and spans into this
    process.

    Counters merge by summation (deterministic: sorted name order);
    events are re-emitted in their original worker order, restamped with
    the parent's ``seq`` / ``run_id`` / ``span_id`` — the worker's facts,
    the parent's timeline.  Shipped spans are adopted into the parent
    tracer (:meth:`repro.obs.trace.Tracer.adopt`) tagged with
    ``origin="worker"``, under the request's dispatch span or else the
    innermost span open here.
    """
    if not obs_recorder.ON:
        return
    for name in sorted(outcome.counters):
        obs_metrics.inc(name, outcome.counters[name])
    for name, attrs in outcome.events:
        obs_events.emit(name, **attrs)
    adopted = obs_trace.adopt(outcome.spans, origin="worker")
    if adopted:
        obs_metrics.inc("parallel.pool.spans_adopted", len(adopted))


def preferred_start_method() -> str:
    """``fork`` where available (fast, shares the imported package), else
    the platform default (``spawn`` re-imports ``repro`` per worker)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def make_executor(jobs: int, task_count: int) -> Executor:
    """A process pool sized to the work (never more workers than tasks)."""
    workers = max(1, min(jobs, task_count))
    context = multiprocessing.get_context(preferred_start_method())
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


class WorkerPool:
    """A long-lived, re-entrant process pool shared across batch calls.

    ``solve_many`` historically built (and tore down) a throwaway
    ``ProcessPoolExecutor`` per batch; a persistent front-end (``repro
    serve``) cannot afford that — worker start-up would dominate every
    request.  A ``WorkerPool`` owns one executor for its whole lifetime:

    - **lazy**: the executor is created on first use, so constructing a
      pool is free and a server that only ever serves cache hits never
      forks a worker;
    - **context-managed and re-entrant**: ``with pool:`` blocks nest —
      the underlying executor is shut down only when the *outermost*
      ``with`` exits (or :meth:`close` is called explicitly), so a
      service can hold the pool open while individual batches also use
      ``with pool:`` for scoped cleanliness;
    - **shareable**: any number of concurrent ``solve_many`` calls (or
      server requests) may submit into one pool; the executor's queue
      interleaves them.

    After :meth:`close`, the pool is reusable: the next submit lazily
    builds a fresh executor (useful for fork-safety after chaos tests).

    **Self-healing**: a killed worker breaks the whole
    ``ProcessPoolExecutor`` (every pending future raises
    ``BrokenProcessPool``).  :attr:`generation` counts rebuilds;
    dispatchers snapshot it before submitting and call :meth:`heal` with
    the snapshot when they observe breakage, so any number of concurrent
    dispatchers trigger exactly one rebuild per crash.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.generation = 0
        self._executor: ProcessPoolExecutor | None = None
        self._entries = 0
        self._lock = threading.Lock()

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        with self._lock:
            if self._executor is None:
                context = multiprocessing.get_context(preferred_start_method())
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=context
                )
            return self._executor

    def submit(self, task: SolveTask):
        """Submit one :func:`solve_task` to the pool; returns the future."""
        return self.executor.submit(solve_task, task)

    def heal(self, seen_generation: int) -> None:
        """Replace a broken executor, at most once per observed crash.

        ``seen_generation`` is the :attr:`generation` the caller read
        *before* submitting; if another dispatcher already healed (the
        generation moved on), this is a no-op and the caller simply
        resubmits into the fresh executor.
        """
        with self._lock:
            if self.generation != seen_generation:
                return
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self.generation += 1

    def close(self) -> None:
        """Shut the executor down (idempotent); the pool stays reusable."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        self._entries += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._entries -= 1
        if self._entries <= 0:
            self._entries = 0
            self.close()


def emit_task_event(
    name: str, key: str, method: str, jobs: int, **extra: Any
) -> None:
    """One ``pool.task_*`` event, keyed by fingerprint prefix."""
    if obs_recorder.ON:
        obs_events.emit(
            name,
            fingerprint=key.split(":", 1)[0][:12],
            method=method,
            jobs=jobs,
            **extra,
        )


def crash_draw() -> bool:
    """One seeded draw at the ``worker.crash`` site (parent-side).

    The draw happens in the *parent* before dispatch — dispatch order is
    deterministic, so which tasks die is pinned by the plan's seed alone.
    Only plans that name ``worker.crash`` explicitly participate; the
    ``"*"`` wildcard does not reach it (see :data:`CRASH_SITE`).
    """
    plan = faults_mod.active_plan()
    if plan is None or CRASH_SITE not in plan.rates:
        return False
    fired = plan.should_fail(CRASH_SITE)
    if fired and obs_recorder.ON:
        obs_events.emit(
            obs_events.EVENT_FAULT_INJECTED,
            site=CRASH_SITE,
            seed=plan.seed,
            call=plan.calls,
            injected=plan.injected,
        )
    return fired


def _quarantine(task: SolveTask, key: str, jobs: int) -> TaskOutcome:
    """Solve a poison task in-parent and brand the result as quarantined.

    A task that kept killing workers is taken out of the pool entirely
    and solved inline (ambient cache masked, same budget share), so the
    batch still completes with a correct answer; the recovery trail lives
    in the result's provenance (:data:`QUARANTINE_MARKER`), a
    ``pool.quarantine`` event, and a ``parallel.pool.quarantines``
    counter — an explicit degraded outcome, never a crash.
    """
    from repro.core.solvers.registry import solve
    from repro.parallel.cache import use_cache
    from repro.runtime.anytime import SolveProvenance

    if obs_recorder.ON:
        obs_metrics.inc("parallel.pool.quarantines")
    emit_task_event(
        obs_events.EVENT_POOL_QUARANTINE, key, task.method, jobs
    )
    with use_cache(None):
        result = solve(
            task.graph,
            task.method,
            deadline=task.deadline,
            memo_cap=task.memo_cap,
            **task.options,
        )
    provenance = result.provenance or SolveProvenance()
    provenance = replace(
        provenance,
        degradations=provenance.degradations + (QUARANTINE_MARKER,),
    )
    # Obs recorded directly into the parent's collectors during the
    # inline solve, so the outcome ships none (merging stays a no-op).
    return TaskOutcome(
        result=replace(result, provenance=provenance), counters={}, events=()
    )


def dispatch_resilient(
    pool: WorkerPool,
    payloads: Sequence[SolveTask],
    keys: Sequence[str] | None = None,
    max_failures: int = 3,
) -> list[TaskOutcome]:
    """Run every payload on ``pool``, surviving killed workers.

    The happy path is exactly the old dispatch: submit everything,
    collect in submission order.  When a worker dies the executor breaks
    and every uncollected future raises ``BrokenProcessPool``; this
    dispatcher then

    1. heals the pool (:meth:`WorkerPool.heal` — one rebuild no matter
       how many dispatchers saw the crash) and emits one
       ``pool.worker_crash`` event / ``parallel.pool.worker_crashes``
       counter bump;
    2. re-dispatches only the lost tasks, **serially** — after a crash
       the culprit among the batch is unknown, so one-task waves make
       every further death attributable to exactly one task;
    3. quarantines any task charged with ``max_failures`` failures
       (:func:`_quarantine`) instead of retrying forever.

    Results come back in payload order regardless of crashes, so callers
    keep the determinism contract of ``solve_many``.
    """
    total = len(payloads)
    keys = list(keys) if keys is not None else [f"task:{i}" for i in range(total)]
    outcomes: list[TaskOutcome | None] = [None] * total
    failures = [0] * total
    pending = list(range(total))
    started: set[int] = set()
    serial = False
    while pending:
        wave = pending[:1] if serial else list(pending)
        seen_generation = pool.generation
        futures: list[tuple[int, Any]] = []
        submit_broke = False
        for index in wave:
            payload = payloads[index]
            if crash_draw():
                payload = replace(payload, crash=True)
            if index not in started:
                emit_task_event(
                    obs_events.EVENT_POOL_TASK_START,
                    keys[index],
                    payload.method,
                    pool.jobs,
                )
                started.add(index)
            try:
                futures.append((index, pool.submit(payload)))
            except BrokenProcessPool:
                # The pool broke before this wave finished submitting;
                # heal below and re-dispatch the whole remainder.
                submit_broke = True
                break
        crashed: list[int] = []
        for index, future in futures:
            try:
                outcome: TaskOutcome = future.result()
            except BrokenProcessPool:
                crashed.append(index)
                continue
            outcomes[index] = outcome
            emit_task_event(
                obs_events.EVENT_POOL_TASK_END,
                keys[index],
                payloads[index].method,
                pool.jobs,
                status=outcome.result.status,
            )
        pending = [i for i in pending if outcomes[i] is None]
        if not (crashed or submit_broke):
            continue
        pool.heal(seen_generation)
        serial = True
        if obs_recorder.ON:
            obs_metrics.inc("parallel.pool.worker_crashes")
            obs_events.emit(
                obs_events.EVENT_POOL_WORKER_CRASH,
                lost_tasks=len(pending),
                generation=pool.generation,
                jobs=pool.jobs,
            )
        for index in crashed:
            failures[index] += 1
        for index in list(pending):
            if failures[index] >= max_failures:
                outcomes[index] = _quarantine(
                    payloads[index], keys[index], pool.jobs
                )
                pending.remove(index)
    return [outcome for outcome in outcomes if outcome is not None]


__all__ = [
    "CRASH_SITE",
    "QUARANTINE_MARKER",
    "SolveTask",
    "TaskOutcome",
    "WorkerPool",
    "crash_draw",
    "dispatch_resilient",
    "emit_task_event",
    "make_executor",
    "merge_observations",
    "preferred_start_method",
    "solve_task",
]
