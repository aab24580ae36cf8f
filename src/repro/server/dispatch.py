"""The server's dispatcher: one request through the batch pipeline.

A solve request is a one-graph batch through the same pipeline as
:func:`repro.parallel.service.solve_many`:
:func:`~repro.parallel.service.plan_batch` decomposes, fingerprints each
component once, dedupes and consults the shared two-tier cache;
:meth:`~repro.parallel.service.Batch.finish` stores, rebinds and
reassembles per Lemma 2.2.  Only the fan-out is the dispatcher's own: it
*awaits* the solves instead of blocking on them, so many requests
interleave on one :class:`~repro.parallel.pool.WorkerPool` without a
thread per request.

Single-threading discipline: every cache consult/store and every
observability emission happens on the event-loop thread; only the pure
component solve crosses into a worker process (as a picklable
:class:`~repro.parallel.pool.SolveTask`), and its shipped observations
are merged back on the loop thread.  With ``pool=None`` components solve
inline on the loop thread (:func:`~repro.parallel.pool.solve_inline`,
yielding between solves) — the test and smoke configuration, and the
degenerate ``jobs=1`` server.

Deadlines propagate as plain numbers: the request's
:class:`~repro.runtime.budget.Budget` is armed on admission, and each
component task gets :func:`~repro.parallel.service.split_deadline` of
``budget.remaining()`` — so time spent queueing behind other requests
*counts against* the request's own deadline, and an already-exhausted
budget yields zero-share solves that degrade instantly to an answer
instead of erroring.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.engine.executor import execute as engine_execute
from repro.engine.planner import plan as engine_plan
from repro.engine.query import JoinQuery
from repro.errors import GraphError, PredicateError, RelationError, SolverError
from repro.graphs.io import load_any_graph
from repro.joins import predicates as predicate_module
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import planquality
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.parallel import pool as pool_mod
from repro.parallel.cache import SolveCache
from repro.parallel.service import Batch, plan_batch, split_deadline
from repro.relations.io import load_relation
from repro.runtime import faults
from repro.runtime.budget import Budget
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INVALID_GRAPH,
    OP_EXPLAIN,
    OP_SOLVE,
    ProtocolError,
    Request,
)

# Not called here (the batch pipeline calls them from repro.parallel):
# perfbench/tracer.py looks these names up on this module.
from repro.core.solvers.registry import solve as registry_solve
from repro.graphs.components import component_vertex_sets
from repro.parallel.fingerprint import canonical_form
from repro.parallel.service import assemble_components, rebind_result

AnyGraph = pool_mod.AnyGraph

# The explain op's wire predicate names, mapped to their constructors
# ("band" is special-cased: it carries a width).
EXPLAIN_PREDICATES = {
    "containment": predicate_module.SetContainment,
    "equality": predicate_module.Equality,
    "overlap": predicate_module.SpatialOverlap,
    "set-overlap": predicate_module.SetOverlap,
}


def parse_graph_text(text: str) -> AnyGraph:
    """Load a request's graph payload, either variant
    (:func:`~repro.graphs.io.load_any_graph`).  Defects become
    ``invalid_graph`` protocol errors, never tracebacks.
    """
    try:
        return load_any_graph(text)
    except GraphError as exc:
        raise ProtocolError(ERROR_INVALID_GRAPH, str(exc)) from exc


class Dispatcher:
    """Shared solve machinery behind every connection of one server.

    One dispatcher owns the server's :class:`SolveCache` and (optionally)
    its :class:`~repro.parallel.pool.WorkerPool`; :meth:`handle` is
    called once per admitted solve/plan request, concurrently.
    """

    def __init__(
        self,
        cache: SolveCache | None = None,
        pool: pool_mod.WorkerPool | None = None,
        default_deadline: float | None = None,
    ) -> None:
        self.cache = cache
        self.pool = pool
        self.default_deadline = default_deadline

    async def handle(self, request: Request) -> dict[str, Any]:
        """Serve one ``solve``/``plan``/``explain`` request; returns the
        result payload.

        Raises :class:`ProtocolError` for defective graphs; budget
        exhaustion is *not* an error — it surfaces as a degraded
        ``status`` in an ok response, exactly like the CLI.

        While observability records, the whole dispatch is timed as a
        *detached* ``server.dispatch`` span (stack-free, because the
        region stays open across ``await`` points while other requests
        interleave) and the ambient trace context is re-rooted under it,
        so every solver span — inline or shipped home from a worker —
        hangs off this request's dispatch.
        """
        ctx = obs_context.current()
        with obs_trace.detached_span(
            "server.dispatch",
            id=request.id,
            op=request.op,
            method=request.method,
        ) as dispatch_span:
            if ctx is not None and dispatch_span is not None:
                ctx = ctx.child(dispatch_span.index)
            with obs_context.use(ctx):
                if request.op == OP_EXPLAIN:
                    return await self._explain(request)
                return await self._dispatch(request)

    async def _explain(self, request: Request) -> dict[str, Any]:
        """Plan (and with ``options.analyze`` execute) one join described
        by relation texts; returns the plan's structured record plus its
        renderings.

        ``options.shadow`` (with ``analyze``) additionally shadow-executes
        the runner-up candidates on small inputs so the record carries
        plan-regret.  The ``record`` payload is byte-for-byte what
        ``repro explain --json`` emits locally — one source of truth for
        both surfaces.
        """
        assert request.left_text is not None and request.right_text is not None
        faults.maybe_fail("server.dispatch")
        try:
            left = load_relation("R", request.left_text)
            right = load_relation("S", request.right_text)
        except RelationError as exc:
            raise ProtocolError(ERROR_INVALID_GRAPH, str(exc)) from exc
        if request.predicate == "band":
            predicate = predicate_module.Band(request.band_width)
        else:
            predicate = EXPLAIN_PREDICATES[request.predicate]()
        deadline = request.deadline
        if deadline is None:
            deadline = self.default_deadline
        budget = Budget(deadline=deadline) if deadline is not None else None
        if budget is not None:
            budget.start()
        options = request.options
        try:
            query = JoinQuery(left, right, predicate)
            if options.get("analyze"):
                result = engine_execute(
                    query, budget=budget, shadow=bool(options.get("shadow"))
                )
                the_plan = result.plan
                text = result.explain_analyze()
            else:
                the_plan = engine_plan(query, budget=budget)
                text = the_plan.explain()
        except PredicateError as exc:
            # Relations that do not fit the predicate (e.g. equality over
            # mixed domains) are a client input defect, not a server bug.
            raise ProtocolError(ERROR_INVALID_GRAPH, str(exc)) from exc
        payload: dict[str, Any] = {
            "schema": planquality.PLAN_SCHEMA,
            "explain": text,
            "algorithm": the_plan.algorithm_name,
        }
        record = the_plan.record
        if record is not None:
            payload["render"] = record.render()
            payload["record"] = record.as_dict()
        return payload

    async def _dispatch(self, request: Request) -> dict[str, Any]:
        assert request.graph_text is not None
        # Chaos hook: an installed FaultPlan may fail the dispatch
        # outright (the server answers `internal` and lives on) ...
        faults.maybe_fail("server.dispatch")
        graph = parse_graph_text(request.graph_text)
        deadline = request.deadline
        if deadline is None:
            deadline = self.default_deadline
        # Armed now: queue time and cache time burn the request's budget.
        budget = Budget(deadline=deadline) if deadline is not None else None
        plan = faults.active_plan()
        if budget is not None and plan is not None and plan.starvation > 1:
            # ... or starve the request's budget (a machine `k` times
            # slower than the deadline was sized for), pushing solves
            # down the degradation ladder instead of past the deadline.
            budget = plan.starve(budget)
        if budget is not None:
            budget.start()

        batch = plan_batch(
            [graph], request.method, dict(request.options), self.cache
        )
        if obs_recorder.ON:
            obs_metrics.inc("server.components", batch.components)
            obs_metrics.inc("server.components.solved", len(batch.pending))

        try:
            [result] = await self._solve_batch(batch, budget)
        except SolverError as exc:
            # The solver refused the input under the request's method and
            # options (equijoin on a non-biclique, exact past its node
            # budget): a client error, answered with the solver's reason.
            raise ProtocolError(ERROR_BAD_REQUEST, str(exc)) from exc

        payload: dict[str, Any] = {
            "method": result.method,
            "effective_cost": result.effective_cost,
            "raw_cost": result.raw_cost,
            "jumps": result.jumps,
            "optimal": result.optimal,
            "status": result.status,
            "components": batch.components,
            "cached_components": len(batch.hits),
            "solved_components": len(batch.pending),
        }
        if result.provenance is not None:
            payload["degradations"] = list(result.provenance.degradations)
        if request.op == OP_SOLVE:
            payload["scheme"] = [
                [str(a), str(b)] for a, b in result.scheme.configurations
            ]
        return payload

    async def _solve_batch(self, batch: Batch, budget: Budget | None) -> list:
        """Solve the batch's cache misses — fanned out to the pool, or
        inline when there is none — and finish the batch."""
        results = []
        if batch.pending:
            jobs = self.pool.jobs if self.pool is not None else 1
            tasks = batch.tasks(
                split_deadline(
                    budget.remaining() if budget is not None else None,
                    len(batch.pending),
                    jobs,
                )
            )
            if self.pool is None:
                for task in tasks:
                    results.append(pool_mod.solve_inline(task))
                    # Yield between inline solves so ping/stats requests
                    # on other connections stay responsive.
                    await asyncio.sleep(0)
            else:
                # The whole batch goes through the self-healing
                # dispatcher on a harness thread: it blocks on worker
                # futures (collecting in submission order) and survives
                # killed workers by healing the shared pool and
                # re-dispatching only the lost tasks.  The loop thread
                # just awaits the batch, so other requests keep
                # interleaving, and merges the observations itself.
                loop = asyncio.get_running_loop()
                outcomes = await loop.run_in_executor(
                    None,
                    lambda: pool_mod.dispatch_resilient(
                        self.pool, tasks, keys=list(batch.pending)
                    ),
                )
                results = pool_mod.collect(outcomes)
        return batch.finish(results)


__all__ = ["Dispatcher", "parse_graph_text"]
