"""The batch pipeline behind ``solve_many`` and the solve server.

Lemma 2.2 (additivity) is what makes this safe: the components of a join
graph are pebbled independently and their costs add, so per-component
work can be deduped, cached, solved anywhere and reassembled without
changing any answer.  One pipeline, two fan-outs:

1. **plan** (:func:`plan_batch`) — every input graph is split into
   connected components once (:func:`~repro.graphs.components.decompose`;
   isolated vertices dropped, matching the paper's convention); each
   component is fingerprinted once into a
   :class:`~repro.parallel.cache.CacheToken`, structurally identical
   components collapse into one task, and the batch's
   :class:`~repro.parallel.cache.SolveCache`, if it has one, is consulted
   once per unique key with that same token;
2. **solve** — :meth:`Batch.tasks` builds one
   :class:`~repro.parallel.pool.SolveTask` per unique miss and the caller
   fans them out: :func:`solve_many` inline (``jobs=1``) or through a
   throwaway self-healing pool, the server's dispatcher
   (:mod:`repro.server.dispatch`) inline on its event loop or through its
   shared pool.  Every solve, in a worker or not, is
   :func:`~repro.parallel.pool.solve_inline`;
3. **finish** (:meth:`Batch.finish`) — misses are stored in the cache,
   deduped results are rebound onto sibling components, and per input
   graph the component schemes are stitched in canonical component order;
   costs add per Lemma 2.2 (the stitched scheme's cost *equals* the sum
   of component costs, which :meth:`~repro.core.scheme.PebblingScheme.cost`
   re-derives), statuses merge to the most degraded, provenance is pooled.

Results are **deterministic in the job count**: ``jobs=4`` returns
byte-identical costs, schemes, and statuses to ``jobs=1``, because task
order, reassembly order, and counter merging are all fixed by input
order, never completion order.

Budgets survive the pool cooperatively: a ``deadline=`` for the whole
batch is split evenly across dispatch *waves* (``ceil(tasks / jobs)``
of them), so every worker solve gets an enforceable share and the batch
still lands inside the overall deadline.  Budget objects themselves
never cross the process boundary — only plain numbers do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.core.scheme import PebblingScheme
from repro.core.solvers.registry import METHODS, SOLVE_SETTINGS, SolveResult
from repro.errors import SolverError
from repro.graphs.components import Decomposition, decompose
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.parallel import pool as pool_mod
from repro.parallel.cache import CacheToken, SolveCache, cache_token
from repro.parallel.fingerprint import CanonicalForm, decode_scheme, encode_scheme
from repro.parallel.pool import SolveTask
from repro.runtime.anytime import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_COMPLETE,
    STATUS_OPTIMAL,
    STATUS_TIMED_OUT,
    SolveProvenance,
)

AnyGraph = pool_mod.AnyGraph

# The settings a batch forwards to every component solve: all of solve()'s
# but the deadline, which the batch splits into per-task shares itself.
BATCH_SETTINGS = tuple(name for name in SOLVE_SETTINGS if name != "deadline")

# Most-degraded-wins ordering for merging per-component statuses.
_STATUS_SEVERITY = {
    STATUS_OPTIMAL: 0,
    STATUS_COMPLETE: 1,
    STATUS_BUDGET_EXHAUSTED: 2,
    STATUS_TIMED_OUT: 3,
}


def split_deadline(
    deadline: float | None, tasks: int, jobs: int
) -> float | None:
    """The per-task deadline share: the batch deadline divided across
    dispatch waves (``ceil(tasks / jobs)``), so the whole batch finishes
    inside ``deadline`` no matter how tasks queue behind the workers.

    The share is clamped at 0.0: a zero (or already-overrun, i.e.
    negative-remaining) deadline yields a zero share, which is a *valid*
    cooperative budget — every solve trips on its first checkpoint and
    degrades through the ladder to an instant answer — rather than a
    ``Budget`` constructor error deep inside a worker.
    """
    if deadline is None or tasks == 0:
        return None
    waves = math.ceil(tasks / max(1, jobs))
    return max(0.0, deadline / waves)


def _merge_status(statuses: Sequence[str]) -> str:
    if not statuses:
        return STATUS_OPTIMAL
    return max(statuses, key=lambda s: _STATUS_SEVERITY.get(s, 1))


def _merge_provenance(
    results: Sequence[SolveResult],
) -> SolveProvenance | None:
    """Pool per-component provenance: nodes and elapsed time add (total
    work), lower bounds add (Lemma 2.2), degradations concatenate in
    component order."""
    carrying = [r.provenance for r in results if r.provenance is not None]
    if not carrying:
        return None
    bounds = [p.lower_bound for p in carrying]
    return SolveProvenance(
        nodes_expanded=sum(p.nodes_expanded for p in carrying),
        elapsed_seconds=sum(p.elapsed_seconds for p in carrying),
        lower_bound=None
        if any(b is None for b in bounds)
        else sum(b for b in bounds if b is not None),
        degradations=tuple(
            step for p in carrying for step in p.degradations
        ),
    )


def assemble_components(
    method: str, component_results: Sequence[SolveResult]
) -> SolveResult:
    """Stitch per-component results back into one graph-level result.

    Component schemes are stitched once, in canonical component order
    (:meth:`PebblingScheme.join`: their edge tables joined and id
    sequences shifted, in one pass over the edges); the transition between
    two components always moves both pebbles, so the stitched raw cost is
    exactly the sum of component raw costs and the effective cost is the
    sum of component effective costs (Lemma 2.2) — both recomputed from
    the stitched scheme rather than trusted (one result per component, so
    ``β₀`` is their count).
    """
    if not component_results:
        empty = PebblingScheme(())
        return SolveResult(
            scheme=empty,
            method=method,
            effective_cost=0,
            raw_cost=0,
            jumps=0,
            optimal=True,
            status=STATUS_OPTIMAL,
        )
    if len(component_results) == 1:
        return component_results[0]
    scheme = PebblingScheme.join([r.scheme for r in component_results])
    methods = {r.method for r in component_results}
    merged_method = methods.pop() if len(methods) == 1 else method
    status = _merge_status([r.status for r in component_results])
    optimal = all(r.optimal for r in component_results)
    raw_cost = scheme.cost()
    return SolveResult(
        scheme=scheme,
        method=merged_method,
        effective_cost=raw_cost - len(component_results),
        raw_cost=raw_cost,
        jumps=scheme.jumps(),
        optimal=optimal and status == STATUS_OPTIMAL,
        status=status,
        provenance=_merge_provenance(component_results),
    )


@dataclass
class Batch:
    """A planned batch: the stages both batch paths share.

    :func:`plan_batch` fills it (decompose, fingerprint each component
    once, dedupe, consult the cache once per unique key);
    :meth:`tasks` builds the solves for the unique misses; a caller runs
    them however its fan-out likes and hands the results, in task order,
    to :meth:`finish` (store, rebind, assemble).

    ``plans`` holds, per input graph, each component's token in canonical
    component order; ``tokens`` the representative token per unique key
    (the labels a deduped result is bound to); ``hits`` the keys the
    cache served; ``pending`` the unique misses, each already split so
    its solve never splits again.
    """

    method: str
    options: dict[str, Any]
    cache: SolveCache | None
    plans: list[list[CacheToken]] = field(default_factory=list)
    tokens: dict[str, CacheToken] = field(default_factory=dict)
    hits: dict[str, SolveResult] = field(default_factory=dict)
    pending: dict[str, Decomposition] = field(default_factory=dict)

    @property
    def components(self) -> int:
        """Components across every graph, duplicates included."""
        return sum(len(plan) for plan in self.plans)

    def tasks(self, deadline: float | None) -> list[SolveTask]:
        """One task per pending key, in planning order, each with the
        per-task ``deadline`` share, under the ambient recording switch
        and trace context (so worker spans join the originating
        request)."""
        return [
            SolveTask(
                graph=part,
                method=self.method,
                options=self.options,
                deadline=deadline,
                recording=obs_recorder.ON,
                trace=obs_context.current(),
            )
            for part in self.pending.values()
        ]

    def finish(self, results: Sequence[SolveResult]) -> list[SolveResult]:
        """Store the solved misses, rebind deduped results onto sibling
        components, and assemble one result per input graph."""
        solved = dict(self.hits)
        for key, result in zip(self.pending, results):
            solved[key] = result
            if self.cache is not None:
                self.cache.store(self.tokens[key], result)
        return [
            assemble_components(
                self.method,
                [
                    rebind_result(
                        solved[token.key], self.tokens[token.key].form, token.form
                    )
                    for token in plan
                ],
            )
            for plan in self.plans
        ]


def plan_batch(
    graphs: Sequence[AnyGraph],
    method: str,
    options: dict[str, Any],
    cache: SolveCache | None,
) -> Batch:
    """Decompose every graph, fingerprint each component once, dedupe
    structurally identical components, and consult ``cache`` once per
    unique key (stages 1–2).

    ``options`` are checked against :data:`BATCH_SETTINGS` first, so a
    misspelt setting raises :class:`TypeError` before any cache lookup,
    as ``solve()`` itself does.
    """
    unknown = sorted(set(options).difference(BATCH_SETTINGS))
    if unknown:
        raise TypeError(
            f"unknown solve setting(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(BATCH_SETTINGS)}"
        )
    batch = Batch(method=method, options=options, cache=cache)
    for graph in graphs:
        plan: list[CacheToken] = []
        for part in decompose(graph).each():
            token = cache_token(part, method, options)
            plan.append(token)
            if token.key in batch.tokens:
                continue
            batch.tokens[token.key] = token
            hit = cache.consult(token)[0] if cache is not None else None
            if hit is None:
                batch.pending[token.key] = part
            else:
                batch.hits[token.key] = hit
        batch.plans.append(plan)
    return batch


def solve_many(
    graphs: Sequence[AnyGraph],
    method: str = "auto",
    jobs: int = 1,
    cache: SolveCache | None = None,
    deadline: float | None = None,
    **options: Any,
) -> list[SolveResult]:
    """Solve PEBBLE on every graph in ``graphs``; results in input order.

    ``jobs`` is the worker-process count (1 = inline, no pool).
    ``cache`` is consulted once per unique component and stores what the
    call solves; structurally identical components are solved once per
    call even with no cache at all.  ``deadline`` is a cooperative batch
    budget, split across workers (see :func:`split_deadline`); ``options``
    are the other :data:`BATCH_SETTINGS`, forwarded to every
    :func:`repro.core.solvers.registry.solve` (an unknown one raises
    :class:`TypeError`).
    """
    if method not in METHODS:
        raise SolverError(f"unknown method {method!r}; choose from {METHODS}")
    if jobs < 1:
        raise SolverError(f"jobs must be >= 1, got {jobs}")
    graphs = list(graphs)

    with obs_trace.span(
        "parallel.solve_many", graphs=len(graphs), jobs=jobs, method=method
    ):
        batch = plan_batch(graphs, method, options, cache)
        if obs_recorder.ON:
            obs_metrics.inc("parallel.solve_many.calls")
            obs_metrics.inc("parallel.solve_many.graphs", len(graphs))
            obs_metrics.inc("parallel.solve_many.components", batch.components)
            obs_metrics.inc("parallel.pool.tasks", len(batch.pending))
        tasks = batch.tasks(split_deadline(deadline, len(batch.pending), jobs))
        return batch.finish(_fan_out(batch, tasks, jobs))


def _fan_out(
    batch: Batch, tasks: list[SolveTask], jobs: int
) -> list[SolveResult]:
    """``solve_many``'s fan-out (stage 3): inline for ``jobs=1`` or a
    single task, else a throwaway pool through the self-healing
    dispatcher, which collects in submission order (reassembly and obs
    merging stay deterministic) and survives killed workers
    (docs/ROBUSTNESS.md)."""
    if not tasks:
        return []
    _detect_skew(batch, jobs)
    if jobs == 1 or len(tasks) == 1:
        results = []
        for key, task in zip(batch.pending, tasks):
            pool_mod.emit_task_event(
                obs_events.EVENT_POOL_TASK_START, key, batch.method, jobs
            )
            result = pool_mod.solve_inline(task)
            pool_mod.emit_task_event(
                obs_events.EVENT_POOL_TASK_END, key, batch.method, jobs,
                status=result.status,
            )
            results.append(result)
        return results
    with pool_mod.WorkerPool(min(jobs, len(tasks))) as pool:
        outcomes = pool_mod.dispatch_resilient(
            pool, tasks, keys=list(batch.pending)
        )
    return pool_mod.collect(outcomes)


def _detect_skew(batch: Batch, jobs: int) -> None:
    """Flag a wave dominated by one huge component (ROADMAP item 3's
    measurement hook).

    ``solve_many`` dedupes components but never *splits* one, so a batch
    whose largest component holds the majority of the edges parallelizes
    badly: every other worker drains its queue and idles while one
    grinds.  When that happens (>1 task and the largest component has
    more edges than all others combined) a ``pool.skew`` event and
    counter record the shape, so sharded/skew-aware work has a baseline
    to beat.  Detection only — behaviour is unchanged.
    """
    if len(batch.pending) < 2 or not obs_recorder.ON:
        return
    keys = list(batch.pending)
    sizes = [part.graph.num_edges for part in batch.pending.values()]
    total = sum(sizes)
    biggest = max(sizes)
    if biggest * 2 <= total:
        return
    dominant_key = keys[sizes.index(biggest)]
    obs_metrics.inc("parallel.pool.skew")
    obs_events.emit(
        obs_events.EVENT_POOL_SKEW,
        fingerprint=dominant_key.split(":", 1)[0][:12],
        edges=biggest,
        total_edges=total,
        tasks=len(keys),
        jobs=jobs,
    )


def rebind_result(
    result: SolveResult, source: CanonicalForm, target: CanonicalForm
) -> SolveResult:
    """Re-express a deduped result on a structurally identical component.

    The result's scheme is bound to the labels of the component that was
    actually solved (``source``); a sibling component with the same
    fingerprint has the same structure under *its* canonical order, so
    the scheme transfers as index pairs with every cost unchanged.
    Without this, stitching would reuse the representative's vertices
    verbatim and the scheme would never touch the sibling's edges.
    """
    if source.vertices == target.vertices:
        return result
    rebound = decode_scheme(encode_scheme(result.scheme, source), target)
    return replace(result, scheme=rebound)


__all__ = [
    "Batch",
    "assemble_components",
    "plan_batch",
    "rebind_result",
    "solve_many",
    "split_deadline",
]
