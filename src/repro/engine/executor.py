"""Query execution: run a plan, return rows plus pebbling accounting.

Execution materializes the value pairs and, when requested, builds the
join graph and converts the emission order into a pebbling trace — the
paper's model as an explain-analyze metric for real executions.

Execution also *closes the planner's feedback loop*: the plan's
structured record (:class:`~repro.obs.planquality.PlanRecord`) is
completed with the actual output size, the derived q-error is observed
as a metric, a ``planner.misestimate`` event fires when the estimate was
off by more than the threshold, and — with ``shadow=True`` on small
inputs — the runner-up candidates are shadow-executed and scored by
pebbling effective cost so plan regret is measurable, not guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from repro.engine.planner import Plan, algorithm_by_name, plan as make_plan
from repro.engine.query import JoinQuery
from repro.errors import SolverError
from repro.graphs.bipartite import BipartiteGraph
# Looked up by name at run time; kept importable here so a caller that
# wraps the executor's algorithms (perfbench's tracer) still finds it.
from repro.joins.algorithms import block_nested_loops  # noqa: F401
# Looked up through the module at call time, so a caller that wraps
# the extraction (perfbench's tracer) sees the executor's builds.
from repro.joins import join_graph as extraction
from repro.joins.trace import TraceReport, trace_report
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import planquality
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget, current_budget


@dataclass(frozen=True)
class QueryResult:
    """The outcome of one executed join query."""

    plan: Plan
    pairs: list  # (left TupleRef, right TupleRef) in emission order
    rows: list[tuple[Any, Any]]  # materialized value pairs, same order
    trace: TraceReport | None  # pebbling accounting (None if not requested)

    @property
    def output_size(self) -> int:
        return len(self.pairs)

    def explain_analyze(self) -> str:
        """An EXPLAIN ANALYZE-style line including pebbling metrics.

        Rendered from the plan's structured record when present (the
        same record ``repro explain --json`` serializes), so the text
        and JSON forms cannot disagree.
        """
        record = self.plan.record
        actual = (
            record.actual_output
            if record is not None and record.actual_output is not None
            else self.output_size
        )
        base = f"{self.plan.explain()}; actual m = {actual}"
        if self.trace is None:
            return base
        return (
            f"{base}; pebbling pi = {self.trace.effective_cost} "
            f"(ratio {self.trace.cost_ratio:.3f}, jumps {self.trace.jumps})"
        )


def _run_algorithm(query: JoinQuery, name: str) -> list:
    """Run the join algorithm called ``name`` on ``query``'s relations:
    block-NL also gets the predicate and band-merge the band width."""
    algorithm = algorithm_by_name(name)
    if algorithm is None:
        raise SolverError(f"unknown algorithm {name!r}")
    if name == "block-NL":
        return algorithm(query.left, query.right, query.predicate)
    if name == "band-merge":
        return algorithm(query.left, query.right, query.predicate.width)
    return algorithm(query.left, query.right)


def _shadow_execute(
    query: JoinQuery,
    record: planquality.PlanRecord,
    pairs: list,
    graph: BipartiteGraph,
) -> None:
    """Score every candidate by pebbling effective cost (the paper's
    deterministic cost model — wall time would not replay) and complete
    the record's regret fields in place."""
    chosen_cost: int | None = None
    best_cost: int | None = None
    best_name: str | None = None
    for candidate in record.candidates:
        candidate_pairs = (
            pairs if candidate.chosen else _run_algorithm(query, candidate.algorithm)
        )
        report = trace_report(graph, candidate_pairs, candidate.algorithm)
        candidate.shadow_cost = report.effective_cost
        if candidate.chosen:
            chosen_cost = report.effective_cost
        if best_cost is None or report.effective_cost < best_cost:
            best_cost = report.effective_cost
            best_name = candidate.algorithm
    record.shadow_checked = True
    if chosen_cost is not None and chosen_cost == best_cost:
        # Ties go to the planner: equal-cost alternatives are not regret.
        record.best_algorithm = record.algorithm
        record.regret = 0
    else:
        record.best_algorithm = best_name
        record.regret = (
            None
            if chosen_cost is None or best_cost is None
            else chosen_cost - best_cost
        )


def _close_feedback_loop(record: planquality.PlanRecord, actual: int) -> None:
    """Fill actuals on the plan record and surface misestimates."""
    record.actual_output = actual
    q_error = record.q_error
    if q_error is None or not obs_recorder.ON:
        return
    obs_metrics.observe("planner.q_error", q_error)
    if q_error > planquality.MISESTIMATE_THRESHOLD:
        obs_events.emit(
            obs_events.EVENT_PLANNER_MISESTIMATE,
            predicate=record.predicate,
            algorithm=record.algorithm,
            estimated_output=record.estimated_output,
            actual_output=actual,
            q_error=round(q_error, 4),
        )
        obs_metrics.inc("planner.misestimates")


def execute(
    query: JoinQuery,
    chosen_plan: Plan | None = None,
    with_trace: bool = True,
    join_graph: BipartiteGraph | None = None,
    budget: Budget | None = None,
    shadow: bool = False,
) -> QueryResult:
    """Plan (unless a plan is supplied) and execute ``query``.

    With ``with_trace=True`` (default) the join graph is also built and
    the execution's pebbling costs reported; pass False to skip that
    overhead for large joins.  The graph is built once per call and
    shared by the trace and the shadow pass; a caller that already
    materialized the query's join graph can thread it through
    ``join_graph`` to skip the build.

    ``budget`` (explicit, or ambient via :func:`repro.runtime.use_budget`)
    threads a deadline through planning and sheds the optional pebbling
    trace under pressure: rows are the contract, the trace is diagnostics.

    ``shadow=True`` additionally shadow-executes the plan's runner-up
    candidates on small inputs (``input_size`` up to
    :data:`~repro.obs.planquality.SHADOW_INPUT_LIMIT`) and records
    plan-regret: whether the chosen candidate was the a-posteriori
    cheapest by pebbling cost.  Skipped under deadline pressure.
    """
    if budget is None:
        budget = current_budget()
    with obs_trace.span("engine.execute"):
        the_plan = chosen_plan or make_plan(query, budget=budget)
        if the_plan.query is not query and the_plan.query != query:
            raise SolverError("plan does not belong to this query")
        name = the_plan.algorithm_name
        with obs_trace.span("engine.join", algorithm=name):
            pairs = _run_algorithm(query, name)
        with obs_trace.span("engine.materialize", pairs=len(pairs)):
            rows = list(
                zip(
                    query.left.values_of(map(itemgetter(0), pairs)),
                    query.right.values_of(map(itemgetter(1), pairs)),
                )
            )
        under_pressure = budget is not None and budget.under_pressure()
        trace = None
        if with_trace and under_pressure:
            # Shed the diagnostic trace rather than blow the deadline.
            with_trace = False
            if obs_recorder.ON:
                obs_metrics.inc("executor.trace_skipped")
        graph: BipartiteGraph | None = join_graph
        if with_trace:
            with obs_trace.span("engine.trace"):
                if graph is None:
                    graph = extraction.build_join_graph(
                        query.left, query.right, query.predicate
                    )
                trace = trace_report(graph, pairs, name)
        record = the_plan.record
        if record is not None:
            _close_feedback_loop(record, len(pairs))
            if (
                shadow
                and not under_pressure
                and len(record.candidates) > 1
                and query.input_size <= planquality.SHADOW_INPUT_LIMIT
            ):
                with obs_trace.span("engine.shadow"):
                    if graph is None:
                        graph = extraction.build_join_graph(
                            query.left, query.right, query.predicate
                        )
                    _shadow_execute(query, record, pairs, graph)
        if obs_recorder.ON:
            obs_metrics.inc("executor.queries")
            obs_metrics.inc("executor.rows_emitted", len(rows))
            obs_metrics.observe("executor.output_size", len(pairs))
        return QueryResult(plan=the_plan, pairs=pairs, rows=rows, trace=trace)
