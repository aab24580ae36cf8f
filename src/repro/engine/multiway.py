"""The multiway predicate path: planning and executing conjunctive queries.

Binary queries go through :func:`repro.engine.planner.plan` /
:func:`repro.engine.executor.execute`; full conjunctive queries (triangle,
4-cycle, clique — anything with more than two atoms) come through here.
The planner scores three candidates:

- ``binary-cascade`` — pairwise hash joins; its per-stage intermediate
  sizes are estimated skew-aware (exact first stage from value counters);
- ``lftj`` — Leapfrog Triejoin, intermediate work bounded by the AGM
  output bound;
- ``generic`` — generic join, the reference WCOJ, never chosen
  automatically (same bound as LFTJ, higher constants).

Decision rule: take the cascade when no estimated stage exceeds the AGM
bound (on such instances the pairwise plan is safe and its constants are
lower), otherwise LFTJ.  Plans carry the same structured
:class:`~repro.obs.planquality.PlanRecord` as binary plans — candidates
with estimated intermediate sizes, actuals once executed — so ``repro
explain``, the plans log, and q-error calibration all see multiway
decisions with no extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import _close_feedback_loop
from repro.errors import SolverError
from repro.joins.multiway.bounds import agm_bound
from repro.joins.multiway.cascade import binary_cascade, estimate_cascade
from repro.joins.multiway.generic import generic_join
from repro.joins.multiway.leapfrog import leapfrog_triejoin
from repro.joins.multiway.query import MultiwayQuery
from repro.joins.multiway.result import MultiwayResult
from repro.joins.trace import MultiwayTraceReport, multiway_trace_report
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import planquality
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.planquality import CandidateRecord, PlanRecord
from repro.runtime.budget import Budget, current_budget

MULTIWAY_ALGORITHMS = ("lftj", "generic", "binary-cascade")


@dataclass(frozen=True)
class MultiwayPlan:
    """A chosen execution strategy for one multiway query."""

    query: MultiwayQuery
    algorithm_name: str
    reason: str
    estimated_output: float
    agm: float
    record: PlanRecord | None = field(default=None, compare=False, repr=False)

    def explain(self) -> str:
        if self.record is not None:
            return self.record.explain_line()
        return (
            f"{self.query.describe()} -> {self.algorithm_name} "
            f"(est. m = {self.estimated_output:.0f}; {self.reason})"
        )


@dataclass
class MultiwayQueryResult:
    """One executed multiway query: plan, bindings, counters, trace."""

    plan: MultiwayPlan | None
    result: MultiwayResult
    agm: float
    trace: MultiwayTraceReport | None = None

    @property
    def rows(self) -> list[tuple]:
        return self.result.bindings


def plan_multiway(
    query: MultiwayQuery, budget: Budget | None = None
) -> MultiwayPlan:
    """Choose an algorithm for ``query`` (see module docstring).

    Under deadline pressure the safe default is LFTJ: worst-case-optimal
    means never catastrophically wrong, which is exactly what a nearly
    exhausted budget wants.
    """
    if budget is None:
        budget = current_budget()
    with obs_trace.span("engine.plan_multiway", atoms=len(query.atoms)):
        if budget is not None and budget.under_pressure():
            chosen = _safe_default(query)
            if obs_recorder.ON:
                obs_metrics.inc("planner.deadline_pressure")
        else:
            chosen = _choose(query)
    record = chosen.record
    if obs_recorder.ON:
        obs_metrics.inc("planner.plans")
        obs_metrics.inc(f"planner.algorithm.{chosen.algorithm_name}")
        if record is not None:
            planquality.PLANS.record(record)
            obs_events.emit(
                obs_events.EVENT_PLANNER_PLAN,
                predicate=record.predicate,
                algorithm=record.algorithm,
                estimated_output=record.estimated_output,
                candidates=len(record.candidates),
                deadline_pressure=record.deadline_pressure,
            )
    return chosen


def _make_plan(
    query: MultiwayQuery,
    estimated: float,
    agm: float,
    candidates: list[CandidateRecord],
    deadline_pressure: bool = False,
) -> MultiwayPlan:
    chosen = next(c for c in candidates if c.chosen)
    first, last = query.atoms[0], query.atoms[-1]
    record = PlanRecord(
        query=query.describe(),
        predicate="multiway",
        left=first.name,
        right=last.name,
        left_size=len(first.distinct_rows()),
        right_size=len(last.distinct_rows()),
        algorithm=chosen.algorithm,
        reason=chosen.reason,
        estimated_output=estimated,
        candidates=candidates,
        deadline_pressure=deadline_pressure,
    )
    return MultiwayPlan(query, chosen.algorithm, chosen.reason, estimated, agm, record)


def _safe_default(query: MultiwayQuery) -> MultiwayPlan:
    reason = "deadline pressure: skipped estimation, worst-case-optimal default"
    candidates = [
        CandidateRecord(
            algorithm="lftj", estimated_cost=-1.0, reason=reason, chosen=True
        )
    ]
    return _make_plan(query, -1.0, -1.0, candidates, deadline_pressure=True)


def _choose(query: MultiwayQuery) -> MultiwayPlan:
    agm = agm_bound(query)
    stages = estimate_cascade(query)
    # Non-final stages are the materialized intermediates; the last stage
    # estimate doubles as the planner's output estimate, capped by the
    # worst-case bound (the cascade cap is an upper-bound-style estimate,
    # so AGM is the tighter of the two).
    bottleneck = max(stages[:-1], default=0)
    estimated = min(float(stages[-1]), agm) if stages else agm
    cascade_safe = bottleneck <= agm
    total = query.total_rows()
    stage_text = ", ".join(str(s) for s in stages[:-1]) or "none"
    candidates = [
        CandidateRecord(
            "binary-cascade",
            float(total + sum(stages)),
            f"est. intermediate stages [{stage_text}] within AGM bound "
            f"{agm:.0f}: pairwise plan is safe"
            if cascade_safe
            else f"est. intermediate stages [{stage_text}] exceed AGM bound "
            f"{agm:.0f}: materialization blowup",
            chosen=cascade_safe,
        ),
        CandidateRecord(
            "lftj",
            float(total + agm),
            f"worst-case-optimal: intermediate work bounded by AGM ≈ {agm:.0f}"
            if not cascade_safe
            else "bound holds but the cascade's constants are lower here",
            chosen=not cascade_safe,
        ),
        CandidateRecord(
            "generic",
            float(total + 2 * agm),
            "reference WCOJ: same bound as LFTJ, higher constants",
            chosen=False,
        ),
    ]
    return _make_plan(query, estimated, agm, candidates)


def execute_multiway(
    query: MultiwayQuery,
    chosen_plan: MultiwayPlan | None = None,
    algorithm: str | None = None,
    with_trace: bool = True,
    budget: Budget | None = None,
    order: tuple[str, ...] | None = None,
) -> MultiwayQueryResult:
    """Plan (unless a plan or explicit ``algorithm`` is supplied) and
    execute ``query``.

    ``algorithm`` forces one of :data:`MULTIWAY_ALGORITHMS` without
    planning — no record, no feedback loop — which is what benchmark
    timing loops want.  ``with_trace`` controls the pebbling-trace bridge
    (projected onto the first two atoms); like the binary executor it is
    shed under deadline pressure.
    """
    if budget is None:
        budget = current_budget()
    if algorithm is not None and chosen_plan is not None:
        raise SolverError("pass a plan or an explicit algorithm, not both")
    with obs_trace.span("engine.execute_multiway"):
        the_plan: MultiwayPlan | None
        if algorithm is not None:
            if algorithm not in MULTIWAY_ALGORITHMS:
                raise SolverError(f"unknown multiway algorithm {algorithm!r}")
            the_plan = None
            name = algorithm
        else:
            the_plan = chosen_plan or plan_multiway(query, budget=budget)
            if the_plan.query is not query and the_plan.query != query:
                raise SolverError("plan does not belong to this query")
            name = the_plan.algorithm_name
        with obs_trace.span("engine.multiway_join", algorithm=name):
            if name == "lftj":
                result = leapfrog_triejoin(query, order=order, budget=budget)
            elif name == "generic":
                result = generic_join(query, order=order, budget=budget)
            else:
                result = binary_cascade(query, budget=budget)
        under_pressure = budget is not None and budget.under_pressure()
        if with_trace and under_pressure:
            with_trace = False
            if obs_recorder.ON:
                obs_metrics.inc("executor.trace_skipped")
        trace = None
        if with_trace and len(query.atoms) >= 2:
            with obs_trace.span("engine.multiway_trace"):
                trace = multiway_trace_report(query, result.bindings, name)
        agm = the_plan.agm if the_plan is not None and the_plan.agm >= 0 else agm_bound(query)
        if the_plan is not None and the_plan.record is not None:
            _close_feedback_loop(the_plan.record, result.output_size)
        if obs_recorder.ON:
            obs_metrics.inc("executor.multiway_queries")
            obs_metrics.inc("executor.rows_emitted", result.output_size)
            obs_metrics.observe("executor.output_size", result.output_size)
        return MultiwayQueryResult(
            plan=the_plan, result=result, agm=agm, trace=trace
        )
