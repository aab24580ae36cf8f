"""Rule-plus-cost join planning.

The planner maps a :class:`~repro.engine.query.JoinQuery` to one of the
library's join algorithms:

- **equality** → sort-merge when the estimated output is large relative to
  the inputs (its emission order pebbles perfectly, so downstream
  pipelines pay no jumps), hash join otherwise (cheapest per probe);
- **spatial overlap** → plane sweep for small inputs, R-tree join when an
  index pays off, PBSM when the extent is densely populated;
- **set containment** → inverted-index join (exact, no verify) unless the
  element universe is tiny, where signatures filter well;
- **band** → band merge (sorted windows, O(n log n + m), a snake order
  that pebbles like sort-merge) unless the cross product is cheaper than
  the sorts, where block nested loops wins;
- anything else → block nested loops (always correct).

The returned :class:`Plan` carries the chosen algorithm, the reasoning
string (an "EXPLAIN" line), the estimates it was based on, and — since
PR 9 — a structured :class:`~repro.obs.planquality.PlanRecord` listing
every candidate considered with its cost-model estimate, so plan
decisions are inspectable as data (``repro explain``) and auditable
against actuals (q-error calibration, ``make plan-gate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.query import JoinQuery
from repro.engine.stats import collect_stats, estimate_output_size
from repro.joins.algorithms import (
    band_merge_join,
    block_nested_loops,
    hash_join,
    interval_merge_join,
    inverted_index_join,
    pbsm_join,
    plane_sweep_join,
    rtree_join,
    signature_nested_loops,
    sort_merge_join,
)
from repro.joins.predicates import Band, Equality, SetContainment, SpatialOverlap
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import planquality
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.planquality import CandidateRecord, PlanRecord
from repro.relations.domains import Domain
from repro.runtime.budget import Budget, current_budget

Algorithm = Callable[..., list]

# Input size beyond which index structures beat a sweep for spatial joins.
RTREE_THRESHOLD = 400
# Element-universe size under which signatures filter containment well.
SIGNATURE_UNIVERSE_THRESHOLD = 16
# Estimated selectivity (m / |R||S|) at which a large spatial extent
# counts as densely populated: partition-based spatial merge beats the
# R-tree's index descent because most index probes would hit anyway.
PBSM_DENSITY_THRESHOLD = 0.05


@dataclass(frozen=True)
class Plan:
    """A chosen execution strategy for one join query."""

    query: JoinQuery
    algorithm_name: str
    reason: str
    estimated_output: float
    # The structured EXPLAIN record (candidates, costs, actuals once
    # executed).  Excluded from equality/hash: two plans that agree on
    # the choice are the same plan regardless of observation state.
    record: PlanRecord | None = field(default=None, compare=False, repr=False)

    def explain(self) -> str:
        """The one-line EXPLAIN string, rendered from the structured
        record when present so text and JSON can never disagree."""
        if self.record is not None:
            return self.record.explain_line()
        return (
            f"{self.query.describe()} -> {self.algorithm_name} "
            f"(est. m = {self.estimated_output:.0f}; {self.reason})"
        )


_ALGORITHMS: dict[str, Algorithm] = {
    "sort-merge": sort_merge_join,
    "hash": hash_join,
    "interval-merge": interval_merge_join,
    "plane-sweep": plane_sweep_join,
    "rtree": rtree_join,
    "pbsm": pbsm_join,
    "inverted-index": inverted_index_join,
    "signature-NL": signature_nested_loops,
    "band-merge": band_merge_join,
    "block-NL": block_nested_loops,
}


def algorithm_by_name(name: str) -> Algorithm | None:
    """The join algorithm registered under ``name`` (None if unknown).

    Every algorithm takes ``(left, right)``; ``block-NL`` also takes the
    predicate and ``band-merge`` the band width, which the executor
    passes.
    """
    return _ALGORITHMS.get(name)


def _nlogn(n: int) -> float:
    """``n log2 n`` with the log clamped at 1 (cost-model helper)."""
    return n * max(1.0, math.log2(n) if n > 1 else 1.0)


def plan(query: JoinQuery, budget: Budget | None = None) -> Plan:
    """Choose an algorithm for ``query`` (see module docstring).

    Under deadline pressure (``budget.under_pressure()``, explicit or
    ambient) the planner sheds its own work: estimation is skipped and a
    safe per-predicate default is served — degraded planning beats a
    missed deadline.

    Every plan carries a :class:`~repro.obs.planquality.PlanRecord`;
    while observability records (:func:`repro.obs.enable`) the record is
    also appended to the plan log (:mod:`repro.obs.planquality`) and a
    ``planner.plan`` event is emitted.
    """
    if budget is None:
        budget = current_budget()
    with obs_trace.span("engine.plan"):
        if budget is not None and budget.under_pressure():
            chosen = _choose_safe_default(query)
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
    query: JoinQuery,
    estimated: float,
    candidates: list[CandidateRecord],
    deadline_pressure: bool = False,
) -> Plan:
    """Assemble a :class:`Plan` (and its record) from scored candidates;
    exactly one candidate must carry ``chosen=True``."""
    chosen = next(c for c in candidates if c.chosen)
    record = PlanRecord(
        query=query.describe(),
        predicate=query.predicate.name,
        left=query.left.name,
        right=query.right.name,
        left_size=len(query.left),
        right_size=len(query.right),
        algorithm=chosen.algorithm,
        reason=chosen.reason,
        estimated_output=estimated,
        candidates=candidates,
        deadline_pressure=deadline_pressure,
    )
    return Plan(query, chosen.algorithm, chosen.reason, estimated, record)


def _choose_safe_default(query: JoinQuery) -> Plan:
    """A no-estimation fallback plan: always-correct algorithms chosen by
    predicate type alone, used when the budget is nearly exhausted."""
    predicate = query.predicate
    reason = "deadline pressure: skipped estimation"
    if isinstance(predicate, Equality):
        name = "hash"
    elif isinstance(predicate, SpatialOverlap):
        if (
            query.left.domain == Domain.INTERVAL
            and query.right.domain == Domain.INTERVAL
        ):
            name = "interval-merge"
        else:
            name = "plane-sweep"
    elif isinstance(predicate, SetContainment):
        name = "inverted-index"
    elif isinstance(predicate, Band):
        name = "band-merge"
    else:
        name = "block-NL"
    candidates = [
        CandidateRecord(
            algorithm=name, estimated_cost=-1.0, reason=reason, chosen=True
        )
    ]
    return _make_plan(query, -1.0, candidates, deadline_pressure=True)


def _choose(query: JoinQuery) -> Plan:
    predicate = query.predicate
    estimated = estimate_output_size(query.left, query.right, predicate)
    n_left, n_right = len(query.left), len(query.right)
    cross = max(1, n_left * n_right)

    if isinstance(predicate, Equality):
        inputs = query.input_size
        sort_merge_wins = estimated >= inputs
        candidates = [
            CandidateRecord(
                "sort-merge",
                _nlogn(n_left) + _nlogn(n_right) + estimated,
                "large output: perfect-pebbling emission order pays off"
                if sort_merge_wins
                else "output below inputs: sort cost not repaid",
                chosen=sort_merge_wins,
            ),
            CandidateRecord(
                "hash",
                n_left + n_right + estimated,
                "small output: cheapest per probe"
                if not sort_merge_wins
                else "probe savings lose to pebbling jumps at this output size",
                chosen=not sort_merge_wins,
            ),
        ]
        return _make_plan(query, estimated, candidates)

    if isinstance(predicate, SpatialOverlap):
        if (
            query.left.domain == Domain.INTERVAL
            and query.right.domain == Domain.INTERVAL
        ):
            candidates = [
                CandidateRecord(
                    "interval-merge",
                    _nlogn(n_left) + _nlogn(n_right) + estimated,
                    "interval columns: temporal merge",
                    chosen=True,
                ),
                CandidateRecord(
                    "plane-sweep",
                    _nlogn(query.input_size) + estimated,
                    "generic sweep ignores interval adjacency",
                ),
            ]
            return _make_plan(query, estimated, candidates)
        density = estimated / cross
        large = query.input_size >= RTREE_THRESHOLD
        dense = density >= PBSM_DENSITY_THRESHOLD
        pick = "pbsm" if large and dense else "rtree" if large else "plane-sweep"
        candidates = [
            CandidateRecord(
                "plane-sweep",
                _nlogn(query.input_size) + estimated,
                "small inputs: sweep wins"
                if pick == "plane-sweep"
                else "inputs too large: sweep's active list thrashes",
                chosen=pick == "plane-sweep",
            ),
            CandidateRecord(
                "rtree",
                _nlogn(n_right) + _nlogn(n_left) + estimated,
                "large inputs: index descent"
                if pick == "rtree"
                else (
                    f"dense extent (sel {density:.3f}): probes hit everywhere"
                    if large
                    else "index build not repaid on small inputs"
                ),
                chosen=pick == "rtree",
            ),
            CandidateRecord(
                "pbsm",
                2 * query.input_size + estimated,
                f"dense extent (sel {density:.3f}): partitioning beats descent"
                if pick == "pbsm"
                else "sparse extent: partitions mostly empty",
                chosen=pick == "pbsm",
            ),
        ]
        return _make_plan(query, estimated, candidates)

    if isinstance(predicate, SetContainment):
        universe: set[Any] = set()
        for value in query.right.values:
            universe |= value
        tiny = len(universe) <= SIGNATURE_UNIVERSE_THRESHOLD
        candidates = [
            CandidateRecord(
                "signature-NL",
                n_left * n_right / 8 + estimated,
                f"tiny universe ({len(universe)}): signatures filter well"
                if tiny
                else f"universe {len(universe)} overflows signature bits",
                chosen=tiny,
            ),
            CandidateRecord(
                "inverted-index",
                n_left + n_right + estimated,
                "exact posting intersection"
                if not tiny
                else "posting lists degenerate on a tiny universe",
                chosen=not tiny,
            ),
        ]
        return _make_plan(query, estimated, candidates)

    if isinstance(predicate, Band):
        merge_cost = _nlogn(n_left) + _nlogn(n_right) + estimated
        loops_cost = float(n_left * n_right)
        merge_wins = merge_cost <= loops_cost
        candidates = [
            CandidateRecord(
                "band-merge",
                merge_cost,
                "sorted windows: pairs emitted in a snake"
                if merge_wins
                else "sorts not repaid on a tiny cross product",
                chosen=merge_wins,
            ),
            CandidateRecord(
                "block-NL",
                loops_cost,
                "tiny cross product: nested loops"
                if not merge_wins
                else "cross product dwarfs the sorts",
                chosen=not merge_wins,
            ),
        ]
        return _make_plan(query, estimated, candidates)

    candidates = [
        CandidateRecord(
            "block-NL",
            float(n_left * n_right),
            "generic predicate: nested loops",
            chosen=True,
        )
    ]
    return _make_plan(query, estimated, candidates)
