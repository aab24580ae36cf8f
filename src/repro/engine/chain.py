"""Left-deep multi-way join chains.

``R₁ ⋈_{θ₁} R₂ ⋈_{θ₂} R₃ ⋈ …`` executed as a left-deep pipeline: each
stage joins the running result's *last column* against the next relation
(the natural chain semantics for single-column relations).  Every stage is
planned independently through :mod:`repro.engine.planner` and reports its
own pebbling trace, so multi-way plans expose per-stage model costs.

>>> from repro import Relation, Equality
>>> from repro.engine.chain import ChainQuery, execute_chain
>>> chain = ChainQuery(
...     [Relation("A", [1, 2]), Relation("B", [2, 3, 2]), Relation("C", [2])],
...     [Equality(), Equality()],
... )
>>> result = execute_chain(chain)
>>> result.rows
[(2, 2, 2), (2, 2, 2)]
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import QueryResult, execute
from repro.engine.query import JoinQuery
from repro.errors import PredicateError, RelationError
from repro.joins.predicates import JoinPredicate
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.relations.relation import Relation


@dataclass(frozen=True)
class ChainQuery:
    """A chain of joins: ``n`` relations and ``n − 1`` stage predicates."""

    relations: list[Relation]
    predicates: list[JoinPredicate]

    def __post_init__(self) -> None:
        if len(self.relations) < 2:
            raise RelationError("a chain needs at least two relations")
        if len(self.predicates) != len(self.relations) - 1:
            raise PredicateError(
                f"{len(self.relations)} relations need "
                f"{len(self.relations) - 1} predicates, got {len(self.predicates)}"
            )
        # Stage domain compatibility: predicate i joins relation i's column
        # against relation i+1's column.
        for index, predicate in enumerate(self.predicates):
            left = self.relations[index]
            right = self.relations[index + 1]
            if not predicate.accepts(left.domain, right.domain):
                raise PredicateError(
                    f"stage {index}: {predicate.name} cannot join "
                    f"{left.domain.value} with {right.domain.value}"
                )

    def describe(self) -> str:
        parts = [self.relations[0].name]
        for predicate, relation in zip(self.predicates, self.relations[1:]):
            parts.append(f"⋈[{predicate.name}] {relation.name}")
        return " ".join(parts)


@dataclass(frozen=True)
class ChainResult:
    """Outcome of a chain execution."""

    query: ChainQuery
    rows: list[tuple]  # full-width result tuples
    stages: list[QueryResult]  # per-stage execution reports

    @property
    def output_size(self) -> int:
        return len(self.rows)

    def explain_analyze(self) -> str:
        lines = [self.query.describe()]
        for index, stage in enumerate(self.stages):
            lines.append(f"  stage {index}: {stage.explain_analyze()}")
        lines.append(f"  final rows: {self.output_size}")
        return "\n".join(lines)


def execute_chain(chain: ChainQuery, with_trace: bool = True) -> ChainResult:
    """Execute the chain left-deep; returns full rows plus stage reports.

    Stage ``i`` joins the distinct *join-column* values flowing out of
    stage ``i − 1`` (initially relation 0's tuples) against relation
    ``i + 1``; matched prefixes are expanded to full rows.  Each stage
    deduplicates the probe column, so the per-stage join graph is the join
    graph of distinct surviving values — the shape pebbling cares about.
    """
    relations = chain.relations
    # prefix_rows_by_value: current join-column value -> list of row prefixes.
    prefix_rows_by_value: dict = {}
    for value in relations[0].values:
        prefix_rows_by_value.setdefault(value, []).append((value,))

    stages: list[QueryResult] = []
    with obs_trace.span("engine.execute_chain"):
        for index, predicate in enumerate(chain.predicates):
            probe = Relation(
                f"stage{index}", list(prefix_rows_by_value.keys())
            )
            stage_query = JoinQuery(probe, relations[index + 1], predicate)
            stage_result = execute(stage_query, with_trace=with_trace)
            stages.append(stage_result)
            next_prefixes: dict = {}
            for left_value, right_value in stage_result.rows:
                for prefix in prefix_rows_by_value[left_value]:
                    next_prefixes.setdefault(right_value, []).append(
                        prefix + (right_value,)
                    )
            prefix_rows_by_value = next_prefixes
            if not prefix_rows_by_value:
                break
    if obs_recorder.ON:
        obs_metrics.inc("executor.chains")
        obs_metrics.inc("executor.chain_stages", len(stages))

    rows = [
        row
        for row_group in prefix_rows_by_value.values()
        for row in row_group
    ]
    rows.sort(key=repr)
    return ChainResult(query=chain, rows=rows, stages=stages)
