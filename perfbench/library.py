"""The three library workloads: ``pebble-hard``, ``pebble-equi`` and
``query-mix``.

One op is one call chain into the public API on inputs made for that op
alone: the run seed and the op index seed them, so two ops never share an
input and no memo in the library (``build_join_graph_cached``, a solve
cache) can serve one op from another's work.  Op kinds rotate in a fixed
order and each kind's size follows a fixed schedule; the seed changes the
contents only, which keeps the per-seed spread of the figures small.

The timed call looks every library function up through its module at call
time, so the traced run's wrappers see it; preparation and the checks use
references taken at import, which the wrappers never see.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import checks

import repro.core.solvers.registry as registry
import repro.engine.executor as executor
import repro.engine.multiway as multiway
import repro.joins.join_graph as join_graph
import repro.relations.storage as storage
from repro.engine.query import JoinQuery
from repro.graphs.generators import random_connected_bipartite
from repro.joins.algorithms import block_nested_loops
from repro.joins.join_graph import build_join_graph as build_unwatched
from repro.joins.multiway import binary_cascade, leapfrog_triejoin
from repro.joins.predicates import Band, Equality, SetContainment, SpatialOverlap
from repro.relations.relation import Relation
from repro.relations.storage import PagedRelation
from repro.relations.storage import page_connection_graph as page_graph_unwatched
from repro.workloads.equijoin import fk_pk_workload, zipf_equijoin_workload
from repro.workloads.multiway import four_cycle_query, triangle_query
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import (
    clustered_rectangles_workload,
    sessions_interval_workload,
    uniform_rectangles_workload,
)

# Modules a user of each workload's API imports (timed in a fresh
# interpreter as part of set-up).
IMPORTS = ["repro", "repro.engine.executor", "repro.engine.multiway", "repro.relations.storage"]


@dataclass
class Outcome:
    """What the checks found for one op, plus the numbers the metrics need."""

    m: int = 0
    pi: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    call: Callable[[], Any]  # the timed part
    verify: Callable[[Any], Outcome]  # the checks, outside the timed region
    input_graph: Callable[[], Any]  # for the provenance fingerprint
    kind: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]
    # op_makers[kind](rng, size, round, smoke) -> Op
    op_makers: dict[str, Callable[[random.Random, Any, int, bool], Op]]
    sizes: dict[str, tuple]
    smoke_sizes: dict[str, tuple]
    latency_limit_ms: float  # an op over this misses the workload's SLO
    quality_rounds: int  # pi_ratio covers the first rounds * len(kinds) ops

    def quality_ops(self) -> int:
        return self.quality_rounds * len(self.kinds)

    def prepare(self, seed: int, index: int, smoke: bool) -> Op:
        kind = self.kinds[index % len(self.kinds)]
        rnd = index // len(self.kinds)
        schedule = (self.smoke_sizes if smoke else self.sizes)[kind]
        size = schedule[rnd % len(schedule)]
        rng = random.Random(f"{self.name}:{seed}:{index}")
        op = self.op_makers[kind](rng, size, rnd, smoke)
        op.kind = kind
        return op


def _solution_outcome(graph, result, bound: str, method: str) -> Outcome:
    problems, m, pi = checks.check_order(
        graph.edges(), result.scheme.configurations, result.effective_cost, bound
    )
    if result.method != method:
        problems.append(f"auto chose {result.method}, expected {method}")
    return Outcome(m=m, pi=pi, problems=problems)


# -- instance sizing --------------------------------------------------------
#
# An op's cost follows the size of what it solves far more than its seed,
# so every tuned kind draws instances until one lands within TOLERANCE of
# its target size, nudging the relation size toward the target after each
# miss.  The seed then changes the contents and barely the cost, which is
# what keeps the spread between seeds small.

TOLERANCE = {False: 0.06, True: 0.3}  # keyed by smoke


def _tuned(
    rng: random.Random,
    n: int,
    target: float,
    make: Callable[[int, int], Any],
    measure: Callable[[Any], float | None],
    smoke: bool,
) -> tuple[int, int]:
    """The first ``(n, instance seed)`` whose instance measures within
    ``TOLERANCE`` of ``target``.  ``measure`` returns None for an instance
    to skip without moving ``n``."""
    tolerance = TOLERANCE[smoke]
    lo, hi = target * (1 - tolerance), target * (1 + tolerance)
    for _attempt in range(400):
        instance = rng.randrange(2**31)
        value = measure(make(n, instance))
        if value is None:
            continue
        if lo <= value <= hi:
            return n, instance
        step = max(1, n // 40)
        n = max(2, n + step if value < lo else n - step)
    raise RuntimeError(f"no instance within {tolerance:.0%} of size {target}")


# -- pebble-hard -------------------------------------------------------------

# The size of a pebble-hard instance is its largest component, where
# dfs_approx + polish spend their time; it stays above 16 edges, so
# ``solve(..., "auto")`` takes the dfs+polish rung (exact search stops at
# 16), and the whole graph stays under SPREAD_CAP times it.
SPREAD_CAP = 1.6


def _largest_component(graph, edge_cap: float) -> float | None:
    edges = graph.edges()
    if checks.is_union_of_bicliques(edges):
        return None
    if len(edges) > edge_cap:
        return float("inf")  # too much outside the largest component: shrink
    return max(checks.component_edge_counts(edges), default=0)


def _hard_join(make: Callable[[int, int], tuple], predicate, start_n: int, cap: float = SPREAD_CAP) -> Callable:
    def make_op(rng: random.Random, target: int, rnd: int, smoke: bool) -> Op:
        n, instance = _tuned(
            rng, start_n if not smoke else max(4, start_n // 2), target, make,
            lambda rel: _largest_component(build_unwatched(*rel, predicate), cap * target),
            smoke,
        )
        left, right = make(n, instance)

        def call():
            graph = join_graph.build_join_graph(left, right, predicate)
            return graph, registry.solve(graph, "auto")

        def verify(out) -> Outcome:
            return _solution_outcome(*out, "approx", "dfs+polish")

        return Op(call, verify, lambda: build_unwatched(*make(n, instance), predicate))

    return make_op


def _hard_random(rng: random.Random, m: int, rnd: int, smoke: bool) -> Op:
    side = max(3, m // 5)
    instance = rng.randrange(2**31)
    graph = random_connected_bipartite(side, side, m - (2 * side - 1), seed=instance)

    def call():
        return graph, registry.solve(graph, "auto")

    def verify(out) -> Outcome:
        return _solution_outcome(*out, "approx", "dfs+polish")

    return Op(call, verify, lambda: random_connected_bipartite(side, side, m - (2 * side - 1), seed=instance))


def _hard_pages(rng: random.Random, target: int, rnd: int, smoke: bool) -> Op:
    page_size = (4, 6, 8)[rnd % 3]
    matches = Equality().matches

    def make(n: int, s: int):
        return zipf_equijoin_workload(n, n, key_universe=n, skew=0.5, seed=s)

    def pages(rel):
        return page_graph_unwatched(PagedRelation(rel[0], page_size), PagedRelation(rel[1], page_size), matches)

    n, instance = _tuned(
        rng, 25 * page_size, target, make,
        lambda rel: _largest_component(pages(rel), SPREAD_CAP * target), smoke,
    )
    left, right = make(n, instance)

    def call():
        graph = storage.page_connection_graph(
            PagedRelation(left, page_size), PagedRelation(right, page_size), matches
        )
        result = registry.solve(graph, "auto")
        return graph, result, storage.schedule_report(graph, result.scheme)

    def verify(out) -> Outcome:
        graph, result, report = out
        outcome = _solution_outcome(graph, result, "approx", "dfs+polish")
        fetches = checks.raw_cost(result.scheme.configurations)
        if report.fetches != fetches or report.page_pairs != outcome.m:
            outcome.problems.append(
                f"schedule report {report.fetches} fetches / {report.page_pairs} pairs, "
                f"expected {fetches} / {outcome.m}"
            )
        outcome.extra = {"page_fetches": report.fetches, "page_pairs": report.page_pairs}
        return outcome

    return Op(call, verify, lambda: pages(make(n, instance)))


PEBBLE_HARD = Workload(
    name="pebble-hard",
    kinds=("rectangles", "clustered", "containment", "random", "pages"),
    op_makers={
        "rectangles": _hard_join(
            lambda n, s: uniform_rectangles_workload(n, n, extent=100.0, mean_side=8.0, seed=s),
            SpatialOverlap(),
            start_n=70,
        ),
        # Clustered rectangles split into many mid-sized components, so the
        # whole graph may be several times its largest component.
        "clustered": _hard_join(
            lambda n, s: clustered_rectangles_workload(n, n, seed=s), SpatialOverlap(), start_n=110, cap=6.0
        ),
        "containment": _hard_join(
            lambda n, s: zipf_sets_workload(n, n, universe=30, seed=s), SetContainment(), start_n=20
        ),
        "random": _hard_random,
        "pages": _hard_pages,
    },
    # Largest-component targets.  Each kind's sizes put its op near the
    # same cost, so the op-time distribution has one mode and its median
    # does not jump between kinds.
    sizes={
        "rectangles": (90, 96, 102),
        "clustered": (58, 62, 66),
        "containment": (96, 102, 108),
        "random": (140, 150, 160),
        "pages": (94, 100, 106),
    },
    smoke_sizes={
        "rectangles": (30,),
        "clustered": (24,),
        "containment": (30,),
        "random": (30,),
        "pages": (30,),
    },
    latency_limit_ms=1000.0,
    quality_rounds=6,
)


# -- pebble-equi ---------------------------------------------------------------


def _join_size(left: Relation, right: Relation) -> int:
    """Equijoin output size from key counts alone."""
    counts: dict = {}
    for value in left.values:
        counts[value] = counts.get(value, 0) + 1
    return sum(counts.get(value, 0) for value in right.values)


def _sized(
    rng: random.Random, make: Callable[[int, int], tuple], size: int, start_n: int | None, smoke: bool
) -> tuple[int, int]:
    """``(n, instance seed)``: ``size`` rows per side when ``start_n`` is
    None, else an equijoin tuned to output size ``size`` from ``start_n``
    rows (zipf key skew makes the output size swing with the seed)."""
    if start_n is None:
        return size, rng.randrange(2**31)
    return _tuned(rng, start_n if not smoke else 40, size, make, lambda rel: _join_size(*rel), smoke)


def _equi_op(make: Callable[[int, int], tuple], start_n: int | None) -> Callable:
    """The target is the output size (tuned from ``start_n`` rows), or with
    ``start_n`` None the relation size (fk-pk, whose output size equals
    its fact count)."""

    def make_op(rng: random.Random, target: int, rnd: int, smoke: bool) -> Op:
        n, instance = _sized(rng, make, target, start_n, smoke)
        left, right = make(n, instance)

        def call():
            graph = join_graph.build_join_graph(left, right, Equality())
            return graph, registry.solve(graph, "auto")

        def verify(out) -> Outcome:
            return _solution_outcome(*out, "perfect", "equijoin")

        return Op(call, verify, lambda: build_unwatched(*make(n, instance), Equality()))

    return make_op


PEBBLE_EQUI = Workload(
    name="pebble-equi",
    kinds=("zipf", "fk-pk"),
    op_makers={
        "zipf": _equi_op(
            lambda n, s: zipf_equijoin_workload(n, n, key_universe=n // 5, skew=1.0, seed=s), start_n=260
        ),
        "fk-pk": _equi_op(lambda n, s: fk_pk_workload(n, (3 * n) // 5, seed=s), start_n=None),
    },
    # Output sizes; the two kinds' ops cost about the same.
    sizes={"zipf": (4150, 4300, 4450), "fk-pk": (570, 590, 610)},
    smoke_sizes={"zipf": (300,), "fk-pk": (80,)},
    latency_limit_ms=1500.0,
    quality_rounds=10,
)


# -- query-mix -----------------------------------------------------------------

# A seeded share of binary queries is re-run with block nested loops as
# the reference; every multiway query is re-run with the other algorithm.
REFERENCE_SHARE = 0.25


def _binary(make: Callable[[int, int], tuple], predicate, start_n: int | None = None) -> Callable:
    """A binary query sized by :func:`_sized`."""

    def make_op(rng: random.Random, size: int, rnd: int, smoke: bool) -> Op:
        n, instance = _sized(rng, make, size, start_n, smoke)
        left, right = make(n, instance)
        with_reference = rng.random() < REFERENCE_SHARE

        def call():
            return executor.execute(JoinQuery(left, right, predicate))

        def verify(result) -> Outcome:
            pairs = result.pairs
            problems: list[str] = []
            if len(result.rows) != len(pairs):
                problems.append("rows and pairs differ in length")
            for lref, rref in pairs:
                if not predicate.matches(left.value(lref), right.value(rref)):
                    problems.append(f"emitted pair {lref!r}, {rref!r} does not join")
                    break
            if with_reference:
                reference = block_nested_loops(left, right, predicate)
                if sorted(map(repr, reference)) != sorted(map(repr, pairs)):
                    problems.append(
                        f"rows differ from block nested loops ({len(pairs)} vs {len(reference)})"
                    )
            trace = result.trace
            if trace is None:
                return Outcome(problems=problems + ["execution carried no trace"])
            order_problems, m, pi = checks.check_order(pairs, pairs, trace.effective_cost, "any")
            if trace.output_size != m:
                problems.append(f"trace m {trace.output_size} != distinct pairs {m}")
            record = result.plan.record
            extra = {"q_error": record.q_error} if record is not None and record.q_error is not None else {}
            return Outcome(m=m, pi=pi, problems=problems + order_problems, extra=extra)

        return Op(call, verify, lambda: build_unwatched(*make(n, instance), predicate))

    return make_op


def _multiway(make: Callable[[Any, int, int], Any]) -> Callable:
    def make_op(rng: random.Random, size: Any, rnd: int, smoke: bool) -> Op:
        instance = rng.randrange(2**31)
        query = make(size, instance, rnd)

        def call():
            return multiway.execute_multiway(query)

        def verify(result) -> Outcome:
            problems: list[str] = []
            bindings = result.result.bindings
            if len(set(bindings)) != len(bindings):
                problems.append("multiway bindings repeat")
            algorithm = result.plan.algorithm_name
            reference = binary_cascade(query) if algorithm == "lftj" else leapfrog_triejoin(query)
            if reference.binding_set() != set(bindings):
                problems.append(f"{algorithm} bindings differ from {reference.algorithm}'s")
            if result.trace is None:
                return Outcome(problems=problems + ["execution carried no trace"])
            report = result.trace.report
            m, pi = report.output_size, report.effective_cost
            if m and not m <= pi <= 2 * m - 1:
                problems.append(f"multiway trace pi {pi} outside [m, 2m-1] for m {m}")
            extra = {
                "intermediates": result.result.intermediates,
                "agm": result.agm,
            }
            record = result.plan.record
            if record is not None and record.q_error is not None:
                extra["q_error"] = record.q_error
            return Outcome(m=m, pi=pi, problems=problems, extra=extra)

        return Op(call, verify, lambda: None)

    return make_op


def _floats(n: int, seed: int) -> tuple[Relation, Relation]:
    rng = random.Random(seed)
    return (
        Relation("R", [rng.uniform(0.0, 1000.0) for _ in range(n)]),
        Relation("S", [rng.uniform(0.0, 1000.0) for _ in range(n)]),
    )


QUERY_MIX = Workload(
    name="query-mix",
    kinds=(
        "equi-zipf", "overlap-rectangles", "equi-fk-pk", "triangle",
        "overlap-intervals", "containment", "four-cycle", "band",
    ),
    op_makers={
        "equi-zipf": _binary(
            lambda n, s: zipf_equijoin_workload(n, n, key_universe=max(2, n // 3), skew=1.0, seed=s),
            Equality(),
            start_n=280,
        ),
        "equi-fk-pk": _binary(lambda n, s: fk_pk_workload(n, n // 2, seed=s), Equality()),
        "overlap-rectangles": _binary(
            lambda n, s: uniform_rectangles_workload(n, n, extent=100.0, mean_side=3.0, seed=s),
            SpatialOverlap(),
        ),
        "overlap-intervals": _binary(lambda n, s: sessions_interval_workload(n, n, seed=s), SpatialOverlap()),
        "containment": _binary(lambda n, s: zipf_sets_workload(n, n, universe=100, seed=s), SetContainment()),
        "band": _binary(_floats, Band(1.0)),
        # The worst-case triangle has no seed: its size grows by one per
        # round, so no two ops in a process share an instance.
        "triangle": _multiway(lambda n, s, rnd: triangle_query(n + rnd, skew="worst-case")),
        "four-cycle": _multiway(lambda n, s, rnd: four_cycle_query(n, skew="uniform", seed=s)),
    },
    # Rows per relation, except equi-zipf: its output size m.  Each kind's
    # sizes put its op near the same cost, so the op-time distribution has
    # one mode and its median does not jump between kinds.
    sizes={
        "equi-zipf": (3600, 3800, 4000),
        "equi-fk-pk": (620, 660, 700),
        "overlap-rectangles": (600, 640, 680),
        "overlap-intervals": (280, 295, 310),
        "containment": (160, 170, 180),
        "band": (520, 560, 600),
        "triangle": (450, 500, 550),
        "four-cycle": (600, 660, 720),
    },
    smoke_sizes={
        "equi-zipf": (300,),
        "equi-fk-pk": (60,),
        "overlap-rectangles": (60,),
        "overlap-intervals": (60,),
        "containment": (40,),
        "band": (60,),
        "triangle": (60,),
        "four-cycle": (60,),
    },
    latency_limit_ms=1000.0,
    quality_rounds=4,
)


WORKLOADS = {w.name: w for w in (PEBBLE_HARD, PEBBLE_EQUI, QUERY_MIX)}
