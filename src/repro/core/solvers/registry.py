"""Uniform solver front door with automatic method selection.

``solve(graph)`` picks the cheapest method that is guaranteed optimal or,
failing that, the best approximation available:

1. if the graph is a union of bicliques (equijoin shape), the linear-time
   perfect pebbler — optimal (Theorems 3.2/4.1);
2. if each component's edge count is within the exact budget, the exact
   search — optimal;
3. otherwise the certified 1.25-approximation, polished with local search.

Explicit methods can be requested by name, which benchmarks use to compare
strategies on identical inputs.

Every setting is a declared keyword of :func:`solve` (listed in
:data:`SOLVE_SETTINGS`), so a misspelt one fails at the call.

Budgeted, anytime solving (see ``docs/ROBUSTNESS.md``): passing
``deadline=`` (or an explicit ``budget=Budget(...)``, or installing one
ambiently with :func:`repro.runtime.use_budget`) makes every method
cooperative.  On exhaustion the registry never raises — it walks
the **fallback ladder** ``exact → dfs+polish``, so the
1.25-approximation guarantee (Theorem 3.1) is the worst case actually
served: dfs and polish only poll the budget, so that rung always
completes.  The result's ``status`` records what happened
(``optimal | complete | budget_exhausted | timed_out``) and
``provenance`` carries the partial-search evidence (nodes expanded,
elapsed time, the poly-time lower bound, and each degradation step).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BudgetExhaustedError, InstanceTooLargeError, SolverError
from repro.graphs.bipartite import BipartiteGraph
# component_vertex_sets stays imported: perfbench/tracer.py wraps it here.
from repro.graphs.components import Decomposition, component_vertex_sets, decompose
from repro.graphs.simple import Graph
from repro.core.lower_bounds import effective_cost_lower_bound
from repro.core.scheme import PebblingScheme
from repro.core.solvers import exact as exact_mod
from repro.core.solvers.dfs_approx import solve_dfs_approx
from repro.core.solvers.equijoin import is_union_of_bicliques, solve_equijoin
from repro.core.solvers.greedy import solve_greedy
from repro.core.solvers.local_search import polish_scheme
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.anytime import (
    DEGRADED_STATUSES,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_COMPLETE,
    STATUS_OPTIMAL,
    STATUS_TIMED_OUT,
    SolveProvenance,
)
from repro.runtime.budget import Budget, current_budget

AnyGraph = Graph | BipartiteGraph

# Largest per-component edge count the auto method hands to exact search.
AUTO_EXACT_EDGE_LIMIT = 16

METHODS = (
    "auto",
    "exact",
    "equijoin",
    "dfs",
    "dfs+polish",
    "greedy",
    "greedy+polish",
)


@dataclass(frozen=True)
class SolveResult:
    """A solved pebbling instance.

    ``optimal`` is True only when the method carries an optimality
    guarantee (exact search, or the equijoin fast path).  ``status`` is the
    anytime outcome (:mod:`repro.runtime.anytime`); ``provenance`` is only
    populated when a budget was in play or the fallback ladder fired, so
    un-budgeted callers see exactly the legacy result shape.
    """

    scheme: PebblingScheme
    method: str
    effective_cost: int
    raw_cost: int
    jumps: int
    optimal: bool
    status: str = STATUS_OPTIMAL
    provenance: SolveProvenance | None = None

    def summary(self) -> str:
        flag = "optimal" if self.optimal else "approximate"
        base = (
            f"{self.method}: pi={self.effective_cost} "
            f"(pi_hat={self.raw_cost}, jumps={self.jumps}, {flag})"
        )
        if self.status in DEGRADED_STATUSES:
            base += f" [{self.status}]"
        return base


def _status_of(exc: Exception) -> str:
    """The anytime status a caught exhaustion exception maps to."""
    if isinstance(exc, BudgetExhaustedError) and exc.reason == "deadline":
        return STATUS_TIMED_OUT
    return STATUS_BUDGET_EXHAUSTED


def _count_exhaustion(exc: Exception) -> None:
    if not obs_recorder.ON:
        return
    if _status_of(exc) == STATUS_TIMED_OUT:
        obs_metrics.inc("solver.deadline_exceeded")
    else:
        obs_metrics.inc("solver.budget_exhausted")


def _count_degradation(src: str, dst: str, exc: Exception | None = None) -> None:
    """Record one degradation-ladder step: a counter for the metrics
    snapshot plus a structured ``ladder.degraded`` event carrying the
    triggering status, so anytime behaviour is greppable per run."""
    if obs_recorder.ON:
        obs_metrics.inc(f"solver.degraded.{src}_to_{dst}")
        obs_events.emit(
            obs_events.EVENT_LADDER_DEGRADED,
            src=src,
            dst=dst,
            status=_status_of(exc) if exc is not None else None,
            error_type=type(exc).__name__ if exc is not None else None,
        )


def _wrap(
    parts: Decomposition,
    scheme: PebblingScheme,
    method: str,
    optimal: bool,
    budget: Budget | None = None,
    degradations: tuple[str, ...] = (),
    forced_status: str | None = None,
) -> SolveResult:
    if forced_status is not None:
        status = forced_status
    elif budget is not None and budget.exhausted:
        status = budget.status()
    else:
        status = STATUS_OPTIMAL if optimal else STATUS_COMPLETE
    if status in DEGRADED_STATUSES or degradations:
        optimal = False
    provenance = None
    if budget is not None or degradations:
        provenance = SolveProvenance(
            nodes_expanded=budget.nodes_charged if budget is not None else 0,
            elapsed_seconds=budget.elapsed() if budget is not None else 0.0,
            lower_bound=effective_cost_lower_bound(parts),
            degradations=tuple(degradations),
        )
    raw_cost = scheme.cost()
    return SolveResult(
        scheme=scheme,
        method=method,
        effective_cost=raw_cost - parts.betti,
        raw_cost=raw_cost,
        jumps=scheme.jumps(),
        optimal=optimal,
        status=status,
        provenance=provenance,
    )


def _max_component_edges(graph: AnyGraph | Decomposition) -> int:
    return max(decompose(graph).edge_counts, default=0)


# The settings solve() takes besides the graph and the method.  The first
# three make up the cooperative budget.  The ANSWER_SETTINGS, with their
# types, shape the answer itself: a batch forwards them to each component
# solve, the solve cache keys on them, and they are the only settings a
# server request may carry.
ANSWER_SETTINGS: dict[str, type] = {"node_budget": int, "exact_edge_limit": int}
SOLVE_SETTINGS = ("budget", "deadline", "clock", *ANSWER_SETTINGS)


def _resolve_budget(
    budget: Budget | None, deadline: float | None, clock
) -> Budget | None:
    """The cooperative budget for this solve: an explicit ``budget`` > one
    built from ``deadline`` (on ``clock``) > the ambient budget installed
    by :func:`repro.runtime.use_budget` > none.  ``node_budget`` is not
    part of it: it stays the exact solver's hard search limit."""
    if budget is not None:
        return budget
    if deadline is not None:
        return Budget(deadline=deadline, clock=clock)
    return current_budget()


def solve(
    graph: AnyGraph | Decomposition,
    method: str = "auto",
    *,
    budget: Budget | None = None,
    deadline: float | None = None,
    clock=None,
    node_budget: int = exact_mod.DEFAULT_NODE_BUDGET,
    exact_edge_limit: int = AUTO_EXACT_EDGE_LIMIT,
) -> SolveResult:
    """Solve PEBBLE on ``graph`` with the requested ``method``.

    ``budget`` / ``deadline`` / ``clock`` set the cooperative anytime
    budget (see ``docs/ROBUSTNESS.md``); ``node_budget`` is the exact
    search's hard limit and ``exact_edge_limit`` the largest component
    ``auto`` hands to exact search.

    The graph is split into components once (:func:`decompose`) and every
    method, bound and cost below works on that one split.
    """
    if method not in METHODS:
        raise SolverError(f"unknown method {method!r}; choose from {METHODS}")

    parts = decompose(graph)
    budget = _resolve_budget(budget, deadline, clock)
    if obs_recorder.ON:
        obs_metrics.inc(f"solver.method.{method}")
    with obs_trace.span("solver.solve", method=method):
        if obs_recorder.ON:
            obs_events.emit(
                obs_events.EVENT_SOLVER_PHASE, phase="solve", method=method
            )
        return _solve(parts, method, budget, node_budget, exact_edge_limit)


def _approximate(
    parts: Decomposition,
    method: str,
    budget: Budget | None,
    degradations: tuple[str, ...] = (),
    forced_status: str | None = None,
) -> SolveResult:
    """The approximation methods: one tour per component from dfs or
    greedy, each polished when ``method`` ends in ``+polish``, then the one
    scheme built from them (which validates it) and wrapped.

    A degraded solve (``forced_status`` set) runs dfs unbudgeted, so the
    guarantee rung always completes (linear time); polish polls the
    already tripped budget and no-ops.
    """
    construct = solve_greedy if method.startswith("greedy") else solve_dfs_approx
    tours = construct(parts, budget=None if forced_status else budget)
    if method.endswith("+polish"):
        tours = polish_scheme(parts.tables, tours, budget=budget).tours
    scheme = PebblingScheme.from_edge_order(parts, parts.edge_ids(tours))
    return _wrap(parts, scheme, method, optimal=False, budget=budget,
                 degradations=degradations, forced_status=forced_status)


def _solve_exact(
    parts: Decomposition, budget: Budget | None, fallback: bool, node_budget: int
) -> SolveResult:
    """Exact search; when it runs out (cooperative budget or the hard
    ``node_budget``) and ``fallback`` is set, the ``exact -> dfs+polish``
    rung serves the 1.25-approximation and records the degradation.
    Without ``fallback`` the exhaustion is raised.
    """
    try:
        result = exact_mod.solve_exact(
            parts, node_budget=node_budget, budget=budget
        )
    except (BudgetExhaustedError, InstanceTooLargeError) as exc:
        if not fallback:
            raise
        _count_exhaustion(exc)
        _count_degradation("exact", "dfs+polish", exc)
        return _approximate(
            parts, "dfs+polish", budget, ("exact->dfs+polish",),
            forced_status=_status_of(exc),
        )
    return _wrap(parts, result.scheme, "exact", optimal=True, budget=budget)


def _solve(
    parts: Decomposition,
    method: str,
    budget: Budget | None,
    node_budget: int,
    exact_edge_limit: int,
) -> SolveResult:
    if method == "auto":
        bipartite = isinstance(parts.graph, BipartiteGraph)
        if bipartite and is_union_of_bicliques(parts):
            return _solve(parts, "equijoin", budget, node_budget, exact_edge_limit)
        if _max_component_edges(parts) <= exact_edge_limit:
            return _solve_exact(parts, budget, True, node_budget)
        return _approximate(parts, "dfs+polish", budget)

    if method == "equijoin":
        scheme = solve_equijoin(parts)
        return _wrap(parts, scheme, method, optimal=True)

    if method == "exact":
        # Without a budget the hard node_budget raises, as it always has.
        return _solve_exact(parts, budget, budget is not None, node_budget)

    return _approximate(parts, method, budget)


def optimal_effective_cost(
    graph: AnyGraph | Decomposition, **options
) -> int:
    """``π(G)`` via the cheapest guaranteed-optimal method.

    Raises :class:`SolverError` if a budget forced the exact search to
    degrade — a degraded answer carries no optimality certificate.
    """
    parts = decompose(graph)
    if isinstance(parts.graph, BipartiteGraph) and is_union_of_bicliques(parts):
        return parts.graph.num_edges
    result = solve(parts, "exact", **options)
    if not result.optimal:
        raise SolverError(
            "exact search degraded under its budget "
            f"(status={result.status}); no optimality certificate"
        )
    return result.effective_cost
