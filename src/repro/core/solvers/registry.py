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

Budgeted, anytime solving (see ``docs/ROBUSTNESS.md``): passing
``deadline=`` / ``memo_cap=`` (or an explicit ``budget=Budget(...)``, or
installing one ambiently with :func:`repro.runtime.use_budget`) makes every
method cooperative.  On exhaustion the registry never raises — it walks
the **fallback ladder** ``exact → dfs+polish → greedy``, so the
1.25-approximation guarantee (Theorem 3.1) is the worst case actually
served.  The result's ``status`` records what happened
(``optimal | complete | budget_exhausted | timed_out``) and
``provenance`` carries the partial-search evidence (nodes expanded,
elapsed time, the poly-time lower bound, and each degradation step).
"""

from __future__ import annotations

import sys
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
from repro.core.solvers.matching_stitch import solve_matching_stitch
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
    "matching",
    "matching+polish",
    "anneal",
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
    return max((c.num_edges for c in decompose(graph).components), default=0)


# Options consumed by budget resolution; solve() strips them before
# forwarding the remaining solver options down the method dispatch.
_BUDGET_OPTION_KEYS = ("budget", "deadline", "memo_cap", "clock", "check_interval")


def _resolve_budget(options: dict) -> Budget | None:
    """Extract/construct the cooperative budget for this solve.

    Priority: explicit ``budget=`` > a budget built from ``deadline=`` /
    ``memo_cap=`` (plus optional ``clock=`` / ``check_interval=``) > the
    ambient budget installed by :func:`repro.runtime.use_budget` > none.
    The legacy ``node_budget`` option is *not* consumed here: it remains
    the exact solver's hard search limit.

    Resolution is **non-destructive**: the caller's dict is only read, so
    a batch caller (``repro.parallel.solve_many``) can reuse one options
    dict across many solves without silently losing ``deadline=`` /
    ``budget=`` / ``memo_cap=`` after the first one.
    """
    budget = options.get("budget")
    deadline = options.get("deadline")
    memo_cap = options.get("memo_cap")
    clock = options.get("clock")
    check_interval = options.get("check_interval", 1)
    if budget is not None:
        return budget
    if deadline is not None or memo_cap is not None:
        return Budget(
            deadline=deadline,
            memo_cap=memo_cap,
            clock=clock,
            check_interval=check_interval,
        )
    return current_budget()


def _current_solve_cache():
    """The ambient solve cache, if :mod:`repro.parallel.cache` installed
    one (late import: the parallel package depends on this module)."""
    cache_mod = sys.modules.get("repro.parallel.cache")
    if cache_mod is None:
        return None
    return cache_mod.current_cache()


def solve(
    graph: AnyGraph | Decomposition, method: str = "auto", **options
) -> SolveResult:
    """Solve PEBBLE on ``graph`` with the requested ``method``.

    Options: ``node_budget`` (exact search hard limit),
    ``exact_edge_limit`` (auto-mode threshold for exact search),
    ``deadline`` / ``memo_cap`` / ``clock`` / ``check_interval`` /
    ``budget`` (cooperative anytime budget — see ``docs/ROBUSTNESS.md``).

    When a solve cache is installed (``docs/PARALLEL.md``), it is
    consulted *before* the degradation ladder: a hit returns the cached
    result immediately, and clean (undegraded) results are stored on the
    way out.

    The graph is split into components once (:func:`decompose`) and every
    method, bound and cost below works on that one split.
    """
    if method not in METHODS:
        raise SolverError(f"unknown method {method!r}; choose from {METHODS}")

    parts = decompose(graph)
    budget = _resolve_budget(options)
    solver_options = {
        k: v for k, v in options.items() if k not in _BUDGET_OPTION_KEYS
    }
    cache = _current_solve_cache()
    token = None
    if cache is not None:
        hit, token = cache.consult(parts.graph, method, solver_options)
        if hit is not None:
            return hit
    if obs_recorder.ON:
        obs_metrics.inc(f"solver.method.{method}")
    with obs_trace.span("solver.solve", method=method):
        if obs_recorder.ON:
            obs_events.emit(
                obs_events.EVENT_SOLVER_PHASE, phase="solve", method=method
            )
        result = _solve(parts, method, budget, **solver_options)
    if cache is not None and token is not None:
        cache.store(token, result)
    return result


def _solve_exact(
    parts: Decomposition,
    budget: Budget | None,
    degradations: tuple[str, ...],
    **options,
) -> SolveResult:
    """The ``exact`` method, anytime under a budget.

    Without a budget this is the legacy path: the hard ``node_budget``
    raises :class:`InstanceTooLargeError`.  With a budget, exhaustion
    (cooperative *or* legacy) degrades to the DFS 1.25-approximation and
    the result records the degradation instead of raising.
    """
    hard_limit = options.get("node_budget", exact_mod.DEFAULT_NODE_BUDGET)
    if budget is None:
        result = exact_mod.solve_exact(parts, node_budget=hard_limit)
        return _wrap(parts, result.scheme, "exact", optimal=True,
                     degradations=degradations)
    try:
        result = exact_mod.solve_exact(
            parts, node_budget=hard_limit, budget=budget
        )
        return _wrap(parts, result.scheme, "exact", optimal=True,
                     budget=budget, degradations=degradations)
    except (BudgetExhaustedError, InstanceTooLargeError) as exc:
        _count_exhaustion(exc)
        _count_degradation("exact", "dfs+polish", exc)
        forced = _status_of(exc)
        degradations = degradations + ("exact->dfs+polish",)
        # The guarantee rung: unbudgeted so it always completes (linear
        # time); polishing polls the (already tripped) budget and no-ops.
        scheme = solve_dfs_approx(parts).scheme
        scheme = polish_scheme(parts, scheme, budget=budget).scheme
        return _wrap(parts, scheme, "dfs+polish", optimal=False,
                     budget=budget, degradations=degradations,
                     forced_status=forced)


def _solve(
    parts: Decomposition,
    method: str,
    budget: Budget | None = None,
    degradations: tuple[str, ...] = (),
    **options,
) -> SolveResult:
    if method == "auto":
        bipartite = isinstance(parts.graph, BipartiteGraph)
        if bipartite and is_union_of_bicliques(parts):
            return _solve(parts, "equijoin", budget, degradations)
        limit = options.get("exact_edge_limit", AUTO_EXACT_EDGE_LIMIT)
        if _max_component_edges(parts) <= limit:
            # _solve_exact already absorbs exhaustion when a budget is in
            # play; without one, legacy InstanceTooLargeError must still
            # not leak out of auto — fall to the approximation rung.
            try:
                return _solve_exact(parts, budget, degradations, **options)
            except InstanceTooLargeError as exc:
                _count_exhaustion(exc)
                _count_degradation("exact", "dfs+polish", exc)
                degradations = degradations + ("exact->dfs+polish",)
                forced = _status_of(exc)
                result = _solve(
                    parts, "dfs+polish", budget, degradations, **options
                )
                return _wrap(
                    parts, result.scheme, "dfs+polish", optimal=False,
                    budget=budget, degradations=degradations,
                    forced_status=forced,
                )
        try:
            return _solve(parts, "dfs+polish", budget, degradations, **options)
        except BudgetExhaustedError as exc:
            # Defensive final rung: dfs+polish only polls today, but if a
            # future checkpoint raises, greedy still serves an answer.
            _count_exhaustion(exc)
            _count_degradation("dfs+polish", "greedy", exc)
            degradations = degradations + ("dfs+polish->greedy",)
            result = solve_greedy(parts)
            return _wrap(
                parts, result.scheme, "greedy", optimal=False, budget=budget,
                degradations=degradations, forced_status=_status_of(exc),
            )

    if method == "equijoin":
        scheme = solve_equijoin(parts)
        return _wrap(parts, scheme, method, optimal=True,
                     degradations=degradations)

    if method == "exact":
        return _solve_exact(parts, budget, degradations, **options)

    if method in ("dfs", "dfs+polish"):
        result = solve_dfs_approx(parts, budget=budget)
        scheme = result.scheme
        if method == "dfs+polish":
            scheme = polish_scheme(parts, scheme, budget=budget).scheme
        return _wrap(parts, scheme, method, optimal=False, budget=budget,
                     degradations=degradations)

    if method in ("greedy", "greedy+polish"):
        result = solve_greedy(parts, budget=budget)
        scheme = result.scheme
        if method == "greedy+polish":
            scheme = polish_scheme(parts, scheme, budget=budget).scheme
        return _wrap(parts, scheme, method, optimal=False, budget=budget,
                     degradations=degradations)

    if method == "anneal":
        from repro.core.solvers.anneal import solve_anneal

        result = solve_anneal(
            parts,
            seed=options.get("seed", 0),
            steps=options.get("steps", 4000),
            budget=budget,
        )
        return _wrap(parts, result.scheme, method, optimal=False,
                     budget=budget, degradations=degradations)

    # matching / matching+polish
    result = solve_matching_stitch(parts, budget=budget)
    scheme = result.scheme
    if method == "matching+polish":
        scheme = polish_scheme(parts, scheme, budget=budget).scheme
    return _wrap(parts, scheme, method, optimal=False, budget=budget,
                 degradations=degradations)


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
