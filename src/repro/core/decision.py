"""PEBBLE(D): the paper's decision problem, as an explicit API.

Definition 4.1: "Given G and integer K, decide whether π(G) ≤ K."  This is
the problem Theorem 4.2 proves NP-complete (even for spatial join graphs).
The implementation decides it *without* computing the optimum when the
answer is determined by bounds:

1. ``K ≥ Σ ⌊1.25 m_c⌋`` → **yes** (Theorem 3.1's constructive bound);
2. ``K < m + J_lb`` with the deficiency jump bound → **no**;
3. otherwise run the budgeted path-partition search per component.

A *certificate* accompanies every yes-answer (a scheme of cost ≤ K) and
every no-answer (the matching lower-bound statement), so callers can
verify the decision independently — tests do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InstanceTooLargeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, decompose
from repro.graphs.simple import Graph
from repro.core.costs import effective_cost_bounds
from repro.core.lower_bounds import effective_cost_lower_bound
from repro.core.scheme import PebblingScheme
from repro.core.solvers.exact import DEFAULT_NODE_BUDGET, solve_exact
from repro.core.solvers.registry import solve

AnyGraph = Graph | BipartiteGraph


@dataclass(frozen=True)
class PebbleDecision:
    """The answer to one PEBBLE(D) instance, with its certificate."""

    answer: bool
    threshold: int
    reason: str
    scheme: PebblingScheme | None  # a witness of cost <= K for yes answers
    lower_bound: int | None  # a bound > K for no answers

    def verify(self, graph: AnyGraph) -> bool:
        """Re-check the certificate against the graph."""
        if self.answer:
            if self.scheme is None:
                return False
            if not self.scheme.is_valid(graph):
                return False
            return self.scheme.effective_cost(graph) <= self.threshold
        return self.lower_bound is not None and self.lower_bound > self.threshold


def decide_pebble(
    graph: AnyGraph | Decomposition,
    threshold: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PebbleDecision:
    """Decide ``π(G) ≤ K`` (Definition 4.1).

    May raise :class:`~repro.errors.InstanceTooLargeError` when the bounds
    do not settle the question and the exact search exceeds its budget —
    the NP-completeness of the problem showing through.
    """
    parts = decompose(graph)
    if parts.betti == 0:
        return PebbleDecision(
            answer=threshold >= 0,
            threshold=threshold,
            reason="empty graph",
            scheme=PebblingScheme([]) if threshold >= 0 else None,
            lower_bound=None if threshold >= 0 else 0,
        )

    lower = effective_cost_lower_bound(parts)
    if threshold < lower:
        return PebbleDecision(
            answer=False,
            threshold=threshold,
            reason=f"deficiency lower bound {lower} exceeds K",
            scheme=None,
            lower_bound=lower,
        )

    _, upper = effective_cost_bounds(parts)
    if threshold >= upper:
        # Theorem 3.1's constructive bound settles it; produce the witness.
        result = solve(parts, "dfs")
        if result.effective_cost <= threshold:
            return PebbleDecision(
                answer=True,
                threshold=threshold,
                reason=f"1.25 bound {upper} within K (DFS witness)",
                scheme=result.scheme,
                lower_bound=None,
            )

    exact = solve_exact(parts, node_budget=node_budget)
    if exact.effective_cost <= threshold:
        return PebbleDecision(
            answer=True,
            threshold=threshold,
            reason=f"exact optimum {exact.effective_cost} within K",
            scheme=exact.scheme,
            lower_bound=None,
        )
    return PebbleDecision(
        answer=False,
        threshold=threshold,
        reason=f"exact optimum {exact.effective_cost} exceeds K",
        scheme=None,
        lower_bound=exact.effective_cost,
    )


def decide_per_component(
    graph: AnyGraph | Decomposition,
    threshold: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[dict]:
    """Diagnostic variant: per-component optimum vs the proportional share
    of ``K`` (components decompose by Lemma 2.2)."""
    out = []
    for part in decompose(graph).each():
        component = part.graph
        result = solve_exact(part, node_budget=node_budget)
        out.append(
            {
                "edges": component.num_edges,
                "pi": result.effective_cost,
                "jumps": result.jumps,
            }
        )
    return out
