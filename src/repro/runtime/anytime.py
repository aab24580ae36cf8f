"""Anytime-result vocabulary: status constants and search provenance.

Every :class:`repro.core.solvers.registry.SolveResult` carries a ``status``
from this module and, when a budget was in play, a :class:`SolveProvenance`
describing how much of the search actually ran.  Keeping the vocabulary in
one place means the registry, the bench harness, and the CLI all agree on
what "timed out" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# The solver finished and the answer is certified optimal.
STATUS_OPTIMAL = "optimal"
# The solver finished; the answer is a (possibly approximate) full result.
STATUS_COMPLETE = "complete"
# A node budget tripped; the answer is the best found so far.
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"
# The wall-clock deadline tripped; the answer is the best found so far.
STATUS_TIMED_OUT = "timed_out"

STATUSES = (
    STATUS_OPTIMAL,
    STATUS_COMPLETE,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_TIMED_OUT,
)

# Statuses that mean the budget tripped before the search finished.
DEGRADED_STATUSES = (STATUS_BUDGET_EXHAUSTED, STATUS_TIMED_OUT)


@dataclass(frozen=True)
class SolveProvenance:
    """How much search produced an anytime answer.

    ``lower_bound`` is the polynomial-time lower bound on the effective
    cost (``m`` + jump lower bound), so ``effective_cost - lower_bound``
    bounds the regret of a budget-truncated answer.  ``degradations``
    records each rung of the fallback ladder taken, e.g.
    ``("exact->dfs+polish",)``.
    """

    nodes_expanded: int = 0
    elapsed_seconds: float = 0.0
    lower_bound: int | None = None
    degradations: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "nodes_expanded": self.nodes_expanded,
            "elapsed_seconds": self.elapsed_seconds,
            "lower_bound": self.lower_bound,
            "degradations": list(self.degradations),
        }
