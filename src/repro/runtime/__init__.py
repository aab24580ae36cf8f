"""Resource budgets, anytime-result vocabulary, and fault injection.

The runtime package is the robustness layer under the solving stack:
:class:`Budget` bounds wall clock and search nodes with
cooperative checkpoints, :mod:`repro.runtime.anytime` names the result
statuses, and :mod:`repro.runtime.faults` injects deterministic faults for
chaos testing.  See ``docs/ROBUSTNESS.md``.
"""

from repro.runtime.anytime import (
    DEGRADED_STATUSES,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_COMPLETE,
    STATUS_OPTIMAL,
    STATUS_TIMED_OUT,
    STATUSES,
    SolveProvenance,
)
from repro.runtime.budget import (
    REASON_DEADLINE,
    REASON_NODES,
    Budget,
    current_budget,
    use_budget,
)
from repro.runtime.clock import MONOTONIC_CLOCK, FakeClock, MonotonicClock
from repro.runtime.retry import (
    CircuitBreaker,
    RetryController,
    RetryPolicy,
)
from repro.runtime.faults import (
    FaultPlan,
    SkewedClock,
    active_plan,
    inject,
    maybe_fail,
)

__all__ = [
    "Budget",
    "current_budget",
    "use_budget",
    "REASON_DEADLINE",
    "REASON_NODES",
    "FakeClock",
    "MonotonicClock",
    "MONOTONIC_CLOCK",
    "CircuitBreaker",
    "RetryController",
    "RetryPolicy",
    "FaultPlan",
    "SkewedClock",
    "active_plan",
    "inject",
    "maybe_fail",
    "SolveProvenance",
    "STATUSES",
    "DEGRADED_STATUSES",
    "STATUS_OPTIMAL",
    "STATUS_COMPLETE",
    "STATUS_BUDGET_EXHAUSTED",
    "STATUS_TIMED_OUT",
]
