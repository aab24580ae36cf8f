"""Cooperative resource budgets for anytime solving.

A :class:`Budget` bounds two resources at once — wall clock (via an
injectable clock) and search nodes — and is *checked, never enforced*:
solvers call :meth:`Budget.checkpoint` (raising) or :meth:`Budget.poll`
(non-raising) at natural loop boundaries, so a budget can only trip
where the solver can hand back a valid partial answer.

The two styles map onto the two solver shapes in this repo:

- the branch-and-bound search (``exact``) has no useful partial state
  mid-expansion, so it uses the raising ``checkpoint()`` and lets the
  registry ladder catch :class:`BudgetExhaustedError`;
- constructive heuristics (``dfs_approx``, ``greedy``, ``local_search``)
  always hold a valid scheme, so they ``poll()``
  and simply stop improving when the budget trips.

``use_budget`` installs an *ambient* budget on a stack, which is how the
engine and CLI thread one deadline through planner → solver → executor
without changing every signature in between.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.errors import BudgetExhaustedError
from repro.obs import events as obs_events
from repro.obs import recorder as obs_recorder
from repro.runtime.clock import MONOTONIC_CLOCK

REASON_DEADLINE = "deadline"
REASON_NODES = "nodes"

# under_pressure() is True once less than this share of the deadline remains.
PRESSURE_FRACTION = 0.1


class Budget:
    """A cooperative budget over wall clock and search nodes.

    Either limit may be set; an all-``None`` budget never trips and costs
    one integer increment per checkpoint.  ``clock`` defaults to the
    process monotonic clock; tests inject
    :class:`repro.runtime.clock.FakeClock`.  The clock is read at every
    checkpoint, so a deadline is honoured within one checkpoint interval.
    """

    def __init__(
        self,
        deadline: float | None = None,
        node_budget: int | None = None,
        clock=None,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        if node_budget is not None and node_budget < 0:
            raise ValueError("node_budget must be non-negative")
        self.deadline = deadline
        self.node_budget = node_budget
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.nodes_charged = 0
        self.exhausted_reason: str | None = None
        self._started_at: float | None = None
        self._deadline_at: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Budget":
        """Arm the deadline; idempotent, called lazily by the first check."""
        if self._started_at is None:
            self._started_at = self.clock.now()
            if self.deadline is not None:
                self._deadline_at = self._started_at + self.deadline
        return self

    def elapsed(self) -> float:
        """Seconds since the budget was armed (0 if never armed)."""
        if self._started_at is None:
            return 0.0
        return self.clock.now() - self._started_at

    def remaining(self) -> float | None:
        """Seconds left before the deadline, clamped at 0.0 (``None``
        when no deadline is set).  Arms the budget on first call.

        This is how a deadline propagates out of its home thread or
        event loop: an async dispatcher can't share the ``Budget``
        object with worker processes, but it can hand each stage
        ``remaining()`` as a plain number and rebuild a budget on the
        other side — the server does exactly that per component solve.
        """
        if self.deadline is None:
            return None
        self.start()
        assert self._deadline_at is not None
        return max(0.0, self._deadline_at - self.clock.now())

    # -- checks ------------------------------------------------------------

    def _trip(self, reason: str) -> str:
        """Record first exhaustion; the transition emits one structured
        event (:data:`repro.obs.events.EVENT_BUDGET_TRIPPED`) so budget
        trips are greppable in ``events.jsonl`` — a no-op when the event
        log is disabled, like every observability hook."""
        self.exhausted_reason = reason
        if obs_recorder.ON:
            obs_events.emit(
                obs_events.EVENT_BUDGET_TRIPPED,
                reason=reason,
                nodes_charged=self.nodes_charged,
                elapsed_seconds=self.elapsed(),
            )
        return reason

    def _check(self, cost: int) -> str | None:
        """Charge ``cost`` nodes; return the tripped reason, if any."""
        self.start()
        if self.exhausted_reason is not None:
            return self.exhausted_reason
        self.nodes_charged += cost
        if self.node_budget is not None and self.nodes_charged > self.node_budget:
            return self._trip(REASON_NODES)
        # A zero-cost check charges nothing, so it reads no clock either.
        if cost and self._deadline_at is not None:
            if self.clock.now() >= self._deadline_at:
                return self._trip(REASON_DEADLINE)
        return None

    def checkpoint(self, cost: int = 1) -> None:
        """Charge ``cost`` nodes; raise :class:`BudgetExhaustedError` if tripped."""
        reason = self._check(cost)
        if reason is not None:
            raise BudgetExhaustedError(
                f"budget exhausted ({reason}) after {self.nodes_charged} nodes, "
                f"{self.elapsed():.4f}s",
                reason=reason,
            )

    def poll(self, cost: int = 1) -> bool:
        """Charge ``cost`` nodes; return True (sticky) once the budget trips."""
        return self._check(cost) is not None

    # -- state -------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self.exhausted_reason is not None

    def status(self, default: str = "complete") -> str:
        """Map the tripped resource to an anytime status string."""
        if self.exhausted_reason == REASON_DEADLINE:
            return "timed_out"
        if self.exhausted_reason is not None:
            return "budget_exhausted"
        return default

    def under_pressure(self) -> bool:
        """True once less than :data:`PRESSURE_FRACTION` of the deadline
        remains.

        Lets the planner/executor shed optional work (estimation, trace
        building) before the deadline actually trips.  Always False for
        budgets without a deadline.
        """
        if self.exhausted_reason is not None:
            return True
        if self._deadline_at is None or self.deadline is None:
            return False
        self.start()
        remaining = self._deadline_at - self.clock.now()
        return remaining < PRESSURE_FRACTION * self.deadline


# -- ambient budget stack --------------------------------------------------

_BUDGET_STACK: list[Budget] = []


def current_budget() -> Budget | None:
    """The innermost ambient budget installed by :func:`use_budget`."""
    return _BUDGET_STACK[-1] if _BUDGET_STACK else None


@contextlib.contextmanager
def use_budget(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the ambient budget for the ``with`` body.

    ``None`` is accepted and installs nothing, so call sites can write
    ``with use_budget(maybe_budget):`` without branching.
    """
    if budget is None:
        yield None
        return
    _BUDGET_STACK.append(budget)
    try:
        yield budget
    finally:
        _BUDGET_STACK.pop()
