"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is seeded, so a failing chaos run reproduces exactly
from its seed — the same property the rest of the repo demands of its
workload generators.  Three fault families are supported:

- **I/O failures**: instrumented sites in ``relations/storage.py`` and
  ``relations/io.py`` call :func:`maybe_fail(site) <maybe_fail>`; when a
  plan is installed, each call draws from the plan's RNG and raises
  :class:`repro.errors.InjectedFaultError` with probability
  ``rates[site]`` (``"*"`` is a wildcard rate for every site).
- **clock skew**: :meth:`FaultPlan.skewed` wraps any clock so each read
  drifts forward by a seeded random amount, tightening deadlines.
- **budget starvation**: :meth:`FaultPlan.starve` divides a budget's caps
  by ``starvation``, modelling a machine ``k`` times slower than sized for.

With no plan installed (the default, and always the case in production
code paths), :func:`maybe_fail` is a single global read — the harness is
free when off.
"""

from __future__ import annotations

import contextlib
import random
from typing import Iterator, Mapping

from repro.errors import InjectedFaultError
from repro.obs import events as obs_events
from repro.obs import recorder as obs_recorder
from repro.runtime.budget import Budget


class SkewedClock:
    """A clock whose reads drift forward by seeded random increments."""

    def __init__(self, inner, rng: random.Random, max_skew: float) -> None:
        self._inner = inner
        self._rng = rng
        self._max_skew = max_skew
        self._drift = 0.0

    def now(self) -> float:
        self._drift += self._rng.uniform(0.0, self._max_skew)
        return self._inner.now() + self._drift


class FaultPlan:
    """A seeded schedule of faults.

    ``rates`` maps an instrumented site name (or ``"*"``) to a failure
    probability in ``[0, 1]``.  ``clock_skew`` is the maximum extra seconds
    each skewed-clock read drifts.  ``starvation`` divides budget caps.
    """

    def __init__(
        self,
        seed: int,
        rates: Mapping[str, float] | None = None,
        clock_skew: float = 0.0,
        starvation: int = 1,
    ) -> None:
        if starvation < 1:
            raise ValueError("starvation must be >= 1")
        self.seed = seed
        self.rates = dict(rates or {})
        self.clock_skew = clock_skew
        self.starvation = starvation
        self._rng = random.Random(seed)
        self.calls = 0
        self.injected = 0

    def rate_for(self, site: str) -> float:
        if site in self.rates:
            return self.rates[site]
        return self.rates.get("*", 0.0)

    def should_fail(self, site: str) -> bool:
        """One deterministic draw for ``site``; counts every call."""
        self.calls += 1
        rate = self.rate_for(site)
        if rate <= 0.0:
            return False
        if rate >= 1.0 or self._rng.random() < rate:
            self.injected += 1
            return True
        return False

    def skewed(self, clock) -> SkewedClock:
        """Wrap ``clock`` with seeded forward drift (dedicated RNG, so
        skew draws do not perturb the fault-site draw sequence)."""
        return SkewedClock(clock, random.Random(self.seed + 1), self.clock_skew)

    def starve(self, budget: Budget) -> Budget:
        """A copy of ``budget`` with every cap divided by ``starvation``."""

        def _shrink(value: int | float | None):
            return None if value is None else max(1, int(value // self.starvation))

        deadline = None
        if budget.deadline is not None:
            deadline = budget.deadline / self.starvation
        return Budget(
            deadline=deadline,
            node_budget=_shrink(budget.node_budget),
            memo_cap=_shrink(budget.memo_cap),
            clock=budget.clock,
            check_interval=budget.check_interval,
        )


_ACTIVE_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    return _ACTIVE_PLAN


@contextlib.contextmanager
def inject(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Install ``plan`` as the process-wide fault plan for the ``with`` body."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous


def maybe_fail(site: str) -> None:
    """Instrumented-site hook: raise :class:`InjectedFaultError` if the
    active plan says this call fails.  A no-op when no plan is installed."""
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    if plan.should_fail(site):
        # Every injected fault leaves a correlated event, so chaos runs
        # can be replayed from events.jsonl (site + seed + call number
        # pins down the exact draw).
        if obs_recorder.ON:
            obs_events.emit(
                obs_events.EVENT_FAULT_INJECTED,
                site=site,
                seed=plan.seed,
                call=plan.calls,
                injected=plan.injected,
            )
        raise InjectedFaultError(
            f"injected fault at {site} (seed={plan.seed}, call #{plan.calls})"
        )
