"""Deadline-aware retry policy and circuit breaker for transient failures.

Every retry loop in this repo used to roll its own sleeps: the SQLite
cache tier slept fixed backoffs, the load generator never retried at
all, and a killed pool worker simply crashed the batch.  This module is
the one shared answer: a :class:`RetryPolicy` describes *how* to retry
(exponential backoff, seeded jitter, a bounded attempt count) and a
:class:`RetryController` tracks one operation's retry state, deciding
*whether* another attempt is allowed.

Three integrations make the policy deadline-safe and observable:

- **budgets** — a controller bound to a
  :class:`~repro.runtime.budget.Budget` (explicitly, or the ambient one
  from :func:`~repro.runtime.budget.use_budget`) gives up as soon as the
  next sleep would outlive the budget's deadline, so retries never push
  a request past its own deadline;
- **server hints** — ``retry_after_ms`` backoff hints (the admission
  controller's currency) act as a floor on the computed delay, so a
  polite client never hammers an overloaded server faster than asked;
- **events** — every retry emits ``retry.attempt`` and every
  abandonment ``retry.give_up`` (plus ``runtime.retry.*`` counters), so
  recovery behaviour is reconstructable from ``events.jsonl`` alone.

:class:`CircuitBreaker` is the companion for *connection-shaped*
failures: after ``threshold`` consecutive failures it opens (fail fast,
no network traffic), and after ``cooldown`` seconds it lets exactly one
half-open probe through; a probe success closes it again.  The solve
clients wire both together so a load run survives a server restart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.runtime.budget import Budget, current_budget
from repro.runtime.clock import MONOTONIC_CLOCK

GIVE_UP_ATTEMPTS = "attempts"
GIVE_UP_DEADLINE = "deadline"

# Sentinel: "resolve the ambient budget at controller creation".
_AMBIENT = object()


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry: attempt count, backoff curve, jitter.

    ``max_attempts`` counts *total* tries including the first, so
    ``max_attempts=1`` means "never retry".  The un-jittered delay before
    retry ``k`` (0-based) is ``min(max_delay, base_delay * multiplier**k)``;
    jitter adds up to ``jitter`` (a fraction) of that, drawn from a
    seeded RNG so a failing run replays exactly.  The policy itself is
    immutable and shareable; per-operation state lives in the
    :class:`RetryController` built by :meth:`controller`.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, retry_index: int) -> float:
        """The un-jittered delay before retry ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        return min(self.max_delay, self.base_delay * self.multiplier**retry_index)

    def controller(
        self, site: str, budget: Budget | None | Any = _AMBIENT
    ) -> "RetryController":
        """Per-operation retry state for ``site``.

        ``budget`` defaults to the *ambient* budget at creation time
        (:func:`~repro.runtime.budget.current_budget`), pass ``None`` to
        retry without a deadline bound, or an explicit :class:`Budget`.
        """
        resolved = current_budget() if budget is _AMBIENT else budget
        return RetryController(self, site, resolved)

    def call(
        self,
        operation: Callable[[], Any],
        *,
        site: str,
        should_retry: Callable[[BaseException], bool],
        budget: Budget | None | Any = _AMBIENT,
        hint_for: Callable[[BaseException], int | None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``operation`` under this policy (the sync convenience loop).

        Exceptions ``should_retry`` rejects propagate immediately; on
        give-up (attempts exhausted or the budget deadline would be
        outlived) the *last* exception propagates, so callers keep their
        existing error handling.  ``hint_for`` may extract a
        ``retry_after_ms`` hint from the exception.
        """
        controller = self.controller(site, budget=budget)
        while True:
            try:
                return operation()
            except BaseException as exc:
                if not should_retry(exc):
                    raise
                hint = hint_for(exc) if hint_for is not None else None
                delay = controller.next_delay(
                    hint_ms=hint, reason=type(exc).__name__
                )
                if delay is None:
                    raise
                if delay > 0:
                    sleep(delay)


class RetryController:
    """One operation's retry state: failures seen, delays granted.

    Built by :meth:`RetryPolicy.controller`.  After each failure call
    :meth:`next_delay`; a float is the seconds to sleep before the next
    attempt, ``None`` means give up (and :attr:`gave_up` records why).
    """

    def __init__(
        self, policy: RetryPolicy, site: str, budget: Budget | None
    ) -> None:
        self.policy = policy
        self.site = site
        self.budget = budget
        self.failures = 0
        self.gave_up: str | None = None
        self._rng = random.Random(policy.seed)

    def next_delay(
        self, hint_ms: int | None = None, reason: str = ""
    ) -> float | None:
        """Record one failure; grant a backoff delay or give up.

        Gives up when the attempt count is exhausted, or when the bound
        budget has a deadline and the jittered delay would not fit in
        ``budget.remaining()`` — a retry that cannot finish sleeping
        before the deadline is never worth starting.
        """
        self.failures += 1
        if self.failures >= self.policy.max_attempts:
            return self._give_up(GIVE_UP_ATTEMPTS, reason)
        delay = self.policy.backoff(self.failures - 1)
        if self.policy.jitter > 0.0:
            delay *= 1.0 + self.policy.jitter * self._rng.random()
        if hint_ms is not None:
            # The server's hint is a floor, never a discount.
            delay = max(delay, hint_ms / 1000.0)
        if self.budget is not None:
            remaining = self.budget.remaining()
            if remaining is not None and delay >= remaining:
                return self._give_up(GIVE_UP_DEADLINE, reason)
        if obs_recorder.ON:
            obs_metrics.inc("runtime.retry.attempts")
            obs_events.emit(
                obs_events.EVENT_RETRY_ATTEMPT,
                site=self.site,
                attempt=self.failures,
                delay_ms=round(delay * 1000.0, 3),
                hint_ms=hint_ms,
                reason=reason,
            )
        return delay

    def _give_up(self, why: str, reason: str) -> None:
        self.gave_up = why
        if obs_recorder.ON:
            obs_metrics.inc("runtime.retry.give_ups")
            obs_events.emit(
                obs_events.EVENT_RETRY_GIVE_UP,
                site=self.site,
                attempts=self.failures,
                why=why,
                reason=reason,
            )
        return None


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Fail fast after repeated failures; probe cautiously after a cooldown.

    State machine: ``closed`` (all calls allowed) → ``open`` after
    ``threshold`` *consecutive* failures (every call refused for
    ``cooldown`` seconds) → ``half_open`` (exactly one probe allowed) →
    ``closed`` on probe success, back to ``open`` on probe failure.
    The clock is injectable for deterministic tests, like
    :class:`~repro.runtime.budget.Budget`.

    The breaker is deliberately obs-light: it counts lifetime ``opens``
    itself and bumps a ``runtime.breaker.opens`` counter on each
    closed→open transition; the surrounding retry loop owns the event
    trail.
    """

    def __init__(
        self, threshold: int = 5, cooldown: float = 1.0, clock=None
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._opened_at: float | None = None

    def allow(self) -> bool:
        """May a call proceed right now?  Transitions open → half-open
        (and burns the single probe) when the cooldown has elapsed."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            assert self._opened_at is not None
            if self.clock.now() - self._opened_at >= self.cooldown:
                self.state = BREAKER_HALF_OPEN
                return True
            return False
        return False  # half-open: the one probe is already in flight

    def retry_in(self) -> float:
        """Seconds until :meth:`allow` could next return True (0 when a
        call is allowed right now; ``cooldown`` while half-open, since a
        failed probe re-opens for a full cooldown)."""
        if self.state == BREAKER_CLOSED:
            return 0.0
        if self.state == BREAKER_OPEN:
            assert self._opened_at is not None
            return max(0.0, self.cooldown - (self.clock.now() - self._opened_at))
        return self.cooldown

    def record_success(self) -> None:
        """A call succeeded: close (from any state) and forget failures."""
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        """A call failed: trip immediately from half-open, or once the
        consecutive-failure count reaches the threshold."""
        self.consecutive_failures += 1
        should_open = (
            self.state == BREAKER_HALF_OPEN
            or self.consecutive_failures >= self.threshold
        )
        if should_open:
            if self.state != BREAKER_OPEN:
                self.opens += 1
                if obs_recorder.ON:
                    obs_metrics.inc("runtime.breaker.opens")
            self.state = BREAKER_OPEN
            self._opened_at = self.clock.now()


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "GIVE_UP_ATTEMPTS",
    "GIVE_UP_DEADLINE",
    "RetryController",
    "RetryPolicy",
]
