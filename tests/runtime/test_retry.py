"""The shared retry policy and circuit breaker (docs/ROBUSTNESS.md)."""

import pytest

from repro import obs
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.runtime import Budget, CircuitBreaker, FakeClock, RetryPolicy, use_budget
from repro.runtime.retry import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    GIVE_UP_ATTEMPTS,
    GIVE_UP_DEADLINE,
)


class TestBackoffCurve:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert [policy.backoff(k) for k in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, multiplier=1.0, jitter=0.5, seed=42
        )
        a = policy.controller("t", budget=None)
        b = policy.controller("t", budget=None)
        delays_a = [a.next_delay() for _ in range(5)]
        delays_b = [b.next_delay() for _ in range(5)]
        assert delays_a == delays_b  # same seed, same jitter draws
        for delay in delays_a:
            assert 0.1 <= delay <= 0.15  # within [base, base * (1+jitter)]

    def test_hint_is_a_floor_not_a_discount(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.0)
        controller = policy.controller("t", budget=None)
        assert controller.next_delay(hint_ms=250) == 0.25
        # A hint below the computed backoff leaves the backoff in charge.
        controller2 = RetryPolicy(base_delay=0.5, jitter=0.0).controller(
            "t", budget=None
        )
        assert controller2.next_delay(hint_ms=1) == 0.5

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestAttemptsBound:
    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        controller = policy.controller("t", budget=None)
        assert controller.next_delay() is not None
        assert controller.next_delay() is not None
        assert controller.next_delay() is None
        assert controller.gave_up == GIVE_UP_ATTEMPTS

    def test_max_attempts_one_never_retries(self):
        controller = RetryPolicy(max_attempts=1).controller("t", budget=None)
        assert controller.next_delay() is None


class TestBudgetIntegration:
    def test_gives_up_when_delay_outlives_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline=0.05, clock=clock).start()
        policy = RetryPolicy(max_attempts=10, base_delay=0.1, jitter=0.0)
        controller = policy.controller("t", budget=budget)
        assert controller.next_delay() is None  # 0.1s sleep > 0.05s left
        assert controller.gave_up == GIVE_UP_DEADLINE

    def test_retries_while_deadline_has_room(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock).start()
        policy = RetryPolicy(max_attempts=10, base_delay=0.1, jitter=0.0)
        controller = policy.controller("t", budget=budget)
        assert controller.next_delay() == pytest.approx(0.1)

    def test_exhausted_budget_stops_retries_immediately(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock).start()
        clock.advance(2.0)
        controller = RetryPolicy(max_attempts=10).controller("t", budget=budget)
        assert controller.next_delay() is None
        assert controller.gave_up == GIVE_UP_DEADLINE

    def test_ambient_budget_is_picked_up(self):
        clock = FakeClock()
        budget = Budget(deadline=0.01, clock=clock).start()
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, jitter=0.0)
        with use_budget(budget):
            controller = policy.controller("t")
        assert controller.budget is budget
        assert controller.next_delay() is None

    def test_no_budget_means_no_deadline_bound(self):
        controller = RetryPolicy(max_attempts=3, jitter=0.0).controller(
            "t", budget=None
        )
        assert controller.next_delay() is not None


class TestCallHelper:
    def test_retries_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        result = RetryPolicy(max_attempts=5, jitter=0.0).call(
            flaky,
            site="test.flaky",
            should_retry=lambda exc: isinstance(exc, OSError),
            budget=None,
            sleep=slept.append,
        )
        assert result == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_non_retryable_raises_immediately(self):
        def bad():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).call(
                bad,
                site="test.bad",
                should_retry=lambda exc: isinstance(exc, OSError),
                budget=None,
                sleep=lambda _s: None,
            )

    def test_give_up_reraises_last_exception(self):
        def always():
            raise OSError("still down")

        with pytest.raises(OSError):
            RetryPolicy(max_attempts=2, jitter=0.0).call(
                always,
                site="test.down",
                should_retry=lambda exc: True,
                budget=None,
                sleep=lambda _s: None,
            )


class TestObservability:
    def setup_method(self):
        obs.reset()
        obs.enable()
        obs.reset()
        obs.enable()

    def teardown_method(self):
        obs.disable()
        obs.reset()
        obs.disable()
        obs.reset()

    def test_attempt_and_give_up_events(self):
        controller = RetryPolicy(max_attempts=2, jitter=0.0).controller(
            "test.site", budget=None
        )
        controller.next_delay(reason="boom")
        controller.next_delay(reason="boom")
        names = [e.name for e in obs_events.events()]
        assert names == ["retry.attempt", "retry.give_up"]
        attempt, give_up = obs_events.events()
        assert attempt.attrs["site"] == "test.site"
        assert attempt.attrs["attempt"] == 1
        assert give_up.attrs["why"] == GIVE_UP_ATTEMPTS
        assert obs_metrics.counter("runtime.retry.attempts") == 1
        assert obs_metrics.counter("runtime.retry.give_ups") == 1

    def test_breaker_open_counter(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert obs_metrics.counter("runtime.breaker.opens") == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=1.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # no second probe

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # failed probe: straight back to open
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_retry_in_counts_down_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=2.0, clock=clock)
        assert breaker.retry_in() == 0.0
        breaker.record_failure()
        assert breaker.retry_in() == pytest.approx(2.0)
        clock.advance(1.5)
        assert breaker.retry_in() == pytest.approx(0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)
