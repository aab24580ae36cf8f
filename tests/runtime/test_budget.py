"""Budget/clock unit tests: the cooperative budget primitive itself."""

import pytest

from repro.errors import BudgetExhaustedError
from repro.runtime import (
    Budget,
    FakeClock,
    MonotonicClock,
    REASON_DEADLINE,
    REASON_NODES,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_TIMED_OUT,
    current_budget,
    use_budget,
)


class TestFakeClock:
    def test_auto_advances_by_step(self):
        clock = FakeClock(start=10.0, step=0.5)
        assert clock.now() == 10.5
        assert clock.now() == 11.0
        assert clock.calls == 2

    def test_manual_advance(self):
        clock = FakeClock()
        clock.advance(3.0)
        assert clock.now() == 3.0

    def test_monotonic_clock_is_monotonic(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()


class TestBudget:
    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)
        with pytest.raises(ValueError):
            Budget(node_budget=-1)

    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        for _ in range(1000):
            budget.checkpoint()
        assert not budget.exhausted
        assert budget.status() == "complete"

    def test_node_budget_trips_checkpoint(self):
        budget = Budget(node_budget=5)
        for _ in range(5):
            budget.checkpoint()
        with pytest.raises(BudgetExhaustedError) as exc:
            budget.checkpoint()
        assert exc.value.reason == REASON_NODES
        assert budget.status() == STATUS_BUDGET_EXHAUSTED

    def test_deadline_trips_via_fake_clock(self):
        budget = Budget(deadline=0.05, clock=FakeClock(step=0.02))
        with pytest.raises(BudgetExhaustedError) as exc:
            for _ in range(100):
                budget.checkpoint()
        assert exc.value.reason == REASON_DEADLINE
        assert budget.status() == STATUS_TIMED_OUT

    def test_exhaustion_is_sticky(self):
        budget = Budget(node_budget=1)
        budget.checkpoint()
        with pytest.raises(BudgetExhaustedError):
            budget.checkpoint()
        with pytest.raises(BudgetExhaustedError):
            budget.checkpoint()
        assert budget.exhausted

    def test_poll_returns_bool_instead_of_raising(self):
        budget = Budget(node_budget=2)
        assert budget.poll() is False
        assert budget.poll() is False
        assert budget.poll() is True
        assert budget.poll() is True

    def test_one_clock_read_per_charged_check(self):
        clock = FakeClock(step=0.0)
        budget = Budget(deadline=10.0, clock=clock).start()
        calls_at_start = clock.calls
        for _ in range(10):
            budget.checkpoint()
        budget.checkpoint(0)
        assert budget.poll(0) is False
        # A zero-cost check charges nothing and reads no clock.
        assert clock.calls - calls_at_start == 10

    def test_elapsed_uses_injected_clock(self):
        clock = FakeClock(step=1.0)
        budget = Budget(deadline=100.0, clock=clock)
        budget.start()
        budget.checkpoint()
        assert budget.elapsed() >= 1.0

    def test_under_pressure(self):
        clock = FakeClock(step=0.0)
        budget = Budget(deadline=1.0, clock=clock)
        budget.start()
        assert not budget.under_pressure()
        clock.advance(0.95)
        assert budget.under_pressure()


class TestAmbientBudget:
    def test_stack_scoping(self):
        assert current_budget() is None
        outer = Budget(node_budget=10)
        inner = Budget(node_budget=5)
        with use_budget(outer):
            assert current_budget() is outer
            with use_budget(inner):
                assert current_budget() is inner
            assert current_budget() is outer
        assert current_budget() is None

    def test_none_is_transparent(self):
        outer = Budget()
        with use_budget(outer):
            with use_budget(None):
                assert current_budget() is outer

    def test_stack_unwinds_on_exception(self):
        budget = Budget()
        with pytest.raises(RuntimeError):
            with use_budget(budget):
                raise RuntimeError("boom")
        assert current_budget() is None
