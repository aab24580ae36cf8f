"""Fault-injection harness tests: deterministic, scoped, seed-replayable."""

import pytest

from repro.errors import InjectedFaultError
from repro.runtime import (
    Budget,
    FakeClock,
    FaultPlan,
    SkewedClock,
    active_plan,
    inject,
    maybe_fail,
)


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plan = FaultPlan(seed=seed, rates={"*": 0.5})
            return [plan.should_fail("site.a") for _ in range(50)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_rate_zero_never_fails(self):
        plan = FaultPlan(seed=0, rates={"io.load_relation": 0.0})
        assert not any(plan.should_fail("io.load_relation") for _ in range(100))

    def test_rate_one_always_fails(self):
        plan = FaultPlan(seed=0, rates={"*": 1.0})
        assert all(plan.should_fail("storage.page_graph") for _ in range(10))

    def test_specific_site_overrides_wildcard(self):
        plan = FaultPlan(seed=0, rates={"*": 1.0, "io.dump_relation": 0.0})
        assert not plan.should_fail("io.dump_relation")
        assert plan.should_fail("io.load_relation")

    def test_unlisted_site_without_wildcard_never_fails(self):
        plan = FaultPlan(seed=0, rates={"io.load_relation": 1.0})
        assert not plan.should_fail("storage.schedule")

    def test_starve_divides_caps(self):
        plan = FaultPlan(seed=0, starvation=4)
        budget = plan.starve(Budget(deadline=2.0, node_budget=100))
        assert budget.node_budget == 25
        assert budget.deadline == 0.5

    def test_starve_floors_at_one(self):
        plan = FaultPlan(seed=0, starvation=1000)
        budget = plan.starve(Budget(node_budget=3))
        assert budget.node_budget == 1

    def test_skewed_clock_only_drifts_forward(self):
        plan = FaultPlan(seed=3, clock_skew=0.5)
        clock = plan.skewed(FakeClock(step=1.0))
        assert isinstance(clock, SkewedClock)
        readings = [clock.now() for _ in range(20)]
        assert readings == sorted(readings)
        # Drift is cumulative: later readings run ahead of the inner clock.
        assert readings[-1] >= 20.0


class TestInjection:
    def test_no_active_plan_is_noop(self):
        assert active_plan() is None
        maybe_fail("io.load_relation")  # must not raise

    def test_inject_scopes_the_plan(self):
        plan = FaultPlan(seed=0, rates={"*": 1.0})
        with inject(plan):
            assert active_plan() is plan
            with pytest.raises(InjectedFaultError) as exc:
                maybe_fail("storage.page_graph")
            assert "storage.page_graph" in str(exc.value)
            assert "seed=0" in str(exc.value)
        assert active_plan() is None
        maybe_fail("storage.page_graph")

    def test_injection_sites_fire_in_io(self):
        from repro.relations.io import dump_relation, load_relation
        from repro.relations.relation import Relation

        rel = Relation("r", [1, 2, 3])
        with inject(FaultPlan(seed=0, rates={"io.dump_relation": 1.0})):
            with pytest.raises(InjectedFaultError):
                dump_relation(rel)
        text = dump_relation(rel)
        with inject(FaultPlan(seed=0, rates={"io.load_relation": 1.0})):
            with pytest.raises(InjectedFaultError):
                load_relation("r", text)
        assert list(load_relation("r", text).values) == [1, 2, 3]
