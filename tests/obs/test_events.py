"""The structured event log: ordering, correlation, validation, and the
emission sites wired into the runtime (budget trips, ladder degradations,
fault injections, solver phases)."""

import json

import pytest

from repro import obs
from repro.errors import BudgetExhaustedError, InjectedFaultError
from repro.obs import events, trace
from repro.obs.manifest import write_atomic
from repro.runtime import Budget, FaultPlan, inject, maybe_fail
from repro.runtime.clock import FakeClock


class TestEventLog:
    def test_disabled_log_records_nothing(self):
        events.emit(events.EVENT_SOLVER_PHASE, phase="solve")
        assert events.events() == []

    def test_seq_is_strictly_increasing_and_zero_based(self):
        obs.enable()
        for _ in range(5):
            events.emit(events.EVENT_SOLVER_PHASE, phase="solve")
        assert [e.seq for e in events.events()] == [0, 1, 2, 3, 4]

    def test_run_id_binding(self):
        obs.enable()
        events.emit(events.EVENT_RUN_START)
        events.set_run_id("run-x")
        events.emit(events.EVENT_SOLVER_PHASE, phase="solve")
        recorded = events.events()
        assert recorded[0].run_id is None
        assert recorded[1].run_id == "run-x"

    def test_span_correlation_uses_innermost_open_span(self):
        obs.enable()
        events.emit(events.EVENT_RUN_START)
        with trace.span("outer"):
            with trace.span("inner") as inner:
                events.emit(events.EVENT_SOLVER_PHASE, phase="solve")
        recorded = events.events()
        assert recorded[0].span_id is None
        assert recorded[1].span_id == inner.index

    def test_reset_drops_events_and_run_binding(self):
        obs.enable()
        events.set_run_id("run-x")
        events.emit(events.EVENT_RUN_START)
        obs.reset()
        assert events.events() == []
        events.emit(events.EVENT_RUN_END)
        assert events.events()[0].run_id is None
        assert events.events()[0].seq == 0

    def test_jsonl_round_trip_validates_clean(self):
        obs.enable()
        events.set_run_id("run-x")
        events.emit(events.EVENT_BUDGET_TRIPPED, reason="deadline")
        events.emit(events.EVENT_LADDER_DEGRADED, src="exact", dst="greedy")
        text = events.to_jsonl()
        assert events.validate_jsonl(text) == []
        parsed = [json.loads(line) for line in text.splitlines()]
        assert [p["name"] for p in parsed] == [
            "budget.tripped",
            "ladder.degraded",
        ]

    def test_write_events_leaves_no_temp_file(self, tmp_path):
        obs.enable()
        events.emit(events.EVENT_RUN_START)
        target = write_atomic(tmp_path / "events.jsonl", events.to_jsonl())
        assert target.read_text() == events.to_jsonl()
        assert list(tmp_path.iterdir()) == [target]


class TestValidation:
    def _record(self, **overrides):
        base = {
            "seq": 0,
            "name": "run.start",
            "ts_unix": 1000.0,
            "run_id": "run-x",
            "span_id": None,
            "attrs": {},
        }
        base.update(overrides)
        return base

    def test_valid_records_pass(self):
        records = [self._record(), self._record(seq=1, name="run.end")]
        assert events.validate_events(records) == []

    def test_non_increasing_seq_flagged(self):
        records = [self._record(seq=1), self._record(seq=1, name="run.end")]
        problems = events.validate_events(records)
        assert any("not greater than previous" in p for p in problems)

    def test_unknown_name_flagged(self):
        problems = events.validate_events([self._record(name="nope.nope")])
        assert any("unknown event name" in p for p in problems)

    def test_missing_field_flagged(self):
        record = self._record()
        del record["span_id"]
        problems = events.validate_events([record])
        assert any("missing field 'span_id'" in p for p in problems)

    def test_bad_types_flagged(self):
        problems = events.validate_events(
            [self._record(seq=True, ts_unix="later", attrs=[])]
        )
        assert len(problems) >= 3

    def test_unparseable_jsonl_line_flagged(self):
        problems = events.validate_jsonl('{"seq": 0\nnot json\n')
        assert any("unparseable JSON" in p for p in problems)


class TestRuntimeEmissionSites:
    def test_budget_trip_emits_one_event(self):
        obs.enable()
        budget = Budget(node_budget=1)
        assert not budget.poll()
        assert budget.poll()
        assert budget.poll()  # sticky: further polls must not re-emit
        recorded = events.events()
        assert [e.name for e in recorded] == [events.EVENT_BUDGET_TRIPPED]
        assert recorded[0].attrs["reason"] == "nodes"
        assert recorded[0].attrs["nodes_charged"] == 2

    def test_deadline_trip_event_carries_elapsed(self):
        obs.enable()
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        budget.start()
        clock.advance(2.0)
        with pytest.raises(BudgetExhaustedError):
            budget.checkpoint()
        (event,) = events.events()
        assert event.attrs["reason"] == "deadline"
        assert event.attrs["elapsed_seconds"] >= 1.0

    def test_node_budget_emits_once_across_repeated_raises(self):
        obs.enable()
        budget = Budget(node_budget=1)
        with pytest.raises(BudgetExhaustedError):
            budget.checkpoint(5)
        with pytest.raises(BudgetExhaustedError):
            budget.checkpoint(5)
        names = [e.name for e in events.events()]
        assert names == [events.EVENT_BUDGET_TRIPPED]

    def test_fault_injection_emits_correlated_event(self):
        obs.enable()
        events.set_run_id("chaos-run")
        plan = FaultPlan(seed=7, rates={"storage.read": 1.0})
        with inject(plan):
            with pytest.raises(InjectedFaultError):
                maybe_fail("storage.read")
        (event,) = events.events()
        assert event.name == events.EVENT_FAULT_INJECTED
        assert event.run_id == "chaos-run"
        assert event.attrs["site"] == "storage.read"
        assert event.attrs["seed"] == 7
        assert event.attrs["call"] == 1

    def test_fault_events_stay_ordered_under_repeated_injection(self):
        obs.enable()
        plan = FaultPlan(seed=0, rates={"*": 1.0})
        with inject(plan):
            for _ in range(4):
                with pytest.raises(InjectedFaultError):
                    maybe_fail("relations.io.load")
        recorded = events.events()
        assert [e.seq for e in recorded] == [0, 1, 2, 3]
        assert [e.attrs["call"] for e in recorded] == [1, 2, 3, 4]
        assert events.validate_jsonl(events.to_jsonl()) == []

    def test_ladder_degradation_emits_event(self):
        from repro.core.solvers.registry import solve
        from repro.graphs.generators import random_connected_bipartite

        obs.enable()
        graph = random_connected_bipartite(4, 4, 10, seed=0)
        budget = Budget(node_budget=1)
        solve(graph, budget=budget)
        degradations = [
            e for e in events.events() if e.name == events.EVENT_LADDER_DEGRADED
        ]
        assert degradations, "budget-starved solve must emit ladder.degraded"
        assert degradations[0].attrs["src"] == "exact"

    def test_solver_phase_event_correlates_to_solve_span(self):
        from repro.core.solvers.registry import solve
        from repro.graphs.generators import random_connected_bipartite

        obs.enable()
        solve(random_connected_bipartite(3, 3, 6, seed=0), "exact")
        phases = [
            e for e in events.events() if e.name == events.EVENT_SOLVER_PHASE
        ]
        assert phases and all(e.span_id is not None for e in phases)
        span_names = {s.index: s.name for s in trace.spans()}
        assert span_names[phases[0].span_id] == "solver.solve"

    def test_no_events_recorded_while_disabled(self):
        from repro.core.solvers.registry import solve
        from repro.graphs.generators import random_connected_bipartite

        solve(random_connected_bipartite(3, 3, 6, seed=0), "exact")
        budget = Budget(node_budget=1)
        budget.poll()
        budget.poll()
        assert events.events() == []
