"""Tests for plan-quality observability (PR 9).

Covers the structured :class:`PlanRecord` vertical: q-error math,
serialization round-trips, golden EXPLAIN rendering, the executor's
feedback loop (actuals, misestimate events, shadow-execution regret),
calibration aggregation, and the validation helpers shared with
``repro check``.
"""

import json

import pytest

from repro import obs
from repro.engine import JoinQuery, execute, plan
from repro.engine.executor import QueryResult
from repro.joins.predicates import Band, Equality
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import planquality
from repro.obs.manifest import write_atomic
from repro.obs.planquality import (
    MISESTIMATE_THRESHOLD,
    PLAN_SCHEMA,
    SHADOW_INPUT_LIMIT,
    CandidateRecord,
    PlanRecord,
    calibration,
    percentile,
    q_error,
    validate_explain_document,
    validate_jsonl,
    validate_records,
)
from repro.relations.relation import Relation
from repro.runtime.budget import Budget


@pytest.fixture(autouse=True)
def clean_collectors():
    """Plan/event/metric logs start and end disabled and empty."""

    def _reset():
        obs.disable()
        obs.reset()

    _reset()
    yield
    _reset()


def _equality_query(n=30, offset=20):
    left = Relation("R", list(range(n)))
    right = Relation("S", list(range(offset, offset + n)))
    return JoinQuery(left, right, Equality())


# A workload whose containment-assumption estimate is badly wrong: both
# columns have 51 distinct values so the estimate is ~196, but the heavy
# value 1 appears 50 times on each side, so the actual output is 2500
# (q-error ~ 12.7, far past the misestimate threshold).
def _skewed_equality_query():
    left = Relation("R", [1] * 50 + list(range(2, 52)))
    right = Relation("S", [1] * 50 + list(range(100, 150)))
    return JoinQuery(left, right, Equality())


class TestQError:
    def test_symmetric(self):
        assert q_error(10.0, 5.0) == 2.0
        assert q_error(5.0, 10.0) == 2.0

    def test_perfect(self):
        assert q_error(7.0, 7.0) == 1.0

    def test_clamped_total(self):
        # Both sides clamp to >= 1: empty outputs never divide by zero,
        # and "estimated 0, got 0" is a perfect score.
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(0.5, 1.0) == 1.0
        assert q_error(0.0, 3.0) == 3.0


class TestPlanRecord:
    def _record(self, **overrides):
        base = dict(
            query="R(2) JOIN S(2) ON equality",
            predicate="equality",
            left="R",
            right="S",
            left_size=2,
            right_size=2,
            algorithm="hash",
            reason="small output: cheapest per probe",
            estimated_output=2.0,
            candidates=[
                CandidateRecord("sort-merge", 8.0, "sort cost not repaid"),
                CandidateRecord("hash", 6.0, "cheapest per probe", chosen=True),
            ],
        )
        base.update(overrides)
        return PlanRecord(**base)

    def test_q_error_none_until_executed(self):
        record = self._record()
        assert record.q_error is None
        assert not record.executed
        record.actual_output = 4
        assert record.executed
        assert record.q_error == 2.0

    def test_deadline_pressure_skips_q_error(self):
        # estimated_output = -1 means "estimation skipped" — even an
        # executed record has no q-error to report.
        record = self._record(estimated_output=-1.0, actual_output=4)
        assert record.q_error is None

    def test_misestimate_threshold(self):
        record = self._record(actual_output=8)  # q-error 4.0, not > 4.0
        assert not record.misestimate()
        record.actual_output = 9
        assert record.misestimate()
        assert record.misestimate(threshold=10.0) is False

    def test_choice_correct_requires_shadow(self):
        record = self._record()
        assert record.choice_correct is None
        record.shadow_checked = True
        record.regret = 0
        assert record.choice_correct is True
        record.regret = 3
        assert record.choice_correct is False

    def test_round_trip(self):
        record = self._record(
            actual_output=4,
            shadow_checked=True,
            best_algorithm="hash",
            regret=0,
        )
        record.candidates[0].shadow_cost = 9
        record.candidates[1].shadow_cost = 7
        data = record.as_dict()
        assert data["schema"] == PLAN_SCHEMA
        assert data["q_error"] == 2.0
        assert data["choice_correct"] is True
        clone = PlanRecord.from_dict(data)
        assert clone == record
        assert clone.as_dict() == data

    def test_as_dict_validates(self):
        assert validate_records([self._record().as_dict()]) == []


class TestGoldenExplain:
    """The classic EXPLAIN strings render *from* the structured record,
    so the text and JSON surfaces can never disagree."""

    def test_plan_explain_is_record_line(self):
        the_plan = plan(_equality_query())
        assert the_plan.record is not None
        assert the_plan.explain() == the_plan.record.explain_line()

    def test_explain_golden_format(self):
        query = _equality_query()
        the_plan = plan(query)
        expected = (
            f"{query.describe()} -> {the_plan.algorithm_name} "
            f"(est. m = {the_plan.estimated_output:.0f}; {the_plan.reason})"
        )
        assert the_plan.explain() == expected

    def test_explain_analyze_extends_explain(self):
        result = execute(_equality_query())
        text = result.explain_analyze()
        assert text.startswith(result.plan.explain())
        assert f"actual m = {result.output_size}" in text
        assert "pebbling pi = " in text

    def test_explain_analyze_without_trace(self):
        result = execute(_equality_query(), with_trace=False)
        text = result.explain_analyze()
        assert "pebbling" not in text
        assert text.endswith(f"actual m = {result.output_size}")

    def test_render_lists_every_candidate(self):
        result = execute(_equality_query(), shadow=True)
        record = result.plan.record
        text = record.render()
        lines = text.splitlines()
        assert lines[0] == record.explain_line()
        for candidate in record.candidates:
            assert any(candidate.algorithm in line for line in lines[1:])
        assert any(line.startswith("  * ") for line in lines)
        assert f"actual m = {record.actual_output}" in text
        assert "a-posteriori best:" in text


class TestFeedbackLoop:
    def test_actuals_close_the_loop(self):
        result = execute(_equality_query())
        record = result.plan.record
        assert record.actual_output == result.output_size
        assert record.q_error is not None

    def test_misestimate_event_and_counter(self):
        obs.enable()
        result = execute(_skewed_equality_query())
        record = result.plan.record
        assert record.q_error > MISESTIMATE_THRESHOLD
        emitted = [
            e
            for e in obs_events.events()
            if e.name == obs_events.EVENT_PLANNER_MISESTIMATE
        ]
        assert len(emitted) == 1
        attrs = emitted[0].attrs
        assert attrs["predicate"] == "equality"
        assert attrs["actual_output"] == result.output_size
        assert attrs["q_error"] == round(record.q_error, 4)
        assert obs_metrics.counter("planner.misestimates") == 1

    def test_calibrated_plan_emits_no_misestimate(self):
        obs.enable()
        execute(_equality_query())
        assert all(
            e.name != obs_events.EVENT_PLANNER_MISESTIMATE
            for e in obs_events.events()
        )

    def test_planner_plan_event(self):
        obs.enable()
        plan(_equality_query())
        emitted = [
            e
            for e in obs_events.events()
            if e.name == obs_events.EVENT_PLANNER_PLAN
        ]
        assert len(emitted) == 1
        assert emitted[0].attrs["algorithm"] == "hash"
        assert emitted[0].attrs["candidates"] == 2


class TestShadowExecution:
    def test_shadow_scores_every_candidate(self):
        result = execute(_equality_query(), shadow=True)
        record = result.plan.record
        assert record.shadow_checked
        assert all(c.shadow_cost is not None for c in record.candidates)
        assert record.best_algorithm is not None
        assert record.regret >= 0
        assert record.choice_correct == (record.regret == 0)

    def test_ties_go_to_the_planner(self):
        # Disjoint ranges: every algorithm emits zero pairs, so all
        # shadow costs tie — the chosen plan must score regret 0.
        result = execute(_equality_query(n=10, offset=100), shadow=True)
        record = result.plan.record
        assert record.regret == 0
        assert record.best_algorithm == record.algorithm

    def test_shadow_skipped_beyond_input_limit(self):
        n = SHADOW_INPUT_LIMIT // 2 + 1
        left = Relation("R", list(range(n)))
        right = Relation("S", list(range(n)))
        result = execute(JoinQuery(left, right, Equality()), shadow=True)
        assert not result.plan.record.shadow_checked

    def test_shadow_skipped_with_single_candidate(self):
        left = Relation("R", [1.0, 2.0])
        right = Relation("S", [1.2, 5.0])
        result = execute(JoinQuery(left, right, Band(0.5)), shadow=True)
        record = result.plan.record
        assert record.algorithm == "block-NL"
        assert not record.shadow_checked

    def test_shadow_skipped_under_deadline_pressure(self):
        budget = Budget(deadline=0.0)
        budget.start()
        result = execute(_equality_query(), budget=budget, shadow=True)
        record = result.plan.record
        assert record.deadline_pressure
        assert not record.shadow_checked


class TestPlanLog:
    def test_off_by_default_but_record_attached(self):
        # Behaviour-neutrality: the log stays empty while disabled, yet
        # every plan still carries its structured record.
        the_plan = plan(_equality_query())
        assert the_plan.record is not None
        assert planquality.records() == []

    def test_enabled_log_collects_and_serializes(self, tmp_path):
        obs.enable()
        execute(_equality_query(), shadow=True)
        records = planquality.records()
        assert len(records) == 1
        assert records[0].actual_output is not None  # completed in place
        assert validate_jsonl(planquality.to_jsonl()) == []
        target = write_atomic(tmp_path / "plans.jsonl", planquality.to_jsonl())
        assert validate_jsonl(target.read_text()) == []

    def test_reset_drops_records(self):
        obs.enable()
        plan(_equality_query())
        obs.reset()
        assert planquality.records() == []
        assert obs.is_enabled()


class TestCalibration:
    def _executed_record(self, predicate, estimated, actual, regret=None):
        record = PlanRecord(
            query="q",
            predicate=predicate,
            left="R",
            right="S",
            left_size=1,
            right_size=1,
            algorithm="hash",
            reason="r",
            estimated_output=float(estimated),
            candidates=[CandidateRecord("hash", 1.0, "r", chosen=True)],
            actual_output=actual,
        )
        if regret is not None:
            record.shadow_checked = True
            record.best_algorithm = "hash" if regret == 0 else "sort-merge"
            record.regret = regret
        return record

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.90) == 4.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_rows_per_predicate(self):
        records = [
            self._executed_record("equality", 10, 10, regret=0),
            self._executed_record("equality", 10, 20, regret=5),
            self._executed_record("equality", 10, 100),  # q-error 10
            self._executed_record("spatial-overlap", 3, 3),
        ]
        rows = calibration(records)
        assert [row["predicate"] for row in rows] == [
            "equality",
            "spatial-overlap",
        ]
        eq = rows[0]
        assert eq["plans"] == 3
        assert eq["executed"] == 3
        assert eq["q_p50"] == 2.0
        assert eq["q_p90"] == 10.0
        assert eq["q_max"] == 10.0
        assert eq["misestimates"] == 1
        assert eq["shadow_checked"] == 2
        assert eq["choice_correct"] == 1
        assert eq["choice_accuracy"] == 0.5

    def test_unexecuted_rows_have_null_metrics(self):
        record = self._executed_record("equality", 10, 10)
        record.actual_output = None
        row = calibration([record])[0]
        assert row["executed"] == 0
        assert row["q_p50"] is None
        assert row["q_p90"] is None
        assert row["choice_accuracy"] is None

    def test_accepts_raw_dicts(self):
        record = self._executed_record("equality", 10, 20)
        assert calibration([record.as_dict()]) == calibration([record])


class TestValidation:
    def _valid(self):
        return plan(_equality_query()).record.as_dict()

    def test_valid_record_passes(self):
        assert validate_records([self._valid()]) == []

    def test_missing_field(self):
        data = self._valid()
        del data["algorithm"]
        problems = validate_records([data])
        assert any("missing field 'algorithm'" in p for p in problems)

    def test_wrong_schema(self):
        data = self._valid()
        data["schema"] = "repro-plan/v0"
        assert any("schema" in p for p in validate_records([data]))

    def test_exactly_one_chosen(self):
        data = self._valid()
        for candidate in data["candidates"]:
            candidate["chosen"] = True
        problems = validate_records([data])
        assert any("exactly one candidate" in p for p in problems)

    def test_chosen_matches_algorithm(self):
        data = self._valid()
        data["algorithm"] = "sort-merge"
        problems = validate_records([data])
        assert any("does not match record algorithm" in p for p in problems)

    def test_q_error_below_one_rejected(self):
        data = self._valid()
        data["actual_output"] = 5
        data["q_error"] = 0.5
        assert any("q_error" in p for p in validate_records([data]))

    def test_shadow_consistency(self):
        data = self._valid()
        data["shadow_checked"] = True
        problems = validate_records([data])
        assert any("best_algorithm" in p for p in problems)
        assert any("regret" in p for p in problems)

    def test_jsonl_parse_errors_reported(self):
        text = json.dumps(self._valid()) + "\nnot json\n"
        problems = validate_jsonl(text, context="f")
        assert any("unparseable JSON" in p for p in problems)

    def test_explain_document(self):
        document = {"schema": PLAN_SCHEMA, "records": [self._valid()]}
        assert validate_explain_document(document) == []
        assert validate_explain_document([]) == ["explain: must be an object"]
        assert any(
            "'schema'" in p
            for p in validate_explain_document({"records": []})
        )
        assert any(
            "'records'" in p
            for p in validate_explain_document({"schema": PLAN_SCHEMA})
        )


class TestQueryResultShape:
    def test_result_carries_plan_record(self):
        result = execute(_equality_query())
        assert isinstance(result, QueryResult)
        assert result.plan.record is result.plan.record  # stable handle
        assert result.plan.record.actual_output == result.output_size
