"""The plan-quality gate (``repro check``): schema validation of
plans.jsonl/explain documents, baseline round-trips, and the regression
verdicts — including the flipped bad direction for choice accuracy —
with the perf gate's rule (:mod:`repro.obs.verdict`)."""

import json
from pathlib import Path

from repro.cli import main
from repro.obs.planquality import (
    PLAN_BASELINE_SCHEMA,
    PLAN_SCHEMA,
    CandidateRecord,
    PlanRecord,
)

ROOT = Path(__file__).resolve().parents[2]


def _check(*args):
    return main(["check", *map(str, args)])


def _record(estimated, actual, regret=0, predicate="equality"):
    return PlanRecord(
        query="q",
        predicate=predicate,
        left="R",
        right="S",
        left_size=2,
        right_size=2,
        algorithm="hash",
        reason="r",
        estimated_output=float(estimated),
        candidates=[CandidateRecord("hash", 1.0, "r", chosen=True)],
        actual_output=actual,
        shadow_checked=True,
        best_algorithm="hash" if regret == 0 else "sort-merge",
        regret=regret,
    )


def _jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in records)
    )
    return path


class TestValidateMode:
    def test_jsonl_and_document_pass(self, tmp_path):
        plans = _jsonl(tmp_path / "plans.jsonl", [_record(10, 10)])
        explain = tmp_path / "explain.json"
        explain.write_text(
            json.dumps(
                {"schema": PLAN_SCHEMA, "records": [_record(10, 10).as_dict()]}
            )
        )
        assert _check(plans, explain) == 0

    def test_defective_record_fails(self, tmp_path, capsys):
        data = _record(10, 10).as_dict()
        del data["algorithm"]
        plans = tmp_path / "plans.jsonl"
        plans.write_text(json.dumps(data) + "\n")
        assert _check(plans) == 1
        assert "missing field" in capsys.readouterr().err

    def test_committed_baseline_is_current_schema(self):
        baseline = json.loads(
            (ROOT / "benchmarks" / "plan_baseline.json").read_text()
        )
        assert baseline["schema"] == PLAN_BASELINE_SCHEMA
        assert baseline["predicates"]


class TestGateMode:
    def test_same_records_pass_round_trip(self, tmp_path, capsys):
        plans = _jsonl(
            tmp_path / "plans.jsonl", [_record(10, 10), _record(4, 8)]
        )
        baseline = tmp_path / "baseline.json"
        assert _check("--write-baseline", baseline, plans) == 0
        assert _check("--baseline", baseline, plans) == 0
        out = capsys.readouterr().out
        assert "plan quality within tolerance" in out
        assert "1.00x" in out and "ok" in out

    def test_doctored_records_regress(self, tmp_path, capsys):
        good = _jsonl(tmp_path / "good.jsonl", [_record(10, 10)])
        baseline = tmp_path / "baseline.json"
        assert _check("--write-baseline", baseline, good) == 0
        # Doctored: the estimate is off 20x, q_p90 explodes.
        bad = _jsonl(tmp_path / "bad.jsonl", [_record(10, 200)])
        assert _check("--baseline", baseline, bad) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression(s)" in captured.err

    def test_accuracy_direction_flips(self, tmp_path, capsys):
        good = _jsonl(
            tmp_path / "good.jsonl", [_record(10, 10), _record(10, 10)]
        )
        baseline = tmp_path / "baseline.json"
        assert _check("--write-baseline", baseline, good) == 0
        # Same perfect q-error, but half the shadow choices now wrong:
        # a *falling* accuracy is the regression.
        worse = _jsonl(
            tmp_path / "worse.jsonl", [_record(10, 10), _record(10, 10, regret=3)]
        )
        assert _check("--baseline", baseline, worse) == 1
        table = capsys.readouterr().out
        row = next(
            line for line in table.splitlines()
            if "choice_accuracy" in line and "REGRESSION" in line
        )
        assert "0.50x" in row

    def test_missing_predicate_counts_as_regression(self, tmp_path, capsys):
        both = _jsonl(
            tmp_path / "both.jsonl",
            [_record(10, 10), _record(3, 3, predicate="spatial-overlap")],
        )
        baseline = tmp_path / "baseline.json"
        assert _check("--write-baseline", baseline, both) == 0
        only_one = _jsonl(tmp_path / "one.jsonl", [_record(10, 10)])
        assert _check("--baseline", baseline, only_one) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_tolerance_comes_from_baseline(self, tmp_path, capsys):
        good = _jsonl(tmp_path / "good.jsonl", [_record(10, 10)])
        baseline = tmp_path / "baseline.json"
        assert _check("--write-baseline", baseline, good) == 0
        written = json.loads(baseline.read_text())
        assert written["tolerance"] == 0.25
        # q-error quadruples — past the default tolerance, but within a
        # loose tolerance stored in the baseline file.
        drift = _jsonl(tmp_path / "drift.jsonl", [_record(10, 40)])
        assert _check("--baseline", baseline, drift) == 1
        baseline.write_text(json.dumps(dict(written, tolerance=9.0)))
        capsys.readouterr()
        assert _check("--baseline", baseline, drift) == 0
        assert "within tolerance (900%)" in capsys.readouterr().out

    def test_unreadable_input_exits_two(self, tmp_path):
        good = _jsonl(tmp_path / "good.jsonl", [_record(10, 10)])
        baseline = tmp_path / "baseline.json"
        assert _check("--write-baseline", baseline, good) == 0
        assert _check("--baseline", baseline, tmp_path / "absent.jsonl") == 2
        assert _check("--baseline", tmp_path / "absent.json", good) == 2
