"""``repro check``: one validator for every artifact kind, picked from the
file's content or suffix, with the gate's exit codes (0 ok, 1 problems
or regressions, 2 unreadable input, unknown kind, or mode mismatch)."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import run_bench
from repro.obs.planquality import PLAN_SCHEMA
from repro.obs.registry import RunRegistry
from repro.obs.report_html import write_report


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One small bench run's artifacts, plus an explain document and an
    HTML report over the run."""
    root = tmp_path_factory.mktemp("check")
    _, run_dir, bench_path = run_bench(
        smoke=True,
        names=["engine-equijoin"],
        runs_dir=root / "runs",
        out_dir=root,
    )
    plans = run_dir / "plans.jsonl"
    explain = root / "explain.json"
    explain.write_text(
        json.dumps(
            {
                "schema": PLAN_SCHEMA,
                "records": [
                    json.loads(line) for line in plans.read_text().splitlines()
                ],
            }
        )
    )
    with RunRegistry() as registry:
        registry.rebuild(root / "runs")
        report = write_report(registry, root / "report.html")
    return {
        "bench": bench_path,
        "events": run_dir / "events.jsonl",
        "trace": run_dir / "trace.json",
        "plans": plans,
        "explain": explain,
        "report": report,
    }


def _check(*args):
    return main(["check", *map(str, args)])


def _copy(source, target):
    target.write_text(source.read_text())
    return target


class TestValidate:
    @pytest.mark.parametrize(
        "kind", ["bench", "events", "trace", "plans", "explain", "report"]
    )
    def test_valid_artifact_of_each_kind(self, artifacts, kind, capsys):
        assert _check(artifacts[kind]) == 0
        assert f"ok ({kind})" in capsys.readouterr().out

    def test_all_kinds_at_once(self, artifacts):
        assert _check(*artifacts.values()) == 0

    def test_kind_comes_from_content_not_name(self, artifacts, tmp_path):
        assert _check(_copy(artifacts["events"], tmp_path / "log.txt")) == 0
        assert _check(_copy(artifacts["plans"], tmp_path / "p.jsonl")) == 0

    def test_corrupted_bench_fails(self, artifacts, tmp_path, capsys):
        payload = json.loads(artifacts["bench"].read_text())
        payload["scenarios"][0]["repeats"] = 0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(payload))
        assert _check(bad) == 1
        assert "repeats must be >= 1" in capsys.readouterr().err

    def test_corrupted_events_fail(self, artifacts, tmp_path, capsys):
        lines = artifacts["events"].read_text().splitlines()
        bad = tmp_path / "events.jsonl"
        bad.write_text("\n".join(lines + [lines[0]]) + "\n")  # seq repeats
        assert _check(bad) == 1
        assert "strictly ordered" in capsys.readouterr().err

    def test_corrupted_trace_fails(self, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x", "ph": "Q"}]}))
        assert _check(bad) == 1

    def test_corrupted_plans_fail(self, artifacts, tmp_path):
        bad = _copy(artifacts["plans"], tmp_path / "plans.jsonl")
        with bad.open("a") as handle:
            handle.write("{not json\n")
        assert _check(bad) == 1

    def test_broken_report_link_fails(self, artifacts, tmp_path, capsys):
        bad = tmp_path / "report.html"
        bad.write_text(
            artifacts["report"].read_text().replace(
                "</body>", '<a href="missing.json">x</a></body>'
            )
        )
        assert _check(bad) == 1
        assert "broken link 'missing.json'" in capsys.readouterr().err

    def test_unreadable_file_exits_two(self, artifacts, tmp_path):
        assert _check(tmp_path / "absent.json") == 2
        assert _check(artifacts["bench"], tmp_path / "absent.json") == 2

    @pytest.mark.parametrize(
        "content", ['{"hello": "world"}', '"traceEvents"', "42", "{not json", ""]
    )
    def test_unknown_kind_exits_two(self, tmp_path, capsys, content):
        unknown = tmp_path / "notes.json"
        unknown.write_text(content)
        assert _check(unknown) == 2
        assert "unknown artifact kind" in capsys.readouterr().err

    def test_truncated_document_is_not_misread_as_jsonl(self, artifacts, tmp_path):
        payload = json.loads(artifacts["bench"].read_text())
        truncated = tmp_path / "BENCH_cut.json"
        truncated.write_text(json.dumps(payload) + "\n{")
        assert _check(truncated) == 2


class TestGate:
    def test_self_comparison_passes(self, artifacts):
        assert _check("--baseline", artifacts["bench"], artifacts["bench"]) == 0

    def test_regression_exits_one(self, artifacts, tmp_path):
        payload = json.loads(artifacts["bench"].read_text())
        for entry in payload["scenarios"]:
            entry["wall_ns"]["best"] *= 10
        slow = tmp_path / "BENCH_slow.json"
        slow.write_text(json.dumps(payload))
        assert _check("--baseline", artifacts["bench"], slow) == 1

    def test_mode_mismatch_exits_two(self, artifacts, tmp_path, capsys):
        payload = json.loads(artifacts["bench"].read_text())
        full = tmp_path / "BENCH_full.json"
        full.write_text(json.dumps(dict(payload, mode="full")))
        assert _check("--baseline", artifacts["bench"], full) == 2
        assert "mode mismatch" in capsys.readouterr().err

    def test_plan_round_trip(self, artifacts, tmp_path):
        baseline = tmp_path / "plan_baseline.json"
        assert _check("--write-baseline", baseline, artifacts["plans"]) == 0
        assert _check("--baseline", baseline, artifacts["explain"]) == 0
        assert _check("--baseline", baseline, artifacts["plans"]) == 0

    def test_baseline_kind_must_match_files(self, artifacts, tmp_path):
        baseline = tmp_path / "plan_baseline.json"
        assert _check("--write-baseline", baseline, artifacts["plans"]) == 0
        assert _check("--baseline", baseline, artifacts["bench"]) == 2
        assert _check("--baseline", artifacts["bench"], artifacts["plans"]) == 2
        assert _check("--write-baseline", baseline, artifacts["bench"]) == 2
        baseline.write_text(json.dumps({"schema": "repro-plan-baseline/v1"}))
        assert _check("--baseline", baseline, artifacts["plans"]) == 2
        baseline.write_text("[1, 2]")
        assert _check("--baseline", baseline, artifacts["plans"]) == 2

    def test_invalid_candidate_exits_two(self, artifacts, tmp_path):
        payload = json.loads(artifacts["bench"].read_text())
        payload["scenarios"][0]["repeats"] = 0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(payload))
        assert _check("--baseline", artifacts["bench"], bad) == 2

    def test_baseline_and_write_baseline_are_exclusive(self, artifacts):
        with pytest.raises(SystemExit) as exit_info:
            _check("--baseline", "a", "--write-baseline", "b", artifacts["plans"])
        assert exit_info.value.code == 2
