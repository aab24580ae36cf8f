"""The run registry: indexing run directories into SQLite, the
rebuild-from-artifacts round-trip, partial-directory tolerance, and the
trend/compare analytics sharing the perf gate's thresholds."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.registry import (
    DEFAULT_TOLERANCE,
    RunRegistry,
    open_registry,
    parse_run_dir,
)
from repro.obs.verdict import ModeMismatch

FIXTURES = Path(__file__).parent / "fixtures" / "runs"


@pytest.fixture()
def registry():
    with RunRegistry() as reg:
        reg.rebuild(FIXTURES)
        yield reg


class TestParseRunDir:
    def test_complete_run_parses_ok(self):
        run = parse_run_dir(FIXTURES / "run-a-baseline")
        assert run.run_id == "run-a-baseline"
        assert run.status == "ok"
        assert run.git_sha == "aaaa111fixture"
        assert run.seed == 1
        assert run.mode == "smoke"
        assert run.problems == []
        assert {s["scenario"] for s in run.scenarios} == {"alpha", "beta"}
        assert "events.jsonl" in run.artifacts

    def test_failed_scenario_marks_run_failed(self):
        run = parse_run_dir(FIXTURES / "run-c-regressed")
        assert run.status == "failed"
        by_name = {s["scenario"]: s for s in run.scenarios}
        assert by_name["beta"]["status"] == "failed"
        assert by_name["beta"]["best_ns"] is None

    def test_truncated_manifest_indexes_as_partial(self):
        run = parse_run_dir(FIXTURES / "run-d-partial")
        assert run.status == "partial"
        assert run.run_id == "run-d-partial"  # falls back to the dir name
        assert any("manifest.json" in p for p in run.problems)
        # scenarios recovered from tables.json (ms -> ns)
        (alpha,) = run.scenarios
        assert alpha["scenario"] == "alpha"
        assert alpha["best_ns"] == pytest.approx(12.5e6)

    def test_empty_directory_indexes_without_crashing(self, tmp_path):
        empty = tmp_path / "run-empty"
        empty.mkdir()
        run = parse_run_dir(empty)
        assert run.status == "partial"
        assert run.scenarios == []
        assert "manifest.json: missing" in run.problems

    def test_metrics_flattened(self):
        run = parse_run_dir(FIXTURES / "run-a-baseline")
        rows = {(kind, name): value for kind, name, value in run.metrics}
        assert rows[("counter", "executor.queries")] == 1
        assert rows[("gauge", "planner.estimated_selectivity")] == 0.25
        assert rows[("histogram", "solver.wall_ms.p90")] == 2.0


class TestRoundTrip:
    def test_rebuild_from_scratch_equals_original(self, registry):
        with RunRegistry() as fresh:
            fresh.rebuild(FIXTURES)
            assert fresh.dump() == registry.dump()

    def test_dump_is_json_serializable_and_deterministic(self, registry):
        first = json.dumps(registry.dump(), sort_keys=True)
        second = json.dumps(registry.dump(), sort_keys=True)
        assert first == second

    def test_reindexing_one_run_is_idempotent(self, registry):
        before = registry.dump()
        registry.index_run(FIXTURES / "run-b-steady")
        assert registry.dump() == before

    def test_persistent_db_survives_reopen_without_refresh(self, tmp_path):
        runs_dir = tmp_path / "runs"
        shutil.copytree(FIXTURES, runs_dir)
        with open_registry(runs_dir) as reg:
            indexed = reg.dump()
        assert (runs_dir / "registry.db").is_file()
        with open_registry(runs_dir, refresh=False) as reopened:
            assert reopened.dump() == indexed

    def test_deleting_db_loses_nothing(self, tmp_path):
        runs_dir = tmp_path / "runs"
        shutil.copytree(FIXTURES, runs_dir)
        with open_registry(runs_dir) as reg:
            before = reg.dump()
        (runs_dir / "registry.db").unlink()
        with open_registry(runs_dir) as reg:
            assert reg.dump() == before

    def test_registry_db_file_not_indexed_as_run(self, tmp_path):
        runs_dir = tmp_path / "runs"
        shutil.copytree(FIXTURES, runs_dir)
        with open_registry(runs_dir) as reg:  # creates runs/registry.db
            pass
        with open_registry(runs_dir) as reg:
            ids = [r["run_id"] for r in reg.runs()]
        assert "registry.db" not in ids
        assert len(ids) == 4


class TestQueries:
    def test_runs_ordered_by_creation_time(self, registry):
        ids = [r["run_id"] for r in registry.runs()]
        assert ids[:3] == ["run-a-baseline", "run-b-steady", "run-c-regressed"]
        assert ids[3] == "run-d-partial"  # no created_unix sorts last

    def test_missing_runs_dir_yields_empty_index(self, tmp_path):
        with RunRegistry() as reg:
            assert reg.rebuild(tmp_path / "nope") == []
            assert reg.runs() == []

    def test_run_lookup(self, registry):
        assert registry.run("run-b-steady")["seed"] == 2
        assert registry.run("no-such-run") is None

    def test_scenario_names_are_global(self, registry):
        assert registry.scenario_names() == ["alpha", "beta"]

    def test_series_keeps_gaps_for_failed_points(self, registry):
        points = registry.series("beta")
        assert [p["value_ns"] for p in points] == [5_000_000, 5_200_000, None]

    def test_series_rejects_unknown_metric(self, registry):
        with pytest.raises(ValueError):
            registry.series("alpha", metric="median_ns")


class TestAnalytics:
    def test_trend_flags_regression_with_gate_tolerance(self, registry):
        points = registry.trend("alpha", tolerance=DEFAULT_TOLERANCE)
        by_run = {p["run_id"]: p["verdict"] for p in points}
        assert by_run["run-a-baseline"] == "baseline"
        assert by_run["run-b-steady"] == "ok"  # 1.1x, inside 25%
        assert by_run["run-c-regressed"] == "REGRESSION"  # 1.82x
        assert by_run["run-d-partial"] == "faster"  # 12.5ms vs 20ms: recovered

    def test_trend_compares_against_previous_ok_point(self, registry):
        points = registry.trend("beta")
        verdicts = [p["verdict"] for p in points]
        assert verdicts == ["baseline", "ok", "FAILED"]

    def test_tight_tolerance_flags_small_slowdown(self, registry):
        points = registry.trend("alpha", tolerance=0.05)
        by_run = {p["run_id"]: p["verdict"] for p in points}
        assert by_run["run-b-steady"] == "REGRESSION"

    def test_compare_verdict_vocabulary(self, registry):
        rows = registry.compare("run-a-baseline", "run-c-regressed")
        by_name = {r["scenario"]: r["verdict"] for r in rows}
        assert by_name == {"alpha": "REGRESSION", "beta": "FAILED"}

    def test_compare_flags_missing_coverage(self, registry):
        rows = registry.compare("run-a-baseline", "run-d-partial")
        by_name = {r["scenario"]: r["verdict"] for r in rows}
        assert by_name["beta"] == "MISSING"

    def test_compare_faster(self, registry):
        rows = registry.compare("run-c-regressed", "run-a-baseline")
        by_name = {r["scenario"]: r["verdict"] for r in rows}
        assert by_name["alpha"] == "faster"


def _bench_run(runs_dir, name, created, mode, best_ns):
    """A run directory holding one ok ``alpha`` scenario of ``mode``."""
    run_dir = runs_dir / name
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(
        json.dumps(
            {
                "run_id": name,
                "created_unix": created,
                "git_sha": f"{name}sha",
                "extra": {"failed": [], "mode": mode},
            }
        )
    )
    (run_dir / "bench.json").write_text(
        json.dumps(
            {
                "mode": mode,
                "scenarios": [
                    {"name": "alpha", "status": "ok", "wall_ns": {"best": best_ns}}
                ],
            }
        )
    )
    return run_dir


@pytest.fixture()
def mixed_modes(tmp_path):
    """Smoke runs at ~1 ms and full runs at ~100 ms, interleaved."""
    runs = tmp_path / "runs"
    _bench_run(runs, "s1", 1000.0, "smoke", 1_000_000)
    _bench_run(runs, "f1", 2000.0, "full", 100_000_000)
    _bench_run(runs, "s2", 3000.0, "smoke", 1_100_000)
    _bench_run(runs, "f2", 4000.0, "full", 300_000_000)
    return runs


class TestModes:
    def test_compare_refuses_smoke_against_full(self, mixed_modes):
        with RunRegistry() as reg:
            reg.rebuild(mixed_modes)
            with pytest.raises(ModeMismatch, match="mode mismatch"):
                reg.compare("s1", "f1")
            (row,) = reg.compare("f1", "f2")
            assert row["verdict"] == "REGRESSION"

    def test_runs_compare_mode_mismatch_exits_two(self, mixed_modes, capsys):
        assert main(["runs", "compare", "s1", "f1",
                     "--runs-dir", str(mixed_modes)]) == 2
        assert "mode mismatch" in capsys.readouterr().err

    def test_trend_compares_within_each_mode(self, mixed_modes):
        with RunRegistry() as reg:
            reg.rebuild(mixed_modes)
            points = reg.trend("alpha")
        by_run = {p["run_id"]: (p["verdict"], p["ratio"]) for p in points}
        assert by_run["s1"] == ("baseline", None)
        assert by_run["f1"] == ("baseline", None)  # not 100x s1
        assert by_run["s2"][0] == "ok"  # 1.1x s1, not 0.011x f1
        assert by_run["s2"][1] == pytest.approx(1.1)
        assert by_run["f2"][0] == "REGRESSION"  # 3x f1
        assert by_run["f2"][1] == pytest.approx(3.0)

    def test_unknown_mode_stays_comparable(self, mixed_modes):
        unknown = _bench_run(mixed_modes, "u1", 5000.0, "full", 150_000_000)
        manifest = json.loads((unknown / "manifest.json").read_text())
        del manifest["extra"]["mode"]
        (unknown / "manifest.json").write_text(json.dumps(manifest))
        with RunRegistry() as reg:
            reg.rebuild(mixed_modes)
            assert reg.run("u1")["mode"] is None
            assert reg.compare("s1", "u1")[0]["verdict"] == "REGRESSION"
            points = reg.trend("alpha")
        # compared with the latest point of any mode: f2 (300 ms)
        assert points[-1]["verdict"] == "faster"


# ---------------------------------------------------------------------------
# Plan-quality tables and trend analytics (PR 9).
# ---------------------------------------------------------------------------


def _plan_record(predicate, estimated, actual, regret=None):
    from repro.obs.planquality import CandidateRecord, PlanRecord

    record = PlanRecord(
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
    )
    if regret is not None:
        record.shadow_checked = True
        record.best_algorithm = "hash" if regret == 0 else "sort-merge"
        record.regret = regret
    return record


def _plan_run(runs_dir, name, created, records):
    run_dir = runs_dir / name
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(
        json.dumps(
            {
                "run_id": name,
                "created_unix": created,
                "git_sha": f"{name}sha",
                "extra": {"failed": [], "mode": "smoke"},
            }
        )
    )
    (run_dir / "plans.jsonl").write_text(
        "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in records)
    )
    return run_dir


@pytest.fixture()
def plan_registry(tmp_path):
    runs = tmp_path / "runs"
    # run-1: perfectly calibrated; run-2: q-error 2.0 and one wrong
    # shadow choice; equality only appears in run-1.
    _plan_run(
        runs,
        "run-1",
        1000.0,
        [
            _plan_record("equality", 10, 10, regret=0),
            _plan_record("spatial-overlap", 4, 4, regret=0),
        ],
    )
    _plan_run(
        runs,
        "run-2",
        2000.0,
        [
            _plan_record("spatial-overlap", 4, 8, regret=3),
            _plan_record("spatial-overlap", 4, 8, regret=0),
        ],
    )
    with RunRegistry() as reg:
        reg.rebuild(runs)
        yield reg


class TestPlanQuality:
    def test_rows_round_trip_from_plans_jsonl(self, plan_registry):
        rows = plan_registry.plan_quality_for("run-1")
        assert [r["predicate"] for r in rows] == ["equality", "spatial-overlap"]
        equality = rows[0]
        assert equality["plans"] == 1
        assert equality["q_p90"] == 1.0
        assert equality["choice_accuracy"] == 1.0

    def test_plan_predicates_global(self, plan_registry):
        assert plan_registry.plan_predicates() == [
            "equality",
            "spatial-overlap",
        ]

    def test_series_keeps_coverage_order(self, plan_registry):
        points = plan_registry.plan_series("spatial-overlap", metric="q_p90")
        assert [p["run_id"] for p in points] == ["run-1", "run-2"]
        assert [p["value"] for p in points] == [1.0, 2.0]

    def test_series_rejects_unknown_metric(self, plan_registry):
        with pytest.raises(ValueError):
            plan_registry.plan_series("equality", metric="latency")

    def test_trend_flags_q_error_growth(self, plan_registry):
        points = plan_registry.plan_trend(
            "spatial-overlap", metric="q_p90", tolerance=0.25
        )
        assert [p["verdict"] for p in points] == ["baseline", "REGRESSION"]
        assert points[1]["ratio"] == 2.0

    def test_trend_direction_flips_for_choice_accuracy(self, plan_registry):
        # Accuracy halves run-1 -> run-2 (1.0 -> 0.5): for every other
        # metric a falling value is an improvement, for accuracy it is
        # the regression.
        points = plan_registry.plan_trend(
            "spatial-overlap", metric="choice_accuracy", tolerance=0.25
        )
        assert [p["verdict"] for p in points] == ["baseline", "REGRESSION"]
        falling_q = plan_registry.plan_trend(
            "spatial-overlap", metric="q_p90", tolerance=0.25
        )
        assert falling_q[1]["verdict"] == "REGRESSION"  # q grows: regression

    def test_missing_coverage_is_no_data(self, plan_registry):
        points = plan_registry.plan_trend("equality", metric="q_p90")
        assert [p["run_id"] for p in points] == ["run-1"]
        assert points[0]["verdict"] == "baseline"

    def test_malformed_plans_jsonl_marks_run_partial(self, tmp_path):
        runs = tmp_path / "runs"
        run_dir = _plan_run(
            runs, "run-bad", 1000.0, [_plan_record("equality", 1, 1)]
        )
        with (run_dir / "plans.jsonl").open("a") as handle:
            handle.write("{not json\n")
        run = parse_run_dir(run_dir)
        assert run.status == "partial"
        assert any("plans.jsonl" in p for p in run.problems)
        # Well-formed records still aggregate.
        assert run.plan_quality[0]["predicate"] == "equality"

    def test_falling_q_error_reads_better(self, tmp_path):
        runs = tmp_path / "runs"
        _plan_run(runs, "run-1", 1000.0, [_plan_record("equality", 4, 16)])
        _plan_run(runs, "run-2", 2000.0, [_plan_record("equality", 4, 4)])
        with RunRegistry() as reg:
            reg.rebuild(runs)
            points = reg.plan_trend("equality", metric="q_p90")
        assert [p["value"] for p in points] == [4.0, 1.0]
        assert [p["verdict"] for p in points] == ["baseline", "better"]
