"""Tests for the bench harness (repro.obs.bench) and its CLI/schema tooling."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.bench import (
    BENCH_SCHEMA,
    SCENARIOS,
    BenchConfig,
    run_bench,
    validate_bench_payload,
)

SMOKE = BenchConfig(smoke=True, seed=0)


class TestScenarios:
    def test_registry_nonempty_and_described(self):
        assert len(SCENARIOS) >= 8
        for scenario in SCENARIOS.values():
            assert scenario.description

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_scenario_runs_in_smoke_mode(self, name):
        results = SCENARIOS[name].run(SMOKE)
        assert isinstance(results, dict) and results

    def test_scenario_results_deterministic_given_seed(self):
        first = SCENARIOS["engine-planner"].run(SMOKE)
        second = SCENARIOS["engine-planner"].run(SMOKE)
        assert first == second

    def test_config_size_switch(self):
        assert BenchConfig(smoke=True).size(100, 10) == 10
        assert BenchConfig(smoke=False).size(100, 10) == 100


class TestRunBench:
    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            run_bench(smoke=True, names=["no-such"], runs_dir=tmp_path, out_dir=None)

    def test_writes_run_artifacts_and_bench_file(self, tmp_path):
        report, run_dir, bench_path = run_bench(
            smoke=True,
            names=["engine-equijoin"],
            runs_dir=tmp_path / "runs",
            out_dir=tmp_path,
        )
        for name in ("manifest.json", "metrics.json", "report.md"):
            assert (run_dir / name).exists(), name
        assert bench_path is not None and bench_path.exists()
        assert bench_path.name.startswith("BENCH_")
        payload = json.loads(bench_path.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["mode"] == "smoke"
        assert payload["git_sha"]
        assert [s["name"] for s in payload["scenarios"]] == ["engine-equijoin"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["git_sha"] == payload["git_sha"]

    def test_run_dir_contains_exported_traces(self, tmp_path):
        from repro.obs.export import validate_chrome_trace

        _, run_dir, _ = run_bench(
            smoke=True,
            names=["engine-equijoin"],
            runs_dir=tmp_path / "runs",
            out_dir=None,
        )
        perfetto = json.loads((run_dir / "trace.json").read_text())
        assert validate_chrome_trace(perfetto) == []
        assert perfetto["traceEvents"]
        folded = (run_dir / "trace.folded").read_text()
        assert folded.strip()
        for line in folded.splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0

    def test_out_dir_none_skips_bench_file(self, tmp_path):
        _, _, bench_path = run_bench(
            smoke=True, names=["engine-equijoin"], runs_dir=tmp_path, out_dir=None
        )
        assert bench_path is None

    def test_collectors_restored_to_disabled(self, tmp_path):
        run_bench(
            smoke=True, names=["engine-equijoin"], runs_dir=tmp_path, out_dir=None
        )
        assert not obs.is_enabled()
        obs.enable()
        run_bench(
            smoke=True, names=["engine-equijoin"], runs_dir=tmp_path, out_dir=None
        )
        assert obs.is_enabled()

    def test_counters_attributed_per_scenario(self, tmp_path):
        report, _, _ = run_bench(
            smoke=True,
            names=["engine-planner", "solver-exact"],
            runs_dir=tmp_path,
            out_dir=None,
        )
        planner, exact = report.scenarios
        assert planner.counters.get("executor.queries", 0) > 0
        assert exact.counters.get("solver.exact.solves", 0) > 0
        # The solver scenario must not be billed the engine's queries.
        assert "executor.queries" not in exact.counters

    def test_repeats_recorded(self, tmp_path):
        report, _, _ = run_bench(
            smoke=True,
            names=["engine-equijoin"],
            repeats=2,
            runs_dir=tmp_path,
            out_dir=None,
        )
        (s,) = report.scenarios
        assert s.repeats == 2
        assert len(s.wall_ns) == 2
        assert s.best_ns <= s.mean_ns

    def test_table_lists_every_scenario(self, tmp_path):
        report, _, _ = run_bench(
            smoke=True,
            names=["engine-equijoin", "solver-exact"],
            runs_dir=tmp_path,
            out_dir=None,
        )
        rendered = report.table().render()
        assert "engine-equijoin" in rendered
        assert "solver-exact" in rendered


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "engine-planner" in out

    def test_bench_smoke_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--smoke",
                "--scenario",
                "engine-equijoin",
                "--runs-dir",
                str(tmp_path / "runs"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine-equijoin" in out
        assert list(tmp_path.glob("BENCH_*.json"))
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "manifest.json").exists()

    def test_bench_no_bench_file(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--smoke",
                "--scenario",
                "engine-equijoin",
                "--runs-dir",
                str(tmp_path / "runs"),
                "--no-bench-file",
            ]
        )
        assert code == 0
        assert not list(tmp_path.glob("BENCH_*.json"))


class TestSchemaChecker:
    def test_emitted_file_validates(self, tmp_path):
        _, _, bench_path = run_bench(
            smoke=True,
            names=["engine-equijoin"],
            runs_dir=tmp_path / "runs",
            out_dir=tmp_path,
        )
        assert validate_bench_payload(json.loads(bench_path.read_text())) == []
        assert main(["check", str(bench_path)]) == 0

    def test_corrupted_payloads_rejected(self, tmp_path):
        assert validate_bench_payload([]) != []
        assert validate_bench_payload({"schema": "other/v9"}) != []
        bad = {
            "schema": BENCH_SCHEMA,
            "run_id": "r",
            "mode": "warp",
            "seed": "zero",
            "git_sha": "x",
            "created_unix": 0,
            "date": "2026-01-01",
            "scenarios": [],
        }
        problems = validate_bench_payload(bad)
        assert any("mode" in p for p in problems)
        assert any("seed" in p for p in problems)
        assert any("scenarios" in p for p in problems)

    def test_negative_timings_rejected(self):
        payload = {
            "schema": BENCH_SCHEMA,
            "run_id": "r",
            "mode": "smoke",
            "seed": 0,
            "git_sha": "x",
            "created_unix": 0,
            "date": "2026-01-01",
            "scenarios": [
                {
                    "name": "s",
                    "repeats": 1,
                    "wall_ns": {"best": 1, "mean": 1.0, "all": [-5]},
                    "results": {},
                    "counters": {},
                }
            ],
        }
        problems = validate_bench_payload(payload)
        assert any("non-negative" in p for p in problems)

    def test_unreadable_file_reported(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2
        assert "unknown artifact kind" in capsys.readouterr().err


class TestBatchScenarioJobsInvariance:
    """`repro bench --jobs N` is a pure performance knob: per-scenario
    results are byte-identical across job counts (the PR's acceptance
    gate), and the report records the job count once at the top."""

    def _results(self, tmp_path, jobs, cache_path=None):
        report, _, _ = run_bench(
            smoke=True,
            names=["solver-batch"],
            runs_dir=tmp_path / f"runs-{jobs}-{cache_path is not None}",
            out_dir=None,
            jobs=jobs,
            cache_path=cache_path,
        )
        [scenario_result] = report.scenarios
        assert scenario_result.status == "ok"
        return report, scenario_result.results

    def test_jobs_1_vs_2_identical_results(self, tmp_path):
        report_1, results_1 = self._results(tmp_path, jobs=1)
        report_2, results_2 = self._results(tmp_path, jobs=2)
        assert results_1 == results_2
        assert report_1.as_dict()["jobs"] == 1
        assert report_2.as_dict()["jobs"] == 2

    def test_warm_cache_identical_results(self, tmp_path):
        db = tmp_path / "solve-cache.db"
        _, cold = self._results(tmp_path, jobs=1, cache_path=db)
        _, warm = self._results(tmp_path, jobs=1, cache_path=db)
        assert cold == warm

    def test_bad_jobs_rejected(self, tmp_path):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            run_bench(
                smoke=True,
                names=["solver-batch"],
                runs_dir=tmp_path,
                out_dir=None,
                jobs=0,
            )
