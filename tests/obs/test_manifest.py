"""Tests for run manifests (repro.obs.manifest)."""

import json

from repro import obs
from repro.obs import manifest, metrics, trace
from repro.obs.manifest import RunManifest, git_sha, make_run_id, write_run


class TestProvenance:
    def test_git_sha_in_repo(self):
        sha = git_sha()
        # This test-suite runs inside the repo checkout; a -dirty suffix
        # marks uncommitted changes.
        base = sha.removesuffix("-dirty")
        assert sha == "unknown" or (len(base) == 40 and all(
            c in "0123456789abcdef" for c in base
        ))

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"

    def test_make_run_id_distinct_and_prefixed(self):
        a = make_run_id("bench", 0)
        assert a.startswith("bench-")
        assert a.endswith("-s0")

    def test_collect_fills_environment(self):
        m = RunManifest.collect("rid", seed=7, args={"smoke": True})
        assert m.run_id == "rid"
        assert m.seed == 7
        assert m.args == {"smoke": True}
        assert m.python_version.count(".") >= 1
        assert m.platform


class TestWriteRun:
    def test_writes_three_artifacts(self, tmp_path):
        obs.enable()
        metrics.inc("example.counter", 5)
        run_dir = write_run("run-1", runs_dir=tmp_path, seed=3, args={"k": 1})
        assert run_dir == tmp_path / "run-1"
        for name in ("manifest.json", "metrics.json", "report.md"):
            assert (run_dir / name).exists(), name

    def test_manifest_contents(self, tmp_path):
        run_dir = write_run("run-2", runs_dir=tmp_path, seed=11, args={"a": 2})
        payload = json.loads((run_dir / "manifest.json").read_text())
        assert payload["run_id"] == "run-2"
        assert payload["seed"] == 11
        assert payload["args"] == {"a": 2}
        assert "git_sha" in payload
        assert "python_version" in payload

    def test_metrics_json_matches_registry(self, tmp_path):
        obs.enable()
        metrics.inc("a", 1)
        run_dir = write_run("run-3", runs_dir=tmp_path)
        assert (run_dir / "metrics.json").read_text() == metrics.to_json()

    def test_metrics_json_byte_identical_across_same_seed_runs(self, tmp_path):
        def one_run(run_id):
            obs.reset()
            obs.enable()
            metrics.inc("solver.search_nodes", 17)
            metrics.observe("engine.output_size", 4)
            return write_run(run_id, runs_dir=tmp_path, seed=5)

        first = one_run("run-a") / "metrics.json"
        second = one_run("run-b") / "metrics.json"
        assert first.read_bytes() == second.read_bytes()

    def test_report_includes_tables_and_metrics(self, tmp_path):
        from repro.analysis.report import Table

        obs.enable()
        with trace.span("work.unit"):
            metrics.inc("work.items", 2)
        table = Table(["k", "v"], title="Extra table")
        table.add_row(["answer", 42])
        run_dir = write_run("run-4", runs_dir=tmp_path, tables=[table])
        report = (run_dir / "report.md").read_text()
        assert "Extra table" in report
        assert "work.items" in report
        assert "work.unit" in report  # slowest-spans table

    def test_render_report_without_spans_skips_span_table(self):
        m = RunManifest.collect("rid")
        text = manifest.render_report(m, {"counters": {}, "gauges": {}, "histograms": {}})
        assert "Slowest spans" not in text


class TestAtomicWrites:
    def test_write_atomic_writes_content_and_no_temp(self, tmp_path):
        target = manifest.write_atomic(tmp_path / "out.json", '{"a": 1}\n')
        assert target.read_text() == '{"a": 1}\n'
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_write_leaves_previous_content(self, tmp_path, monkeypatch):
        target = tmp_path / "manifest.json"
        target.write_text("previous complete content\n")

        import os as _os

        real_fsync = _os.fsync

        def exploding_fsync(fd):
            real_fsync(fd)
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(manifest.os, "fsync", exploding_fsync)
        import pytest

        with pytest.raises(OSError, match="simulated crash"):
            manifest.write_atomic(target, "half-writ")
        # the previous file survives intact and no temp file is left behind
        assert target.read_text() == "previous complete content\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            manifest.os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("boom"))
        )
        import pytest

        with pytest.raises(OSError):
            manifest.write_atomic(tmp_path / "fresh.json", "data")
        assert list(tmp_path.iterdir()) == []

    def test_write_run_artifacts_are_atomic(self, tmp_path, monkeypatch):
        """A run killed while writing artifacts never leaves a truncated
        JSON file — the registry's partial-dir tolerance is the backstop,
        but atomicity means it is rarely needed."""
        calls = {"n": 0}
        real_replace = manifest.os.replace

        def failing_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 2:  # die while committing metrics.json
                raise OSError("simulated kill")
            return real_replace(src, dst)

        monkeypatch.setattr(manifest.os, "replace", failing_replace)
        import pytest

        obs.enable()
        with pytest.raises(OSError):
            write_run("run-killed", runs_dir=tmp_path)
        run_dir = tmp_path / "run-killed"
        # manifest.json committed whole; metrics.json absent, not truncated
        json.loads((run_dir / "manifest.json").read_text())
        assert not (run_dir / "metrics.json").exists()
        leftovers = [p.name for p in run_dir.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []


class TestEventsArtifact:
    def test_write_run_emits_events_jsonl_when_events_recorded(self, tmp_path):
        from repro.obs import events

        obs.enable()
        events.set_run_id("run-ev")
        events.emit(events.EVENT_RUN_START, mode="test")
        run_dir = write_run("run-ev", runs_dir=tmp_path)
        text = (run_dir / "events.jsonl").read_text()
        assert events.validate_jsonl(text) == []
        (record,) = [json.loads(line) for line in text.splitlines()]
        assert record["name"] == "run.start"
        assert record["run_id"] == "run-ev"

    def test_write_run_skips_events_jsonl_when_log_empty(self, tmp_path):
        run_dir = write_run("run-quiet", runs_dir=tmp_path)
        assert not (run_dir / "events.jsonl").exists()
