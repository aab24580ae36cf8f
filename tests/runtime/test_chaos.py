"""Chaos suite: under injected faults the CLI surfaces clean errors
(never a raw traceback) and the bench harness records structured
failures in a valid v2 payload."""

import json

import pytest

from repro.cli import main
from repro.runtime import FaultPlan, inject

CHAOS_SEEDS = [0, 1, 2]

RELATION_A = "# relation R (numeric)\n1\n2\n3\n"
RELATION_B = "# relation S (numeric)\n2\n3\n4\n"


@pytest.fixture
def relation_files(tmp_path):
    left = tmp_path / "left.rel"
    right = tmp_path / "right.rel"
    left.write_text(RELATION_A)
    right.write_text(RELATION_B)
    return str(left), str(right)


class TestCliNeverTracebacks:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_join_under_total_io_failure(self, seed, relation_files, capsys):
        left, right = relation_files
        with inject(FaultPlan(seed=seed, rates={"*": 1.0})):
            code = main(["join", left, right])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_join_under_partial_faults_errors_cleanly_or_succeeds(
        self, seed, relation_files, capsys
    ):
        left, right = relation_files
        with inject(FaultPlan(seed=seed, rates={"*": 0.5})):
            code = main(["join", left, right])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code == 1:
            assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_missing_file_is_a_clean_error(self, capsys):
        code = main(["join", "/nonexistent/left.rel", "/nonexistent/right.rel"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "Traceback" not in captured.err


class TestBenchChaos:
    def test_bench_records_failures_and_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--smoke",
                "--scenario",
                "storage-paging",
                "--runs-dir",
                str(tmp_path / "runs"),
                "--out-dir",
                str(tmp_path),
                "--fault-seed",
                "0",
                "--fault-rate",
                "1.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "scenario(s) failed after retry" in captured.err
        assert "Traceback" not in captured.err

        (bench_path,) = tmp_path.glob("BENCH_*.json")
        payload = json.loads(bench_path.read_text())
        assert payload["schema"] == "repro-bench/v2"
        assert payload["failed"] == 1
        (scenario,) = payload["scenarios"]
        assert scenario["status"] == "failed"
        assert scenario["attempts"] == 2
        assert "InjectedFaultError" in scenario["error"]

        assert main(["check", str(bench_path)]) == 0

    def test_bench_without_faults_is_unaffected_by_chaos_flags(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "bench",
                "--smoke",
                "--scenario",
                "storage-paging",
                "--runs-dir",
                str(tmp_path / "runs"),
                "--out-dir",
                str(tmp_path),
                "--fault-seed",
                "0",
                "--fault-rate",
                "0.0",
            ]
        )
        assert code == 0
        (bench_path,) = tmp_path.glob("BENCH_*.json")
        payload = json.loads(bench_path.read_text())
        assert payload["failed"] == 0
        (scenario,) = payload["scenarios"]
        assert scenario["status"] == "ok"
        assert scenario["error"] is None

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_bench_chaos_is_deterministic_per_seed(self, seed, tmp_path, capsys):
        def run(label):
            out = tmp_path / label
            out.mkdir()
            code = main(
                [
                    "bench",
                    "--smoke",
                    "--scenario",
                    "storage-paging",
                    "--runs-dir",
                    str(out / "runs"),
                    "--out-dir",
                    str(out),
                    "--fault-seed",
                    str(seed),
                    "--fault-rate",
                    "0.3",
                ]
            )
            capsys.readouterr()
            (bench_path,) = out.glob("BENCH_*.json")
            payload = json.loads(bench_path.read_text())
            (scenario,) = payload["scenarios"]
            return code, scenario["status"], scenario["attempts"]

        assert run("first") == run("second")
