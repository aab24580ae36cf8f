"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

It checks that each run, timed and traced, passes its correctness checks
and emits exactly the metrics ``BENCHMARK.json`` names, each with its
unit; that two seeds give different input fingerprints; and that the
benchmark refuses to run without the library source.  Takes about
half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, run_py: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=run_py.parent.parent,
    )


def _fingerprint(workload: str, seed: int) -> str:
    record = BENCH_DIR / "results" / f"{workload}-seed{seed}-timed-smoke.json"
    return json.loads(record.read_text())["input_fingerprint"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_every_metric_and_passes_checks(workload: str, trace: int) -> None:
    child = _run(workload, 1, trace)
    assert child.returncode == 0, child.stdout + child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_give_different_inputs(workload: str) -> None:
    for seed in (1, 2):
        if not (BENCH_DIR / "results" / f"{workload}-seed{seed}-timed-smoke.json").exists():
            assert _run(workload, seed, 0).returncode == 0
    assert _fingerprint(workload, 1) != _fingerprint(workload, 2)


def test_catalog_matches_spec() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import catalog

    assert catalog.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert catalog.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_source() -> None:
    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        child = _run(WORKLOADS[0], 1, 0, run_py=bare / "perfbench" / "run.py")
        assert child.returncode != 0
        assert '"metrics"' not in child.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
