"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload pebble-hard --seed 1 --seconds 25 --trace 0

``--trace 0`` is the timed run (no wrappers, the library's own collectors
off) and reports the end-to-end metrics; ``--trace 1`` is the traced run
and reports the per-layer metrics.  ``--workload all`` runs every
workload both ways, each in its own process.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any check failed.  The full
record, with provenance, is written under ``perfbench/results/``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

WORKLOADS = ("pebble-hard", "pebble-equi", "query-mix", "serve-zipf")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own smoke test"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> harness.RunResult:
    sys.path.insert(0, str(harness.SRC))
    if workload == "serve-zipf":
        import run_serve

        return (run_serve.traced if traced else run_serve.timed)(seed, seconds, smoke)
    import library
    import run_library

    return (run_library.traced if traced else run_library.timed)(
        library.WORKLOADS[workload], seed, seconds, smoke
    )


def _report(result: harness.RunResult, record: Path) -> None:
    print(f"workload {result.workload}  seed {result.seed}  {result.mode}")
    print(f"  input fingerprint {result.input_fingerprint}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for key in ("latency_tail", "error_rate", "slo_miss_rate"):
        if key in result.notes:
            print(f"  ({key}: {result.notes[key]})")
    for problem in result.problems[:10]:
        print(f"  FAILED {problem}")
    print(f"  record {record.relative_to(harness.ROOT)}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, timed then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = child.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(child.stderr)
            try:
                outcome = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"  {workload} trace {trace}: no result (exit {child.returncode})")
                merged["correct"] = False
                continue
            merged["correct"] = merged["correct"] and outcome["correct"] and child.returncode == 0
            merged["attempted"] += outcome["attempted"]
            merged["failed"] += outcome["failed"]
            for name, metric in outcome["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not harness.source_present():
        print(f"error: no library source under {harness.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _report(result, result.write())
    print(result.result_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
