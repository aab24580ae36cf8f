"""Gate for ``make telemetry-smoke``: live telemetry and request tracing.

Starts a real ``repro serve`` process (Unix socket, worker pool, run
directory, journal), drives it with the seeded load generator plus one
hand-addressed solve, and checks the promises docs/OBSERVABILITY.md
makes for the telemetry subsystem:

- the ``metrics`` op answers a valid Prometheus text-format v0.0.4
  document (``validate_exposition``) carrying the required families,
  including a per-op latency histogram;
- the per-op request counters account for everything the load sent;
- after shutdown, the run directory's ``trace.jsonl`` assembles — for
  the hand-addressed request id — into a single validated Chrome trace
  (``validate_chrome_trace``) whose events include both server-side
  dispatch spans and worker-process solver spans sharing one trace_id.

    PYTHONPATH=src python tools/check_metrics_exposition.py .telemetry-smoke

Exit status 0 when every check passes; 1 otherwise, one line per
problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.graphs.generators import random_connected_bipartite  # noqa: E402
from repro.graphs.io import dump_bipartite  # noqa: E402
from repro.obs import export as obs_export  # noqa: E402
from repro.obs import telemetry as obs_telemetry  # noqa: E402
from repro.server.client import ServeClient  # noqa: E402
from repro.workloads.loadgen import LoadSpec, run_load  # noqa: E402

STARTUP_TIMEOUT = 20.0
SPEC = LoadSpec(requests=24, concurrency=4, universe=6, edges=14, seed=3)
SMOKE_REQUEST_ID = "telemetry-smoke-1"

# The families the server promises to expose (name -> kind); see
# SolveServer.exposition().
REQUIRED_FAMILIES = {
    "repro_server_requests_total": "counter",
    "repro_server_request_outcomes_total": "counter",
    "repro_server_request_latency_ms": "histogram",
    "repro_server_window_rps": "gauge",
    "repro_server_uptime_seconds": "gauge",
    "repro_server_admitted_total": "counter",
    "repro_server_admission_rejected_total": "counter",
}


def _start_server(scratch: Path) -> tuple[subprocess.Popen, Path]:
    socket_path = scratch / "serve.sock"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--unix",
            str(socket_path),
            "--jobs",
            "2",
            "--run-dir",
            str(scratch / "run"),
            "--journal",
            str(scratch / "journal"),
            "--metrics-window",
            "30",
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        if socket_path.exists():
            return process, socket_path
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited during startup: {process.stderr.read()}"
            )
        time.sleep(0.05)
    process.kill()
    raise RuntimeError(f"server socket never appeared at {socket_path}")


def _check_exposition(text: str, problems: list[str]) -> None:
    for problem in obs_telemetry.validate_exposition(
        text, required=REQUIRED_FAMILIES
    ):
        problems.append(f"exposition: {problem}")
    families, _parse_problems = obs_telemetry.parse_exposition(text)
    requests = families.get("repro_server_requests_total")
    counted = 0
    if requests is not None:
        counted = sum(
            int(sample.value)
            for sample in requests.samples
            if sample.labels.get("op") in ("solve", "plan")
        )
    if counted < SPEC.requests + 1:
        problems.append(
            f"requests_total counts {counted} solve/plan requests, "
            f"expected >= {SPEC.requests + 1}"
        )
    latency = families.get("repro_server_request_latency_ms")
    ops_with_latency = (
        {s.labels.get("op") for s in latency.samples} if latency else set()
    )
    if "solve" not in ops_with_latency:
        problems.append("latency histogram has no op=\"solve\" series")


def _check_request_trace(run_dir: Path, problems: list[str]) -> None:
    trace_path = run_dir / "trace.jsonl"
    if not trace_path.is_file():
        problems.append("run dir has no trace.jsonl")
        return
    records = []
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    try:
        document = obs_export.request_trace(records, SMOKE_REQUEST_ID)
    except ValueError as exc:
        problems.append(f"trace.jsonl: {exc}")
        return
    for problem in obs_export.validate_chrome_trace(document):
        problems.append(f"request trace: {problem}")
    events = document["traceEvents"]
    trace_ids = {
        event["args"]["trace_id"]
        for event in events
        if "trace_id" in event.get("args", {})
    }
    names = {event["name"] for event in events}
    pids = {event["pid"] for event in events}
    print(
        f"request {SMOKE_REQUEST_ID}: {len(events)} event(s), "
        f"{len(trace_ids)} trace id(s), pids {sorted(pids)}"
    )
    if len(trace_ids) != 1:
        problems.append(
            f"request trace spans {len(trace_ids)} trace ids, expected 1"
        )
    if "server.dispatch" not in names:
        problems.append("request trace has no server.dispatch span")
    if 2 not in pids:
        problems.append(
            "request trace has no worker-origin span (pid 2): the solve "
            "never crossed the pool, or worker spans were not adopted"
        )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_metrics_exposition.py <scratch-dir>", file=sys.stderr)
        return 2
    scratch = Path(argv[0])
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    problems: list[str] = []

    process, socket_path = _start_server(scratch)
    try:
        wave = run_load(SPEC, unix_path=socket_path)
        summary = wave.as_dict()
        print(
            f"load: {summary['ok']} ok, {summary['rejected']} rejected, "
            f"{summary['errors']} errors, per-op {summary['per_op']}"
        )
        if wave.errors:
            problems.append(f"load errored: {summary['error_codes']}")

        with ServeClient(unix_path=socket_path) as client:
            # One hand-addressed solve on a graph outside the load pool:
            # a guaranteed cache miss, so the solve crosses the worker
            # pool and its request id is a handle into trace.jsonl.
            graph_text = dump_bipartite(
                random_connected_bipartite(4, 4, 14, seed=999_999)
            )
            rid = client.send(
                "solve", graph_text, request_id=SMOKE_REQUEST_ID
            )
            response = client.recv(rid)
            if not response.get("ok"):
                problems.append(
                    f"addressed solve failed: {response.get('error')}"
                )
            elif not response["result"].get("trace_id"):
                problems.append("addressed solve result carries no trace_id")

            metrics = client.metrics()
            if not metrics.get("ok"):
                problems.append(f"metrics op failed: {metrics.get('error')}")
            else:
                result = metrics["result"]
                if result.get("content_type") != obs_telemetry.CONTENT_TYPE:
                    problems.append(
                        f"metrics content_type {result.get('content_type')!r}"
                    )
                _check_exposition(result.get("text", ""), problems)
            client.shutdown()

        try:
            status = process.wait(timeout=STARTUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            problems.append("server did not exit after the shutdown op")
        else:
            if status != 0:
                problems.append(
                    f"server exited {status}: {process.stderr.read()}"
                )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    _check_request_trace(scratch / "run", problems)

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not problems:
        print("telemetry-smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
