"""Timed and traced runs of the library workloads (closed loop, one client).

A timed run sets up ``SETUP_REPEATS`` times (fresh-interpreter import,
the first round of inputs, one small warm-up op of every kind) and reports
the median, then runs ops back to back for the requested seconds, never
fewer than the workload's quality prefix.  Only the library call sits
inside an op's timer; making its inputs and checking its output do not.

An op's time is the CPU time of this process over the call
(``time.process_time``).  Every op is a single-threaded, I/O-free call,
so on a machine of its own that equals its wall time; on a shared
virtual machine the wall time also counts the spells the host gave the
CPU to other guests, which the guest kernel reports as steal and leaves
out of CPU time.  The wall times are kept in the record's notes.

A traced run makes an untimed pass of half the seconds, then repeats the
same op indices (fresh input objects, same contents) with the layer
wrappers installed; the ratio of the two passes' op time is the tracing
overhead, and the spans of the second pass give the per-layer figures.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import catalog
import harness
from harness import RunResult, median, quantile, ratio, tail
from library import IMPORTS, Op, Outcome, Workload
from tracer import Tracer, tracing

from repro.parallel.fingerprint import fingerprint

# A run stops starting ops after this many times its seconds (plus a
# constant), even short of the quality prefix, so it always ends in time.
CAP_FACTOR = 4
CAP_EXTRA_S = 20.0
FINGERPRINTED_OPS = 3


@dataclass
class Sample:
    kind: str
    seconds: float  # CPU time of the call
    wall: float  # wall time of the call
    outcome: Outcome


def _warm_up(workload: Workload, seed: int) -> None:
    """One small op of every kind, on inputs no timed op uses (negative
    op indices), so lazy imports and first-call costs land in set-up."""
    for k in range(len(workload.kinds)):
        op = workload.prepare(seed, -(k + 1), smoke=True)
        op.verify(op.call())


def _setup(workload: Workload, seed: int, smoke: bool) -> tuple[float, float, list[Op]]:
    """Returns the set-up's CPU seconds (this process and the import's
    interpreter), its wall seconds and the first round of ops."""
    started_wall, started = time.perf_counter(), harness.cpu_seconds()
    harness.time_fresh_import(IMPORTS)
    first_round = [workload.prepare(seed, i, smoke) for i in range(len(workload.kinds))]
    _warm_up(workload, seed)
    return harness.cpu_seconds() - started, time.perf_counter() - started_wall, first_round


def _run_ops(
    workload: Workload,
    seed: int,
    seconds: float,
    smoke: bool,
    result: RunResult,
    first: list[Op] | None = None,
    count: int | None = None,
    tracer: Tracer | None = None,
) -> list[Sample]:
    """Run ops ``0, 1, ...`` until ``seconds`` have passed and the
    quality prefix is done (or exactly ``count`` ops)."""
    samples: list[Sample] = []
    started = time.perf_counter()
    cap = seconds * CAP_FACTOR + CAP_EXTRA_S
    minimum = workload.quality_ops()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if count is not None:
            if index >= count:
                break
        elif index >= minimum and elapsed >= seconds:
            break
        if elapsed >= cap:
            result.notes["stopped_at_cap_after_ops"] = index
            break
        op = first[index] if first and index < len(first) else workload.prepare(seed, index, smoke)
        error = None
        with tracer.op(index) if tracer else contextlib.nullcontext():
            began_wall, began = time.perf_counter(), time.process_time()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            took = time.process_time() - began
            took_wall = time.perf_counter() - began_wall
        if error is None:
            try:
                outcome = op.verify(out)
            except Exception as exc:
                outcome = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
            del out
        else:
            outcome = Outcome(problems=[error])
        samples.append(Sample(op.kind, took, took_wall, outcome))
        result.attempted += 1
        if outcome.problems:
            result.fail(f"op {index} ({op.kind}): {outcome.problems[0]}")
        index += 1
    return samples


def _fingerprint_inputs(workload: Workload, seed: int, smoke: bool) -> str:
    graphs = [workload.prepare(seed, i, smoke).input_graph() for i in range(FINGERPRINTED_OPS)]
    return harness.combine_fingerprints([fingerprint(g) for g in graphs if g is not None])


def _per_kind(samples: list[Sample]) -> dict[str, dict[str, float]]:
    kinds: dict[str, list[Sample]] = {}
    for sample in samples:
        kinds.setdefault(sample.kind, []).append(sample)
    return {
        kind: {
            "ops": len(group),
            "median_ms": round(median([s.seconds for s in group]) * 1000, 3),
            "median_wall_ms": round(median([s.wall for s in group]) * 1000, 3),
        }
        for kind, group in kinds.items()
    }


def timed(workload: Workload, seed: int, seconds: float, smoke: bool) -> RunResult:
    result = RunResult(workload.name, seed, traced=False, smoke=smoke)
    setups = [_setup(workload, seed, smoke) for _ in range(harness.SETUP_REPEATS)]
    samples = _run_ops(workload, seed, seconds, smoke, result, first=setups[-1][2])
    times = [s.seconds for s in samples]
    walls = [s.wall for s in samples]
    latency_tail = tail(times)
    failed_ops = sum(1 for s in samples if s.outcome.problems)
    within = sum(
        1
        for s in samples
        if not s.outcome.problems and s.seconds * 1000 <= workload.latency_limit_ms
    )
    quality = samples[: workload.quality_ops()]
    result.put("setup_s", median([cpu for cpu, _wall, _ops in setups]), "s")
    result.put("ops_per_s", ratio(len(samples), sum(times)), "ops/s")
    result.put("latency_p50_ms", median(times) * 1000, "ms")
    result.put("latency_tail_ms", latency_tail.value * 1000, "ms")
    result.put("ok_rate", 1.0 - ratio(failed_ops, len(samples)), "fraction")
    result.put("slo_met_rate", ratio(within, len(samples)), "fraction")
    result.put(
        "pi_ratio",
        ratio(sum(s.outcome.pi for s in quality), sum(s.outcome.m for s in quality)),
        "ratio",
    )
    result.put("peak_rss_mb", harness.own_peak_rss_mb(), "MB")
    result.notes.update(
        {
            "loop": "closed, 1 client",
            "op_time": "CPU time of the process over the call",
            "wall_ops_per_s": ratio(len(walls), sum(walls)),
            "wall_latency_p50_ms": median(walls) * 1000,
            "wall_latency_tail_ms": tail(walls).value * 1000,
            "latency_tail": latency_tail.describe(),
            "error_rate": ratio(failed_ops, len(samples)),
            "slo_miss_rate": 1.0 - ratio(within, len(samples)),
            "latency_limit_ms": workload.latency_limit_ms,
            "pi_ratio_ops": len(quality),
            "setup_samples_s": [round(cpu, 4) for cpu, _wall, _ops in setups],
            "setup_wall_samples_s": [round(wall, 4) for _cpu, wall, _ops in setups],
            "per_kind": _per_kind(samples),
        }
    )
    result.input_fingerprint = _fingerprint_inputs(workload, seed, smoke)
    return result


def traced(workload: Workload, seed: int, seconds: float, smoke: bool) -> RunResult:
    result = RunResult(workload.name, seed, traced=True, smoke=smoke)
    _warm_up(workload, seed)
    untraced = _run_ops(workload, seed, seconds / 2, smoke, result)
    tracer = Tracer()
    with tracing(tracer):
        samples = _run_ops(workload, seed, seconds / 2, smoke, result, count=len(untraced), tracer=tracer)
    # Spans are wall-clock, so the traced run's op time is too.
    op_seconds = sum(s.wall for s in samples)
    ops = set(range(len(samples)))
    extra: dict[str, float] = {}
    q_errors: list[float] = []
    for sample in samples:
        for key, value in sample.outcome.extra.items():
            if key == "q_error":
                q_errors.append(value)
            else:
                extra[key] = extra.get(key, 0.0) + value
    extra["q_error_p90"] = quantile(q_errors, 0.90)
    values = catalog.layer_metrics(
        tracer,
        ops,
        op_seconds,
        tracer.top_level_time(ops),
        ratio(op_seconds, sum(s.wall for s in untraced)),
        extra,
    )
    for name, unit in catalog.PER_LAYER.items():
        result.put(name, values[name], unit)
    spans_path = result.path().with_suffix(".spans.jsonl")
    tracer.write(spans_path)
    result.notes.update(
        {"traced_ops": len(samples), "spans": len(tracer.spans), "spans_file": spans_path.name}
    )
    result.input_fingerprint = _fingerprint_inputs(workload, seed, smoke)
    return result
