"""Async load generation against the solve server (``server-load`` bench).

A :class:`LoadSpec` describes a seeded request mix: a pool of
``universe`` distinct random graphs sampled with zipf skew (exponent
``skew``), so a few graphs recur constantly — exercising the shared
solve cache — while the tail stays novel, exercising the solve path.
The same ``_zipf``-style weighting as the equijoin workloads, applied to
whole requests instead of join keys.

:func:`run_load` drives ``concurrency`` asyncio clients (one connection
each, many in-flight requests per connection) through the mix and
reduces the outcomes to a :class:`LoadResult`: terminal-status counts,
throughput, and p50/p99 client-side latency — overall and per op — the
scalars the bench scenario publishes into ``BENCH_<date>.json``.

Every request carries a *derived* trace id
(:func:`repro.obs.context.derived_trace_id` of the seed and request
index), so a journaled/traced server run under load yields server-side
span trees addressable by request index after the fact — the same
determinism contract as the mix itself.

The *mix* is deterministic in the seed; the *timings* of course are not.
Rejected requests (admission control) are counted, not retried — the
load generator measures the server as configured, it does not flatter
it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.graphs.generators import random_connected_bipartite
from repro.graphs.io import dump_bipartite
from repro.obs.context import TraceContext, derived_trace_id
from repro.runtime.retry import CircuitBreaker, RetryPolicy
from repro.server.client import AsyncServeClient
from repro.server.protocol import OP_PLAN, OP_SOLVE
from repro.runtime.anytime import DEGRADED_STATUSES


@dataclass(frozen=True)
class LoadSpec:
    """One seeded load shape.

    ``retries > 0`` arms every worker's client with the shared
    :class:`~repro.runtime.retry.RetryPolicy` (that many retries after
    the first attempt) and one circuit breaker shared by the whole run —
    the survive-a-server-restart configuration of docs/ROBUSTNESS.md.
    With the default ``retries=0`` the generator measures the server as
    configured and never flatters it.
    """

    requests: int = 60
    concurrency: int = 4
    universe: int = 10  # distinct graphs in the pool
    skew: float = 1.2  # zipf exponent over the pool (higher = hotter head)
    edges: int = 16  # edges per random graph
    plan_fraction: float = 0.25  # this share of requests use op=plan
    deadline: float | None = None  # per-request deadline, if any
    seed: int = 0
    retries: int = 0  # retry attempts after the first try (0 = never)


@dataclass
class LoadResult:
    """The reduced outcome of one load run."""

    requests: int
    ok: int
    errors: int
    rejected: int
    degraded: int
    elapsed_seconds: float
    latencies_ms: list[float] = field(default_factory=list)
    op_latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    error_codes: dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Requests per second; 0.0 on a degenerate window (no elapsed
        time recorded — e.g. a wave that failed before the clock moved)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    def latency_quantile(self, q: float) -> float:
        """The q-quantile of client-observed latency in ms (0.0 if none)."""
        return _quantile(self.latencies_ms, q)

    def per_op(self) -> dict[str, dict[str, Any]]:
        """Per-op latency breakdown: sample count and p50/p99 in ms."""
        return {
            op: {
                "requests": len(samples),
                "p50_ms": round(_quantile(samples, 0.50), 3),
                "p99_ms": round(_quantile(samples, 0.99), 3),
            }
            for op, samples in sorted(self.op_latencies_ms.items())
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.latency_quantile(0.50), 3),
            "p99_ms": round(self.latency_quantile(0.99), 3),
            "per_op": self.per_op(),
            "statuses": dict(sorted(self.statuses.items())),
            "error_codes": dict(sorted(self.error_codes.items())),
        }


def _quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile, total over every degenerate window.

    Contract (pinned by tests/workloads/test_loadgen_stats.py):

    - empty window  -> 0.0 (an all-error cold wave records no latencies;
      stats must stay JSON-renderable rather than raise);
    - one sample    -> that sample, for every q;
    - q outside [0, 1] (caller bug or NaN-ish arithmetic upstream) is
      clamped to the nearest valid quantile instead of indexing out of
      range.
    """
    if not samples:
        return 0.0
    if not (0.0 <= q <= 1.0):  # also catches NaN, which fails both compares
        q = 0.0 if q < 0.0 else 1.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def build_graph_pool(spec: LoadSpec) -> list[str]:
    """``spec.universe`` distinct serialized graphs, deterministic in the
    seed.  Sizes wobble slightly so components differ structurally (and
    therefore fingerprint differently)."""
    pool: list[str] = []
    for index in range(spec.universe):
        edges = max(3, spec.edges + (index % 5) - 2)
        sides = max(2, edges // 4)
        graph = random_connected_bipartite(
            sides, sides, edges, seed=spec.seed * 1000 + index
        )
        pool.append(dump_bipartite(graph))
    return pool


def sample_mix(spec: LoadSpec) -> list[tuple[str, str]]:
    """The request mix: ``spec.requests`` ``(op, graph_text)`` pairs.

    Graphs are drawn zipf-skewed from the pool — weight ``1/rank^skew``
    — so the head of the pool dominates (cache-hot) while the tail shows
    up rarely (cache-cold).  A ``plan_fraction`` share of requests use
    the cheaper ``plan`` op.  Deterministic in ``spec.seed``.
    """
    rng = random.Random(spec.seed)
    pool = build_graph_pool(spec)
    weights = [1.0 / (rank + 1) ** spec.skew for rank in range(len(pool))]
    graphs = rng.choices(pool, weights=weights, k=spec.requests)
    return [
        (OP_PLAN if rng.random() < spec.plan_fraction else OP_SOLVE, graph)
        for graph in graphs
    ]


async def drive_load(
    spec: LoadSpec,
    host: str | None = None,
    port: int | None = None,
    unix_path: str | Path | None = None,
) -> LoadResult:
    """Run the mix against a live server; returns the reduced result."""
    mix = sample_mix(spec)
    cursor = iter(enumerate(mix))
    outcome = LoadResult(
        requests=len(mix),
        ok=0,
        errors=0,
        rejected=0,
        degraded=0,
        elapsed_seconds=0.0,
    )
    retry: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None
    if spec.retries > 0:
        retry = RetryPolicy(max_attempts=spec.retries + 1, seed=spec.seed)
        # One breaker for the whole run: the workers trip it together and
        # a single half-open probe rediscovers a restarted server.
        breaker = CircuitBreaker(threshold=spec.concurrency * 2, cooldown=0.1)

    async def worker() -> None:
        client = await AsyncServeClient.connect(
            host=host, port=port, unix_path=unix_path, retry=retry, breaker=breaker
        )
        try:
            # next() on a shared iterator is race-free here: workers are
            # coroutines on one loop, and there is no await around it.
            for index, (op, graph_text) in cursor:
                # Trace identity is derived, not random: request `index`
                # under `seed` always travels as the same trace_id, so a
                # load run's server-side traces are addressable offline.
                trace = TraceContext(derived_trace_id(spec.seed, index))
                started = time.perf_counter()
                try:
                    response = await client.request(
                        op, graph_text, deadline=spec.deadline, trace=trace
                    )
                except (ConnectionError, OSError):
                    outcome.errors += 1
                    code = "connection"
                    outcome.error_codes[code] = (
                        outcome.error_codes.get(code, 0) + 1
                    )
                    continue
                latency_ms = (time.perf_counter() - started) * 1000.0
                outcome.latencies_ms.append(latency_ms)
                outcome.op_latencies_ms.setdefault(op, []).append(latency_ms)
                if response.get("ok"):
                    outcome.ok += 1
                    status = response["result"].get("status", "optimal")
                    outcome.statuses[status] = (
                        outcome.statuses.get(status, 0) + 1
                    )
                    if status in DEGRADED_STATUSES:
                        outcome.degraded += 1
                else:
                    code = response.get("error", {}).get("code", "unknown")
                    outcome.error_codes[code] = (
                        outcome.error_codes.get(code, 0) + 1
                    )
                    if code == "overloaded":
                        outcome.rejected += 1
                    else:
                        outcome.errors += 1
        finally:
            await client.close()

    started = time.perf_counter()
    workers = max(1, min(spec.concurrency, len(mix)))
    await asyncio.gather(*[worker() for _ in range(workers)])
    outcome.elapsed_seconds = time.perf_counter() - started
    return outcome


def run_load(
    spec: LoadSpec,
    host: str | None = None,
    port: int | None = None,
    unix_path: str | Path | None = None,
) -> LoadResult:
    """Synchronous entry point: drive the load on a fresh event loop.

    Usable wherever the caller has no loop of its own — the bench
    scenario, the ``make serve-smoke`` gate, and ``repro client
    --load`` all call this against a server running elsewhere (another
    thread or another process).
    """
    return asyncio.run(
        drive_load(spec, host=host, port=port, unix_path=unix_path)
    )


__all__ = [
    "LoadResult",
    "LoadSpec",
    "build_graph_pool",
    "drive_load",
    "run_load",
    "sample_mix",
]
