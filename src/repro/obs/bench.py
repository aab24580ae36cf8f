"""The benchmark harness behind ``repro bench``: the perf trajectory's feeder.

Each *scenario* re-runs one of the repo's benchmark workloads (the same
shapes as ``benchmarks/bench_*.py``) through the span/metrics layer and
returns a small dict of result scalars.  The harness times every scenario
with ``perf_counter_ns`` over a configurable number of repeats, snapshots
the metrics it generated, writes a run-manifest directory
(``runs/{run_id}/``) and emits a top-level ``BENCH_<date>.json`` — the
file the perf trajectory accumulates, one per benchmarked commit.

Two sizes per scenario: ``--smoke`` runs CI-sized inputs in a few
seconds; the default size is what perf PRs should compare against.
Everything is seeded, so scenario *results* (not timings) are
reproducible run to run.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.analysis.report import Table
from repro.obs import events as obs_events
from repro.obs import export as obs_export
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import planquality as obs_plans
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget, use_budget

if TYPE_CHECKING:
    from repro.parallel.cache import SolveCache

# v2 (see docs/ROBUSTNESS.md): per-scenario status/attempts/error fields
# and structured failure records instead of aborting the whole run.
BENCH_SCHEMA = "repro-bench/v2"
BENCH_SCHEMAS = ("repro-bench/v1", BENCH_SCHEMA)

# One wall-clock budget per scenario attempt, installed ambiently so the
# solving stack degrades (it is cooperative, not preemptive).
DEFAULT_SCENARIO_DEADLINE = 60.0


@dataclass(frozen=True)
class BenchConfig:
    """Knobs shared by every scenario invocation."""

    smoke: bool = False
    seed: int = 0
    # Worker processes for batch scenarios (repro bench --jobs).  Results
    # must not depend on it — only timings may; solver-batch asserts so.
    jobs: int = 1
    # The solve cache batch scenarios hand to solve_many (repro bench
    # --cache); like jobs, it may change timings, never results.
    cache: SolveCache | None = None

    def size(self, full: int, smoke: int) -> int:
        """Pick the full-size or smoke-size parameter."""
        return smoke if self.smoke else full


ScenarioFn = Callable[[BenchConfig], dict[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """One named benchmark scenario."""

    name: str
    description: str
    run: ScenarioFn


SCENARIOS: dict[str, Scenario] = {}


def scenario(name: str, description: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario function under ``name``."""

    def register(fn: ScenarioFn) -> ScenarioFn:
        SCENARIOS[name] = Scenario(name=name, description=description, run=fn)
        return fn

    return register


# ---------------------------------------------------------------------------
# Scenario definitions (mirroring benchmarks/bench_*.py workload shapes).
# ---------------------------------------------------------------------------


@scenario("engine-planner", "planner choices + execution pebbling (bench_engine)")
def _engine_planner(config: BenchConfig) -> dict[str, Any]:
    from repro.engine import JoinQuery, execute
    from repro.joins.predicates import Equality, SetContainment, SpatialOverlap
    from repro.workloads.equijoin import fk_pk_workload, zipf_equijoin_workload
    from repro.workloads.sets import zipf_sets_workload
    from repro.workloads.spatial import uniform_rectangles_workload

    n = config.size(40, 12)
    seed = config.seed + 1
    cases = [
        JoinQuery(
            *zipf_equijoin_workload(n, n, key_universe=8, seed=seed), Equality()
        ),
        JoinQuery(*fk_pk_workload(n + n // 2, n, seed=seed), Equality()),
        JoinQuery(
            *uniform_rectangles_workload(n, n, seed=seed), SpatialOverlap()
        ),
        JoinQuery(
            *zipf_sets_workload(n // 2, n // 2, universe=30, seed=seed),
            SetContainment(),
        ),
    ]
    total_m = 0
    worst_ratio = 1.0
    records = []
    for query in cases:
        # shadow=True: runner-up candidates are re-executed and scored by
        # pebbling cost, so this scenario also measures plan regret.
        result = execute(query, shadow=True)
        total_m += result.output_size
        if result.trace is not None:
            worst_ratio = max(worst_ratio, result.trace.cost_ratio)
        if result.plan.record is not None:
            records.append(result.plan.record)
    # Plan-quality scalars for the perf/calibration trajectory: all are
    # seed-deterministic (q-error from counts, regret from pebbling).
    from repro.obs.planquality import percentile

    q_errors = [r.q_error for r in records if r.q_error is not None]
    checked = [r for r in records if r.choice_correct is not None]
    return {
        "queries": len(cases),
        "total_m": total_m,
        "worst_ratio": worst_ratio,
        "plans": len(records),
        "q_p90": round(percentile(q_errors, 0.90), 4) if q_errors else None,
        "choice_accuracy": (
            round(sum(1 for r in checked if r.choice_correct) / len(checked), 4)
            if checked
            else None
        ),
    }


@scenario("engine-equijoin", "equijoin query throughput (bench_engine)")
def _engine_equijoin(config: BenchConfig) -> dict[str, Any]:
    from repro.engine import JoinQuery, execute
    from repro.joins.predicates import Equality
    from repro.workloads.equijoin import zipf_equijoin_workload

    n = config.size(200, 40)
    query = JoinQuery(
        *zipf_equijoin_workload(n, n, key_universe=max(8, n // 5), seed=config.seed + 3),
        Equality(),
    )
    result = execute(query, None, False)
    return {"n": n, "m": result.output_size, "plan": result.plan.algorithm_name}


@scenario("engine-spatial", "spatial query throughput (bench_engine)")
def _engine_spatial(config: BenchConfig) -> dict[str, Any]:
    from repro.engine import JoinQuery, execute
    from repro.joins.predicates import SpatialOverlap
    from repro.workloads.spatial import uniform_rectangles_workload

    n = config.size(150, 30)
    query = JoinQuery(
        *uniform_rectangles_workload(
            n, n, mean_side=6.0 if config.smoke else 3.0, seed=config.seed + 3
        ),
        SpatialOverlap(),
    )
    result = execute(query, None, False)
    return {"n": n, "m": result.output_size, "plan": result.plan.algorithm_name}


@scenario("engine-chain", "three-way chain throughput (bench_engine)")
def _engine_chain(config: BenchConfig) -> dict[str, Any]:
    from repro.engine import ChainQuery, execute_chain
    from repro.joins.predicates import Equality
    from repro.workloads.equijoin import zipf_equijoin_workload

    n = config.size(80, 20)
    a, b = zipf_equijoin_workload(n, n, key_universe=20, seed=config.seed + 4)
    _, c = zipf_equijoin_workload(1, n, key_universe=20, seed=config.seed + 5)
    chain = ChainQuery([a, b, c], [Equality(), Equality()])
    result = execute_chain(chain, False)
    return {"n": n, "rows": result.output_size, "stages": len(result.stages)}


@scenario("solver-exact", "exact search on the worst-case family (bench_hardness_scaling)")
def _solver_exact(config: BenchConfig) -> dict[str, Any]:
    from repro.core.families import worst_case_family
    from repro.core.solvers.registry import solve

    n = config.size(6, 4)
    family = worst_case_family(n)
    result = solve(family, "exact")
    return {"n": n, "m": family.num_edges, "pi": result.effective_cost}


@scenario("solver-dfs-approx", "1.25-approximation on random graphs (bench_dfs_approx)")
def _solver_dfs(config: BenchConfig) -> dict[str, Any]:
    from repro.core.solvers.registry import solve
    from repro.graphs.generators import random_connected_bipartite

    edges = config.size(120, 30)
    graph = random_connected_bipartite(
        edges // 4, edges // 4, edges, seed=config.seed + 7
    )
    result = solve(graph, "dfs+polish")
    return {
        "m": graph.num_edges,
        "pi": result.effective_cost,
        "jumps": result.jumps,
    }


@scenario("solver-batch", "batched component solves via solve_many (parallel service)")
def _solver_batch(config: BenchConfig) -> dict[str, Any]:
    from repro.core.families import worst_case_family
    from repro.graphs.components import disjoint_union_many
    from repro.graphs.generators import random_connected_bipartite
    from repro.parallel import solve_many

    top = config.size(5, 3)
    edges = config.size(40, 16)
    graphs = [worst_case_family(n) for n in range(2, top + 1)]
    graphs.append(
        disjoint_union_many(
            [worst_case_family(2), worst_case_family(3), worst_case_family(2)]
        )
    )
    graphs.append(
        random_connected_bipartite(
            edges // 4, edges // 4, edges, seed=config.seed + 19
        )
    )
    results = solve_many(
        graphs, method="auto", jobs=config.jobs, cache=config.cache
    )
    # `jobs` is deliberately absent from the results: scenario results
    # must be byte-identical across --jobs values (it is reported once,
    # at the top of the bench report).
    return {
        "graphs": len(graphs),
        "pi_total": sum(r.effective_cost for r in results),
        "optimal": sum(1 for r in results if r.optimal),
    }


@scenario("join-algorithms", "join algorithms traced in the model (bench_join_algorithms)")
def _join_algorithms(config: BenchConfig) -> dict[str, Any]:
    from repro.joins.algorithms import (
        hash_join,
        plane_sweep_join,
        sort_merge_join,
    )
    from repro.joins.join_graph import build_join_graph
    from repro.joins.predicates import Equality, SpatialOverlap
    from repro.joins.trace import trace_report
    from repro.workloads.equijoin import zipf_equijoin_workload
    from repro.workloads.spatial import uniform_rectangles_workload

    n = config.size(60, 15)
    eq_left, eq_right = zipf_equijoin_workload(
        n, n, key_universe=max(6, n // 5), seed=config.seed + 13
    )
    eq_graph = build_join_graph(eq_left, eq_right, Equality())
    sp_left, sp_right = uniform_rectangles_workload(
        n, n, mean_side=6.0, seed=config.seed + 13
    )
    sp_graph = build_join_graph(sp_left, sp_right, SpatialOverlap())
    reports = [
        trace_report(eq_graph, sort_merge_join(eq_left, eq_right), "sort-merge"),
        trace_report(eq_graph, hash_join(eq_left, eq_right), "hash"),
        trace_report(sp_graph, plane_sweep_join(sp_left, sp_right), "plane-sweep"),
    ]
    return {
        "algorithms": len(reports),
        "total_m": sum(r.output_size for r in reports),
        "worst_ratio": max(r.cost_ratio for r in reports),
    }


@scenario("storage-paging", "page-fetch scheduling on paged relations (storage)")
def _storage_paging(config: BenchConfig) -> dict[str, Any]:
    from repro.core.solvers.registry import solve
    from repro.relations.storage import (
        PagedRelation,
        page_connection_graph,
        schedule_report,
    )
    from repro.workloads.equijoin import zipf_equijoin_workload

    n = config.size(80, 24)
    left, right = zipf_equijoin_workload(
        n, n, key_universe=max(6, n // 8), seed=config.seed + 17
    )
    paged_left = PagedRelation(left, page_size=4)
    paged_right = PagedRelation(right, page_size=4)
    graph = page_connection_graph(paged_left, paged_right, lambda a, b: a == b)
    result = solve(graph, "dfs+polish")
    report = schedule_report(graph, result.scheme)
    return {
        "pages": paged_left.num_pages + paged_right.num_pages,
        "page_pairs": report.page_pairs,
        "fetches": report.fetches,
    }


@scenario("server-load", "concurrent zipf-skewed load on the solve server (repro serve)")
def _server_load(config: BenchConfig) -> dict[str, Any]:
    from repro.parallel.cache import SolveCache
    from repro.server.server import SolveServer, serve_background
    from repro.workloads.loadgen import LoadSpec, run_load

    spec = LoadSpec(
        requests=config.size(60, 20),
        concurrency=config.size(8, 4),
        universe=config.size(10, 6),
        edges=config.size(16, 10),
        seed=config.seed,
    )
    cache = SolveCache()
    server = SolveServer(port=0, jobs=config.jobs, cache=cache)
    with serve_background(server) as live:
        host, port = live.address
        # Two identical waves through one server: the first populates the
        # shared cache, the second measures the cache-hot steady state —
        # the shape a long-lived server actually serves.  The cold wave
        # runs serially: concurrent first-touches of one fingerprint
        # race consult-vs-store, which would make hit/miss counts (and
        # so this scenario's results) scheduling-dependent.
        cold = run_load(replace(spec, concurrency=1), host=host, port=port)
        warm = run_load(spec, host=host, port=port)
    hits = cache.stats.hits
    consults = hits + cache.stats.misses
    # Terminal statuses and counts are seed-deterministic; throughput and
    # latency are timings and belong here the same way wall_ns does.
    return {
        "requests": cold.requests + warm.requests,
        "ok": cold.ok + warm.ok,
        "rejected": cold.rejected + warm.rejected,
        "errors": cold.errors + warm.errors,
        "degraded": cold.degraded + warm.degraded,
        "cache_hit_rate": round(hits / consults, 4) if consults else 0.0,
        "throughput_rps": warm.as_dict()["throughput_rps"],
        "p50_ms": warm.as_dict()["p50_ms"],
        "p99_ms": warm.as_dict()["p99_ms"],
        # Per-op breakdown of the warm wave: request counts are mix-
        # deterministic, the quantiles are timings like p50_ms above.
        "per_op": warm.per_op(),
    }


def _wcoj_scenario(query) -> dict[str, Any]:
    """Shared body of the WCOJ scenarios: plan, race LFTJ against the
    binary cascade, and report both against the AGM bound."""
    import time

    from repro.engine import execute_multiway, plan_multiway
    from repro.joins.multiway import agm_bound, estimate_cascade

    the_plan = plan_multiway(query)

    def race(name: str, repeats: int = 3):
        """Best-of-N wall clock, so one scheduler hiccup cannot flip the
        LFTJ-vs-cascade comparison."""
        best_ns, best = None, None
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            run = execute_multiway(query, algorithm=name, with_trace=False)
            elapsed = time.perf_counter_ns() - t0
            if best_ns is None or elapsed < best_ns:
                best_ns, best = elapsed, run
        return best, best_ns

    lftj, lftj_ns = race("lftj")
    cascade, cascade_ns = race("binary-cascade")
    if lftj.result.binding_set() != cascade.result.binding_set():
        raise RuntimeError("lftj and binary cascade disagree on the output set")
    # Feed the plan's feedback loop (actuals, q-error) from the LFTJ run.
    trace = execute_multiway(query, chosen_plan=the_plan).trace
    agm = agm_bound(query)
    stages = estimate_cascade(query)
    return {
        # Deterministic: counters and estimates.
        "m": lftj.result.output_size,
        "agm_bound": round(agm, 1),
        "lftj_intermediates": lftj.result.intermediates,
        "cascade_intermediates": cascade.result.intermediates,
        "cascade_estimate": max(stages[:-1], default=0),
        "plan": the_plan.algorithm_name,
        "beta0": None if trace is None else trace.beta0,
        "cost_ratio": None if trace is None else round(trace.report.cost_ratio, 4),
        # Timings (excluded from determinism gates like wall_ns).
        "lftj_ms": round(lftj_ns / 1e6, 3),
        "cascade_ms": round(cascade_ns / 1e6, 3),
        "speedup_vs_cascade": round(cascade_ns / max(1, lftj_ns), 2),
    }


@scenario(
    "wcoj-triangle",
    "skewed triangle: LFTJ vs binary cascade against the AGM bound",
)
def _wcoj_triangle(config: BenchConfig) -> dict[str, Any]:
    from repro.workloads.multiway import triangle_query

    n = config.size(600, 400)
    query = triangle_query(n, skew="worst-case", seed=config.seed)
    return {"n": n, "skew": "worst-case", **_wcoj_scenario(query)}


@scenario(
    "wcoj-4cycle",
    "4-cycle query: worst-case-optimal evaluation within the AGM bound",
)
def _wcoj_4cycle(config: BenchConfig) -> dict[str, Any]:
    from repro.workloads.multiway import four_cycle_query

    n = config.size(300, 120)
    query = four_cycle_query(n, skew="uniform", seed=config.seed)
    return {"n": n, "skew": "uniform", **_wcoj_scenario(query)}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Timing + results + metrics delta for one scenario.

    ``status`` is ``"ok"`` or ``"failed"``; a failed scenario keeps its
    structured ``error`` (exception type + message) and whatever timings
    completed before the failure, so one bad scenario no longer aborts —
    or vanishes from — the whole report.
    """

    name: str
    repeats: int
    wall_ns: list[int]
    results: dict[str, Any]
    counters: dict[str, int]
    status: str = "ok"
    attempts: int = 1
    error: str | None = None

    @property
    def best_ns(self) -> int:
        return min(self.wall_ns) if self.wall_ns else 0

    @property
    def mean_ns(self) -> float:
        if not self.wall_ns:
            return 0.0
        return sum(self.wall_ns) / len(self.wall_ns)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "wall_ns": {
                "best": self.best_ns,
                "mean": self.mean_ns,
                "all": list(self.wall_ns),
            },
            "results": self.results,
            "counters": self.counters,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class BenchReport:
    """The full outcome of one ``repro bench`` invocation."""

    run_id: str
    mode: str  # "smoke" | "full"
    seed: int
    jobs: int = 1
    scenarios: list[ScenarioResult] = field(default_factory=list)

    @property
    def failed(self) -> list[ScenarioResult]:
        return [s for s in self.scenarios if s.status != "ok"]

    def table(self) -> Table:
        table = Table(
            ["scenario", "status", "best ms", "mean ms", "repeats", "results"],
            title=f"repro bench ({self.mode}, seed={self.seed})",
        )
        for s in self.scenarios:
            if s.status == "ok":
                summary = " ".join(
                    f"{k}={v}" for k, v in sorted(s.results.items())
                )
            else:
                summary = s.error or "failed"
            table.add_row(
                [
                    s.name,
                    s.status,
                    round(s.best_ns / 1e6, 3),
                    round(s.mean_ns / 1e6, 3),
                    s.repeats,
                    summary,
                ]
            )
        return table

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "run_id": self.run_id,
            "mode": self.mode,
            "seed": self.seed,
            "jobs": self.jobs,
            "git_sha": obs_manifest.git_sha(),
            "created_unix": time.time(),
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "failed": len(self.failed),
            "scenarios": [s.as_dict() for s in self.scenarios],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def _run_one(
    name: str,
    config: BenchConfig,
    repeats: int,
    deadline: float | None = None,
) -> ScenarioResult:
    """Time one scenario; its metrics delta is read from the global registry.

    Robustness contract: up to **two attempts** (one retry — transient
    faults get a second chance, deterministic bugs do not loop), each
    under an ambient per-scenario ``deadline`` budget so the solving
    stack degrades instead of overrunning.  A scenario that fails both
    attempts is reported as a structured failure, never raised.
    """
    entry = SCENARIOS[name]
    before = dict(obs_metrics.snapshot()["counters"])
    wall: list[int] = []
    results: dict[str, Any] = {}
    status = "ok"
    error: str | None = None
    attempts = 0
    for attempt in (1, 2):
        attempts = attempt
        wall.clear()
        budget = Budget(deadline=deadline) if deadline is not None else None
        if obs_recorder.ON:
            obs_events.emit(
                obs_events.EVENT_SCENARIO_START,
                scenario=name,
                attempt=attempt,
                repeats=repeats,
            )
        try:
            for _ in range(repeats):
                with obs_trace.span(
                    f"bench.{name}", smoke=config.smoke, attempt=attempt
                ):
                    with use_budget(budget):
                        start = time.perf_counter_ns()
                        results = entry.run(config)
                        wall.append(time.perf_counter_ns() - start)
            status = "ok"
            error = None
            if obs_recorder.ON:
                obs_events.emit(
                    obs_events.EVENT_SCENARIO_END,
                    scenario=name,
                    attempt=attempt,
                    status=status,
                )
            break
        except Exception as exc:  # noqa: BLE001 — bench must survive anything
            status = "failed"
            error = f"{type(exc).__name__}: {exc}"
            if obs_recorder.ON:
                obs_metrics.inc(f"bench.scenario_failed.{name}")
                obs_events.emit(
                    obs_events.EVENT_SCENARIO_END,
                    scenario=name,
                    attempt=attempt,
                    status=status,
                    error=error,
                )
    after = obs_metrics.snapshot()["counters"]
    delta = {
        key: after[key] - before.get(key, 0)
        for key in sorted(after)
        if after[key] != before.get(key, 0)
    }
    return ScenarioResult(
        name=name,
        repeats=repeats,
        wall_ns=wall,
        results=results,
        counters=delta,
        status=status,
        attempts=attempts,
        error=error,
    )


def run_bench(
    smoke: bool = False,
    seed: int = 0,
    names: list[str] | None = None,
    repeats: int | None = None,
    runs_dir: str | Path = obs_manifest.DEFAULT_RUNS_DIR,
    out_dir: str | Path | None = ".",
    run_id: str | None = None,
    scenario_deadline: float | None = DEFAULT_SCENARIO_DEADLINE,
    publish_dir: str | Path | None = None,
    jobs: int = 1,
    cache_path: str | Path | None = None,
) -> tuple[BenchReport, Path, Path | None]:
    """Run the harness end to end.

    Records spans, metrics, events, and plans for the duration
    (:func:`repro.obs.recording`), runs the selected scenarios, writes
    ``runs/{run_id}/`` artifacts (manifest, metrics, tables,
    ``bench.json``, ``events.jsonl``, ``plans.jsonl``, traces), and —
    unless ``out_dir`` is None — a top-level ``BENCH_<date>.json``.
    Only with ``publish_dir`` set is the same snapshot also published
    there (``repro bench --publish-dir benchmarks/results`` extends the
    tracked perf-trajectory feed).  Returns ``(report, run_dir,
    bench_path)``.

    ``jobs`` flows to batch scenarios (``solver-batch``) through
    :class:`BenchConfig`; scenario *results* are jobs-invariant, only
    timings may change.  ``cache_path`` opens one
    :class:`~repro.parallel.cache.SolveCache` persisted at that path for
    the whole run and hands it to batch scenarios (``solver-batch``)
    through :class:`BenchConfig`, so a warm second run surfaces
    ``cache.hit`` events in ``events.jsonl``.

    Each scenario gets ``scenario_deadline`` seconds of ambient budget and
    one retry; failures become structured entries in the report rather
    than aborting the run (check ``report.failed``).
    """
    chosen = list(names or SCENARIOS)
    for name in chosen:
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
            )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if repeats is None:
        repeats = 1 if smoke else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    mode = "smoke" if smoke else "full"
    the_run_id = run_id or obs_manifest.make_run_id("bench", seed)
    report = BenchReport(run_id=the_run_id, mode=mode, seed=seed, jobs=jobs)

    with obs.recording():
        obs_events.set_run_id(the_run_id)
        obs_events.emit(
            obs_events.EVENT_RUN_START, mode=mode, seed=seed, scenarios=chosen
        )
        try:
            with contextlib.ExitStack() as stack:
                solve_cache = None
                if cache_path is not None:
                    from repro.parallel.cache import SolveCache

                    solve_cache = stack.enter_context(SolveCache(path=cache_path))
                config = BenchConfig(
                    smoke=smoke, seed=seed, jobs=jobs, cache=solve_cache
                )
                for name in chosen:
                    report.scenarios.append(
                        _run_one(name, config, repeats, deadline=scenario_deadline)
                    )
        finally:
            obs_events.emit(
                obs_events.EVENT_RUN_END,
                failed=[s.name for s in report.failed],
            )

    run_dir = obs_manifest.write_run(
        the_run_id,
        runs_dir=runs_dir,
        seed=seed,
        args={
            "smoke": smoke,
            "scenarios": chosen,
            "repeats": repeats,
        },
        tables=[report.table()],
        extra={"mode": mode, "failed": [s.name for s in report.failed]},
    )
    # The full structured report lives next to the manifest, so the run
    # registry indexes exact nanosecond timings instead of re-parsing
    # rounded table cells.
    obs_manifest.write_atomic(run_dir / "bench.json", report.to_json())
    # Every planned query's structured EXPLAIN record, estimate-vs-actual
    # included — the run registry aggregates it into calibration tables.
    if obs_plans.records():
        obs_manifest.write_atomic(run_dir / "plans.jsonl", obs_plans.to_jsonl())
    # Every bench run leaves an inspectable trace next to its manifest:
    # open trace.json in Perfetto, feed trace.folded to flamegraph.pl.
    obs_export.write_trace(run_dir / "trace.json", "perfetto")
    obs_export.write_trace(run_dir / "trace.folded", "folded")
    bench_path: Path | None = None
    payload_json = report.to_json()
    filename = f"BENCH_{report.as_dict()['date']}.json"
    if out_dir is not None:
        bench_path = Path(out_dir) / filename
        bench_path.write_text(payload_json)
    if publish_dir is not None:
        publish_root = Path(publish_dir)
        publish_root.mkdir(parents=True, exist_ok=True)
        obs_manifest.write_atomic(publish_root / filename, payload_json)
    return report, run_dir, bench_path


# ---------------------------------------------------------------------------
# Schema check for BENCH_*.json payloads (``repro check``).
# ---------------------------------------------------------------------------

_TOP_LEVEL_FIELDS = {
    "schema": str,
    "run_id": str,
    "mode": str,
    "seed": int,
    "git_sha": str,
    "created_unix": (int, float),
    "date": str,
    "scenarios": list,
}
_SCENARIO_FIELDS = {
    "name": str,
    "repeats": int,
    "wall_ns": dict,
    "results": dict,
    "counters": dict,
}
_SCENARIO_FIELDS_V2 = {**_SCENARIO_FIELDS, "status": str, "attempts": int}
_WALL_FIELDS = {"best": (int, float), "mean": (int, float), "all": list}


def _check_fields(obj: dict, spec: dict, context: str, problems: list[str]) -> None:
    for name, expected in spec.items():
        if name not in obj:
            problems.append(f"{context}: missing field {name!r}")
        elif not isinstance(obj[name], expected):
            problems.append(
                f"{context}: field {name!r} has type "
                f"{type(obj[name]).__name__}, expected {expected}"
            )


def validate_bench_payload(payload: object, context: str = "BENCH") -> list[str]:
    """All schema problems in one parsed ``repro-bench/v1|v2`` payload
    (empty = valid).

    Every perf-trajectory point must carry provenance (git SHA, seed,
    mode) and per-scenario timings with positive repeat counts.  v2 adds
    per-scenario ``status`` (``ok`` | ``failed``), ``attempts`` and
    ``error``: a failed scenario must carry a non-empty error and may
    have empty timings, an ok one must have at least one timing sample,
    and the top-level ``failed`` count must match.
    """
    if not isinstance(payload, dict):
        return [f"{context}: top level must be an object"]
    problems: list[str] = []
    _check_fields(payload, _TOP_LEVEL_FIELDS, context, problems)
    schema = payload.get("schema")
    if schema not in (None, *BENCH_SCHEMAS):
        problems.append(
            f"{context}: schema is {schema!r}, expected one of {BENCH_SCHEMAS}"
        )
    is_v2 = schema == BENCH_SCHEMA
    if payload.get("mode") not in (None, "smoke", "full"):
        problems.append(f"{context}: mode must be 'smoke' or 'full'")
    failed_count = 0
    scenarios = payload.get("scenarios")
    if isinstance(scenarios, list) and not scenarios:
        problems.append(f"{context}: scenarios must be non-empty")
    for position, entry in enumerate(scenarios if isinstance(scenarios, list) else []):
        where = f"{context}.scenarios[{position}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        _check_fields(
            entry, _SCENARIO_FIELDS_V2 if is_v2 else _SCENARIO_FIELDS, where, problems
        )
        if isinstance(entry.get("repeats"), int) and entry["repeats"] < 1:
            problems.append(f"{where}: repeats must be >= 1")
        status = entry.get("status", "ok") if is_v2 else "ok"
        if is_v2:
            if status not in ("ok", "failed"):
                problems.append(f"{where}: status must be one of ('ok', 'failed')")
            attempts = entry.get("attempts")
            if isinstance(attempts, int) and attempts < 1:
                problems.append(f"{where}: attempts must be >= 1")
            error = entry.get("error")
            if status == "failed":
                failed_count += 1
                if not isinstance(error, str) or not error:
                    problems.append(
                        f"{where}: failed scenario must carry a non-empty "
                        "'error' string"
                    )
            elif error not in (None, ""):
                problems.append(f"{where}: ok scenario must not carry an error")
        wall = entry.get("wall_ns")
        if isinstance(wall, dict):
            _check_fields(wall, _WALL_FIELDS, f"{where}.wall_ns", problems)
            timings = wall.get("all")
            if isinstance(timings, list):
                if not timings and status != "failed":
                    problems.append(f"{where}.wall_ns.all: must be non-empty")
                if any(not isinstance(t, (int, float)) or t < 0 for t in timings):
                    problems.append(
                        f"{where}.wall_ns.all: non-negative numbers only"
                    )
    if is_v2:
        declared = payload.get("failed")
        if not isinstance(declared, int):
            problems.append(f"{context}: v2 payload must carry a 'failed' count")
        elif declared != failed_count:
            problems.append(
                f"{context}: 'failed' is {declared}, but {failed_count} "
                "scenario(s) have status 'failed'"
            )
    return problems
