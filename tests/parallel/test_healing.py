"""Pool self-healing: killed workers never change answers.

The contract under test (docs/ROBUSTNESS.md): a worker killed mid-batch
— injected deterministically through the ``worker.crash`` fault site —
is an invisible performance event.  The pool rebuilds, lost tasks
re-dispatch, poison tasks quarantine to an in-parent solve, and the
batch's schemes, costs, and statuses are byte-identical to a fault-free
run.  Batches through one long-lived pool are the solve server's path,
so those tests drive the server's ``Dispatcher`` over a shared
``WorkerPool``: one request per graph, then the whole batch as one
multi-component request, whose distinct components ship to the pool as
one multi-task wave (so one crash also loses its siblings).
"""

import asyncio

from repro import obs
from repro.core.families import worst_case_family
from repro.graphs.components import disjoint_union_many
from repro.graphs.generators import (
    matching_graph,
    random_connected_bipartite,
)
from repro.graphs.io import dump_bipartite
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.parallel import WorkerPool, solve_many
from repro.parallel.pool import (
    CRASH_SITE,
    QUARANTINE_MARKER,
    SolveTask,
    crash_draw,
    dispatch_resilient,
)
from repro.runtime.faults import FaultPlan, inject
from repro.server.dispatch import Dispatcher
from repro.server.protocol import OP_SOLVE, Request


def _batch():
    return [
        worst_case_family(2),
        worst_case_family(3),
        random_connected_bipartite(4, 4, 9, seed=11),
        matching_graph(3),
    ]


def _fingerprints(results):
    return [
        (
            r.scheme.configurations,
            r.effective_cost,
            r.raw_cost,
            r.jumps,
            r.optimal,
            r.status,
        )
        for r in results
    ]


def _serve(graphs, pool=None):
    """Solve each graph as one request, then their disjoint union as one
    more, through one dispatcher (its shared pool when given, else
    inline); the payloads in request order."""
    dispatcher = Dispatcher(pool=pool)
    union = disjoint_union_many(graphs)
    union = union.relabeled(
        {v: f"{v[0]}.{v[1]}" for v in (*union.left, *union.right)}
    )
    requests = list(graphs) + [union]

    async def run():
        return [
            await dispatcher.handle(
                Request(id=str(i), op=OP_SOLVE, graph_text=dump_bipartite(g))
            )
            for i, g in enumerate(requests)
        ]

    return asyncio.run(run())


def _served(payloads):
    return [
        (
            p["scheme"],
            p["effective_cost"],
            p["raw_cost"],
            p["jumps"],
            p["optimal"],
            p["status"],
        )
        for p in payloads
    ]


class TestCrashDraw:
    def test_no_plan_never_fires(self):
        assert crash_draw() is False

    def test_wildcard_rate_does_not_reach_workers(self):
        # "*" exercises exception sites; process death must be opted
        # into by name, so existing chaos runs keep their meaning.
        with inject(FaultPlan(seed=0, rates={"*": 1.0})):
            assert crash_draw() is False

    def test_explicit_site_fires(self):
        with inject(FaultPlan(seed=0, rates={CRASH_SITE: 1.0})):
            assert crash_draw() is True


class TestHealGeneration:
    def test_heal_rebuilds_once_per_observed_crash(self):
        pool = WorkerPool(2)
        first = pool.executor
        generation = pool.generation
        pool.heal(generation)
        assert pool.generation == generation + 1
        # A second dispatcher that saw the same crash must not rebuild
        # the already-healed pool out from under the first.
        pool.heal(generation)
        assert pool.generation == generation + 1
        assert pool.executor is not first
        pool.close()

    def test_pool_usable_after_heal(self):
        with WorkerPool(2) as pool:
            pool.heal(pool.generation)
            outcome = pool.submit(
                SolveTask(graph=worst_case_family(2), method="auto")
            ).result()
            assert outcome.result.optimal


class TestSelfHealing:
    def test_every_dispatch_crashing_still_completes(self):
        # Rate 1.0: every dispatch kills its worker, so every task rides
        # the full ladder — batch crash, serial retries, quarantine —
        # and the answers still match the fault-free run exactly.
        graphs = _batch()
        clean = _served(_serve(graphs))
        with WorkerPool(2) as pool:
            with inject(FaultPlan(seed=3, rates={CRASH_SITE: 1.0})):
                chaotic = _serve(graphs, pool)
        assert _served(chaotic) == clean

    def test_partial_crash_rate_is_deterministic_and_identical(self):
        graphs = _batch()
        clean = _served(_serve(graphs))
        runs = []
        trails = []
        for _repeat in range(2):
            with obs.recording():
                with WorkerPool(2) as pool:
                    with inject(FaultPlan(seed=7, rates={CRASH_SITE: 0.5})):
                        runs.append(_served(_serve(graphs, pool)))
                trails.append(
                    [
                        e.attrs["lost_tasks"]
                        for e in obs_events.events()
                        if e.name == "pool.worker_crash"
                    ]
                )
        obs.reset()
        assert runs[0] == clean
        assert runs[1] == clean
        # The union request's four distinct components ship as one wave;
        # a crash there loses live siblings too, and only that lost
        # remainder re-dispatches.  Same seed, same crash trail.
        assert max(trails[0]) > 1
        assert trails[0] == trails[1]

    def test_shared_pool_outlives_requests(self):
        # The executor survives every request; without crashes it is
        # never rebuilt, and a second round reuses it as is.
        graphs = _batch()
        with WorkerPool(2) as pool:
            first = _served(_serve(graphs, pool))
            executor = pool.executor
            second = _served(_serve(graphs, pool))
            assert pool.executor is executor
            assert pool.generation == 0
        assert first == second == _served(_serve(graphs))

    def test_throwaway_pool_path_also_heals(self):
        graphs = [worst_case_family(2), worst_case_family(3)]
        clean = _fingerprints(solve_many(graphs, jobs=2))
        with inject(FaultPlan(seed=1, rates={CRASH_SITE: 1.0})):
            chaotic = solve_many(graphs, jobs=2)
        assert _fingerprints(chaotic) == clean

    def test_quarantine_is_recorded_in_provenance(self):
        # A pooled dispatcher ships even a one-component request to the
        # pool; at rate 1.0 every task exhausts its failure budget and
        # must carry the quarantine marker.
        with WorkerPool(2) as pool:
            with inject(FaultPlan(seed=5, rates={CRASH_SITE: 1.0})):
                payloads = _serve(
                    [worst_case_family(2), worst_case_family(3)], pool
                )
        for payload in payloads:
            assert QUARANTINE_MARKER in payload["degradations"]

    def test_crash_trail_is_observable(self):
        obs.reset()
        obs.enable()
        try:
            with WorkerPool(2) as pool:
                with inject(FaultPlan(seed=3, rates={CRASH_SITE: 1.0})):
                    _serve(_batch(), pool)
            names = [e.name for e in obs_events.events()]
            assert "fault.injected" in names
            assert "pool.worker_crash" in names
            assert "pool.quarantine" in names
            counters = obs_metrics.snapshot()["counters"]
            assert counters["parallel.pool.worker_crashes"] >= 1
            assert counters["parallel.pool.quarantines"] >= 1
            # The trail validates against the closed vocabulary.
            assert obs_events.validate_jsonl(obs_events.to_jsonl()) == []
        finally:
            obs.disable()
            obs.reset()


class TestDispatchResilient:
    def test_happy_path_preserves_order(self):
        # Connected graphs: one component each, so a per-graph SolveTask
        # matches solve_many's per-component answer exactly.
        graphs = [
            worst_case_family(2),
            worst_case_family(3),
            random_connected_bipartite(3, 3, 7, seed=2),
        ]
        payloads = [SolveTask(graph=g, method="auto") for g in graphs]
        with WorkerPool(2) as pool:
            outcomes = dispatch_resilient(pool, payloads)
        direct = _fingerprints([o.result for o in outcomes])
        clean = _fingerprints([r for r in solve_many(graphs, jobs=1)])
        assert direct == clean

    def test_empty_batch(self):
        with WorkerPool(1) as pool:
            assert dispatch_resilient(pool, []) == []
