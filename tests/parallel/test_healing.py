"""Pool self-healing: killed workers never change answers.

The contract under test (docs/ROBUSTNESS.md): a worker killed mid-batch
— injected deterministically through the ``worker.crash`` fault site —
is an invisible performance event.  The pool rebuilds, lost tasks
re-dispatch, poison tasks quarantine to an in-parent solve, and the
batch's schemes, costs, and statuses are byte-identical to a fault-free
run.
"""

import pytest

from repro import obs
from repro.core.families import worst_case_family
from repro.graphs.generators import (
    matching_graph,
    random_connected_bipartite,
)
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
        clean = _fingerprints(solve_many(graphs, jobs=2))
        with WorkerPool(2) as pool:
            with inject(FaultPlan(seed=3, rates={CRASH_SITE: 1.0})):
                chaotic = solve_many(graphs, jobs=2, pool=pool)
        assert _fingerprints(chaotic) == clean

    def test_partial_crash_rate_is_deterministic_and_identical(self):
        graphs = _batch()
        clean = _fingerprints(solve_many(graphs, jobs=2))
        runs = []
        for _repeat in range(2):
            with WorkerPool(2) as pool:
                with inject(FaultPlan(seed=7, rates={CRASH_SITE: 0.5})):
                    runs.append(solve_many(graphs, jobs=2, pool=pool))
        assert _fingerprints(runs[0]) == clean
        assert _fingerprints(runs[1]) == clean

    def test_throwaway_pool_path_also_heals(self):
        graphs = [worst_case_family(2), worst_case_family(3)]
        clean = _fingerprints(solve_many(graphs, jobs=2))
        with inject(FaultPlan(seed=1, rates={CRASH_SITE: 1.0})):
            chaotic = solve_many(graphs, jobs=2)
        assert _fingerprints(chaotic) == clean

    def test_quarantine_is_recorded_in_provenance(self):
        # Two distinct components (single-task batches solve inline and
        # never reach the pool); at rate 1.0 both tasks exhaust their
        # failure budget and must carry the quarantine marker.
        with WorkerPool(2) as pool:
            with inject(FaultPlan(seed=5, rates={CRASH_SITE: 1.0})):
                results = solve_many(
                    [worst_case_family(2), worst_case_family(3)],
                    jobs=2,
                    pool=pool,
                )
        for result in results:
            assert result.provenance is not None
            assert QUARANTINE_MARKER in result.provenance.degradations

    def test_crash_trail_is_observable(self):
        obs.reset()
        obs.enable()
        try:
            with WorkerPool(2) as pool:
                with inject(FaultPlan(seed=3, rates={CRASH_SITE: 1.0})):
                    solve_many(_batch(), jobs=2, pool=pool)
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
