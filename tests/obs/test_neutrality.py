"""Behaviour-neutrality of the observability hooks.

The whole point of the obs subsystem is that it observes without
perturbing: every solver must return the identical scheme and cost with
collection enabled as with it disabled, the engine must emit the same
rows, and two same-seed runs must write byte-identical metrics.json.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.solvers.registry import METHODS, solve
from repro.engine import JoinQuery, execute
from repro.graphs.generators import random_connected_bipartite
from repro.joins.predicates import Equality
from repro.obs import events, metrics, trace
from repro.workloads.equijoin import zipf_equijoin_workload

import pytest


def _solve_fingerprint(graph, method):
    result = solve(graph, method)
    return (
        result.scheme,
        result.effective_cost,
        result.raw_cost,
        result.jumps,
        result.optimal,
        result.method,
    )


def _graph_for(method, seed):
    if method == "equijoin":
        # The equijoin fast path only accepts union-of-biclique graphs.
        left, right = zipf_equijoin_workload(8, 8, key_universe=3, seed=seed)
        from repro.joins.join_graph import build_join_graph

        return build_join_graph(left, right, Equality())
    return random_connected_bipartite(4, 4, 10, seed=seed)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_solver_identical_with_and_without_collection(method, seed):
    graph = _graph_for(method, seed)

    obs.disable()
    baseline = _solve_fingerprint(graph, method)

    obs.reset()
    obs.enable()
    try:
        observed = _solve_fingerprint(graph, method)
    finally:
        obs.disable()

    assert observed == baseline


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_solver_identical_with_event_log_enabled(method, seed):
    """The event-log emission sites (solver.phase, ladder.degraded,
    budget.tripped) must observe without perturbing, exactly like spans
    and counters."""
    graph = _graph_for(method, seed)

    obs.disable()
    baseline = _solve_fingerprint(graph, method)

    obs.reset()
    obs.enable()
    try:
        observed = _solve_fingerprint(graph, method)
    finally:
        obs.disable()

    assert observed == baseline


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_budget_ladder_identical_with_event_log_enabled(seed):
    """Budget-starved solves degrade through the ladder identically with
    the event log on — budget.tripped / ladder.degraded are pure
    observations."""
    from repro.runtime import Budget

    graph = random_connected_bipartite(4, 4, 10, seed=seed)

    def fingerprint():
        result = solve(graph, budget=Budget(node_budget=5))
        return (
            result.scheme,
            result.effective_cost,
            result.method,
            None
            if result.provenance is None
            else tuple(result.provenance.degradations),
        )

    obs.disable()
    baseline = fingerprint()
    obs.reset()
    obs.enable()
    try:
        observed = fingerprint()
    finally:
        obs.disable()
    assert observed == baseline


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_engine_output_identical_with_and_without_collection(seed):
    left, right = zipf_equijoin_workload(15, 15, key_universe=5, seed=seed)
    query = JoinQuery(left, right, Equality())

    def fingerprint():
        result = execute(query)
        return (
            sorted(result.rows),
            result.plan.algorithm_name,
            None if result.trace is None else result.trace.effective_cost,
        )

    baseline = fingerprint()
    obs.reset()
    obs.enable()
    try:
        observed = fingerprint()
    finally:
        obs.disable()
    assert observed == baseline


def _seeded_run(tmp_path, run_id, seed):
    """One 'experiment' whose metrics depend only on the seed."""
    from repro.obs.manifest import write_run

    obs.reset()
    obs.enable()
    left, right = zipf_equijoin_workload(12, 12, key_universe=4, seed=seed)
    execute(JoinQuery(left, right, Equality()))
    graph = random_connected_bipartite(3, 3, 8, seed=seed)
    solve(graph, "dfs+polish")
    run_dir = write_run(run_id, runs_dir=tmp_path, seed=seed)
    obs.disable()
    return (run_dir / "metrics.json").read_bytes()


def test_same_seed_runs_write_byte_identical_metrics(tmp_path):
    first = _seeded_run(tmp_path, "run-a", seed=123)
    second = _seeded_run(tmp_path, "run-b", seed=123)
    assert first == second


def test_different_seed_runs_usually_differ(tmp_path):
    # Sanity check that the byte-identical test above is not vacuous.
    first = _seeded_run(tmp_path, "run-a", seed=1)
    second = _seeded_run(tmp_path, "run-c", seed=2)
    assert first != second


class TestHotPathInstrumentation:
    """The per-phase spans added to the solver/engine hot paths must obey
    the same contract as every other hook: present when collection is on,
    absent (and behaviour-neutral) when it is off."""

    def test_exact_solver_phase_spans_recorded(self):
        # Sparse on purpose: a complete-bipartite component would be
        # answered in closed form without entering the search at all.
        graph = random_connected_bipartite(4, 4, 3, seed=0)
        obs.enable()
        solve(graph, "exact")
        names = {s.name for s in trace.spans()}
        assert "solver.exact" in names
        assert "solver.exact.component" in names
        assert "solver.exact.level" in names

    def test_exact_solver_counters_flushed(self):
        graph = random_connected_bipartite(4, 4, 3, seed=0)
        obs.enable()
        solve(graph, "exact")
        assert metrics.counter("solver.exact.search_nodes") > 0
        assert metrics.counter("solver.exact.bound_checks") > 0
        assert metrics.counter("solver.exact.deepening_levels") > 0

    def test_held_karp_phase_spans_recorded(self):
        from repro.core.solvers.held_karp import held_karp_effective_cost

        graph = random_connected_bipartite(3, 3, 6, seed=1)
        obs.enable()
        held_karp_effective_cost(graph)
        names = {s.name for s in trace.spans()}
        assert "solver.held_karp.build" in names
        assert "solver.held_karp.dp" in names
        assert metrics.counter("solver.held_karp.memo_cells") > 0

    def test_engine_materialize_span_recorded(self):
        left, right = zipf_equijoin_workload(10, 10, key_universe=4, seed=0)
        obs.enable()
        execute(JoinQuery(left, right, Equality()))
        names = {s.name for s in trace.spans()}
        assert "engine.materialize" in names

    def test_no_spans_recorded_while_disabled(self):
        graph = random_connected_bipartite(3, 3, 8, seed=0)
        left, right = zipf_equijoin_workload(10, 10, key_universe=4, seed=0)
        assert not obs.is_enabled()
        solve(graph, "exact")
        execute(JoinQuery(left, right, Equality()))
        assert trace.spans() == []
        assert metrics.snapshot()["counters"] == {}

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_held_karp_cost_identical_with_and_without_collection(self, seed):
        from repro.core.solvers.held_karp import held_karp_effective_cost

        graph = random_connected_bipartite(3, 3, 6, seed=seed)
        obs.disable()
        baseline = held_karp_effective_cost(graph)
        obs.reset()
        obs.enable()
        try:
            observed = held_karp_effective_cost(graph)
        finally:
            obs.disable()
        assert observed == baseline


class TestSelectivityModes:
    def test_small_inputs_use_exact_enumeration(self):
        from repro.engine.stats import estimate_selectivity

        left, right = zipf_equijoin_workload(5, 5, key_universe=3, seed=0)
        obs.enable()
        estimate_selectivity(left, right, Equality(), sample_size=100, seed=0)
        assert metrics.counter("planner.selectivity.exact") == 1
        assert metrics.counter("planner.selectivity.sampled") == 0
        assert metrics.counter("planner.selectivity.pairs_evaluated") == 25

    def test_exact_mode_independent_of_sampling_seed(self):
        from repro.engine.stats import estimate_selectivity

        left, right = zipf_equijoin_workload(6, 6, key_universe=3, seed=0)
        values = {
            estimate_selectivity(left, right, Equality(), sample_size=200, seed=s)
            for s in range(5)
        }
        assert len(values) == 1

    def test_large_inputs_fall_back_to_sampling(self):
        from repro.engine.stats import estimate_selectivity

        left, right = zipf_equijoin_workload(40, 40, key_universe=8, seed=0)
        obs.enable()
        estimate_selectivity(left, right, Equality(), sample_size=50, seed=0)
        assert metrics.counter("planner.selectivity.sampled") == 1
        assert metrics.counter("planner.selectivity.exact") == 0


class TestJoinGraphRetention:
    """``execute`` builds its trace graph once per call and keeps no
    copy: nothing process-wide outlives the result."""

    def test_dropped_result_frees_its_trace_graph(self, monkeypatch):
        import gc
        import weakref

        from repro.joins import join_graph

        built = []
        build = join_graph.build_join_graph

        def recording_build(*args, **kwargs):
            graph = build(*args, **kwargs)
            built.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(join_graph, "build_join_graph", recording_build)
        left, right = zipf_equijoin_workload(10, 10, key_universe=4, seed=0)
        result = execute(JoinQuery(left, right, Equality()))
        assert result.trace is not None
        assert len(built) == 1
        del result
        gc.collect()
        assert built[0]() is None

    def test_repeated_execute_gives_equal_traces(self):
        left, right = zipf_equijoin_workload(10, 10, key_universe=4, seed=0)
        query = JoinQuery(left, right, Equality())
        first, second = execute(query), execute(query)
        assert first.trace is not None
        assert first.trace == second.trace
        assert first.pairs == second.pairs
        assert first.rows == second.rows


class TestParallelNeutrality:
    """The pool and cache paths observe without perturbing: solve_many
    returns identical batches with collection on or off, with a cache or
    without, warm or cold."""

    @staticmethod
    def _batch_fingerprint(jobs=1, cache=None):
        from repro.core.families import worst_case_family
        from repro.graphs.components import disjoint_union_many
        from repro.parallel import solve_many

        graphs = [
            worst_case_family(2),
            worst_case_family(3),
            disjoint_union_many([worst_case_family(2), worst_case_family(2)]),
            random_connected_bipartite(3, 3, 7, seed=9),
        ]
        return [
            (
                r.scheme.configurations,
                r.effective_cost,
                r.raw_cost,
                r.jumps,
                r.optimal,
                r.status,
            )
            for r in solve_many(graphs, jobs=jobs, cache=cache)
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solve_many_identical_with_and_without_collection(self, jobs):
        obs.disable()
        baseline = self._batch_fingerprint(jobs=jobs)

        obs.reset()
        obs.enable()
        try:
            observed = self._batch_fingerprint(jobs=jobs)
        finally:
            obs.disable()
            obs.reset()
        assert observed == baseline

    def test_cache_hits_identical_with_and_without_collection(self):
        from repro.parallel import SolveCache

        cold = self._batch_fingerprint(jobs=1)
        cache = SolveCache()
        self._batch_fingerprint(jobs=1, cache=cache)  # seed the cache
        obs.reset()
        obs.enable()
        try:
            warm_observed = self._batch_fingerprint(jobs=1, cache=cache)
            assert any(
                e.name in ("cache.hit",) for e in events.events()
            ), "warm run should emit cache.hit events"
        finally:
            obs.disable()
            obs.reset()
        assert warm_observed == cold

    def test_pool_counters_merge_deterministically(self):
        """Two identical jobs=2 runs produce identical counter snapshots:
        worker counters merge in sorted order, not completion order."""

        def counters():
            obs.reset()
            obs.enable()
            try:
                self._batch_fingerprint(jobs=2)
                return dict(metrics.snapshot()["counters"])
            finally:
                obs.disable()
                obs.reset()

        assert counters() == counters()
