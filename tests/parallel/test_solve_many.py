"""``solve_many``: jobs-invariance, Lemma 2.2 reassembly, cache equivalence.

The contract under test: the job count and the cache are pure
*performance* knobs.  Costs, schemes, statuses, and optimality flags are
identical across ``jobs=1``, ``jobs=4``, cold cache, and warm cache —
and identical to a direct ``registry.solve`` on the same graph.
"""

from collections import Counter

import pytest

from repro import obs
from repro.core.families import worst_case_family
from repro.core.solvers.registry import solve
from repro.errors import SolverError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import disjoint_union_many
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    random_connected_bipartite,
)
from repro.obs import events as obs_events
from repro.obs import trace as obs_trace
from repro.parallel import SolveCache, solve_many, split_deadline, use_cache


def _batch():
    return [
        worst_case_family(2),
        worst_case_family(3),
        random_connected_bipartite(4, 4, 9, seed=11),
        disjoint_union_many(
            [worst_case_family(2), worst_case_family(3), worst_case_family(2)]
        ),
        matching_graph(3),
        complete_bipartite(2, 3),
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


class TestJobsInvariance:
    def test_jobs_1_vs_4_identical(self):
        graphs = _batch()
        assert _fingerprints(solve_many(graphs, jobs=1)) == _fingerprints(
            solve_many(graphs, jobs=4)
        )

    def test_matches_direct_solve_costs(self):
        graphs = _batch()
        results = solve_many(graphs, jobs=4)
        for graph, result in zip(graphs, results):
            direct = solve(graph, "auto")
            assert result.effective_cost == direct.effective_cost
            assert result.raw_cost == direct.raw_cost
            assert result.status == direct.status
            assert result.optimal == direct.optimal

    @pytest.mark.parametrize("method", ["exact", "dfs+polish"])
    def test_explicit_methods(self, method):
        graphs = [worst_case_family(2), worst_case_family(3)]
        assert _fingerprints(
            solve_many(graphs, method=method, jobs=1)
        ) == _fingerprints(solve_many(graphs, method=method, jobs=2))

    def test_schemes_are_valid(self):
        graphs = _batch()
        for graph, result in zip(graphs, solve_many(graphs, jobs=2)):
            working = graph.without_isolated_vertices()
            # The stitched scheme must delete every edge of the graph.
            assert result.scheme.is_valid(working)
            assert result.scheme.effective_cost(working) == result.effective_cost

    def test_jobs_1_vs_2_identical_account(self):
        """Same spans and events whether solved inline or in workers.

        30-edge graphs run dfs_approx + polish (Thm 3.1), whose spans
        and events are recorded in the worker processes at jobs=2.
        """
        graphs = [
            random_connected_bipartite(10, 10, 30, seed=seed) for seed in range(6)
        ]
        accounts = []
        for jobs in (1, 2):
            with obs.recording():
                solve_many(graphs, jobs=jobs)
            spans = obs_trace.spans()
            by_index = {span.index: span.name for span in spans}
            accounts.append((
                sorted((s.name, by_index.get(s.parent_index)) for s in spans),
                Counter(event.name for event in obs_events.events()),
            ))
        obs.reset()
        assert accounts[0] == accounts[1]
        tree, events = accounts[1]
        assert ("solver.polish", "solver.solve") in tree
        assert ("solver.solve", "parallel.solve_many") in tree
        assert events["solver.phase"] == len(graphs)


class TestReassembly:
    def test_component_costs_add(self):
        """Lemma 2.2: pi of a disjoint union is the sum of component pis."""
        parts = [worst_case_family(2), worst_case_family(3), matching_graph(2)]
        union = disjoint_union_many(parts)
        [result] = solve_many([union], jobs=2)
        expected = sum(solve(p, "auto").effective_cost for p in parts)
        assert result.effective_cost == expected
        assert result.optimal

    def test_duplicate_components_solved_once(self):
        """Structurally identical components collapse into one task."""
        union = disjoint_union_many([worst_case_family(2)] * 4)
        [result] = solve_many([union], jobs=2)
        assert (
            result.effective_cost
            == 4 * solve(worst_case_family(2), "auto").effective_cost
        )

    def test_empty_graph(self):
        [result] = solve_many([BipartiteGraph()], jobs=2)
        assert result.effective_cost == 0
        assert result.raw_cost == 0
        assert result.optimal
        assert result.scheme.configurations == ()

    def test_results_in_input_order(self):
        graphs = [worst_case_family(3), worst_case_family(2), worst_case_family(4)]
        costs = [r.effective_cost for r in solve_many(graphs, jobs=2)]
        assert costs == [solve(g, "auto").effective_cost for g in graphs]


class TestCacheEquivalence:
    def test_warm_equals_cold(self):
        graphs = _batch()
        cache = SolveCache()
        with use_cache(cache):
            cold = solve_many(graphs, jobs=2)
            warm = solve_many(graphs, jobs=2)
        assert _fingerprints(cold) == _fingerprints(warm)
        assert cache.stats.hits > 0
        assert cache.stats.misses == cache.stats.stores

    def test_cache_arg_overrides_ambient(self):
        graphs = [worst_case_family(2)]
        explicit = SolveCache()
        ambient = SolveCache()
        with use_cache(ambient):
            solve_many(graphs, cache=explicit)
        assert explicit.stats.misses == 1
        assert ambient.stats.misses == 0

    def test_persistent_cache_across_calls(self, tmp_path):
        db = tmp_path / "cache.db"
        graphs = _batch()
        first_cache = SolveCache(path=db)
        cold = solve_many(graphs, jobs=2, cache=first_cache)
        first_cache.close()
        second_cache = SolveCache(path=db)
        warm = solve_many(graphs, jobs=2, cache=second_cache)
        second_cache.close()
        assert _fingerprints(cold) == _fingerprints(warm)
        assert second_cache.stats.persistent_hits > 0
        assert second_cache.stats.stores == 0


class TestBudgets:
    def test_split_deadline_waves(self):
        assert split_deadline(None, 10, 4) is None
        assert split_deadline(12.0, 0, 4) is None
        assert split_deadline(12.0, 8, 4) == 6.0  # 2 waves
        assert split_deadline(12.0, 3, 4) == 12.0  # 1 wave
        assert split_deadline(12.0, 9, 4) == 4.0  # 3 waves

    def test_generous_deadline_stays_optimal(self):
        graphs = [worst_case_family(2), worst_case_family(3)]
        results = solve_many(graphs, jobs=2, deadline=300.0)
        assert all(r.optimal for r in results)

    def test_split_deadline_zero_remaining_clamps_to_zero(self):
        # A request whose budget is already spent hands 0.0 downstream:
        # a valid share (instant cooperative trip), not None and never
        # a Budget constructor error.
        assert split_deadline(0.0, 8, 4) == 0.0
        assert split_deadline(0.0, 1, 1) == 0.0

    def test_split_deadline_negative_remaining_clamps_to_zero(self):
        # Negative "remaining" can reach the splitter when a deadline
        # overruns between measurement and dispatch; the share clamps.
        assert split_deadline(-2.5, 4, 2) == 0.0
        assert split_deadline(-0.001, 1, 8) == 0.0

    def test_split_deadline_more_waves_than_milliseconds(self):
        # 1 ms across 1000 single-job waves: shares collapse toward zero
        # but stay non-negative and Budget-constructible.
        share = split_deadline(0.001, 1000, 1)
        assert share is not None
        assert 0.0 <= share <= 0.001
        from repro.runtime.budget import Budget

        Budget(deadline=share)  # must not raise

    def test_split_deadline_share_never_negative_or_oversized(self):
        for deadline in (0.0, 0.5, 7.0):
            for tasks in (1, 3, 17):
                for jobs in (1, 2, 16):
                    share = split_deadline(deadline, tasks, jobs)
                    assert share is not None
                    assert 0.0 <= share <= deadline or deadline == 0.0

    def test_zero_deadline_degrades_with_budget_status_vocabulary(self):
        # Exhaustion mid-batch must surface through the anytime status
        # vocabulary — degraded statuses, answers for every graph, and
        # no exception out of solve_many.
        from repro.runtime.anytime import DEGRADED_STATUSES

        graphs = [worst_case_family(4), worst_case_family(5)]
        results = solve_many(graphs, jobs=1, deadline=0.0)
        assert len(results) == len(graphs)
        for result in results:
            assert result.status in DEGRADED_STATUSES
            assert result.scheme.configurations  # still a usable scheme
            assert not result.optimal

    def test_zero_deadline_degrades_identically_across_pool(self):
        # The zero-share path must hold through worker processes too.
        from repro.runtime.anytime import DEGRADED_STATUSES

        graphs = [worst_case_family(4), worst_case_family(5)]
        results = solve_many(graphs, jobs=2, deadline=0.0)
        assert all(r.status in DEGRADED_STATUSES for r in results)


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(SolverError):
            solve_many([worst_case_family(2)], method="nope")

    def test_bad_jobs(self):
        with pytest.raises(SolverError):
            solve_many([worst_case_family(2)], jobs=0)

    def test_empty_batch(self):
        assert solve_many([], jobs=2) == []
