"""Tests for the solver registry and automatic method selection."""

import pytest

from repro.errors import SolverError
from repro.graphs.components import component_vertex_sets
from repro.graphs.generators import (
    complete_bipartite,
    random_bipartite_gnm,
    random_connected_bipartite,
    random_tsp12_graph,
    union_of_bicliques,
)
from repro.core.families import worst_case_family
from repro.core.solvers.registry import (
    METHODS,
    SolveResult,
    _max_component_edges,
    optimal_effective_cost,
    solve,
)
from repro.runtime import FakeClock


class TestAuto:
    def test_equijoin_shape_routes_to_linear_solver(self):
        g = union_of_bicliques([(2, 3), (1, 1)])
        result = solve(g)
        assert result.method == "equijoin"
        assert result.optimal
        assert result.effective_cost == g.num_edges

    def test_small_hard_instance_routes_to_exact(self):
        g = worst_case_family(4)
        result = solve(g)
        assert result.method == "exact"
        assert result.optimal

    def test_large_instance_routes_to_approximation(self):
        g = worst_case_family(40)  # m = 80, beyond the exact limit
        result = solve(g)
        assert result.method == "dfs+polish"
        assert not result.optimal
        result.scheme.validate(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_max_component_edges_matches_induced_subgraphs(self, seed):
        for g in (
            random_bipartite_gnm(8, 8, 12, seed=seed),
            random_tsp12_graph(14, 3, seed=seed),
            worst_case_family(seed + 1),
        ):
            working = g.without_isolated_vertices()
            expected = max(
                (working.subgraph(vs).num_edges
                 for vs in component_vertex_sets(working)),
                default=0,
            )
            assert _max_component_edges(g) == expected

    def test_exact_edge_limit_override(self):
        g = worst_case_family(10)  # m = 20
        result = solve(g, exact_edge_limit=25)
        assert result.method == "exact"


class TestExplicitMethods:
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "auto"])
    def test_every_method_produces_valid_scheme(self, method):
        g = complete_bipartite(2, 3)
        if method == "equijoin":
            result = solve(g, method)
        else:
            result = solve(g, method)
        result.scheme.validate(g)
        assert result.effective_cost >= g.num_edges

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            solve(complete_bipartite(1, 1), "magic")

    def test_equijoin_method_on_wrong_shape_raises(self):
        with pytest.raises(SolverError):
            solve(worst_case_family(3), "equijoin")

    @pytest.mark.parametrize(
        "setting", [{"node_buget": 1}, {"typo_option": 3}, {"memo_cap": 5}]
    )
    def test_unknown_setting_rejected(self, setting):
        with pytest.raises(TypeError):
            solve(worst_case_family(3), "auto", **setting)


class TestResult:
    def test_summary_format(self):
        g = complete_bipartite(2, 2)
        result = solve(g)
        text = result.summary()
        assert "pi=4" in text
        assert "optimal" in text

    def test_costs_consistent(self):
        for seed in range(4):
            g = random_connected_bipartite(4, 4, extra_edges=2, seed=seed)
            result = solve(g, "dfs")
            assert result.raw_cost == result.effective_cost + 1  # connected
            assert result.jumps == result.scheme.jumps()

    def test_optimal_effective_cost_shortcut(self):
        g = union_of_bicliques([(3, 3), (2, 1)])
        assert optimal_effective_cost(g) == g.num_edges

    def test_optimal_effective_cost_exact_path(self):
        g = worst_case_family(4)
        assert optimal_effective_cost(g) == 9


class TestBudgetOptionsNonDestructive:
    """Regression: ``_resolve_budget`` once ``pop``-ed the budget keys out
    of the caller's options dict, so a shared dict lost its deadline after
    the first solve — exactly the batch-solve pattern ``solve_many`` uses."""

    def test_shared_options_dict_survives_two_resolutions(self):
        from repro.core.solvers.registry import _resolve_budget

        shared = {"deadline": 5.0, "clock": FakeClock()}
        snapshot = dict(shared)
        first = _resolve_budget(None, **shared)
        assert shared == snapshot
        second = _resolve_budget(None, **shared)
        assert shared == snapshot
        assert first is not None and first.deadline == 5.0
        assert second is not None and second.deadline == 5.0
        assert first.clock is second.clock is shared["clock"]
        assert first is not second

    def test_solving_twice_with_one_options_dict(self):
        g = worst_case_family(2)
        options = {"deadline": 60.0}
        first = solve(g, "auto", **options)
        second = solve(g, "auto", **options)
        assert options == {"deadline": 60.0}
        assert first.effective_cost == second.effective_cost
        assert first.status == second.status

    def test_budget_keys_stripped_from_solver_options(self):
        # Budget knobs must not leak into the method dispatch (solvers
        # would reject them as unexpected keyword arguments).
        result = solve(worst_case_family(2), "exact", deadline=60.0)
        assert result.optimal
