"""Property-based anytime contract: every budgeted result is a valid,
replayable scheme whose effective cost respects the reported lower bound.

This is the universally-quantified form of the acceptance criterion:
random graph x random budget x any method -> the result validates,
replays to a won game, and never undercuts its own provenance bound.
"""

from hypothesis import given, settings, strategies as st

from repro.core.game import PebbleGame
from repro.core.lower_bounds import effective_cost_lower_bound
from repro.core.solvers.registry import solve
from repro.graphs.bipartite import BipartiteGraph
from repro.runtime import Budget, FakeClock, STATUSES

# Methods that accept arbitrary bipartite graphs (equijoin requires
# complete-bipartite components, so it is exercised elsewhere).
GENERAL_METHODS = ("auto", "exact", "dfs+polish", "greedy", "greedy+polish")


@st.composite
def bipartite_graphs(draw, max_left=4, max_right=4, min_edges=2):
    n_left = draw(st.integers(1, max_left))
    n_right = draw(st.integers(1, max_right))
    cells = [(i, j) for i in range(n_left) for j in range(n_right)]
    chosen = draw(
        st.lists(
            st.sampled_from(cells),
            min_size=min(min_edges, len(cells)),
            max_size=len(cells),
        )
    )
    graph = BipartiteGraph(
        left=[f"u{i}" for i in range(n_left)],
        right=[f"v{j}" for j in range(n_right)],
    )
    for i, j in set(chosen):
        graph.add_edge(f"u{i}", f"v{j}")
    return graph.without_isolated_vertices()


@st.composite
def budgets(draw):
    """Budgets ranging from starved to effectively unlimited."""
    node_budget = draw(st.one_of(st.none(), st.integers(1, 200)))
    deadline = draw(st.one_of(st.none(), st.floats(0.001, 0.2)))
    step = draw(st.sampled_from([0.0, 0.001, 0.01]))
    return Budget(
        deadline=deadline,
        node_budget=node_budget,
        clock=FakeClock(step=step),
    )


COMMON = settings(max_examples=60, deadline=None)


@COMMON
@given(bipartite_graphs(), budgets(), st.sampled_from(GENERAL_METHODS))
def test_anytime_result_is_valid_and_bounded(graph, budget, method):
    if graph.num_edges == 0:
        return
    result = solve(graph, method, budget=budget)

    # 1. The scheme is a valid pebbling scheme for the instance.
    result.scheme.validate(graph)

    # 2. It replays to a won game with the advertised cost.
    game = PebbleGame(graph)
    game.replay(result.scheme)
    assert game.is_won()
    assert game.moves_used == result.raw_cost

    # 3. The status vocabulary is closed.
    assert result.status in STATUSES

    # 4. The effective cost never undercuts the reported lower bound.
    assert result.effective_cost >= effective_cost_lower_bound(graph)
    if result.provenance is not None and result.provenance.lower_bound is not None:
        assert result.effective_cost >= result.provenance.lower_bound


@COMMON
@given(bipartite_graphs(), budgets())
def test_anytime_result_is_replayable_deterministically(graph, budget):
    if graph.num_edges == 0:
        return
    first = solve(graph, "auto", budget=budget)
    rerun = Budget(
        deadline=budget.deadline,
        node_budget=budget.node_budget,
        clock=FakeClock(step=budget.clock.step),
    )
    second = solve(graph, "auto", budget=rerun)
    assert first.scheme.configurations == second.scheme.configurations
    assert first.effective_cost == second.effective_cost
    assert first.status == second.status
