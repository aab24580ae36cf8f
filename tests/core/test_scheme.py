"""Tests for PebblingScheme: validity, costs, and move expansion."""

import pytest

from repro.errors import SchemeError
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
)
from repro.core.scheme import (
    PebblingScheme,
    config_transition_cost,
    configs_share_vertex,
)
from repro.core.tsp import validate_tour


class TestTransitionCost:
    def test_identical_configs_cost_zero(self):
        assert config_transition_cost(("a", "b"), ("b", "a")) == 0

    def test_one_shared_vertex_costs_one(self):
        assert config_transition_cost(("a", "b"), ("b", "c")) == 1

    def test_disjoint_costs_two(self):
        assert config_transition_cost(("a", "b"), ("c", "d")) == 2

    def test_share_detection(self):
        assert configs_share_vertex(("a", "b"), ("b", "c"))
        assert not configs_share_vertex(("a", "b"), ("c", "d"))


class TestConstruction:
    def test_rejects_non_pairs(self):
        with pytest.raises(SchemeError):
            PebblingScheme([("a",)])

    def test_rejects_double_occupancy(self):
        with pytest.raises(SchemeError):
            PebblingScheme([("a", "a")])

    def test_from_edge_order_valid(self, path4):
        scheme = PebblingScheme.from_edge_order(path4, path4.edges())
        assert len(scheme) == 4

    def test_from_edge_order_rejects_non_edge(self, path4):
        with pytest.raises(SchemeError):
            PebblingScheme.from_edge_order(path4, [("u0", "v1")])

    def test_from_edge_order_rejects_repeat(self, path4):
        edges = path4.edges()
        with pytest.raises(SchemeError):
            PebblingScheme.from_edge_order(path4, edges + [edges[0]])

    def test_from_edge_order_rejects_missing(self, path4):
        with pytest.raises(SchemeError):
            PebblingScheme.from_edge_order(path4, path4.edges()[:-1])

    def test_from_edge_order_rejects_repeat_in_place_of_an_edge(self, path4):
        edges = path4.edges()
        with pytest.raises(SchemeError, match="listed twice"):
            PebblingScheme.from_edge_order(path4, edges[:-1] + [edges[0]])

    def test_from_edge_order_rejects_reversed_repeat(self, path4):
        edges = path4.edges()
        u, v = edges[0]
        with pytest.raises(SchemeError, match="listed twice"):
            PebblingScheme.from_edge_order(path4, edges[:-1] + [(v, u)])

    def test_from_edge_order_rejects_an_entry_that_is_not_a_pair(self, path4):
        first, *rest = path4.edges()
        for entry in (first[:1], first + ("extra",)):
            with pytest.raises(SchemeError):
                PebblingScheme.from_edge_order(path4, [entry] + rest)
            with pytest.raises(SchemeError):
                validate_tour(path4, [entry] + rest)

    def test_from_edge_order_takes_either_orientation_and_lists(self, path4):
        reversed_edges = [(v, u) for u, v in path4.edges()]
        scheme = PebblingScheme.from_edge_order(
            path4, [list(e) for e in reversed_edges]
        )
        assert scheme.configurations == tuple(reversed_edges)
        assert scheme == PebblingScheme(reversed_edges)
        assert scheme.cost() == PebblingScheme(reversed_edges).cost()


class TestCosts:
    def test_empty_scheme_costs_zero(self):
        assert PebblingScheme([]).cost() == 0

    def test_single_config_costs_two(self):
        assert PebblingScheme([("a", "b")]).cost() == 2

    def test_chain_cost_is_k_plus_one(self, path4):
        # Def 2.1: a scheme whose consecutive configs share a vertex over k
        # configurations costs k + 1.
        edges = path4.edges()
        # Order path edges along the path so consecutive edges share.
        ordered = sorted(edges, key=lambda e: (e[0], e[1]))
        scheme = PebblingScheme.from_edge_order(path4, _path_order(path4))
        assert scheme.cost() == len(edges) + 1

    def test_matching_costs_2m(self):
        # Lemma 2.4: a matching with m edges has pi_hat = 2m, pi = m.
        g = matching_graph(4)
        scheme = PebblingScheme.from_edge_order(g, g.edges())
        assert scheme.cost() == 8
        assert scheme.effective_cost(g) == 4

    def test_jumps_counted(self):
        g = matching_graph(3)
        scheme = PebblingScheme.from_edge_order(g, g.edges())
        assert scheme.jumps() == 2


def _path_order(path_graph_instance):
    """The edges of a path graph in path order."""
    g = path_graph_instance
    degree_one = [v for v in list(g.left) + list(g.right) if g.degree(v) == 1]
    current = degree_one[0]
    previous = None
    order = []
    while True:
        nexts = [n for n in g.neighbors(current) if n != previous]
        if not nexts:
            break
        order.append(g.orient_edge(current, nexts[0]))
        previous, current = current, nexts[0]
    return order


class TestValidity:
    def test_valid_scheme(self, k23):
        from repro.core.solvers.equijoin import biclique_tour

        scheme = PebblingScheme.from_edge_order(k23, biclique_tour(k23))
        scheme.validate(k23)
        assert scheme.is_valid(k23)

    def test_off_graph_configuration_rejected(self, path4):
        scheme = PebblingScheme([("ghost", "u0")])
        assert not scheme.is_valid(path4)

    def test_incomplete_scheme_rejected(self, path4):
        edges = path4.edges()
        scheme = PebblingScheme(edges[:-1])
        with pytest.raises(SchemeError):
            scheme.validate(path4)

    def test_transit_configurations_allowed_if_all_edges_covered(self, path4):
        # A scheme may wander through non-edge configurations; validity only
        # requires every edge to be deleted at some point.
        edges = _path_order(path4)
        with_transit = edges[:2] + [("u0", "v1")] + edges[2:]
        try:
            scheme = PebblingScheme(with_transit)
        except Exception:  # pragma: no cover
            pytest.fail("transit configurations should be constructible")
        if ("u0", "v1") not in [tuple(e) for e in path4.edges()]:
            scheme.validate(path4)

    def test_is_edge_order(self, path4):
        scheme = PebblingScheme.from_edge_order(path4, path4.edges())
        assert scheme.is_edge_order(path4)
        transit = PebblingScheme([("u0", "v1")] + list(path4.edges()))
        if not path4.has_edge("u0", "v1"):
            assert not transit.is_edge_order(path4)


class TestMoves:
    def test_moves_replay_to_same_cost(self, k23):
        from repro.core.game import PebbleGame
        from repro.core.solvers.equijoin import biclique_tour

        scheme = PebblingScheme.from_edge_order(k23, biclique_tour(k23))
        game = PebbleGame(k23)
        moves_used = game.replay(scheme)
        assert moves_used == scheme.cost()
        assert game.is_won()

    def test_moves_on_matching(self):
        from repro.core.game import PebbleGame

        g = matching_graph(3)
        scheme = PebblingScheme.from_edge_order(g, g.edges())
        game = PebbleGame(g)
        assert game.replay(scheme) == 6
        assert game.is_won()

    def test_empty_scheme_no_moves(self):
        assert PebblingScheme([]).moves() == []


class TestConcat:
    def test_concat_additivity_shape(self):
        g1 = complete_bipartite(2, 2)
        s1 = PebblingScheme.from_edge_order(
            g1, [("u0", "v0"), ("u0", "v1"), ("u1", "v1"), ("u1", "v0")]
        )
        s2 = PebblingScheme([("x", "y")])
        combined = s1.concat(s2)
        assert len(combined) == 5
        # Disjoint configs: the junction costs 2 extra moves.
        assert combined.cost() == s1.cost() + s2.cost()
