"""Fuzz and mutation tests: validators must catch corrupted artifacts, and
independent implementations must agree under random inputs.

These are the failure-injection counterpart to the happy-path suite: every
assertion here is about *rejecting* bad data or about two engines whose
disagreement would indicate a bug in at least one.
"""

import random

import pytest

from repro.errors import SchemeError
from repro.graphs.generators import random_bipartite_gnm
from repro.core.scheme import PebblingScheme
from repro.core.solvers.exact import solve_exact
from repro.core.solvers.held_karp import held_karp_effective_cost
from repro.core.solvers.registry import METHODS, solve


def _instances(count=8, seed_base=0):
    out = []
    for seed in range(count):
        g = random_bipartite_gnm(4, 4, 8, seed=seed_base + seed).without_isolated_vertices()
        if g.num_edges >= 2:
            out.append(g)
    return out


class TestSchemeMutationRejection:
    """Random corruptions of optimal schemes must fail validation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dropping_a_configuration_invalidates(self, seed):
        rng = random.Random(seed)
        for g in _instances(3, seed_base=seed * 10):
            scheme = solve_exact(g).scheme
            configs = list(scheme.configurations)
            del configs[rng.randrange(len(configs))]
            mutated = PebblingScheme(configs)
            assert not mutated.is_valid(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_rerouting_a_configuration_off_edge_invalidates(self, seed):
        rng = random.Random(100 + seed)
        for g in _instances(3, seed_base=seed * 7):
            scheme = solve_exact(g).scheme
            configs = list(scheme.configurations)
            index = rng.randrange(len(configs))
            # Replace with a same-side pair (never an edge).
            lefts = g.left
            if len(lefts) < 2:
                continue
            configs[index] = (lefts[0], lefts[1])
            mutated = PebblingScheme(configs)
            assert not mutated.is_valid(g)

    def test_duplicate_edge_rejected_by_canonical_constructor(self):
        g = _instances(1)[0]
        edges = g.edges()
        with pytest.raises(SchemeError):
            PebblingScheme.from_edge_order(g, edges + [edges[0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_swapping_vertices_across_graphs_invalidates(self, seed):
        g1 = random_bipartite_gnm(3, 3, 5, seed=seed).without_isolated_vertices()
        g2 = random_bipartite_gnm(3, 3, 5, seed=seed + 50).without_isolated_vertices()
        if g1.num_edges == 0 or g2.num_edges == 0 or g1 == g2:
            return
        scheme1 = solve_exact(g1).scheme
        # A scheme for g1 validates against g2 only if edge sets coincide.
        same_edges = set(map(frozenset, g1.edges())) == set(map(frozenset, g2.edges()))
        assert scheme1.is_valid(g2) == same_edges


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_engines_agree(self, seed):
        g = random_bipartite_gnm(4, 4, 9, seed=300 + seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        assert solve_exact(g).effective_cost == held_karp_effective_cost(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_heuristic_beats_exact(self, seed):
        g = random_bipartite_gnm(4, 4, 9, seed=400 + seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        optimum = solve_exact(g).effective_cost
        for method in METHODS:
            if method in ("auto", "exact", "equijoin"):
                continue
            result = solve(g, method)
            assert result.effective_cost >= optimum, method
            result.scheme.validate(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_solvers_agree_on_edge_multiset(self, seed):
        g = random_bipartite_gnm(4, 4, 9, seed=500 + seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        expected = sorted(map(repr, (frozenset(e) for e in g.edges())))
        for method in ("exact", "dfs", "greedy", "matching"):
            scheme = solve(g, method).scheme
            got = sorted(map(repr, (frozenset(c) for c in scheme.configurations)))
            assert got == expected, method


class TestGameFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_play_never_overcounts_deletions(self, seed):
        from repro.core.game import PebbleGame

        rng = random.Random(seed)
        g = random_bipartite_gnm(4, 4, 10, seed=seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        game = PebbleGame(g)
        vertices = list(g.left) + list(g.right)
        deletions = 0
        for _move in range(60):
            pebble = rng.randrange(2)
            destination = rng.choice(vertices)
            if destination == game.positions[1 - pebble]:
                continue
            if game.move(pebble, destination) is not None:
                deletions += 1
            if game.is_won():
                break
        assert deletions == g.num_edges - game.remaining_edges
        assert deletions <= g.num_edges
