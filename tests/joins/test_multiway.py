"""Units for the worst-case-optimal multiway join package."""

from fractions import Fraction

import pytest

from repro.errors import BudgetExhaustedError, PredicateError
from repro.joins.multiway import (
    Atom,
    MultiwayQuery,
    TrieIterator,
    TrieRelation,
    agm_bound,
    binary_cascade,
    choose_variable_order,
    estimate_cascade,
    fractional_edge_cover,
    generic_join,
    leapfrog_triejoin,
    naive_multiway,
)
from repro.graphs.components import betti_number
from repro.joins import trace as trace_module
from repro.joins.trace import multiway_trace_report
from repro.runtime.budget import Budget


def triangle(R, S, T) -> MultiwayQuery:
    return MultiwayQuery(
        atoms=(
            Atom("R", ("a", "b"), tuple(R)),
            Atom("S", ("b", "c"), tuple(S)),
            Atom("T", ("c", "a"), tuple(T)),
        )
    )


def star_costar(k: int) -> tuple[tuple[int, int], ...]:
    """The AGM-tight rows: a star out of hub 0 plus a co-star into it."""
    return tuple((0, i) for i in range(k + 1)) + tuple(
        (i, 0) for i in range(1, k + 1)
    )


TINY = triangle(
    [(1, 2), (1, 3), (2, 3)],
    [(2, 3), (3, 1), (3, 4)],
    [(3, 1), (1, 2), (4, 1)],
)
TINY_OUTPUT = {(1, 2, 3), (1, 3, 4), (2, 3, 1)}


class TestQueryModel:
    def test_variables_first_appearance_order(self):
        assert TINY.variables() == ("a", "b", "c")

    def test_describe(self):
        assert "R(a, b)" in TINY.describe() and "⋈" in TINY.describe()

    def test_atom_rejects_repeated_variable(self):
        with pytest.raises(PredicateError):
            Atom("R", ("a", "a"), ())

    def test_atom_rejects_arity_mismatch(self):
        with pytest.raises(PredicateError):
            Atom("R", ("a", "b"), ((1,),))

    def test_query_rejects_duplicate_atom_names(self):
        with pytest.raises(PredicateError):
            MultiwayQuery(
                atoms=(Atom("R", ("a",), ()), Atom("R", ("b",), ()))
            )

    def test_validate_order_rejects_non_permutation(self):
        with pytest.raises(PredicateError):
            TINY.validate_order(("a", "b"))

    def test_choose_order_prefers_shared_variables(self):
        q = MultiwayQuery(
            atoms=(
                Atom("R", ("a", "b"), ()),
                Atom("S", ("b", "c"), ()),
                Atom("T", ("b", "d"), ()),
            )
        )
        assert choose_variable_order(q)[0] == "b"


class TestTrie:
    def test_rows_sorted_and_deduped_under_order(self):
        atom = Atom("R", ("a", "b"), ((2, 1), (1, 2), (2, 1)))
        trie = TrieRelation(atom, ("b", "a"))
        assert trie.rows == [(1, 2), (2, 1)]
        assert trie.depth_vars == ("b", "a")

    def test_iterator_walks_keys_in_order(self):
        atom = Atom("R", ("a", "b"), ((1, 10), (1, 20), (3, 30)))
        it = TrieIterator(TrieRelation(atom, ("a", "b")))
        it.open()
        assert it.key() == 1
        it.next()
        assert it.key() == 3
        it.next()
        assert it.at_end

    def test_iterator_seek_lands_on_least_geq(self):
        atom = Atom("R", ("a",), ((1,), (4,), (9,)))
        it = TrieIterator(TrieRelation(atom, ("a",)))
        it.open()
        it.seek(5)
        assert it.key() == 9
        it.seek(10)
        assert it.at_end

    def test_iterator_open_up_restores_position(self):
        atom = Atom("R", ("a", "b"), ((1, 10), (2, 20)))
        it = TrieIterator(TrieRelation(atom, ("a", "b")))
        it.open()
        it.open()
        assert it.key() == 10
        it.up()
        assert it.key() == 1


class TestAlgorithms:
    @pytest.mark.parametrize(
        "algo", [leapfrog_triejoin, generic_join, binary_cascade]
    )
    def test_tiny_triangle(self, algo):
        assert algo(TINY).binding_set() == TINY_OUTPUT

    def test_lftj_respects_explicit_order(self):
        result = leapfrog_triejoin(TINY, order=("c", "a", "b"))
        assert result.order == ("c", "a", "b")
        # Bindings still come out in canonical (a, b, c) column order.
        assert result.binding_set() == TINY_OUTPUT

    def test_empty_atom_empty_output(self):
        q = triangle([], [(1, 2)], [(2, 1)])
        for algo in (leapfrog_triejoin, generic_join, binary_cascade):
            assert algo(q).output_size == 0

    def test_duplicate_rows_collapse(self):
        q = triangle(
            [(1, 2), (1, 2)], [(2, 3), (2, 3)], [(3, 1), (3, 1)]
        )
        for algo in (leapfrog_triejoin, generic_join, binary_cascade):
            result = algo(q)
            assert result.bindings == [(1, 2, 3)]

    def test_cascade_counts_non_final_stages(self):
        q = triangle(star_costar(10), star_costar(10), star_costar(10))
        result = binary_cascade(q)
        assert len(result.stage_sizes) == 2
        assert result.intermediates == result.stage_sizes[0]

    def test_cascade_estimate_is_exact_on_first_stage(self):
        q = triangle(star_costar(10), star_costar(10), star_costar(10))
        assert estimate_cascade(q)[0] == binary_cascade(q).stage_sizes[0]

    def test_budget_trips_on_blowup(self):
        rows = star_costar(200)
        q = triangle(rows, rows, rows)
        with pytest.raises(BudgetExhaustedError):
            binary_cascade(q, budget=Budget(node_budget=500).start())
        with pytest.raises(BudgetExhaustedError):
            leapfrog_triejoin(q, budget=Budget(node_budget=300).start())


class TestBounds:
    def test_triangle_cover_is_half_each(self):
        rows = star_costar(8)
        q = triangle(rows, rows, rows)
        cover = fractional_edge_cover(q)
        assert cover == {
            "R": Fraction(1, 2),
            "S": Fraction(1, 2),
            "T": Fraction(1, 2),
        }

    def test_triangle_bound_is_n_to_three_halves(self):
        rows = star_costar(8)  # 17 distinct rows per atom
        q = triangle(rows, rows, rows)
        assert agm_bound(q) == pytest.approx(17**1.5)

    def test_acyclic_path_bound_uses_integral_cover(self):
        q = MultiwayQuery(
            atoms=(
                Atom("R", ("a", "b"), tuple((i, i) for i in range(5))),
                Atom("S", ("b", "c"), tuple((i, i) for i in range(7))),
            )
        )
        cover = fractional_edge_cover(q)
        # a forces w_R = 1, c forces w_S = 1; bound = |R| * |S|.
        assert cover == {"R": Fraction(1), "S": Fraction(1)}
        assert agm_bound(q) == pytest.approx(35.0)

    def test_empty_atom_bound_is_zero(self):
        assert agm_bound(triangle([], [(1, 2)], [(2, 1)])) == 0.0

    def test_agm_is_a_true_output_bound(self):
        rows = star_costar(12)
        q = triangle(rows, rows, rows)
        assert leapfrog_triejoin(q).output_size <= agm_bound(q)


class TestSeparation:
    """The reason this package exists: the star + co-star triangle."""

    def test_lftj_within_agm_while_cascade_exceeds_it(self):
        rows = star_costar(40)
        q = triangle(rows, rows, rows)
        agm = agm_bound(q)
        lftj = leapfrog_triejoin(q)
        cascade = binary_cascade(q)
        assert lftj.binding_set() == cascade.binding_set()
        assert lftj.intermediates <= agm
        assert cascade.intermediates > agm


class TestTraceBridge:
    def test_projection_counts_and_beta0(self):
        result = leapfrog_triejoin(TINY)
        report = multiway_trace_report(TINY, result.bindings, "lftj")
        assert report.left_atom == "R" and report.right_atom == "S"
        assert report.projected_pairs == len(TINY_OUTPUT)
        assert report.beta0 >= 0
        assert report.report.cost_ratio >= 1.0

    def test_explicit_atom_pair(self):
        result = leapfrog_triejoin(TINY)
        report = multiway_trace_report(
            TINY, result.bindings, "lftj", atom_pair=(1, 2)
        )
        assert (report.left_atom, report.right_atom) == ("S", "T")

    @pytest.mark.parametrize(
        "query",
        [
            TINY,
            triangle([(1, 2), (3, 4), (5, 6)], [(2, 7), (4, 7), (6, 8)], [(7, 1), (7, 3), (8, 5)]),
            triangle([], [(1, 2)], [(2, 1)]),
        ],
        ids=["tiny", "two-components", "empty"],
    )
    def test_beta0_is_the_projected_graphs_betti_number(self, query, monkeypatch):
        # beta0 is read off the report (raw − effective cost); a second
        # split of the projected graph must count the same components.
        projected = []
        original = trace_module.trace_report

        def capture(graph, pairs, algorithm):
            projected.append(graph)
            return original(graph, pairs, algorithm)

        monkeypatch.setattr(trace_module, "trace_report", capture)
        result = leapfrog_triejoin(query)
        report = multiway_trace_report(query, result.bindings, "lftj")
        (graph,) = projected
        assert report.beta0 == betti_number(graph)

    def test_empty_output_reports_cleanly(self):
        q = triangle([], [(1, 2)], [(2, 1)])
        report = multiway_trace_report(q, [], "lftj")
        assert report.projected_pairs == 0
        assert report.report.effective_cost == 0

    def test_as_dict_is_json_shaped(self):
        import json

        result = generic_join(TINY)
        report = multiway_trace_report(TINY, result.bindings, "generic")
        json.dumps(report.as_dict())
