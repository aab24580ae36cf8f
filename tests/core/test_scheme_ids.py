"""Schemes held as edge ids agree with the label-based oracle.

The id scheme (an interned edge table plus the id of each configuration)
must give the configurations, π̂ and jumps that the label walk of
:mod:`tests.core.scheme_reference` gives, on solver output, equijoin
blocks and join traces, and every malformed order must be rejected by
both.  Id schemes must also survive every way a scheme leaves the
process: pickling into workers, the text format, the cache codec and
journal recovery.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import scheme_io
from repro.core.scheme import PebblingScheme
from repro.core.solvers.registry import solve
from repro.errors import PredicateError, SchemeError
from repro.graphs.bipartite import BipartiteGraph, from_edges
from repro.graphs.components import Decomposition, decompose
from repro.graphs.generators import (
    path_graph,
    random_bipartite_gnm,
    union_of_bicliques,
)
from repro.graphs.io import dump_bipartite, load_bipartite
from repro.graphs.simple import Graph
from repro.joins.algorithms import block_nested_loops
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Band, Equality
from repro.joins.trace import trace_report
from repro.parallel.cache import SolveCache, cache_token
from repro.parallel.fingerprint import canonical_form, decode_scheme, encode_scheme
from repro.parallel.service import solve_many
from repro.relations.relation import Relation
from repro.server.client import ServeClient
from repro.server.journal import RequestJournal
from repro.server.protocol import encode_request
from repro.server.server import SolveServer, serve_background
from tests.core import scheme_reference as reference

METHODS = ("auto", "dfs", "dfs+polish", "greedy", "greedy+polish")


def _agrees(graph, scheme: PebblingScheme, order) -> None:
    """The id scheme and the oracle on the same order agree."""
    configs = reference.edge_order(graph, order)
    assert scheme.configurations == configs
    assert (scheme.cost(), scheme.jumps()) == reference.counts(configs)
    assert len(scheme) == len(configs)


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(1, 6))
    n_right = draw(st.integers(1, 6))
    m = draw(st.integers(0, n_left * n_right))
    return random_bipartite_gnm(n_left, n_right, m, seed=draw(st.integers(0, 10**6)))


@st.composite
def plain_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=12,
        )
    )
    graph = Graph(vertices=range(n))
    for u, v in pairs:
        graph.add_edge(u, v)
    return graph


@settings(max_examples=120, deadline=None)
@given(st.one_of(bipartite_graphs(), plain_graphs()), st.sampled_from(METHODS))
def test_solver_schemes_match_the_label_walk(graph, method):
    scheme = solve(graph, method).scheme
    _agrees(graph, scheme, scheme.configurations)
    # The same order as label pairs, interned afresh.
    again = PebblingScheme.from_edge_order(graph, list(scheme.configurations))
    assert again == scheme
    assert (again.cost(), again.jumps()) == (scheme.cost(), scheme.jumps())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=6))
def test_equijoin_blocks_match_the_label_walk(sizes):
    graph = union_of_bicliques(sizes)
    scheme = solve(graph, "equijoin").scheme
    _agrees(graph, scheme, scheme.configurations)
    assert scheme.cost() - decompose(graph).betti == graph.num_edges


keys = st.lists(st.integers(0, 5), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(keys, keys, st.integers(0, 10**6))
def test_hinted_equijoins_and_traces_match_the_label_walk(left, right, seed):
    try:
        graph = build_join_graph(Relation("R", left), Relation("S", right), Equality())
    except PredicateError:
        assume(False)
    assert graph.biclique_blocks() is not None
    scheme = solve(graph, "auto").scheme
    _agrees(graph, scheme, scheme.configurations)
    # A join trace: the executor's pairs in some emission order.
    output = list(graph.edges())
    random.Random(seed).shuffle(output)
    traced = PebblingScheme.from_edge_order(graph, output)
    _agrees(graph, traced, output)
    report = trace_report(graph, output, "shuffled")
    assert (report.raw_cost, report.jumps) == reference.counts(tuple(output))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6).map(lambda k: k / 2), min_size=1, max_size=10),
    st.lists(st.integers(-6, 6), min_size=1, max_size=10),
)
def test_band_trace_matches_the_label_walk(left, right):
    relations = Relation("R", left), Relation("S", right)
    graph = build_join_graph(*relations, Band(1))
    output = block_nested_loops(*relations, Band(1))
    _agrees(graph, PebblingScheme.from_edge_order(graph, output), output)


def _malformed(graph: BipartiteGraph, seed: int):
    """Malformed orders of ``graph``'s edges, each with its defect."""
    rng = random.Random(seed)
    edges = list(graph.edges())
    rng.shuffle(edges)
    u, v = edges[0]
    non_edge = next(
        (a, b) for a in graph.left for b in graph.right if not graph.has_edge(a, b)
    )
    yield "non-edge", edges[1:] + [non_edge]
    yield "repeat", edges + [edges[-1]]
    yield "reversed repeat", edges + [(v, u)]
    yield "missing", edges[1:]
    yield "off-graph vertex", edges[1:] + [(u, "ghost")]
    yield "reversed off-graph", edges[1:] + [("ghost", v)]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10**6))
def test_malformed_orders_raise_from_both(n_left, n_right, seed):
    m = n_left * n_right - 1  # one non-edge to list
    graph = random_bipartite_gnm(n_left, n_right, m, seed=seed)
    for defect, order in _malformed(graph, seed):
        with pytest.raises(SchemeError):
            reference.edge_order(graph, order)
        with pytest.raises(SchemeError):
            PebblingScheme.from_edge_order(graph, order)


def test_malformed_id_orders_raise():
    graph = union_of_bicliques([(2, 2), (1, 3)])
    parts = decompose(graph)
    good = list(range(len(parts.table)))
    PebblingScheme.from_edge_order(parts, good)
    for bad in (
        good + [len(good)],  # past the table
        good[:-1] + [-1],  # negative
        good + [0],  # listed twice
        good[:-1] + [0],  # listed twice, count right
        good[1:],  # missing
    ):
        with pytest.raises(SchemeError):
            PebblingScheme.from_edge_order(parts, bad)
    # A block table short of the graph's edges, as from a wrong hint.
    blocks = tuple((tuple(c.left), tuple(c.right)) for c in parts.components)
    short = Decomposition(graph, blocks=blocks[:1])
    with pytest.raises(SchemeError):
        PebblingScheme.from_edge_order(short, range(len(short.table)))


def test_interned_table_is_the_graph_edge_set():
    for graph in (
        union_of_bicliques([(2, 3), (3, 1)]),
        random_bipartite_gnm(5, 5, 12, seed=2),
        path_graph(6),
    ):
        parts = decompose(graph)
        table = parts.table
        assert len(table) == graph.num_edges
        assert len(set(table.vertices)) == len(table.vertices)
        assert {frozenset(p) for p in table.pairs()} == {
            frozenset(e) for e in graph.edges()
        }
        assert sum(map(len, parts.tables)) == len(table)


# -- the scheme leaves the process ---------------------------------------


def _graphs():
    return [
        union_of_bicliques([(2, 3), (1, 1), (3, 2)]),
        random_bipartite_gnm(6, 6, 14, seed=5),
        path_graph(7),
    ]


def test_id_schemes_pickle():
    for graph in _graphs():
        result = solve(graph, "auto")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.scheme == result.scheme
        assert (clone.scheme.cost(), clone.scheme.jumps()) == (
            result.raw_cost,
            result.jumps,
        )


def test_id_schemes_cross_worker_processes():
    graphs = _graphs()
    inline = solve_many(graphs, jobs=1)
    pooled = solve_many(graphs, jobs=4)
    for a, b, graph in zip(inline, pooled, graphs):
        assert a.scheme == b.scheme
        assert (a.effective_cost, a.raw_cost, a.jumps) == (
            b.effective_cost,
            b.raw_cost,
            b.jumps,
        )
        assert a.effective_cost == solve(graph, "auto").effective_cost
        b.scheme.validate(graph)


# Two bicliques on names the text formats can carry.
NAMED = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "z"), ("d", "z")]


def test_id_schemes_through_the_text_format():
    graph = from_edges(NAMED)
    scheme = solve(graph, "auto").scheme
    loaded = scheme_io.load_scheme(scheme_io.dump_scheme(scheme))
    assert loaded.configurations == tuple(
        (str(a), str(b)) for a, b in scheme.configurations
    )
    assert (loaded.cost(), loaded.jumps()) == (scheme.cost(), scheme.jumps())


def test_id_schemes_through_the_cache_codec():
    for graph in _graphs():
        scheme = solve(graph, "auto").scheme
        form = canonical_form(graph)
        decoded = decode_scheme(encode_scheme(scheme, form), form)
        assert decoded == scheme
        assert (decoded.cost(), decoded.jumps()) == (scheme.cost(), scheme.jumps())
    with pytest.raises(SchemeError):
        decode_scheme([(0, 0)], form)
    with pytest.raises(SchemeError):
        decode_scheme([(0, len(form.vertices))], form)
    # A label-pair scheme's table holds every graph vertex; the cache form
    # leaves the isolated one out, and no configuration uses it.
    graph = from_edges(NAMED)
    graph.add_left_vertex("lonely")
    scheme = PebblingScheme.from_edge_order(graph, graph.edges())
    form = cache_token(graph, "auto", {}).form
    assert decode_scheme(encode_scheme(scheme, form), form) == scheme
    with pytest.raises(SchemeError):
        encode_scheme(scheme, canonical_form(from_edges(NAMED[:-1])))


def test_id_schemes_survive_journal_recovery(tmp_path):
    text = dump_bipartite(from_edges(NAMED))
    graph = load_bipartite(text)
    journal_dir = tmp_path / "journal"
    with RequestJournal(journal_dir) as journal:
        journal.record_admitted(encode_request("r1", "solve", text).strip())
    server = SolveServer(
        unix_path=tmp_path / "serve.sock",
        jobs=1,
        journal_dir=journal_dir,
        recover=True,
        cache=SolveCache(),
    )
    local = solve(graph, "auto")
    with serve_background(server) as live:
        with ServeClient(unix_path=live.address) as client:
            assert client.stats()["result"]["recovered_total"] == 1
            answer = client.solve(text)["result"]
    # The replay warmed the cache: the retry is decoded from it.
    assert answer["cached_components"] == 2
    assert answer["effective_cost"] == local.effective_cost
    assert answer["scheme"] == [
        [str(a), str(b)] for a, b in local.scheme.configurations
    ]
