"""Differential tests: one decomposition per solve returns exactly what the
split-per-solver path returns (``tests/core/split_reference.py``), on every
method, with and without a deadline, through ``solve``, ``solve_many``
(jobs 1 and 2) and the server's inline dispatcher; each ``solve()``
splits its graph once and copies it never; and each batch component is
fingerprinted once, cache miss or hit."""

import asyncio
import contextlib
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.families import worst_case_family
from repro.core.scheme import PebblingScheme
from repro.core.solvers import registry
from repro.core.solvers.registry import METHODS, solve
from repro.graphs import bipartite, components, simple
from repro.graphs.components import disjoint_union_many
from repro.graphs.generators import (
    random_bipartite_gnm,
    random_connected_bipartite,
    random_tsp12_graph,
    union_of_bicliques,
)
from repro.graphs.io import dump_bipartite
from repro.parallel.cache import SolveCache
from repro.parallel.fingerprint import canonical_form
from repro.parallel.pool import WorkerPool
from repro.parallel.service import solve_many
from repro.runtime.clock import FakeClock
from repro.server.dispatch import Dispatcher
from repro.server.protocol import OP_SOLVE, Request
from tests.core import split_reference as reference

SETTINGS = settings(max_examples=60, deadline=None)


def _with_isolated(graph, count: int):
    for i in range(count):
        (graph.add_left_vertex if i % 2 else graph.add_right_vertex)(f"iso{i}")
    return graph


@st.composite
def graphs(draw):
    """Bipartite graphs with isolated vertices, unions of bicliques, the
    worst-case family, disjoint unions and plain graphs."""
    kind = draw(
        st.sampled_from(["isolated", "bicliques", "family", "union", "plain"])
    )
    seed = draw(st.integers(0, 2**16))
    if kind == "isolated":
        left, right = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        m = draw(st.integers(0, min(12, left * right)))
        graph = random_bipartite_gnm(left, right, m, seed=seed)
        return _with_isolated(graph, draw(st.integers(0, 3)))
    if kind == "bicliques":
        sizes = draw(
            st.lists(
                st.tuples(st.integers(1, 3), st.integers(1, 3)),
                min_size=1,
                max_size=4,
            )
        )
        return union_of_bicliques(sizes)
    if kind == "family":
        return worst_case_family(draw(st.integers(1, 10)))
    if kind == "union":
        parts = [
            random_connected_bipartite(
                draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                draw(st.integers(0, 4)), seed=seed + i,
            )
            for i in range(draw(st.integers(1, 3)))
        ]
        return disjoint_union_many(parts)
    graph = random_tsp12_graph(
        draw(st.integers(2, 12)), draw(st.integers(1, 3)), seed=seed
    )
    # String labels, inserted out of label order: components and their
    # vertices must still follow insertion order, not set order.
    return graph.relabeled({v: f"n{(7 * i) % 97}" for i, v in enumerate(graph)})


def _answer(result) -> tuple:
    return (
        result.method,
        result.effective_cost,
        result.raw_cost,
        result.jumps,
        result.status,
        result.optimal,
        result.provenance,
        result.scheme.configurations,
    )


def _outcome(fn):
    try:
        return _answer(fn())
    except Exception as exc:  # noqa: BLE001 - both paths must fail alike
        return type(exc)


# Frozen clocks make the deadline paths deterministic: a generous deadline
# never trips (elapsed stays 0), an expired one trips at the first poll.
DEADLINES = {
    "none": lambda: {},
    "generous": lambda: {"deadline": 60.0, "clock": FakeClock()},
    "expired": lambda: {"deadline": 0.0, "clock": FakeClock()},
}


@SETTINGS
@given(graph=graphs())
def test_solve_matches_split_reference(graph):
    for method in METHODS:
        for budget in DEADLINES.values():
            expected = _outcome(
                lambda: reference.solve(graph, method, **budget())
            )
            actual = _outcome(lambda: solve(graph, method, **budget()))
            assert actual == expected, method


@settings(max_examples=15, deadline=None)
@given(batch=st.lists(graphs(), min_size=1, max_size=3))
def test_solve_many_matches_split_reference(batch):
    for method in ("auto", "dfs+polish", "greedy"):
        expected = [_answer(r) for r in reference.solve_many(batch, method)]
        assert [_answer(r) for r in solve_many(batch, method, jobs=1)] == expected


def test_solve_many_two_jobs_matches_split_reference():
    batch = [
        _with_isolated(random_bipartite_gnm(6, 6, 14, seed=3), 2),
        union_of_bicliques([(2, 3), (3, 2), (1, 1)]),
        worst_case_family(7),
        disjoint_union_many(
            [random_connected_bipartite(4, 5, 6, seed=s) for s in range(3)]
        ),
    ]
    for method in ("auto", "dfs+polish", "greedy+polish"):
        expected = [_answer(r) for r in reference.solve_many(batch, method)]
        assert [_answer(r) for r in solve_many(batch, method, jobs=2)] == expected


@settings(max_examples=15, deadline=None)
@given(graph=graphs().filter(lambda g: isinstance(g, bipartite.BipartiteGraph)))
def test_inline_dispatcher_matches_split_reference(graph):
    from repro.graphs.io import load_bipartite

    text = dump_bipartite(graph.relabeled({v: f"x{i}" for i, v in enumerate(graph)}))
    for method in ("auto", "dfs+polish", "greedy+polish"):
        request = Request(id="r", op=OP_SOLVE, graph_text=text, method=method)
        served = asyncio.run(Dispatcher().handle(request))
        (expected,) = reference.solve_many([load_bipartite(text)], method)
        assert (
            served["method"],
            served["effective_cost"],
            served["raw_cost"],
            served["jumps"],
            served["status"],
            served["optimal"],
            served["scheme"],
        ) == (
            expected.method,
            expected.effective_cost,
            expected.raw_cost,
            expected.jumps,
            expected.status,
            expected.optimal,
            [[str(a), str(b)] for a, b in expected.scheme.configurations],
        )


# -- one split per solve ------------------------------------------------------


def _counted(run) -> tuple[int, int]:
    """``(component splits, isolated-vertex copies)`` made by ``run()``."""
    splits = mock.patch.object(
        components,
        "component_vertex_sets",
        side_effect=components.component_vertex_sets,
    )
    copies = [
        mock.patch.object(
            cls,
            "without_isolated_vertices",
            autospec=True,
            side_effect=cls.without_isolated_vertices,
        )
        for cls in (bipartite.BipartiteGraph, simple.Graph)
    ]
    with splits as split_calls, copies[0] as bip_copies, copies[1] as plain_copies:
        run()
    return split_calls.call_count, bip_copies.call_count + plain_copies.call_count


COUNTED_GRAPHS = {
    "bicliques": lambda: union_of_bicliques([(2, 3)] * 4),
    "family": lambda: worst_case_family(6),
    "large": lambda: _with_isolated(random_connected_bipartite(8, 8, 14, seed=2), 3),
    "plain": lambda: random_tsp12_graph(10, 3, seed=4),
}


@pytest.mark.parametrize("shape", sorted(COUNTED_GRAPHS))
@pytest.mark.parametrize("budget", sorted(DEADLINES))
@pytest.mark.parametrize("method", METHODS)
def test_each_solve_splits_once_and_never_copies(method, budget, shape):
    graph = COUNTED_GRAPHS[shape]()
    options = DEADLINES[budget]()
    splits, copies = _counted(lambda: _outcome(lambda: solve(graph, method, **options)))
    assert (splits, copies) == (1, 0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_solve_many_splits_each_graph_once(jobs):
    batch = [COUNTED_GRAPHS[name]() for name in ("bicliques", "family", "large")]
    splits, copies = _counted(lambda: solve_many(batch, "auto", jobs=jobs))
    # Each task ships one component already split in this process, so a
    # worker's solve splits nothing either (decompose passes it through).
    assert (splits, copies) == (len(batch), 0)


def test_inline_dispatcher_splits_the_request_graph_once():
    text = dump_bipartite(COUNTED_GRAPHS["large"]())
    request = Request(id="r", op=OP_SOLVE, graph_text=text, method="auto")
    splits, copies = _counted(lambda: asyncio.run(Dispatcher().handle(request)))
    assert (splits, copies) == (1, 0)


def test_registry_solve_uses_the_traced_split():
    """The split runs through the module global perfbench's tracer wraps."""
    assert registry.component_vertex_sets is components.component_vertex_sets


# -- one scheme per solve -------------------------------------------------------


def _built(run) -> tuple[int, int]:
    """``(schemes built from an edge order, bipartite edges re-oriented)``
    by ``run()``."""
    builds = mock.patch.object(
        PebblingScheme,
        "from_edge_order",
        side_effect=PebblingScheme.from_edge_order,
    )
    orients = mock.patch.object(
        bipartite.BipartiteGraph,
        "orient_edge",
        autospec=True,
        side_effect=bipartite.BipartiteGraph.orient_edge,
    )
    with builds as build_calls, orients as orient_calls:
        run()
    return build_calls.call_count, orient_calls.call_count


@pytest.mark.parametrize("shape", sorted(COUNTED_GRAPHS))
@pytest.mark.parametrize("budget", sorted(DEADLINES))
@pytest.mark.parametrize("method", METHODS)
def test_each_solve_builds_and_validates_one_scheme(method, budget, shape):
    """The component tours flow from construction through polish as
    tours; only the registry turns them into a scheme, once, and nothing
    splits a scheme back into tours."""
    graph = COUNTED_GRAPHS[shape]()
    options = DEADLINES[budget]()
    outcomes = []
    builds, orients = _built(
        lambda: outcomes.append(_outcome(lambda: solve(graph, method, **options)))
    )
    solved = isinstance(outcomes[0], tuple)
    assert builds == (1 if solved else 0)
    if method not in ("exact", "equijoin"):
        assert solved
        assert orients == 0


# -- one fingerprint per component ---------------------------------------------


def _fingerprinted(run) -> tuple[int, int]:
    """``(canonical forms computed, isolated-vertex copies)`` made by
    ``run()``, wherever a ``repro`` module imported ``canonical_form``."""
    forms = mock.Mock(side_effect=canonical_form)
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                module, "canonical_form", None
            ) is canonical_form:
                stack.enter_context(mock.patch.object(module, "canonical_form", forms))
        _splits, copies = _counted(run)
    return forms.call_count, copies


def _repeating_batch():
    """Three graphs, five components, three structures: repeats inside a
    graph and across graphs."""
    return [
        disjoint_union_many([worst_case_family(2), worst_case_family(3)]),
        disjoint_union_many([worst_case_family(2), worst_case_family(2)]),
        random_connected_bipartite(4, 4, 9, seed=11),
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_solve_many_fingerprints_each_component_once(jobs):
    batch = _repeating_batch()
    cache = SolveCache()
    for _round in ("cold miss", "warm hit"):
        counts = _fingerprinted(lambda: solve_many(batch, jobs=jobs, cache=cache))
        assert counts == (5, 0), _round
    assert cache.stats.as_dict() == {
        "memory_hits": 3, "persistent_hits": 0, "misses": 3, "stores": 3,
    }


@pytest.mark.parametrize("pooled", [False, True])
def test_dispatcher_fingerprints_each_component_once(pooled):
    graph = disjoint_union_many([worst_case_family(2)] * 2 + [worst_case_family(3)])
    # Zero-padded labels keep both copies' canonical vertex order alike.
    text = dump_bipartite(graph.relabeled({v: f"x{i:03d}" for i, v in enumerate(graph)}))
    request = Request(id="r", op=OP_SOLVE, graph_text=text, method="auto")
    cache = SolveCache()
    with WorkerPool(2) as pool:
        dispatcher = Dispatcher(cache=cache, pool=pool if pooled else None)
        for _round in ("cold miss", "warm hit"):
            counts = _fingerprinted(lambda: asyncio.run(dispatcher.handle(request)))
            assert counts == (3, 0), _round
    assert (cache.stats.misses, cache.stats.hits) == (2, 2)
