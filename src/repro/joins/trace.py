"""The trace bridge: join executions as pebbling schemes.

"For every pair of tuples (r, s) that joins, any join algorithm has to
consider this pair of tuples at some point of time in its execution and
produce a result tuple" (§2).  The *order* in which an algorithm emits its
result pairs therefore induces a pebbling scheme: configuration ``i`` puts
the pebbles on the ``i``-th emitted pair.  This module performs that
conversion and summarizes the resulting pebbling costs, which is how the
benchmarks compare real algorithms (sort-merge, hash join, plane sweep,
signature joins, …) inside the paper's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.errors import SchemeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import decompose
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.relations.relation import TupleRef, tuple_refs
from repro.core.costs import effective_cost_bounds
from repro.core.scheme import PebblingScheme

JoinOutput = list[tuple[TupleRef, TupleRef]]


def scheme_from_output(
    graph: BipartiteGraph, output: JoinOutput
) -> PebblingScheme:
    """Convert a join algorithm's emitted pair order into a scheme.

    The output must contain every join-graph edge exactly once (all join
    algorithms in :mod:`repro.joins.algorithms` satisfy this; a buggy one
    raises :class:`~repro.errors.SchemeError` here, which the failure-
    injection tests rely on).  The pairs are interned once into the
    scheme's edge table, in the orientation they were emitted in.
    """
    return PebblingScheme.from_edge_order(graph, output)


@dataclass(frozen=True)
class TraceReport:
    """Pebbling-cost accounting for one join execution."""

    algorithm: str
    output_size: int  # m: result tuples
    effective_cost: int  # π of the induced scheme
    raw_cost: int  # π̂
    jumps: int
    lower_bound: int  # m
    upper_bound: int  # sum of floor(1.25 m_c)

    @property
    def cost_ratio(self) -> float:
        """π / m: 1.0 means the execution pebbles perfectly."""
        if self.output_size == 0:
            return 1.0
        return self.effective_cost / self.output_size

    def row(self) -> tuple:
        return (
            self.algorithm,
            self.output_size,
            self.effective_cost,
            round(self.cost_ratio, 4),
            self.jumps,
        )


def trace_report(
    graph: BipartiteGraph, output: JoinOutput, algorithm: str
) -> TraceReport:
    """Build a :class:`TraceReport` for one execution's output order."""
    m = graph.num_edges
    if m == 0:
        if output:
            raise SchemeError("join emitted pairs but the join graph is empty")
        return TraceReport(algorithm, 0, 0, 0, 0, 0, 0)
    with obs_trace.span("joins.trace_report", algorithm=algorithm):
        scheme = scheme_from_output(graph, output)
        parts = decompose(graph)
        lower, upper = effective_cost_bounds(parts)
    if obs_recorder.ON:
        obs_metrics.inc("joins.trace_reports")
        obs_metrics.inc("joins.trace.jumps", scheme.jumps())
    raw_cost = scheme.cost()
    return TraceReport(
        algorithm=algorithm,
        output_size=m,
        effective_cost=raw_cost - parts.betti,
        raw_cost=raw_cost,
        jumps=scheme.jumps(),
        lower_bound=lower,
        upper_bound=upper,
    )


@dataclass(frozen=True)
class MultiwayTraceReport:
    """Pebbling-cost accounting for one *multiway* execution.

    A multiway output is a stream of full variable bindings, not tuple
    pairs, so the bridge first projects it onto two atoms: each binding
    maps to the (first) row of each atom matching it, giving a
    ``TupleRef``–``TupleRef`` pair.  Deduplicated keep-first, that pair
    stream is a join-output order over the bipartite graph it spans, and
    the binary pebbling machinery applies unchanged.  ``beta0`` is the
    Betti number of the projected graph — the paper's obstruction to
    perfect pebbling, reported here so multiway runs can be compared with
    the binary benchmarks on the same axis.
    """

    report: TraceReport
    beta0: int
    left_atom: str
    right_atom: str
    projected_pairs: int  # distinct pairs the bindings project to

    def as_dict(self) -> dict:
        return {
            "algorithm": self.report.algorithm,
            "left_atom": self.left_atom,
            "right_atom": self.right_atom,
            "projected_pairs": self.projected_pairs,
            "effective_cost": self.report.effective_cost,
            "cost_ratio": round(self.report.cost_ratio, 4),
            "jumps": self.report.jumps,
            "beta0": self.beta0,
            "lower_bound": self.report.lower_bound,
            "upper_bound": self.report.upper_bound,
        }


def multiway_trace_report(
    query,
    bindings,
    algorithm: str,
    atom_pair: tuple[int, int] = (0, 1),
) -> MultiwayTraceReport:
    """Project a multiway execution onto an atom pair and pebble it.

    ``query`` is a :class:`~repro.joins.multiway.query.MultiwayQuery`,
    ``bindings`` the emitted full bindings in execution order (canonical
    ``query.variables()`` column order).  ``atom_pair`` picks which two
    atoms the bindings are projected onto (default: the first two).
    """
    from repro.joins.multiway.query import row_projector

    left, right = (query.atoms[i] for i in atom_pair)
    if left.name == right.name:
        raise SchemeError("trace projection needs two distinct atoms")
    var_index = {v: i for i, v in enumerate(query.variables())}
    bindings = list(bindings)

    def refs_of(atom) -> list[TupleRef]:
        """Each binding's row of ``atom``, as the ref of the first row
        equal to it (keep-first)."""
        rows = list(map(tuple, atom.rows))
        refs = tuple_refs(atom.name, range(len(rows)))
        # Built back to front, so a row's first occurrence is written last.
        first = dict(zip(reversed(rows), reversed(refs)))
        project = row_projector([var_index[v] for v in atom.variables])
        return list(map(first.__getitem__, map(project, bindings)))

    pairs: JoinOutput = list(dict.fromkeys(zip(refs_of(left), refs_of(right))))
    graph = BipartiteGraph(
        left=dict.fromkeys(map(itemgetter(0), pairs)),
        right=dict.fromkeys(map(itemgetter(1), pairs)),
    )
    graph.add_edges(pairs)
    report = trace_report(graph, pairs, algorithm)
    return MultiwayTraceReport(
        report=report,
        # π = π̂ − β₀ (Def 2.2): the report's split already counted it.
        beta0=report.raw_cost - report.effective_cost,
        left_atom=left.name,
        right_atom=right.name,
        projected_pairs=len(pairs),
    )
